"""Completeness properties: Theorem 3.3 against the RCN oracle.

On acyclic random environments (finitely many inhabitants) the production
synthesizer, run to exhaustion, must produce *exactly* the set of long-
normal-form terms the Fig. 4 oracle reconstructs — up to alpha-equivalence.
"""

from hypothesis import given, settings

from repro.core.config import SynthesisConfig
from repro.core.synthesizer import Synthesizer
from repro.core.terms import canonicalize_lnf, lnf_depth
from repro.core.types import base
from tests.core.oracle import rcn
from tests.helpers import acyclic_environments, environment_and_goal

EXHAUSTIVE = SynthesisConfig(max_snippets=4000, prover_time_limit=None,
                             reconstruction_time_limit=5.0,
                             max_reconstruction_steps=100_000)

DEPTH = 3


def _synthesized_up_to_depth(environment, goal, depth):
    result = Synthesizer(environment, config=EXHAUSTIVE).synthesize(goal)
    assert not result.reconstruction_truncated, \
        "acyclic environment should enumerate exhaustively"
    return {canonicalize_lnf(s.term) for s in result.snippets
            if lnf_depth(s.term) <= depth}


@settings(max_examples=50, deadline=None)
@given(environment_and_goal(acyclic=True))
def test_synthesizer_matches_rcn_oracle(env_goal):
    environment, goal = env_goal
    oracle = rcn(environment, goal, DEPTH)
    produced = _synthesized_up_to_depth(environment, goal, DEPTH)
    assert produced == oracle


@settings(max_examples=30, deadline=None)
@given(acyclic_environments())
def test_every_oracle_term_is_found_for_function_goals(environment):
    goal = base("L2")
    from repro.core.types import arrow

    function_goal = arrow(base("L0"), goal)
    oracle = rcn(environment, function_goal, DEPTH)
    produced = _synthesized_up_to_depth(environment, function_goal, DEPTH)
    assert produced == oracle


@settings(max_examples=30, deadline=None)
@given(environment_and_goal(acyclic=True))
def test_rcn_monotone_in_depth(env_goal):
    environment, goal = env_goal
    shallower = rcn(environment, goal, 2)
    deeper = rcn(environment, goal, 3)
    assert shallower <= deeper


@settings(max_examples=30, deadline=None)
@given(environment_and_goal(acyclic=True))
def test_prover_decision_matches_oracle_nonemptiness(env_goal):
    environment, goal = env_goal
    # If RCN finds a term at any small depth, the prover must say inhabited;
    # conversely for acyclic environments depth 5 is exhaustive for
    # *existence* (terms strictly descend the 5 strata).
    oracle_terms = rcn(environment, goal, 5)
    decided = Synthesizer(environment, config=EXHAUSTIVE).is_inhabited(goal)
    assert decided == bool(oracle_terms)
