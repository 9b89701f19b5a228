"""Packed/reference parity: the packed frontier equals the Fig. 10 walk.

The production :class:`~repro.core.reconstruct.Reconstructor` runs
GenerateT over a packed spine frontier with int-keyed memo tables;
``ReferenceReconstructor`` in ``tests/core/oracle.py`` is the whole-tree
transcription of Fig. 10.  These properties assert the two
produce *byte-identical* output on random scenes — terms (binder names
included, so the fresh-name supplies must be consumed in lockstep),
weights, emission order, ranks through the full
:class:`~repro.core.synthesizer.Synthesizer` pipeline, stats and
truncation behavior — mirroring ``tests/properties/test_arena_parity.py``
for the prover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore
from repro.core.generate_patterns import generate_patterns
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.succinct import sigma
from repro.core.weights import WeightPolicy
from tests.core.oracle import ReferenceReconstructor, reconstruct_reference
from tests.helpers import environment_and_goal

POLICIES = {
    "full": WeightPolicy.standard,
    "no_corpus": WeightPolicy.without_corpus,
    "no_weights": WeightPolicy.uniform_policy,
}


@st.composite
def reconstruction_cases(draw):
    """A random scene: environment, goal, expansion budget, policy."""
    environment, goal = draw(environment_and_goal())
    # Always bounded: random environments admit infinitely many
    # inhabitants, so an unbudgeted enumeration need not terminate.
    max_steps = draw(st.sampled_from([1, 3, 10, 50, 400]))
    policy = POLICIES[draw(st.sampled_from(sorted(POLICIES)))]()
    return environment, goal, max_steps, policy


def _patterns(environment, goal):
    space = explore(environment.succinct_environment(), sigma(goal))
    return generate_patterns(space)


def _run_both(environment, goal, max_steps, policy, limit=None):
    patterns = _patterns(environment, goal)
    packed = Reconstructor(patterns, environment, policy,
                           max_steps=max_steps)
    reference = ReferenceReconstructor(patterns, environment, policy,
                                       max_steps=max_steps)
    packed_out, reference_out = [], []
    for out, reconstructor in ((packed_out, packed),
                               (reference_out, reference)):
        for snippet in reconstructor.enumerate(goal):
            out.append(snippet)
            if limit is not None and len(out) >= limit:
                break
    return packed, packed_out, reference, reference_out


def _assert_identical(packed_out, reference_out):
    assert len(packed_out) == len(reference_out)
    for ours, theirs in zip(packed_out, reference_out):
        # Structural equality covers heads, arguments AND the fresh
        # binder names both sides drew from their supplies.
        assert ours.term == theirs.term
        assert ours.weight == theirs.weight
        assert ours.order == theirs.order


@settings(max_examples=60, deadline=None)
@given(reconstruction_cases())
def test_enumeration_matches_reference(case):
    """Terms, weights, emission order and stats agree, truncation included.

    ``max_steps`` budgets make truncated runs deterministic (a wall-clock
    limit would not be), so the truncated flag must agree exactly too.
    """
    environment, goal, max_steps, policy = case
    packed, packed_out, reference, reference_out = _run_both(
        environment, goal, max_steps, policy)
    _assert_identical(packed_out, reference_out)
    assert packed.stats.expansions == reference.stats.expansions
    assert packed.stats.enqueued == reference.stats.enqueued
    assert packed.stats.emitted == reference.stats.emitted
    assert packed.stats.truncated == reference.stats.truncated


@settings(max_examples=40, deadline=None)
@given(reconstruction_cases())
def test_early_stop_prefixes_match(case):
    """Stopping after N snippets (the serving path) yields the same prefix."""
    environment, goal, max_steps, policy = case
    _, packed_out, _, reference_out = _run_both(
        environment, goal, max_steps, policy, limit=5)
    _assert_identical(packed_out, reference_out)


@settings(max_examples=40, deadline=None)
@given(reconstruction_cases())
def test_max_term_size_matches(case):
    """The size cap prunes identically (incremental vs recounted sizes)."""
    environment, goal, max_steps, policy = case
    patterns = _patterns(environment, goal)
    for size_cap in (1, 3, 7):
        packed_out = reconstruct(patterns, environment, goal, policy,
                                 max_steps=max_steps,
                                 max_term_size=size_cap)
        reference_out = reconstruct_reference(
            patterns, environment, goal, policy, max_steps=max_steps,
            max_term_size=size_cap)
        _assert_identical(packed_out, reference_out)


@settings(max_examples=25, deadline=None)
@given(environment_and_goal())
def test_full_pipeline_ranks_match(env_goal):
    """Through Synthesizer.synthesize: ranks, rendered code, timings' shape.

    Coercion erasure and dedup run downstream of reconstruction, so
    identical raw emission must give identical visible rankings.
    """
    from repro.core.config import SynthesisConfig
    from repro.core.synthesizer import Synthesizer
    import repro.core.synthesizer as synthesizer_module

    environment, goal = env_goal
    config = SynthesisConfig(max_snippets=10, prover_time_limit=None,
                             reconstruction_time_limit=None,
                             max_reconstruction_steps=1000)

    results = {}
    original = synthesizer_module.Reconstructor
    for label, cls in (("packed", Reconstructor),
                       ("reference", ReferenceReconstructor)):
        synthesizer_module.Reconstructor = cls
        try:
            results[label] = Synthesizer(environment,
                                         config=config).synthesize(goal)
        finally:
            synthesizer_module.Reconstructor = original

    packed, reference = results["packed"], results["reference"]
    assert packed.inhabited == reference.inhabited
    assert packed.reconstruction_expansions == \
        reference.reconstruction_expansions
    assert packed.reconstruction_truncated == \
        reference.reconstruction_truncated
    assert len(packed.snippets) == len(reference.snippets)
    for ours, theirs in zip(packed.snippets, reference.snippets):
        assert ours.rank == theirs.rank
        assert ours.weight == theirs.weight
        assert ours.term == theirs.term
        assert ours.surface_term == theirs.surface_term
        assert ours.code == theirs.code
