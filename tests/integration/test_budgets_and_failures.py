"""Failure injection and budget semantics.

The paper's deployment is interactive: users set time limits for the
prover and reconstruction (§5.6, §7.5).  These tests pin down what the
library guarantees when budgets bite or inputs are hostile: truncation is
*reported*, never silent; partial results stay sound; budget-zero runs
do not crash.
"""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.errors import SynthesisError
from repro.core.synthesizer import Synthesizer
from repro.core.typecheck import check_lnf
from repro.core.types import parse
from repro.bench.suite import benchmark_by_number, build_scene


def parse(text):
    from repro.lang.parser import parse_type

    return parse_type(text)


@pytest.fixture(scope="module")
def big_scene():
    return build_scene(benchmark_by_number(15))


class TestProverBudget:
    def test_zero_prover_budget_reports_truncation(self, big_scene):
        synthesizer = Synthesizer(
            big_scene.environment,
            config=SynthesisConfig(prover_time_limit=0.0),
            subtypes=big_scene.subtypes)
        result = synthesizer.synthesize(big_scene.goal)
        assert result.explore_truncated
        # Whatever was synthesized from the partial space must type-check.
        variable_types = synthesizer.environment.variable_types()
        for snippet in result.snippets:
            check_lnf(snippet.term, big_scene.goal, variable_types)

    def test_max_explore_nodes_cap(self, big_scene):
        synthesizer = Synthesizer(
            big_scene.environment,
            config=SynthesisConfig(prover_time_limit=None,
                                   max_explore_nodes=3),
            subtypes=big_scene.subtypes)
        result = synthesizer.synthesize(big_scene.goal)
        assert result.explore_truncated
        assert result.nodes_explored <= 3

    def test_interleaved_partial_space_still_yields_patterns(self, big_scene):
        # §5.6: with interleaving, patterns exist for whatever was explored.
        synthesizer = Synthesizer(
            big_scene.environment,
            config=SynthesisConfig(max_explore_nodes=50),
            subtypes=big_scene.subtypes)
        space, patterns = synthesizer.prove(big_scene.goal)
        assert space.truncated
        assert len(patterns) > 0


class TestReconstructionBudget:
    def test_zero_reconstruction_budget(self, big_scene):
        synthesizer = Synthesizer(
            big_scene.environment,
            config=SynthesisConfig(reconstruction_time_limit=0.0),
            subtypes=big_scene.subtypes)
        result = synthesizer.synthesize(big_scene.goal)
        assert result.reconstruction_truncated
        assert result.inhabited  # the prover already decided

    def test_step_cap_truncates(self):
        env = Environment([
            Declaration("a", parse("A"), DeclKind.LOCAL),
            Declaration("f", parse("A -> A"), DeclKind.LOCAL),
        ])
        synthesizer = Synthesizer(
            env, config=SynthesisConfig(max_reconstruction_steps=2,
                                        max_snippets=100))
        result = synthesizer.synthesize(parse("A"), n=100)
        assert result.reconstruction_truncated
        assert len(result.snippets) <= 2

    def test_term_size_cap_limits_depth(self):
        env = Environment([
            Declaration("a", parse("A"), DeclKind.LOCAL),
            Declaration("f", parse("A -> A"), DeclKind.LOCAL),
        ])
        synthesizer = Synthesizer(
            env, config=SynthesisConfig(max_term_size=3,
                                        reconstruction_time_limit=1.0))
        result = synthesizer.synthesize(parse("A"), n=10)
        from repro.core.terms import lnf_size

        assert result.snippets
        assert all(lnf_size(snippet.term) <= 3
                   for snippet in result.snippets)


class TestHostileInputs:
    def test_empty_environment(self):
        result = Synthesizer(Environment([])).synthesize(parse("A"))
        assert not result.inhabited
        assert result.snippets == []

    def test_goal_type_not_mentioned_anywhere(self, big_scene):
        synthesizer = Synthesizer(big_scene.environment,
                                  subtypes=big_scene.subtypes)
        result = synthesizer.synthesize(parse("CompletelyUnknownType"))
        assert not result.inhabited

    def test_negative_snippet_count_rejected(self):
        env = Environment([Declaration("a", parse("A"), DeclKind.LOCAL)])
        with pytest.raises(SynthesisError):
            Synthesizer(env).synthesize(parse("A"), n=-1)

    def test_self_referential_types_terminate(self):
        env = Environment([
            Declaration("grow", parse("A -> A"), DeclKind.LOCAL),
            Declaration("shrink", parse("(A -> A) -> A"), DeclKind.LOCAL),
        ])
        result = Synthesizer(env).synthesize(parse("A"), n=5)
        assert result.inhabited
        assert len(result.snippets) == 5

    def test_deep_subtype_chain(self):
        from repro.core.subtyping import SubtypeGraph

        graph = SubtypeGraph()
        names = [f"T{i}" for i in range(40)]
        graph.add_chain(*names)
        env = Environment([
            Declaration("bottom", parse("T0"), DeclKind.LOCAL),
            Declaration("use", parse("T39 -> Result"), DeclKind.LOCAL),
        ])
        result = Synthesizer(env, subtypes=graph).synthesize(parse("Result"))
        assert result.inhabited
        assert result.snippets[0].code == "use(bottom)"
