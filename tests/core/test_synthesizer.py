"""Unit tests for repro.core.synthesizer (the Fig. 5 pipeline)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.environment import (Declaration, DeclKind, Environment,
                                    RenderSpec, RenderStyle)
from repro.core.errors import SynthesisError
from repro.core.subtyping import SubtypeGraph
from repro.core.synthesizer import Synthesizer, synthesize
from repro.core.terms import lnf_heads
from repro.core.typecheck import check_lnf
from repro.core.types import parse
from repro.core.weights import WeightPolicy


def _decl(name, text, kind=DeclKind.LOCAL, frequency=0, render=None):
    return Declaration(name, parse(text), kind, frequency=frequency,
                       render=render)


@pytest.fixture
def stream_environment():
    return Environment([
        _decl("body", "InputStream"),
        _decl("sig", "String"),
        _decl("java.io.SequenceInputStream.new",
              "InputStream -> InputStream -> SequenceInputStream",
              DeclKind.IMPORTED, frequency=50,
              render=RenderSpec(RenderStyle.CONSTRUCTOR, "SequenceInputStream")),
        _decl("java.io.FileInputStream.new", "String -> FileInputStream",
              DeclKind.IMPORTED, frequency=300,
              render=RenderSpec(RenderStyle.CONSTRUCTOR, "FileInputStream")),
    ])


@pytest.fixture
def stream_subtypes():
    graph = SubtypeGraph()
    graph.add_edge("FileInputStream", "InputStream")
    graph.add_edge("SequenceInputStream", "InputStream")
    return graph


class TestBasicSynthesis:
    def test_simple_goal(self):
        env = Environment([_decl("a", "A"), _decl("f", "A -> B")])
        result = synthesize(env, parse("B"))
        assert result.inhabited
        assert lnf_heads(result.snippets[0].term) == ("f", "a")

    def test_uninhabited_goal(self):
        env = Environment([_decl("f", "A -> B")])
        result = synthesize(env, parse("B"))
        assert not result.inhabited
        assert result.snippets == []

    def test_snippets_ranked_and_weight_sorted(self):
        env = Environment([
            _decl("cheap", "B"),
            _decl("a", "A"),
            _decl("f", "A -> B", DeclKind.IMPORTED, frequency=10),
        ])
        result = synthesize(env, parse("B"), n=5)
        assert [s.rank for s in result.snippets] == list(
            range(1, len(result.snippets) + 1))
        weights = [s.weight for s in result.snippets]
        assert weights == sorted(weights)

    def test_n_limits_output(self):
        env = Environment([_decl("a", "A"), _decl("f", "A -> A")])
        result = synthesize(env, parse("A"), n=3)
        assert len(result.snippets) == 3

    def test_invalid_n_rejected(self):
        env = Environment([_decl("a", "A")])
        with pytest.raises(SynthesisError):
            Synthesizer(env).synthesize(parse("A"), n=0)

    def test_all_snippets_type_check(self, stream_environment,
                                      stream_subtypes):
        synthesizer = Synthesizer(stream_environment,
                                  subtypes=stream_subtypes)
        result = synthesizer.synthesize(parse("SequenceInputStream"), n=8)
        variable_types = synthesizer.environment.variable_types()
        for snippet in result.snippets:
            check_lnf(snippet.term, parse("SequenceInputStream"),
                      variable_types)

    def test_timing_fields_populated(self, stream_environment):
        result = Synthesizer(stream_environment).synthesize(
            parse("FileInputStream"))
        assert result.total_seconds >= 0
        assert result.prove_seconds >= 0
        assert result.nodes_explored > 0


class TestSubtyping:
    def test_coercions_used_and_erased(self, stream_environment,
                                       stream_subtypes):
        result = Synthesizer(stream_environment,
                             subtypes=stream_subtypes).synthesize(
            parse("SequenceInputStream"), n=5)
        codes = [snippet.code for snippet in result.snippets]
        assert any("new FileInputStream(sig)" in code for code in codes)
        assert all("$coerce$" not in code for code in codes)

    def test_surface_duplicates_removed(self, stream_environment,
                                        stream_subtypes):
        result = Synthesizer(stream_environment,
                             subtypes=stream_subtypes).synthesize(
            parse("SequenceInputStream"), n=10)
        codes = [snippet.code for snippet in result.snippets]
        assert len(codes) == len(set(codes))

    def test_subtype_chain_through_two_levels(self):
        env = Environment([
            _decl("x", "Bottom"),
            _decl("use", "Top -> Result", DeclKind.IMPORTED, frequency=5),
        ])
        graph = SubtypeGraph()
        graph.add_chain("Bottom", "Middle", "Top")
        result = Synthesizer(env, subtypes=graph).synthesize(parse("Result"))
        assert result.inhabited
        assert lnf_heads(result.snippets[0].surface_term) == ("use", "x")


class TestVariants:
    def test_uniform_policy_runs(self, stream_environment):
        result = Synthesizer(stream_environment,
                             policy=WeightPolicy.uniform_policy()).synthesize(
            parse("FileInputStream"))
        assert result.inhabited

    def test_fifo_and_priority_same_solutions(self, stream_environment):
        goal = parse("FileInputStream")
        priority = Synthesizer(
            stream_environment,
            config=SynthesisConfig(prioritised_exploration=True)).synthesize(goal)
        fifo = Synthesizer(
            stream_environment,
            config=SynthesisConfig(prioritised_exploration=False)).synthesize(goal)
        assert {s.code for s in priority.snippets} == \
            {s.code for s in fifo.snippets}


class TestProverMode:
    def test_is_inhabited_positive(self, stream_environment, stream_subtypes):
        synthesizer = Synthesizer(stream_environment, subtypes=stream_subtypes)
        assert synthesizer.is_inhabited(parse("SequenceInputStream"))

    def test_is_inhabited_negative(self, stream_environment):
        synthesizer = Synthesizer(stream_environment)
        assert not synthesizer.is_inhabited(parse("Unbuildable"))

    def test_higher_order_goal(self):
        env = Environment([_decl("f", "A -> B")])
        synthesizer = Synthesizer(env)
        assert synthesizer.is_inhabited(parse("A -> B"))
        assert synthesizer.is_inhabited(parse("A -> A"))
        assert not synthesizer.is_inhabited(parse("B -> A"))
