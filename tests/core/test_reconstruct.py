"""Unit tests for repro.core.reconstruct (GenerateT, Fig. 10)."""

from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.explore import explore
from repro.core.generate_patterns import generate_patterns
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.succinct import sigma
from repro.core.terms import Binder, lnf_depth, lnf_heads
from repro.core.types import arrow, base, parse
from repro.core.weights import WeightPolicy
from tests.core.oracle import (AppNode, HoleNode, find_first_hole,
                               hole_count, is_complete, reconstruct_reference,
                               substitute_hole, to_lnf)

A, B, C = base("A"), base("B"), base("C")


def _pipeline(declarations, goal_text):
    env = Environment(declarations)
    goal = parse(goal_text)
    space = explore(env.succinct_environment(), sigma(goal))
    patterns = generate_patterns(space)
    return env, goal, patterns


def _decl(name, text, kind=DeclKind.LOCAL, frequency=0):
    return Declaration(name, parse(text), kind, frequency=frequency)


class TestPartialNodes:
    def test_hole_is_incomplete(self):
        assert not is_complete(HoleNode(0, A))

    def test_application_without_holes_is_complete(self):
        node = AppNode((), "a", ())
        assert is_complete(node)

    def test_hole_count(self):
        node = AppNode((), "f", (HoleNode(0, A), HoleNode(1, B)))
        assert hole_count(node) == 2

    def test_find_first_hole_leftmost(self):
        node = AppNode((), "f", (HoleNode(0, A), HoleNode(1, B)))
        found = find_first_hole(node)
        assert found is not None
        _, hole = found
        assert hole.hole_id == 0

    def test_find_first_hole_collects_binders(self):
        binder = Binder("x", A)
        node = AppNode((binder,), "f", (HoleNode(0, B),))
        path_binders, _ = find_first_hole(node)
        assert path_binders == (binder,)

    def test_find_first_hole_none_when_complete(self):
        assert find_first_hole(AppNode((), "a", ())) is None

    def test_substitute_hole(self):
        node = AppNode((), "f", (HoleNode(0, A),))
        replacement = AppNode((), "a", ())
        replaced = substitute_hole(node, 0, replacement)
        assert is_complete(replaced)
        assert to_lnf(replaced).arguments[0].head == "a"

    def test_to_lnf_rejects_holes(self):
        import pytest

        with pytest.raises(ValueError):
            to_lnf(HoleNode(0, A))


class TestReconstruction:
    def test_single_constant(self):
        env, goal, patterns = _pipeline([_decl("a", "A")], "A")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard())
        assert [s.term.head for s in snippets] == ["a"]

    def test_application_chain(self):
        env, goal, patterns = _pipeline(
            [_decl("a", "A"), _decl("f", "A -> B")], "B")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard())
        assert len(snippets) == 1
        assert lnf_heads(snippets[0].term) == ("f", "a")

    def test_weights_order_output(self):
        env, goal, patterns = _pipeline(
            [_decl("cheap", "B", DeclKind.LOCAL),
             _decl("pricey", "B", DeclKind.IMPORTED),
             _decl("a", "A"), _decl("f", "A -> B", DeclKind.CLASS_MEMBER)],
            "B")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard())
        heads = [s.term.head for s in snippets]
        assert heads[0] == "cheap"          # 5
        assert heads[1] == "f"              # 20 + 5
        assert heads[2] == "pricey"         # 1000
        weights = [s.weight for s in snippets]
        assert weights == sorted(weights)

    def test_infinite_solutions_enumerable(self):
        # a : A, f : A -> A gives a, f a, f (f a), ...
        env, goal, patterns = _pipeline(
            [_decl("a", "A"), _decl("f", "A -> A")], "A")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=5)
        assert len(snippets) == 5
        depths = sorted(lnf_depth(s.term) for s in snippets)
        assert depths == [1, 2, 3, 4, 5]

    def test_higher_order_goal_introduces_binders(self):
        # goal A -> B with f : A -> B: expect \x. f x.
        env, goal, patterns = _pipeline([_decl("f", "A -> B")], "A -> B")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=1)
        term = snippets[0].term
        assert len(term.binders) == 1
        assert term.head == "f"
        assert term.arguments[0].head == term.binders[0].name

    def test_binder_used_as_leaf(self):
        # goal A -> A: the identity \x. x must be found even with no decls.
        env, goal, patterns = _pipeline([_decl("unused", "Z")], "A -> A")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=1)
        term = snippets[0].term
        assert term.head == term.binders[0].name

    def test_higher_order_argument(self):
        # h : (A -> B) -> C, f : A -> B; goal C: expect h (\x. f x).
        env, goal, patterns = _pipeline(
            [_decl("h", "(A -> B) -> C"), _decl("f", "A -> B")], "C")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=1)
        term = snippets[0].term
        assert term.head == "h"
        inner = term.arguments[0]
        assert inner.head == "f"
        assert len(inner.binders) == 1

    def test_multiple_arguments_all_filled(self):
        env, goal, patterns = _pipeline(
            [_decl("a", "A"), _decl("b", "B"), _decl("f", "A -> B -> C")],
            "C")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=1)
        assert lnf_heads(snippets[0].term) == ("f", "a", "b")

    def test_same_succinct_type_different_arity(self):
        # f : A -> B and g : A -> A -> B share succinct type {A} -> B; both
        # must be reconstructed with their true arity.
        env, goal, patterns = _pipeline(
            [_decl("a", "A"), _decl("f", "A -> B"), _decl("g", "A -> A -> B")],
            "B")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                               limit=10)
        by_head = {s.term.head: s.term for s in snippets}
        assert len(by_head["f"].arguments) == 1
        assert len(by_head["g"].arguments) == 2

    def test_no_snippets_for_uninhabited(self):
        env, goal, patterns = _pipeline([_decl("f", "A -> B")], "B")
        snippets = reconstruct(patterns, env, goal, WeightPolicy.standard())
        assert snippets == []

    def test_max_steps_truncates(self):
        env, goal, patterns = _pipeline(
            [_decl("a", "A"), _decl("f", "A -> A")], "A")
        reconstructor = Reconstructor(patterns, env, WeightPolicy.standard(),
                                      max_steps=3)
        list(reconstructor.enumerate(goal))
        assert reconstructor.stats.truncated

    def test_determinism(self):
        declarations = [_decl("a", "A"), _decl("b", "A"),
                        _decl("f", "A -> B"), _decl("g", "A -> B")]
        env, goal, patterns = _pipeline(declarations, "B")
        first = [s.term for s in
                 reconstruct(patterns, env, goal, WeightPolicy.standard())]
        env2, goal2, patterns2 = _pipeline(declarations, "B")
        second = [s.term for s in
                  reconstruct(patterns2, env2, goal2, WeightPolicy.standard())]
        assert first == second


class TestPackedFrontier:
    """Unit tests for the spine/cursor structure behind the packed
    Reconstructor (frames, scopes, incremental bookkeeping)."""

    def _packed(self, declarations, goal_text, **kwargs):
        env, goal, patterns = _pipeline(declarations, goal_text)
        return env, goal, Reconstructor(patterns, env,
                                        WeightPolicy.standard(), **kwargs)

    def test_deep_nesting_assembles_in_preorder(self):
        # g : C, f : C -> B, h : B -> A builds h (f g) purely through
        # frame pushes/pops; the assembled term must match the tree shape.
        env, goal, reconstructor = self._packed(
            [_decl("g", "C"), _decl("f", "C -> B"), _decl("h", "B -> A")],
            "A")
        snippets = list(reconstructor.enumerate(goal))
        assert len(snippets) == 1
        from repro.core.terms import lnf_heads
        assert lnf_heads(snippets[0].term) == ("h", "f", "g")

    def test_sibling_holes_fill_left_to_right(self):
        # f : A -> B -> A -> C exercises an ancestor frame that regains
        # the cursor twice after child completions.
        env, goal, reconstructor = self._packed(
            [_decl("a", "A"), _decl("b", "B"),
             _decl("f", "A -> B -> A -> C")], "C")
        snippets = list(reconstructor.enumerate(goal))
        term = snippets[0].term
        assert term.head == "f"
        assert tuple(argument.head for argument in term.arguments) == \
            ("a", "b", "a")

    def test_scopes_interned_per_binder_path(self):
        env, goal, reconstructor = self._packed(
            [_decl("h", "(A -> B) -> C"), _decl("f", "A -> B")], "C")
        list(reconstructor.enumerate(goal))
        # Root scope plus one scope per distinct realized binder tuple.
        assert () in reconstructor._scopes
        binder_scopes = [scope for path, scope
                         in reconstructor._scopes.items() if path]
        assert binder_scopes
        for scope in binder_scopes:
            assert scope.has_binders
            assert scope.binder_sigmas

    def test_incremental_size_matches_term_size(self):
        # max_term_size uses the incrementally tracked node count; a cap
        # exactly at the solution size admits it, one below rejects it.
        declarations = [_decl("a", "A"), _decl("f", "A -> B")]
        for cap, expected in ((2, 1), (1, 0)):
            env, goal, reconstructor = self._packed(
                declarations, "B", max_term_size=cap, max_steps=50)
            assert len(list(reconstructor.enumerate(goal))) == expected

    def test_cross_query_candidate_memo_is_deterministic(self):
        # Two fresh reconstructors over one environment share the
        # candidate-list memo; the second (warm) run must draw the same
        # fresh names and emit identical terms.
        declarations = [_decl("a", "A"), _decl("f", "A -> B"),
                        _decl("g", "A -> A -> B")]
        env, goal, patterns = _pipeline(declarations, "B")
        first = list(Reconstructor(patterns, env, WeightPolicy.standard(),
                                   max_steps=200).enumerate(goal))
        assert env.candidate_list_memo(WeightPolicy.standard())
        second = list(Reconstructor(patterns, env, WeightPolicy.standard(),
                                    max_steps=200).enumerate(goal))
        assert [s.term for s in first] == [s.term for s in second]
        assert [s.weight for s in first] == [s.weight for s in second]

    def test_reference_reconstructor_agrees_on_unit_scene(self):
        declarations = [_decl("a", "A"), _decl("f", "A -> A")]
        env, goal, patterns = _pipeline(declarations, "A")
        packed = reconstruct(patterns, env, goal, WeightPolicy.standard(),
                             limit=6)
        env2, goal2, patterns2 = _pipeline(declarations, "A")
        reference = reconstruct_reference(patterns2, env2, goal2,
                                          WeightPolicy.standard(), limit=6)
        assert [(s.term, s.weight, s.order) for s in packed] == \
            [(s.term, s.weight, s.order) for s in reference]
