"""Unit tests for repro.core.generate_patterns (Fig. 8/9)."""

from hypothesis import given, settings

from repro.core.explore import explore
from repro.core.generate_patterns import (IndexedPatternGenerator,
                                          generate_patterns,
                                          generate_patterns_incremental,
                                          generate_patterns_with_predecessor_map)
from repro.core.succinct import primitive, sigma
from repro.core.types import parse
from tests.helpers import environment_and_goal


def _env(*types):
    return frozenset(sigma(parse(t)) for t in types)


def _space(env_types, goal_text):
    env = _env(*env_types)
    return explore(env, sigma(parse(goal_text)))


class TestFixpoint:
    def test_nullary_member_inhabits(self):
        space = _space(["A"], "A")
        patterns = generate_patterns(space)
        assert patterns.is_inhabited(space.root)
        assert len(patterns) == 1

    def test_paper_example_section_3_4(self):
        # Gamma_o = {a : Int, f : Int -> Int -> Int -> String}
        # Patterns: Gamma@{} : Int  and  Gamma@{Int} : String.
        space = _space(["Int", "Int -> Int -> Int -> String"], "String")
        patterns = generate_patterns(space)
        premise_sets = {(pattern.result, pattern.premises)
                        for pattern in patterns.patterns}
        assert ("Int", frozenset()) in premise_sets
        assert ("String", frozenset({primitive("Int")})) in premise_sets
        assert patterns.is_inhabited(space.root)

    def test_missing_premise_blocks(self):
        # f : A -> B with no A: B not inhabited.
        space = _space(["A -> B"], "B")
        patterns = generate_patterns(space)
        assert not patterns.is_inhabited(space.root)
        assert len(patterns) == 0

    def test_cycle_is_not_self_justifying(self):
        # f : A -> B, g : B -> A — neither is inhabited (least fixpoint).
        space = _space(["A -> B", "B -> A"], "A")
        patterns = generate_patterns(space)
        assert not patterns.is_inhabited(space.root)

    def test_cycle_with_seed_inhabits(self):
        space = _space(["A -> B", "B -> A", "A"], "B")
        patterns = generate_patterns(space)
        assert patterns.is_inhabited(space.root)

    def test_function_goal_with_stripped_argument(self):
        # Goal A -> B with f : A -> B: the stripped argument A inhabits B.
        space = _space(["A -> B"], "A -> B")
        patterns = generate_patterns(space)
        assert patterns.is_inhabited(space.root)

    def test_all_satisfied_edges_become_patterns(self):
        # Two distinct ways to get B must both appear as patterns.
        space = _space(["A", "C", "A -> B", "C -> B"], "B")
        patterns = generate_patterns(space)
        results = [pattern for pattern in patterns.patterns
                   if pattern.result == "B"]
        assert len(results) == 2

    def test_lookup_by_env_and_result(self):
        space = _space(["A", "A -> B"], "B")
        patterns = generate_patterns(space)
        found = patterns.lookup(space.root.env, "B")
        assert len(found) == 1
        assert found[0].premises == frozenset({primitive("A")})


class TestIncremental:
    def test_matches_fixpoint_on_simple_chain(self):
        space = _space(["A", "A -> B", "B -> C"], "C")
        assert (generate_patterns(space).patterns
                == generate_patterns_incremental(space).patterns)

    def test_matches_fixpoint_on_cycles(self):
        space = _space(["A -> B", "B -> A", "A"], "B")
        assert (generate_patterns(space).patterns
                == generate_patterns_incremental(space).patterns)

    def test_online_feeding_matches_batch(self):
        space = _space(["A", "A -> B", "B -> C", "C -> D"], "D")
        isp = space.indexed
        online = IndexedPatternGenerator()
        for edge in range(isp.edge_count()):
            online.add_span(isp, edge, edge + 1)  # one at a time, worst case
        assert online.result().patterns == generate_patterns(space).patterns

    def test_goal_reached_flag(self):
        space = _space(["A", "A -> B"], "B")
        isp = space.indexed
        online = IndexedPatternGenerator()
        online.add_span(isp, 0, isp.edge_count())
        assert online.goal_reached(isp.root)

    @settings(max_examples=60, deadline=None)
    @given(environment_and_goal())
    def test_agreement_on_random_environments(self, env_goal):
        environment, goal = env_goal
        space = explore(environment.succinct_environment(), sigma(goal))
        batch = generate_patterns(space)
        online = generate_patterns_incremental(space)
        assert batch.patterns == online.patterns
        assert batch.inhabited == online.inhabited


class TestPredecessorMap:
    """The §5.7 optimisation must be observationally identical."""

    def test_predecessor_map_built_during_exploration(self):
        space = _space(["A", "A -> B"], "B")
        a_node = next(request for request in space.nodes()
                      if request.target == "A")
        predecessor_edges = space.predecessors[a_node]
        assert any(edge.request.target == "B" for edge in predecessor_edges)

    def test_matches_fixpoint_on_simple_chain(self):
        space = _space(["A", "A -> B", "B -> C"], "C")
        assert (generate_patterns(space).patterns
                == generate_patterns_with_predecessor_map(space).patterns)

    def test_matches_fixpoint_on_cycles(self):
        space = _space(["A -> B", "B -> A"], "A")
        assert (generate_patterns(space).inhabited
                == generate_patterns_with_predecessor_map(space).inhabited)

    def test_duplicate_premise_children_handled(self):
        # Premises A and ({A} -> A) strip to the same child when A is
        # already in the environment — the backward map then holds the edge
        # twice, which must not break the countdown.
        space = _space(["A", "(A -> A) -> A -> B"], "B")
        assert (generate_patterns(space).patterns
                == generate_patterns_with_predecessor_map(space).patterns)

    def test_duplicate_child_with_missing_sibling_premise(self):
        # Like the case above, B is watched twice by the C edge (direct
        # premise and stripped {B} -> B) — but here the third premise A is
        # *uninhabited*.  A double decrement for B would bring the
        # countdown to zero and wrongly mark C inhabited (found by
        # hypothesis; the fixpoint reference correctly says uninhabited).
        space = _space(["B", "(B -> B) -> A -> B -> C"], "C")
        batch = generate_patterns(space)
        via_map = generate_patterns_with_predecessor_map(space)
        assert not batch.is_inhabited(space.root)
        assert batch.patterns == via_map.patterns
        assert batch.inhabited == via_map.inhabited

    @settings(max_examples=60, deadline=None)
    @given(environment_and_goal())
    def test_agreement_on_random_environments(self, env_goal):
        environment, goal = env_goal
        space = explore(environment.succinct_environment(), sigma(goal))
        batch = generate_patterns(space)
        via_map = generate_patterns_with_predecessor_map(space)
        assert batch.patterns == via_map.patterns
        assert batch.inhabited == via_map.inhabited
