"""Unit tests for repro.core.explore (backward search, Fig. 6/7)."""

from repro.core.explore import Request, explore
from repro.core.succinct import primitive, sigma
from repro.core.types import base, parse
from tests.core.oracle import child_request, edge_children, strip

A, B, C = base("A"), base("B"), base("C")


def _env(*types):
    return frozenset(sigma(parse(t)) for t in types)


class TestStrip:
    def test_base_goal_unchanged_environment(self):
        env = _env("A")
        request = strip(primitive("B"), env)
        assert request == Request("B", env)

    def test_function_goal_extends_environment(self):
        env = _env("A")
        goal = sigma(parse("B -> C"))
        request = strip(goal, env)
        assert request.target == "C"
        assert request.env == env | {primitive("B")}

    def test_higher_order_goal(self):
        env = _env("A")
        goal = sigma(parse("(A -> B) -> C"))
        request = strip(goal, env)
        assert sigma(parse("A -> B")) in request.env

    def test_child_request_is_prop_plus_strip(self):
        env = _env("A")
        premise = sigma(parse("A -> B"))
        child = child_request(premise, env)
        assert child.target == "B"
        assert child.env == env | {primitive("A")}


class TestExplore:
    def test_trivial_goal_in_environment(self):
        env = _env("A")
        space = explore(env, primitive("A"))
        assert space.root.target == "A"
        assert len(space.edges[space.root]) == 1
        assert space.edges[space.root][0].source == primitive("A")

    def test_unreachable_goal_has_no_edges(self):
        env = _env("A")
        space = explore(env, primitive("Z"))
        assert space.edges[space.root] == ()

    def test_chain_is_followed(self):
        # a : A,  f : A -> B,  g : B -> C;  goal C
        env = _env("A", "A -> B", "B -> C")
        space = explore(env, primitive("C"))
        targets = {request.target for request in space.nodes()}
        assert targets == {"C", "B", "A"}

    def test_only_reachable_space_explored(self):
        # x : X is irrelevant to goal B.
        env = _env("A", "A -> B", "X", "X -> Y")
        space = explore(env, primitive("B"))
        targets = {request.target for request in space.nodes()}
        assert "Y" not in targets
        assert "X" not in targets

    def test_edge_children_match_premises(self):
        env = _env("A", "A -> B")
        space = explore(env, primitive("B"))
        edge = space.edges[space.root][0]
        assert edge.source == sigma(parse("A -> B"))
        children = edge_children(edge)
        assert len(children) == 1
        assert children[0].target == "A"

    def test_higher_order_environment_extension(self):
        # apply : (A -> B) -> B.  Exploring B requests (A -> B), which strips
        # to B in an environment extended with A.
        env = _env("(A -> B) -> B")
        space = explore(env, primitive("B"))
        extended_envs = [request.env for request in space.nodes()
                         if primitive("A") in request.env]
        assert extended_envs, "expected an environment extended by STRIP"

    def test_cycles_terminate(self):
        # f : A -> B, g : B -> A — cyclic reachability must terminate.
        env = _env("A -> B", "B -> A")
        space = explore(env, primitive("A"))
        assert len(space.nodes()) == 2

    def test_self_recursive_declaration_terminates(self):
        env = _env("A -> A")
        space = explore(env, primitive("A"))
        assert len(space.nodes()) == 1
        assert len(space.edges[space.root]) == 1

    def test_max_nodes_truncates(self):
        env = _env("A", "A -> B", "B -> C")
        space = explore(env, primitive("C"), max_nodes=1)
        assert space.truncated

    def test_visit_order_recorded(self):
        env = _env("A", "A -> B")
        space = explore(env, primitive("B"))
        assert space.order[0] == space.root

    def test_priority_discipline_changes_order(self):
        # Two premises for the goal; priority should visit the cheap one
        # first.  B <- A (cheap=0) and B <- X (pricey=100).
        env = _env("A", "X", "A -> B", "X -> B")
        costs = {primitive("A"): 0.0, primitive("X"): 100.0}

        def priority(stype):
            return costs.get(stype, 50.0)

        space = explore(env, primitive("B"), priority=priority)
        order = [request.target for request in space.order]
        assert order.index("A") < order.index("X")

    def test_edge_count(self):
        env = _env("A", "A -> B", "B")
        space = explore(env, primitive("B"))
        assert space.edge_count() == len(space.all_edges())
