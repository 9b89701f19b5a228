"""Unit tests for the Fig. 4 CL / RCN oracle (tests/core/oracle.py)."""

from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.succinct import primitive, sigma
from repro.core.terms import canonicalize_lnf, lnf, lnf_depth
from repro.core.types import parse
from tests.core.oracle import SuccinctDecider, cl, rcn


def _env(*pairs):
    return Environment([Declaration(name, parse(text), DeclKind.LOCAL)
                        for name, text in pairs])


class TestDecider:
    def test_simple_inhabitation(self):
        env = _env(("a", "A"), ("f", "A -> B"))
        decider = SuccinctDecider()
        key = env.succinct_environment()
        assert decider.inhabited(key, primitive("B"))
        assert not decider.inhabited(key, primitive("Z"))

    def test_function_type_inhabitation(self):
        env = _env(("f", "A -> B"))
        decider = SuccinctDecider()
        key = env.succinct_environment()
        assert decider.inhabited(key, sigma(parse("A -> B")))
        assert decider.inhabited(key, sigma(parse("A -> A")))
        assert not decider.inhabited(key, sigma(parse("B -> A")))


class TestCL:
    def test_finds_witnessing_members(self):
        env = _env(("a", "A"), ("f", "A -> B"))
        key = env.succinct_environment()
        found = cl(key, sigma(parse("B")))
        assert len(found) == 1
        _, premises, result = found[0]
        assert premises == frozenset({primitive("A")})
        assert result == "B"

    def test_goal_arguments_extend_environment(self):
        env = _env(("f", "A -> B"))
        key = env.succinct_environment()
        # Goal A -> B: the argument A becomes available.
        found = cl(key, sigma(parse("A -> B")))
        assert len(found) == 1

    def test_unsatisfiable_premises_excluded(self):
        env = _env(("f", "A -> B"))  # no A anywhere
        key = env.succinct_environment()
        assert cl(key, sigma(parse("B"))) == []


class TestRCN:
    def test_depth_zero_is_empty(self):
        env = _env(("a", "A"))
        assert rcn(env, parse("A"), 0) == set()

    def test_single_constant(self):
        env = _env(("a", "A"))
        assert rcn(env, parse("A"), 1) == {lnf("a")}

    def test_depth_limits_output(self):
        env = _env(("a", "A"), ("f", "A -> A"))
        depth1 = rcn(env, parse("A"), 1)
        depth2 = rcn(env, parse("A"), 2)
        depth3 = rcn(env, parse("A"), 3)
        assert len(depth1) == 1
        assert len(depth2) == 2
        assert len(depth3) == 3
        assert depth1 < depth2 < depth3

    def test_every_term_within_depth(self):
        env = _env(("a", "A"), ("f", "A -> A"))
        for term in rcn(env, parse("A"), 4):
            assert lnf_depth(term) <= 4

    def test_higher_order_goal(self):
        env = _env(("f", "A -> B"))
        terms = rcn(env, parse("A -> B"), 2)
        # \x. f x  — canonicalised binder name.
        assert any(term.head == "f" and len(term.binders) == 1
                   for term in terms)

    def test_identity_synthesised(self):
        env = Environment([])
        terms = rcn(env, parse("A -> A"), 1)
        assert len(terms) == 1
        (term,) = terms
        assert term.head == term.binders[0].name

    def test_multiple_declarations_same_succinct_type(self):
        env = _env(("a", "A"), ("f", "A -> B"), ("g", "A -> A -> B"))
        terms = rcn(env, parse("B"), 2)
        heads = {term.head for term in terms}
        assert heads == {"f", "g"}
        arities = {term.head: len(term.arguments) for term in terms}
        assert arities == {"f": 1, "g": 2}

    def test_terms_are_canonical(self):
        env = _env(("f", "A -> B"))
        terms = rcn(env, parse("A -> B"), 2)
        assert all(canonicalize_lnf(term) == term for term in terms)
