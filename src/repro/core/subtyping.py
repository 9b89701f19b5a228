"""Subtyping via coercion functions (paper §6).

The paper models every subtype edge ``v1 <: v2`` on basic types by adding a
fresh coercion declaration ``c12 : {v1} -> v2`` to the environment.  The
search then treats coercions like any other unary function (with the low
Table 1 weight of 10), and the renderer erases them, so the user-visible
snippet is a term of the *supertype* obtained by subsumption.

:class:`SubtypeGraph` stores the declared edges and answers reflexive-
transitive queries; :func:`coercion_declarations` produces the coercion
declarations for an environment; :func:`erase_coercions` removes coercion
applications from a synthesized LNF term.  Transitivity needs no special
handling in the calculus — chains of direct-edge coercions compose during
the search, exactly as chains of unary methods would.
"""

from __future__ import annotations

from repro.core.environment import (Declaration, DeclKind, Environment,
                                    RenderSpec, RenderStyle)
from repro.core.terms import LNFTerm
from repro.core.types import Arrow, BaseType, Type, base

#: Prefix that identifies generated coercion declaration names.
COERCION_PREFIX = "$coerce$"


def coercion_name(subtype: str, supertype: str) -> str:
    """The deterministic name for the coercion ``subtype <: supertype``."""
    return f"{COERCION_PREFIX}{subtype}$to${supertype}"


def is_coercion_name(name: str) -> bool:
    """True when *name* was produced by :func:`coercion_name`."""
    return name.startswith(COERCION_PREFIX)


class SubtypeGraph:
    """Declared subtype edges over basic-type names.

    Only the *direct* edges are stored; ``is_subtype`` computes the
    reflexive-transitive closure lazily with memoisation.  Cycles are
    tolerated in queries (they simply mean mutual subtyping) but flagged by
    ``has_cycle`` so model builders can assert hierarchy sanity.
    """

    def __init__(self) -> None:
        self._supertypes: dict[str, set[str]] = {}
        self._closure: dict[str, frozenset[str]] = {}

    def add_edge(self, subtype: str, supertype: str) -> None:
        """Declare ``subtype <: supertype`` (a direct edge)."""
        if subtype == supertype:
            return
        self._supertypes.setdefault(subtype, set()).add(supertype)
        self._closure.clear()

    def add_chain(self, *names: str) -> None:
        """Declare ``names[0] <: names[1] <: ... <: names[-1]``."""
        for lower, upper in zip(names, names[1:]):
            self.add_edge(lower, upper)

    def edges(self) -> list[tuple[str, str]]:
        """All direct edges, deterministically ordered."""
        return sorted((sub, sup)
                      for sub, sups in self._supertypes.items()
                      for sup in sups)

    def supertypes_of(self, name: str) -> frozenset[str]:
        """All strict-or-equal supertypes of *name* (reflexive closure)."""
        cached = self._closure.get(name)
        if cached is not None:
            return cached
        seen = {name}
        stack = [name]
        while stack:
            current = stack.pop()
            for supertype in self._supertypes.get(current, ()):
                if supertype not in seen:
                    seen.add(supertype)
                    stack.append(supertype)
        result = frozenset(seen)
        self._closure[name] = result
        return result

    def is_subtype(self, subtype: str, supertype: str) -> bool:
        """Reflexive-transitive subtype query on basic-type names."""
        return supertype in self.supertypes_of(subtype)

    def is_subtype_type(self, left: Type, right: Type) -> bool:
        """Structural subtyping on simple types.

        Uses the paper's three extra rules: reflexivity/transitivity on
        basic types and the contravariant/covariant rule on arrows
        (``t1 <: r1`` and ``r2 <: t2`` imply ``r1 -> r2 <: t1 -> t2``).
        """
        if isinstance(left, BaseType) and isinstance(right, BaseType):
            return self.is_subtype(left.name, right.name)
        if isinstance(left, Arrow) and isinstance(right, Arrow):
            return (self.is_subtype_type(right.argument, left.argument)
                    and self.is_subtype_type(left.result, right.result))
        return False

    def has_cycle(self) -> bool:
        """True when the declared edges contain a nontrivial cycle."""
        for name in self._supertypes:
            for supertype in self.supertypes_of(name):
                if supertype != name and name in self.supertypes_of(supertype):
                    return True
        return False

    def __len__(self) -> int:
        return sum(len(sups) for sups in self._supertypes.values())


def coercion_declarations(graph: SubtypeGraph) -> list[Declaration]:
    """One coercion declaration ``c12 : v1 -> v2`` per direct edge (§6)."""
    return [
        Declaration(
            name=coercion_name(sub, sup),
            type=Arrow(base(sub), base(sup)),
            kind=DeclKind.COERCION,
            render=RenderSpec(RenderStyle.COERCION, display=sup),
        )
        for sub, sup in graph.edges()
    ]


def environment_with_subtyping(environment: Environment,
                               graph: SubtypeGraph) -> Environment:
    """Extend *environment* with the coercions induced by *graph*."""
    coercions = coercion_declarations(graph)
    return environment.extended(coercions) if coercions else environment


def erase_coercions(term: LNFTerm) -> LNFTerm:
    """Remove coercion applications from a synthesized term (§6).

    A coercion node ``c12 e`` is replaced by the erasure of ``e``; binders on
    the coercion node are re-attached to the argument (coercions are unary,
    so this preserves the term's argument structure).
    """
    if is_coercion_name(term.head):
        assert len(term.arguments) == 1, "coercions are unary"
        inner = erase_coercions(term.arguments[0])
        if term.binders:
            inner = LNFTerm(term.binders + inner.binders, inner.head,
                            inner.arguments)
        return inner
    return LNFTerm(term.binders, term.head,
                   tuple(erase_coercions(argument) for argument in term.arguments))


def count_coercions(term: LNFTerm) -> int:
    """Number of coercion applications in *term* (the ``c`` of Table 2's
    ``c/nc`` size column counts these; ``nc`` counts the visible heads)."""
    own = 1 if is_coercion_name(term.head) else 0
    return own + sum(count_coercions(argument) for argument in term.arguments)
