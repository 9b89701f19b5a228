"""Curry–Howard translation between inhabitation queries and formulas.

Simple types and implicational propositional formulas are isomorphic:
basic types are atoms, arrows are implications.  An environment plus a goal
type becomes a sequent ``{formula of each declaration} |- formula of goal``,
which is what the baseline provers consume in the Table 2 comparison.

Subtype edges are translated exactly like the synthesizer treats them (§6):
one extra hypothesis ``sub -> super`` per direct edge.
"""

from __future__ import annotations

from typing import Optional

from repro.core.environment import Environment
from repro.core.subtyping import SubtypeGraph
from repro.core.types import Arrow, BaseType, Type
from repro.provers.formulas import Atom, Formula, Implication


def type_to_formula(tpe: Type) -> Formula:
    """Curry–Howard image of a simple type."""
    if isinstance(tpe, BaseType):
        return Atom(tpe.name)
    assert isinstance(tpe, Arrow)
    return Implication(type_to_formula(tpe.argument),
                       type_to_formula(tpe.result))


def formula_to_type(formula: Formula) -> Type:
    """Inverse of :func:`type_to_formula` (implicational fragment only)."""
    if isinstance(formula, Atom):
        return BaseType(formula.name)
    if isinstance(formula, Implication):
        return Arrow(formula_to_type(formula.left),
                     formula_to_type(formula.right))
    raise ValueError(f"not an implicational formula: {formula}")


def environment_to_sequent(environment: Environment, goal: Type,
                           subtypes: Optional[SubtypeGraph] = None,
                           ) -> tuple[list[Formula], Formula]:
    """Translate an inhabitation query into ``(hypotheses, goal formula)``.

    Duplicate hypothesis formulas are collapsed — provability only depends
    on the set of hypotheses, and the collapse is the same economy the
    succinct representation exploits.
    """
    seen: set[Formula] = set()
    hypotheses: list[Formula] = []
    for declaration in environment.declarations():
        formula = type_to_formula(declaration.type)
        if formula not in seen:
            seen.add(formula)
            hypotheses.append(formula)
    if subtypes is not None:
        for sub, sup in subtypes.edges():
            formula = Implication(Atom(sub), Atom(sup))
            if formula not in seen:
                seen.add(formula)
                hypotheses.append(formula)
    return hypotheses, type_to_formula(goal)
