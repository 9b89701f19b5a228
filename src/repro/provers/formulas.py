"""Propositional intuitionistic formulas.

The inhabitation queries the benchmarks produce are purely implicational
(Curry–Howard images of simple types), but the G4ip prover supports the full
propositional language — conjunction, disjunction and falsum — so it is a
credible stand-in for a general prover like fCube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Atom:
    """A propositional atom."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Implication:
    """Intuitionistic implication ``left -> right``."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Conjunction:
    """``left /\\ right``."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Disjunction:
    """``left \\/ right``."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Bottom:
    """Falsum."""

    def __str__(self) -> str:
        return "_|_"


Formula = Union[Atom, Implication, Conjunction, Disjunction, Bottom]


def atom(name: str) -> Atom:
    return Atom(name)


def implies(*formulas: Formula) -> Formula:
    """Right-associated implication chain ``f1 -> f2 -> ... -> fn``."""
    if not formulas:
        raise ValueError("implies() requires at least one formula")
    result = formulas[-1]
    for left in reversed(formulas[:-1]):
        result = Implication(left, result)
    return result


def conj(*formulas: Formula) -> Formula:
    """Right-associated conjunction."""
    if not formulas:
        raise ValueError("conj() requires at least one formula")
    result = formulas[-1]
    for left in reversed(formulas[:-1]):
        result = Conjunction(left, result)
    return result


def disj(*formulas: Formula) -> Formula:
    """Right-associated disjunction."""
    if not formulas:
        raise ValueError("disj() requires at least one formula")
    result = formulas[-1]
    for left in reversed(formulas[:-1]):
        result = Disjunction(left, result)
    return result


def is_implicational(formula: Formula) -> bool:
    """True when *formula* uses only atoms and implication."""
    if isinstance(formula, Atom):
        return True
    if isinstance(formula, Implication):
        return is_implicational(formula.left) and is_implicational(formula.right)
    return False


def atoms_of(formula: Formula) -> frozenset[str]:
    """All atom names occurring in *formula*."""
    if isinstance(formula, Atom):
        return frozenset((formula.name,))
    if isinstance(formula, Bottom):
        return frozenset()
    return atoms_of(formula.left) | atoms_of(formula.right)


def formula_size(formula: Formula) -> int:
    """Connective-and-atom count, a standard size measure."""
    if isinstance(formula, (Atom, Bottom)):
        return 1
    return 1 + formula_size(formula.left) + formula_size(formula.right)


def format_formula(formula: Formula) -> str:
    """Render with minimal parentheses; implication associates right."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Bottom):
        return "_|_"
    if isinstance(formula, Implication):
        left = format_formula(formula.left)
        if isinstance(formula.left, Implication):
            left = f"({left})"
        return f"{left} -> {format_formula(formula.right)}"
    symbol = "/\\" if isinstance(formula, Conjunction) else "\\/"
    left = format_formula(formula.left)
    right = format_formula(formula.right)
    if not isinstance(formula.left, (Atom, Bottom)):
        left = f"({left})"
    if not isinstance(formula.right, (Atom, Bottom)):
        right = f"({right})"
    return f"{left} {symbol} {right}"
