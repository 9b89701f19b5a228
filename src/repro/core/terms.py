"""Lambda terms and long normal forms (paper §3.1).

Two term representations live here:

* **Generic terms** — :class:`Variable` / :class:`Abstraction` /
  :class:`Application` — the ordinary simply typed lambda calculus.  They
  support substitution, beta normalisation and eta-long expansion, which the
  test suite uses to validate Theorem 3.3 (every simply typed term converts
  to long normal form, and synthesis finds exactly the long-normal-form
  inhabitants).

* **LNF terms** — :class:`LNFTerm` — the canonical shape
  ``\\x1...xm. f e1 ... en`` from Definition 3.1, with the head ``f`` always a
  named declaration or bound variable and every argument again in LNF.  This
  is the shape the synthesizer produces, and the shape the paper's depth
  measure ``D`` is defined on.

Both representations are immutable, hashable and compare structurally, which
makes them safe as dictionary keys in memo tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.core.types import Type, argument_types, uncurry


# ---------------------------------------------------------------------------
# Generic lambda terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    """A named variable occurrence."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Abstraction:
    """Single-binder abstraction ``\\name: tpe. body``."""

    parameter: str
    parameter_type: Type
    body: "Term"

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class Application:
    """Application ``function argument``."""

    function: "Term"
    argument: "Term"

    def __str__(self) -> str:
        return format_term(self)


Term = Union[Variable, Abstraction, Application]


def abstraction(parameters: list[tuple[str, Type]], body: Term) -> Term:
    """Build the nested abstraction ``\\p1...pn. body``."""
    for name, tpe in reversed(parameters):
        body = Abstraction(name, tpe, body)
    return body


def application(function: Term, *arguments: Term) -> Term:
    """Build the left-nested application ``function a1 ... an``."""
    for argument in arguments:
        function = Application(function, argument)
    return function


def free_variables(term: Term) -> frozenset[str]:
    """The free variable names of *term*."""
    if isinstance(term, Variable):
        return frozenset((term.name,))
    if isinstance(term, Abstraction):
        return free_variables(term.body) - {term.parameter}
    return free_variables(term.function) | free_variables(term.argument)


def _fresh_against(base_name: str, avoid: frozenset[str]) -> str:
    if base_name not in avoid:
        return base_name
    for index in itertools.count():
        candidate = f"{base_name}_{index}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution ``term[name := replacement]``."""
    if isinstance(term, Variable):
        return replacement if term.name == name else term
    if isinstance(term, Application):
        return Application(
            substitute(term.function, name, replacement),
            substitute(term.argument, name, replacement),
        )
    assert isinstance(term, Abstraction)
    if term.parameter == name:
        return term
    if term.parameter in free_variables(replacement) and name in free_variables(term.body):
        avoid = free_variables(term.body) | free_variables(replacement) | {name}
        renamed = _fresh_against(term.parameter, avoid)
        body = substitute(term.body, term.parameter, Variable(renamed))
        return Abstraction(
            renamed, term.parameter_type, substitute(body, name, replacement)
        )
    return Abstraction(
        term.parameter, term.parameter_type, substitute(term.body, name, replacement)
    )


def beta_reduce_once(term: Term) -> tuple[Term, bool]:
    """One leftmost-outermost beta step.  Returns ``(term', reduced?)``."""
    if isinstance(term, Application):
        if isinstance(term.function, Abstraction):
            inner = term.function
            return substitute(inner.body, inner.parameter, term.argument), True
        function, reduced = beta_reduce_once(term.function)
        if reduced:
            return Application(function, term.argument), True
        argument, reduced = beta_reduce_once(term.argument)
        return Application(term.function, argument), reduced
    if isinstance(term, Abstraction):
        body, reduced = beta_reduce_once(term.body)
        return Abstraction(term.parameter, term.parameter_type, body), reduced
    return term, False


def beta_normalize(term: Term, max_steps: int = 10_000) -> Term:
    """Normal-order beta normalisation.

    Simply typed terms are strongly normalising, so this terminates for every
    well-typed input; *max_steps* guards against ill-typed test inputs.
    """
    for _ in range(max_steps):
        term, reduced = beta_reduce_once(term)
        if not reduced:
            return term
    raise RecursionError("beta normalisation exceeded the step budget")


def alpha_equivalent(left: Term, right: Term) -> bool:
    """Structural equality of *left* and *right* up to bound-variable names."""

    def walk(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int],
             level: int) -> bool:
        if isinstance(a, Variable) and isinstance(b, Variable):
            in_a, in_b = a.name in env_a, b.name in env_b
            if in_a != in_b:
                return False
            if in_a:
                return env_a[a.name] == env_b[b.name]
            return a.name == b.name
        if isinstance(a, Abstraction) and isinstance(b, Abstraction):
            if a.parameter_type != b.parameter_type:
                return False
            env_a2 = dict(env_a)
            env_b2 = dict(env_b)
            env_a2[a.parameter] = level
            env_b2[b.parameter] = level
            return walk(a.body, b.body, env_a2, env_b2, level + 1)
        if isinstance(a, Application) and isinstance(b, Application):
            return (walk(a.function, b.function, env_a, env_b, level)
                    and walk(a.argument, b.argument, env_a, env_b, level))
        return False

    return walk(left, right, {}, {}, 0)


def format_term(term: Term) -> str:
    """Render a generic term with conventional parenthesisation."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Abstraction):
        binders = []
        body: Term = term
        while isinstance(body, Abstraction):
            binders.append(f"{body.parameter}:{body.parameter_type}")
            body = body.body
        return "\\" + " ".join(binders) + ". " + format_term(body)
    assert isinstance(term, Application)
    function = format_term(term.function)
    if isinstance(term.function, Abstraction):
        function = f"({function})"
    argument = format_term(term.argument)
    if isinstance(term.argument, (Abstraction, Application)):
        argument = f"({argument})"
    return f"{function} {argument}"


# ---------------------------------------------------------------------------
# Long-normal-form terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binder:
    """A typed lambda binder ``name : tpe`` in an LNF term."""

    name: str
    type: Type

    def __str__(self) -> str:
        return f"{self.name}:{self.type}"


@dataclass(frozen=True)
class LNFTerm:
    """A term ``\\b1...bm. head a1 ... an`` in long normal form (Def. 3.1).

    ``head`` is the name of a declaration from the environment or of one of
    the enclosing binders; every argument is itself an :class:`LNFTerm`.
    """

    binders: tuple[Binder, ...]
    head: str
    arguments: tuple["LNFTerm", ...] = field(default=())

    def __str__(self) -> str:
        return format_lnf(self)


def lnf(head: str, *arguments: LNFTerm, binders: tuple[Binder, ...] = ()) -> LNFTerm:
    """Convenience constructor for LNF terms."""
    return LNFTerm(binders, head, tuple(arguments))


def lnf_depth(term: LNFTerm) -> int:
    """The paper's depth measure ``D`` (§3.1).

    ``D(\\xs. a) = 1`` for a bare head, and
    ``D(\\xs. f e1...en) = max(D(ei)) + 1`` otherwise.
    """
    if not term.arguments:
        return 1
    return max(lnf_depth(argument) for argument in term.arguments) + 1


def lnf_size(term: LNFTerm) -> int:
    """Number of head occurrences in the term (declaration count)."""
    return 1 + sum(lnf_size(argument) for argument in term.arguments)


def lnf_heads(term: LNFTerm) -> tuple[str, ...]:
    """All head names, preorder.  Useful for rank matching and weights."""
    heads = [term.head]
    for argument in term.arguments:
        heads.extend(lnf_heads(argument))
    return tuple(heads)


def lnf_to_term(term: LNFTerm) -> Term:
    """Convert LNF representation to a generic lambda term."""
    body: Term = Variable(term.head)
    for argument in term.arguments:
        body = Application(body, lnf_to_term(argument))
    return abstraction([(b.name, b.type) for b in term.binders], body)


def lnf_alpha_equivalent(left: LNFTerm, right: LNFTerm) -> bool:
    """Alpha-equivalence on LNF terms via the generic representation."""
    return alpha_equivalent(lnf_to_term(left), lnf_to_term(right))


def format_lnf(term: LNFTerm) -> str:
    """Render an LNF term; arguments parenthesised when compound."""
    parts = []
    if term.binders:
        parts.append("\\" + " ".join(str(b) for b in term.binders) + ".")
    parts.append(term.head)
    for argument in term.arguments:
        rendered = format_lnf(argument)
        if argument.arguments or argument.binders:
            rendered = f"({rendered})"
        parts.append(rendered)
    return " ".join(parts)


def canonicalize_lnf(term: LNFTerm) -> LNFTerm:
    """Rename binders to a canonical preorder numbering.

    Two LNF terms are alpha-equivalent iff their canonical forms are equal,
    which lets tests compare *sets* of terms (Theorem 3.3) cheaply.
    """

    def walk(node: LNFTerm, renaming: dict[str, str], counter: list[int]) -> LNFTerm:
        inner = dict(renaming)
        binders = []
        for binder in node.binders:
            fresh = f"_b{counter[0]}"
            counter[0] += 1
            inner[binder.name] = fresh
            binders.append(Binder(fresh, binder.type))
        head = inner.get(node.head, node.head)
        arguments = tuple(walk(argument, inner, counter)
                          for argument in node.arguments)
        return LNFTerm(tuple(binders), head, arguments)

    return walk(term, {}, [0])


def eta_long_form(term: Term, term_type: Type,
                  variable_types: Mapping[str, Type]) -> LNFTerm:
    """Convert a beta-normal *term* of type *term_type* to long normal form.

    Implements the standard eta-expansion to LNF (the conversion the paper
    cites from Dowek [6]): every head is applied to exactly as many arguments
    as its type demands, introducing fresh binders where the term is
    under-applied.

    *variable_types* must give types for every free variable of *term*.
    Raises :class:`ValueError` for terms that are not beta-normal.
    """
    expected_args, _ = uncurry(term_type)
    scope: dict[str, Type] = dict(variable_types)

    binders: list[Binder] = []
    body = term
    # Peel explicit binders, tracking their types.
    while isinstance(body, Abstraction):
        binders.append(Binder(body.parameter, body.parameter_type))
        scope[body.parameter] = body.parameter_type
        body = body.body
    # Eta-expand missing binders.
    used = set(scope) | free_variables(body) | {b.name for b in binders}
    extra: list[Binder] = []
    for position in range(len(binders), len(expected_args)):
        name = _fresh_against(f"eta{position}", frozenset(used))
        used.add(name)
        binder = Binder(name, expected_args[position])
        extra.append(binder)
        scope[name] = expected_args[position]

    # Decompose the application spine.
    spine: list[Term] = []
    head = body
    while isinstance(head, Application):
        spine.append(head.argument)
        head = head.function
    spine.reverse()
    if not isinstance(head, Variable):
        raise ValueError(f"term is not beta-normal: head is {head!r}")
    if head.name not in scope:
        raise ValueError(f"free variable {head.name!r} has no declared type")

    head_args = list(argument_types(scope[head.name]))
    full_spine = spine + [Variable(binder.name) for binder in extra]
    if len(full_spine) != len(head_args):
        raise ValueError(
            f"head {head.name!r} applied to {len(full_spine)} arguments, "
            f"its type takes {len(head_args)}"
        )
    converted = tuple(
        eta_long_form(argument, head_args[index], scope)
        for index, argument in enumerate(full_spine)
    )
    return LNFTerm(tuple(binders) + tuple(extra), head.name, converted)


def is_long_normal_form(term: LNFTerm, term_type: Type,
                        variable_types: Mapping[str, Type]) -> bool:
    """Check Definition 3.1 structurally (used by tests as an invariant).

    The head must be fully applied according to its declared type, the
    binders must match the curried arguments of *term_type*, and every
    argument must recursively be in long normal form.
    """
    expected_args, _ = uncurry(term_type)
    if len(term.binders) != len(expected_args):
        return False
    for binder, expected in zip(term.binders, expected_args):
        if binder.type != expected:
            return False
    scope = dict(variable_types)
    for binder in term.binders:
        scope[binder.name] = binder.type
    if term.head not in scope:
        return False
    head_args = argument_types(scope[term.head])
    if len(term.arguments) != len(head_args):
        return False
    return all(
        is_long_normal_form(argument, head_args[index], scope)
        for index, argument in enumerate(term.arguments)
    )
