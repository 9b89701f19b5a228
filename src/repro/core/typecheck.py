"""Type checkers (paper Fig. 2 and §6).

Three checkers, used throughout the tests as ground truth:

* :func:`infer_type` — standard STLC type inference for generic terms.
* :func:`check_lnf` — the long-normal-form judgement of Fig. 2: the head of
  every application spine must be a declared name, applied to exactly as
  many arguments as its type takes, and the result of every abstraction body
  must be a basic type.
* :func:`check_lnf_subsumed` — the same judgement extended with the
  subsumption rule of §6, validating coercion-erased snippets against a
  subtype graph.

All three raise :class:`TypeCheckError` with a readable message on failure;
the ``*_ok`` wrappers return booleans for use in property tests.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.errors import TypeCheckError, UnknownDeclarationError
from repro.core.subtyping import SubtypeGraph
from repro.core.terms import (Abstraction, Application, LNFTerm, Term,
                              Variable)
from repro.core.types import Arrow, Type, is_base, uncurry


def infer_type(term: Term, variable_types: Mapping[str, Type]) -> Type:
    """Infer the simple type of a generic *term*.

    *variable_types* supplies the types of free variables (the environment
    Gamma_o plus any enclosing binders).
    """
    if isinstance(term, Variable):
        tpe = variable_types.get(term.name)
        if tpe is None:
            raise UnknownDeclarationError(f"unbound variable {term.name!r}")
        return tpe
    if isinstance(term, Abstraction):
        inner = dict(variable_types)
        inner[term.parameter] = term.parameter_type
        return Arrow(term.parameter_type, infer_type(term.body, inner))
    assert isinstance(term, Application)
    function_type = infer_type(term.function, variable_types)
    if not isinstance(function_type, Arrow):
        raise TypeCheckError(
            f"cannot apply non-function of type {function_type} in {term}")
    argument_type = infer_type(term.argument, variable_types)
    if argument_type != function_type.argument:
        raise TypeCheckError(
            f"argument type mismatch: expected {function_type.argument}, "
            f"got {argument_type} in {term}")
    return function_type.result


def check_term(term: Term, expected: Type,
               variable_types: Mapping[str, Type]) -> None:
    """Assert ``Gamma |- term : expected`` in plain STLC."""
    actual = infer_type(term, variable_types)
    if actual != expected:
        raise TypeCheckError(f"expected type {expected}, inferred {actual}")


def check_lnf(term: LNFTerm, expected: Type,
              variable_types: Mapping[str, Type]) -> None:
    """The long-normal-form judgement of Fig. 2 (APP + ABS).

    Checks, recursively:

    * the binders of *term* consume exactly the curried arguments of
      *expected* (ABS), leaving a basic result type;
    * the head is bound in scope and is applied to exactly ``arity`` many
      arguments (APP), each again in long normal form at the corresponding
      argument type;
    * the head's final result matches the expected basic type.
    """
    expected_args, expected_result = uncurry(expected)
    if len(term.binders) != len(expected_args):
        raise TypeCheckError(
            f"{term}: {len(term.binders)} binders for type {expected} "
            f"(needs {len(expected_args)})")
    scope = dict(variable_types)
    for binder, expected_arg in zip(term.binders, expected_args):
        if binder.type != expected_arg:
            raise TypeCheckError(
                f"{term}: binder {binder} should have type {expected_arg}")
        scope[binder.name] = binder.type

    head_type = scope.get(term.head)
    if head_type is None:
        raise UnknownDeclarationError(f"{term}: unbound head {term.head!r}")
    head_args, head_result = uncurry(head_type)
    if head_result != expected_result:
        raise TypeCheckError(
            f"{term}: head returns {head_result}, expected {expected_result}")
    if len(term.arguments) != len(head_args):
        raise TypeCheckError(
            f"{term}: head {term.head!r} takes {len(head_args)} arguments, "
            f"got {len(term.arguments)} (not in long normal form)")
    for argument, argument_type in zip(term.arguments, head_args):
        check_lnf(argument, argument_type, scope)


def check_lnf_subsumed(term: LNFTerm, expected: Type,
                       variable_types: Mapping[str, Type],
                       graph: SubtypeGraph) -> None:
    """Fig. 2 judgement extended with subsumption (§6).

    The head's result may be any subtype of the expected basic type, and each
    argument's synthesized type may be a subtype of the head's parameter
    type.  This is the judgement that coercion-erased snippets satisfy.
    """
    expected_args, expected_result = uncurry(expected)
    if len(term.binders) != len(expected_args):
        raise TypeCheckError(
            f"{term}: {len(term.binders)} binders for type {expected}")
    scope = dict(variable_types)
    for binder, expected_arg in zip(term.binders, expected_args):
        # Contravariance would allow a supertype binder; we require equality,
        # matching the coercion encoding (coercions only wrap applications).
        if binder.type != expected_arg:
            raise TypeCheckError(
                f"{term}: binder {binder} should have type {expected_arg}")
        scope[binder.name] = binder.type

    head_type = scope.get(term.head)
    if head_type is None:
        raise UnknownDeclarationError(f"{term}: unbound head {term.head!r}")
    head_args, head_result = uncurry(head_type)
    if not graph.is_subtype(head_result.name, expected_result.name):
        raise TypeCheckError(
            f"{term}: head returns {head_result}, not a subtype of "
            f"{expected_result}")
    if len(term.arguments) != len(head_args):
        raise TypeCheckError(
            f"{term}: head {term.head!r} takes {len(head_args)} arguments, "
            f"got {len(term.arguments)}")
    for argument, argument_type in zip(term.arguments, head_args):
        if is_base(argument_type) and not argument.binders:
            # Subsumption applies at basic argument positions.
            check_lnf_subsumed(argument, argument_type, scope, graph)
        else:
            check_lnf_subsumed(argument, argument_type, scope, graph)


def lnf_type_checks(term: LNFTerm, expected: Type,
                    variable_types: Mapping[str, Type],
                    graph: Optional[SubtypeGraph] = None) -> bool:
    """Boolean wrapper over the LNF checkers (for property tests)."""
    try:
        if graph is None:
            check_lnf(term, expected, variable_types)
        else:
            check_lnf_subsumed(term, expected, variable_types, graph)
    except (TypeCheckError, UnknownDeclarationError):
        return False
    return True
