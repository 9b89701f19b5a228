"""Semantic filtering of synthesized snippets (paper §9, citing [16]).

The paper proposes using the ranked, complete stream of type-correct
expressions as the *first phase* of semantic synthesis: keep generating
candidates, discard those that violate a semantic specification — in the
simplest case, input/output examples.

This module supplies the two pieces:

* :func:`evaluate_term` — a call-by-value interpreter for long-normal-form
  terms.  Environment declarations are given Python *denotations* (values
  for nullary declarations, callables taking one positional argument per
  declared parameter otherwise).  Lambda binders become Python closures, so
  higher-order snippets (``x => p(x)``) evaluate naturally.  Coercions are
  identities, consistent with their erasure (§6).

* :func:`filter_snippets` — keep the snippets consistent with a list of
  :class:`Example` input/output pairs; evaluation errors count as
  inconsistency (a candidate that crashes on an example is wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.errors import ReproError
from repro.core.subtyping import is_coercion_name
from repro.core.synthesizer import Snippet
from repro.core.terms import LNFTerm

#: A denotation: a ground value, or a callable applied to argument values.
Denotation = Any


class EvaluationError(ReproError):
    """A term could not be evaluated under the given denotations."""


@dataclass(frozen=True)
class Example:
    """One input/output example.

    ``inputs`` are fed to the term's lambda binders in order (empty for
    ground goals); ``output`` is compared with ``==``.
    """

    inputs: tuple
    output: Any

    @staticmethod
    def of(*inputs_then_output: Any) -> "Example":
        """``Example.of(2, 3, 5)`` reads "on inputs 2 and 3, expect 5"."""
        if not inputs_then_output:
            raise ValueError("an example needs at least an output")
        *inputs, output = inputs_then_output
        return Example(tuple(inputs), output)


def evaluate_term(term: LNFTerm, denotations: Mapping[str, Denotation],
                  _scope: Mapping[str, Any] | None = None) -> Any:
    """Evaluate a long-normal-form *term*.

    Heads are resolved against the lambda scope first, then *denotations*.
    A head applied to arguments must denote a callable of that arity.
    """
    scope: dict[str, Any] = dict(_scope or {})

    if term.binders:
        binder_names = [binder.name for binder in term.binders]
        body = LNFTerm((), term.head, term.arguments)

        def closure(*args: Any) -> Any:
            if len(args) != len(binder_names):
                raise EvaluationError(
                    f"lambda of {len(binder_names)} parameters called with "
                    f"{len(args)} arguments")
            inner = dict(scope)
            inner.update(zip(binder_names, args))
            return evaluate_term(body, denotations, inner)

        return closure

    arguments = [evaluate_term(argument, denotations, scope)
                 for argument in term.arguments]

    if is_coercion_name(term.head):
        if len(arguments) != 1:
            raise EvaluationError(f"coercion {term.head!r} is not unary")
        return arguments[0]

    if term.head in scope:
        value = scope[term.head]
    elif term.head in denotations:
        value = denotations[term.head]
    else:
        raise EvaluationError(f"no denotation for {term.head!r}")

    if not arguments:
        return value
    if not callable(value):
        raise EvaluationError(
            f"{term.head!r} applied to {len(arguments)} arguments but its "
            f"denotation is not callable")
    try:
        return value(*arguments)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(
            f"evaluating {term.head!r} raised {exc!r}") from exc


def satisfies_examples(term: LNFTerm,
                       examples: Iterable[Example],
                       denotations: Mapping[str, Denotation]) -> bool:
    """Does *term* agree with every example?  Errors count as disagreement."""
    try:
        value = evaluate_term(term, denotations)
        for example in examples:
            result = value(*example.inputs) if example.inputs else value
            if result != example.output:
                return False
    except EvaluationError:
        return False
    return True


def filter_snippets(snippets: Sequence[Snippet],
                    examples: Iterable[Example],
                    denotations: Mapping[str, Denotation],
                    ) -> list[Snippet]:
    """The §9 pipeline: type-correct stream in, example-consistent out.

    Ranks are preserved from the input ordering (weight order), so the
    first surviving snippet is the best-ranked semantically correct one.
    """
    examples = list(examples)
    return [snippet for snippet in snippets
            if satisfies_examples(snippet.surface_term, examples,
                                  denotations)]
