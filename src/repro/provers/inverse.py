"""A forward-saturating inverse-method prover (Imogen's family).

The inverse method decides ``Gamma_0 |- G`` for the implicational fragment
of propositional intuitionistic logic by *forward* saturation over sequents
built from the signed subformulas of the query:

* every derived sequent has the form ``Delta |- C`` with ``Delta`` a set of
  negative subformulas and ``C`` a positive subformula;
* initial sequents are ``{p} |- p`` for atoms with both polarities;
* rules (with implicit weakening handled by subsumption):

  - **R->**: from ``Delta |- B`` derive ``Delta - {A} |- A -> B`` for each
    positive subformula ``A -> B``;
  - **L->**: from ``Delta1 |- A`` and ``Delta2 |- C`` with ``B`` in
    ``Delta2`` derive ``Delta1 + (Delta2 - {B}) + {A -> B} |- C`` for each
    negative subformula ``A -> B``;

* a sequent ``Delta |- C`` *subsumes* ``Delta' |- C`` when
  ``Delta`` is a subset of ``Delta'``; only unsubsumed sequents are kept;
* success when some derived ``Delta |- G`` has ``Delta`` inside the
  hypothesis set.

Saturation over all hypothesis subformulas is precisely why this family
slows down on huge environments relative to the goal-directed succinct
engine — the effect Table 2's Imogen column shows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.errors import BudgetExhaustedError
from repro.provers.formulas import (Atom, Formula, Implication,
                                    is_implicational)

Sequent = tuple[frozenset, Formula]


@dataclass
class InverseStats:
    """Search-effort counters for benchmarking."""

    generated: int = 0
    kept: int = 0
    subsumed: int = 0
    iterations: int = 0


def _signed_subformulas(hypotheses: list[Formula], goal: Formula,
                        ) -> tuple[set, set]:
    """Collect (negative, positive) signed subformulas of the query."""
    negative: set = set()
    positive: set = set()

    def walk(formula: Formula, sign: bool) -> None:
        target = positive if sign else negative
        if formula in target:
            return
        target.add(formula)
        if isinstance(formula, Implication):
            walk(formula.left, not sign)
            walk(formula.right, sign)

    walk(goal, True)
    for hypothesis in hypotheses:
        walk(hypothesis, False)
    return negative, positive


class InverseMethodProver:
    """Forward inverse-method prover for implicational formulas."""

    name = "inverse"

    def __init__(self, time_limit: Optional[float] = None,
                 max_sequents: int = 200_000):
        self._time_limit = time_limit
        self._max_sequents = max_sequents
        self.stats = InverseStats()

    def prove(self, hypotheses: Iterable[Formula], goal: Formula) -> bool:
        """Decide ``hypotheses |- goal`` (implicational fragment only)."""
        hypotheses = list(hypotheses)
        if not is_implicational(goal) or \
                not all(is_implicational(h) for h in hypotheses):
            raise ValueError("the inverse-method prover handles the "
                             "implicational fragment only")
        deadline = (time.perf_counter() + self._time_limit
                    if self._time_limit is not None else None)
        hypothesis_set = frozenset(hypotheses)

        negative, positive = _signed_subformulas(hypotheses, goal)
        negative_implications = [f for f in negative
                                 if isinstance(f, Implication)]
        positive_implications = [f for f in positive
                                 if isinstance(f, Implication)]

        # Initial sequents: {p} |- p for atoms of both polarities.
        both = {f for f in negative if isinstance(f, Atom)} & \
               {f for f in positive if isinstance(f, Atom)}
        database: list[Sequent] = []
        queue: list[Sequent] = [(frozenset((p,)), p) for p in sorted(
            both, key=lambda a: a.name)]

        def goal_reached(sequent: Sequent) -> bool:
            delta, conclusion = sequent
            return conclusion == goal and delta <= hypothesis_set

        def subsumed_by_database(candidate: Sequent) -> bool:
            delta, conclusion = candidate
            for existing_delta, existing_conclusion in database:
                if existing_conclusion == conclusion and \
                        existing_delta <= delta:
                    return True
            return False

        def add(candidate: Sequent) -> bool:
            """Insert with subsumption; returns True if goal reached."""
            self.stats.generated += 1
            if subsumed_by_database(candidate):
                self.stats.subsumed += 1
                return False
            queue.append(candidate)
            return goal_reached(candidate)

        for sequent in list(queue):
            if goal_reached(sequent):
                return True

        while queue:
            self.stats.iterations += 1
            if deadline is not None and time.perf_counter() > deadline:
                raise BudgetExhaustedError("inverse method time limit exceeded")
            if len(database) > self._max_sequents:
                raise BudgetExhaustedError("inverse method sequent budget "
                                           "exceeded")

            sequent = queue.pop(0)
            if subsumed_by_database(sequent):
                self.stats.subsumed += 1
                continue
            # Retire sequents the new one subsumes.
            delta, conclusion = sequent
            database[:] = [(d, c) for d, c in database
                           if not (c == conclusion and delta <= d)]
            database.append(sequent)
            self.stats.kept += 1

            # R->: close the conclusion under positive implications.
            for implication in positive_implications:
                if implication.right == conclusion:
                    candidate = (delta - {implication.left}, implication)
                    if add(candidate):
                        return True

            # L->: resolve against every database partner.
            for implication in negative_implications:
                for partner_delta, partner_conclusion in list(database):
                    # sequent proves the antecedent, partner consumes B.
                    if conclusion == implication.left and \
                            implication.right in partner_delta:
                        merged = (delta | (partner_delta -
                                           {implication.right})
                                  | {implication})
                        if add((merged, partner_conclusion)):
                            return True
                    # partner proves the antecedent, sequent consumes B.
                    if partner_conclusion == implication.left and \
                            implication.right in delta:
                        merged = (partner_delta | (delta - {implication.right})
                                  | {implication})
                        if add((merged, conclusion)):
                            return True

        return False


def prove_inverse(hypotheses: Iterable[Formula], goal: Formula,
                  time_limit: Optional[float] = None) -> bool:
    """One-shot inverse-method provability check."""
    return InverseMethodProver(time_limit=time_limit).prove(hypotheses, goal)
