"""Dyckhoff's contraction-free sequent calculus G4ip (LJT).

A complete, terminating decision procedure for propositional intuitionistic
logic with no loop checking: the left-implication rule is split into four
cases by the shape of the implication's antecedent, each of which strictly
decreases a multiset ordering (Dyckhoff 1992).  This is the proof-search
family the paper's fCube baseline belongs to — full backward sequent search
over the whole hypothesis multiset, which is exactly why it struggles on the
3000+-declaration environments where the succinct engine shines.

Rules implemented (Gamma is a set — G4ip admits set-based contexts):

=============  =========================================================
axiom          ``Gamma, p |- p``                 (p atomic)
L-bottom       ``Gamma, _|_ |- G``
R-impl         ``Gamma, A |- B  =>  Gamma |- A -> B``
R-conj         both conjuncts
R-disj         either disjunct (branching)
L-conj         ``A /\\ B`` replaced by ``A, B``
L-disj         branch on both disjuncts (invertible)
L0-impl        ``p, p -> B``  replaced by  ``p, B``  (p atomic in Gamma)
L-conj-impl    ``(A /\\ B) -> C``  replaced by  ``A -> (B -> C)``
L-disj-impl    ``(A \\/ B) -> C``  replaced by  ``A -> C, B -> C``
L-bottom-impl  ``_|_ -> C``  dropped
L-impl-impl    ``(A -> B) -> C``: prove ``B -> C |- A -> B`` and ``C |- G``
=============  =========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.errors import BudgetExhaustedError
from repro.provers.formulas import (Atom, Bottom, Conjunction, Disjunction,
                                    Formula, Implication)

Sequent = tuple[frozenset, Formula]  # (hypotheses, goal)


@dataclass
class G4ipStats:
    """Search-effort counters for benchmarking."""

    sequents_visited: int = 0
    cache_hits: int = 0
    max_depth: int = 0


class G4ipProver:
    """A reusable G4ip prover with memoisation across queries."""

    name = "g4ip"

    def __init__(self, time_limit: Optional[float] = None):
        self._memo: dict[Sequent, bool] = {}
        self._time_limit = time_limit
        self._deadline: Optional[float] = None
        self.stats = G4ipStats()

    def prove(self, hypotheses: Iterable[Formula], goal: Formula) -> bool:
        """Decide ``hypotheses |- goal``.

        Raises :class:`BudgetExhaustedError` when the configured time limit
        runs out — callers treat that as a timeout, mirroring how the paper
        reports prover timeouts.
        """
        if self._time_limit is not None:
            self._deadline = time.perf_counter() + self._time_limit
        return self._prove(frozenset(hypotheses), goal, 0)

    # -- the calculus ---------------------------------------------------------

    def _prove(self, gamma: frozenset, goal: Formula, depth: int) -> bool:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise BudgetExhaustedError("G4ip time limit exceeded")

        key = (gamma, goal)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.sequents_visited += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)

        result = self._step(gamma, goal, depth)
        self._memo[key] = result
        return result

    def _step(self, gamma: frozenset, goal: Formula, depth: int) -> bool:
        # Saturate the invertible rules iteratively (rather than one
        # recursion level per rule application) so that multi-thousand-
        # hypothesis environments do not exhaust the Python stack.
        working = set(gamma)
        while True:
            if self._deadline is not None and \
                    time.perf_counter() > self._deadline:
                raise BudgetExhaustedError("G4ip time limit exceeded")

            # R-impl is invertible: move antecedents into the context.
            if isinstance(goal, Implication):
                working.add(goal.left)
                goal = goal.right
                continue

            applied = False
            for hypothesis in list(working):
                if isinstance(hypothesis, Conjunction):
                    working.discard(hypothesis)
                    working.add(hypothesis.left)
                    working.add(hypothesis.right)
                    applied = True
                    break
                if isinstance(hypothesis, Implication):
                    antecedent = hypothesis.left
                    if isinstance(antecedent, Bottom):
                        working.discard(hypothesis)
                        applied = True
                        break
                    if isinstance(antecedent, Atom) and antecedent in working:
                        working.discard(hypothesis)
                        working.add(hypothesis.right)
                        applied = True
                        break
                    if isinstance(antecedent, Conjunction):
                        working.discard(hypothesis)
                        working.add(Implication(
                            antecedent.left,
                            Implication(antecedent.right, hypothesis.right)))
                        applied = True
                        break
                    if isinstance(antecedent, Disjunction):
                        working.discard(hypothesis)
                        working.add(Implication(antecedent.left,
                                                hypothesis.right))
                        working.add(Implication(antecedent.right,
                                                hypothesis.right))
                        applied = True
                        break
            if not applied:
                break
        gamma = frozenset(working)

        # Axiom and L-bottom on the saturated sequent.
        if isinstance(goal, Atom) and goal in gamma:
            return True
        if Bottom() in gamma:
            return True

        # Invertible right rule for conjunction (branches, so memoised
        # recursion rather than the loop above).
        if isinstance(goal, Conjunction):
            return (self._prove(gamma, goal.left, depth + 1)
                    and self._prove(gamma, goal.right, depth + 1))

        # L-disj (invertible but branching in work, done after the cheap ones).
        for hypothesis in gamma:
            if isinstance(hypothesis, Disjunction):
                rest = gamma - {hypothesis}
                return (self._prove(rest | {hypothesis.left}, goal, depth + 1)
                        and self._prove(rest | {hypothesis.right}, goal,
                                        depth + 1))

        # Non-invertible rules.
        if isinstance(goal, Disjunction):
            if self._prove(gamma, goal.left, depth + 1):
                return True
            if self._prove(gamma, goal.right, depth + 1):
                return True

        # L-impl-impl: try each nested implication hypothesis.
        for hypothesis in gamma:
            if isinstance(hypothesis, Implication) and \
                    isinstance(hypothesis.left, Implication):
                nested = hypothesis.left          # A -> B
                rest = gamma - {hypothesis}
                premise_left = rest | {Implication(nested.right,
                                                   hypothesis.right)}
                if self._prove(premise_left, nested, depth + 1) and \
                        self._prove(rest | {hypothesis.right}, goal,
                                    depth + 1):
                    return True

        return False


def prove_g4ip(hypotheses: Iterable[Formula], goal: Formula,
               time_limit: Optional[float] = None) -> bool:
    """One-shot G4ip provability check."""
    return G4ipProver(time_limit=time_limit).prove(hypotheses, goal)
