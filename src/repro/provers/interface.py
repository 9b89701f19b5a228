"""A common prover interface for the Table 2 prover comparison.

All three engines — the succinct-calculus prover (InSynth's own), G4ip
(fCube's family) and the inverse method (Imogen's family) — are exposed
behind one ``prove_timed`` API returning a :class:`ProofResult`, so the
benchmark harness can time them on identical queries and report timeouts
uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from repro.core.config import SynthesisConfig
from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.errors import BudgetExhaustedError
from repro.core.synthesizer import Synthesizer
from repro.provers.formulas import Formula
from repro.provers.translation import formula_to_type


@dataclass(frozen=True)
class ProofResult:
    """Outcome of one timed provability query."""

    prover: str
    provable: Optional[bool]  # None on timeout
    seconds: float
    timed_out: bool = False

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


class Prover(Protocol):
    """Anything that can decide ``hypotheses |- goal``."""

    name: str

    def prove(self, hypotheses: Iterable[Formula], goal: Formula) -> bool:
        ...


class SuccinctProver:
    """InSynth's own engine behind the common prover interface.

    Hypothesis formulas become a fresh environment of anonymous
    declarations (Curry–Howard in reverse); proving is exploration +
    pattern generation only, no reconstruction — exactly the paper's
    "prover" measurement.
    """

    name = "succinct"

    def __init__(self, time_limit: Optional[float] = None):
        self._time_limit = time_limit

    def prove(self, hypotheses: Iterable[Formula], goal: Formula) -> bool:
        declarations = [
            Declaration(f"h{index}", formula_to_type(formula), DeclKind.LOCAL)
            for index, formula in enumerate(hypotheses)
        ]
        environment = Environment(declarations)
        config = SynthesisConfig(prover_time_limit=self._time_limit,
                                 prioritised_exploration=False)
        synthesizer = Synthesizer(environment, config=config)
        space, patterns = synthesizer.prove(formula_to_type(goal))
        if space.truncated:
            raise BudgetExhaustedError("succinct prover time limit exceeded")
        return patterns.is_inhabited(space.root)


def prove_timed(prover: Prover, hypotheses: Iterable[Formula],
                goal: Formula) -> ProofResult:
    """Run one prover on one query, catching timeouts."""
    hypotheses = list(hypotheses)
    start = time.perf_counter()
    try:
        provable = prover.prove(hypotheses, goal)
    except BudgetExhaustedError:
        return ProofResult(prover.name, None,
                           time.perf_counter() - start, timed_out=True)
    return ProofResult(prover.name, provable, time.perf_counter() - start)
