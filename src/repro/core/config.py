"""Synthesis configuration (paper §5.6 and §7.5).

The paper's deployment exposes two user-facing budgets — a prover limit
(0.5 s in the evaluation) and a reconstruction limit (7 s) — plus the number
of snippets to display (N = 10).  :class:`SynthesisConfig` captures those and
the engineering knob the implementation sections describe: the exploration
queue discipline (weighted priority vs. plain FIFO).  Pattern generation
always runs interleaved with exploration (§5.6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class SynthesisConfig:
    """Budgets and strategy switches for one synthesis invocation."""

    #: Maximum number of snippets to return (the paper's N; Table 2 uses 10).
    max_snippets: int = 10
    #: Wall-clock budget for the prover = explore + pattern phases (§5.6).
    prover_time_limit: Optional[float] = 0.5
    #: Wall-clock budget for term reconstruction (§7.5 uses 7 s).
    reconstruction_time_limit: Optional[float] = 7.0
    #: Hard cap on explored requests (safety net; None = unbounded).
    max_explore_nodes: Optional[int] = 200_000
    #: Hard cap on reconstruction queue expansions (safety net).
    max_reconstruction_steps: Optional[int] = 500_000
    #: Optional cap on term size (head count) during reconstruction.
    max_term_size: Optional[int] = None
    #: Weighted priority queue in exploration (§5.6); False = FIFO.
    prioritised_exploration: bool = True

    @staticmethod
    def paper_defaults() -> "SynthesisConfig":
        """The §7.5 evaluation settings: N=10, 0.5 s prover, 7 s recon."""
        return SynthesisConfig()

    @staticmethod
    def exhaustive() -> "SynthesisConfig":
        """No time limits — used by tests that enumerate everything."""
        return SynthesisConfig(max_snippets=10_000,
                               prover_time_limit=None,
                               reconstruction_time_limit=None)

    def with_(self, **overrides) -> "SynthesisConfig":
        """A copy with some fields replaced."""
        return replace(self, **overrides)
