"""What one run measured, and the metrics it reports.

A :class:`Recorder` collects raw samples while a workload runs; its
:meth:`~Recorder.end_to_end` and the workload's own per-layer code turn
them into the metrics ``BENCHMARK.json`` names.  Every failed check is a
failed operation against the number attempted.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from perfbench import stats

#: The paper's interactive limit (Figure 1 lands in the top 5 in < 250 ms).
LIMIT_S = 0.250

#: The tail percentile the report prints for the steady completions.  It
#: is not an end-to-end metric: over a 2-vCPU host's swings in speed the
#: p90 of serve-cold's misses spread 0.32 of its median over ten runs.
TAIL_Q = 0.90

#: Operation classes whose timings feed end-to-end metrics.
READY = "ready"         # prepare in-process, register round trip on the wire
FIRST = "first"         # first completion on a scene that was just made ready
STEADY = "steady"       # later completions, all cache misses
EDIT = "edit"           # one add batch, which re-prepares (table2-session)
UNDO = "undo"           # one undo batch, a scene-table hit (table2-session)


class Recorder:
    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (seconds, answered correctly) for every completion attempted.
        self.completions: list[tuple[float, bool]] = []
        #: Expected-snippet rank per ranked query (None = not returned).
        self.ranks: list[Optional[int]] = []
        #: Per-query work counts, for the determinism self-check.
        self.work: list[dict] = []
        self.timed_seconds = 0.0
        self.setup_seconds = 0.0
        self.peak_rss_mb = 0.0
        self.host_ref_ms: list[float] = []
        #: Gaps between when an operation was due and when it was sent.
        self.late: list[float] = []
        #: Gen-2 collections that ran inside a steady completion.
        self.steady_gen2 = 0
        #: Gen-2 collections per backend process during the timed phase
        #: (over the wire; in-process the harness's own GC is the
        #: program's).
        self.backend_gen2: Optional[list[int]] = None

    # -- checks ---------------------------------------------------------------

    def attempt(self, ok: bool, message: str = "") -> bool:
        """Count one operation; a failed one keeps its message."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok

    def completion(self, seconds: float, ok: bool) -> None:
        self.completions.append((seconds, ok))

    # -- metrics --------------------------------------------------------------

    def _ms(self, name: str) -> float:
        values = self.samples[name]
        if not values:
            self.attempt(False, f"no {name} samples")
            return float("nan")
        return stats.median(values) * 1000.0

    def end_to_end(self) -> dict:
        answered = [seconds for seconds, ok in self.completions if ok]
        ranked = self.ranks or [None]
        return {
            "setup_s": (self.setup_seconds, "s"),
            "scene_ready_ms": (self._ms(READY), "ms"),
            "first_complete_ms": (self._ms(FIRST), "ms"),
            "miss_complete_ms": (self._ms(STEADY), "ms"),
            "completions_per_s": (len(answered) / self.timed_seconds
                                  if self.timed_seconds else 0.0, "1/s"),
            "within_250ms_share": (
                sum(1 for seconds, ok in self.completions
                    if ok and seconds <= LIMIT_S)
                / max(1, len(self.completions)), "share"),
            "expected_mrr": (sum(1.0 / rank for rank in ranked if rank)
                             / len(ranked), "share"),
            "expected_top10_share": (
                sum(1 for rank in ranked if rank and rank <= 10)
                / len(ranked), "share"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def tail_ms(self) -> Optional[float]:
        """p90 of the steady completions, when 10 samples lie beyond it."""
        tail = stats.tail(self.samples[STEADY], TAIL_Q)
        return None if tail is None else tail * 1000.0

    def counts(self) -> dict:
        """Sample counts behind each end-to-end timing, for the report."""
        return {
            "scene_ready_ms": len(self.samples[READY]),
            "first_complete_ms": len(self.samples[FIRST]),
            "miss_complete_ms": len(self.samples[STEADY]),
            "completions_per_s": len(self.completions),
            "within_250ms_share": len(self.completions),
            "expected_mrr": len(self.ranks),
            "expected_top10_share": len(self.ranks),
        }
