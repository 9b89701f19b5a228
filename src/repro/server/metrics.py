"""Live serving metrics: counters, gauges and latency percentiles.

Everything here is mutated from the event loop only (the server records
latencies after ``await``-ing executor work, never inside it), so plain
ints and deques suffice — no locks.  ``/v1/stats`` serves
:meth:`ServerMetrics.snapshot` verbatim.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Iterable, Optional


def percentile(samples: Iterable[float], fraction: float) -> Optional[float]:
    """The *fraction*-quantile (0..1) of *samples* as an exact order statistic.

    Sorts the samples and indexes ``min(int(fraction * n), n - 1)``;
    ``None`` on no samples.  The live windows here and in the router, and
    the load harness's SLO accounting, all use this one convention.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


class LatencyWindow:
    """Percentiles over the most recent *window* samples.

    A bounded ring keeps the snapshot O(window log window) and makes the
    percentiles reflect *current* behaviour rather than the whole process
    lifetime (a cold start would otherwise poison p95 forever).
    """

    def __init__(self, window: int = 2048):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self.total += seconds

    def percentile(self, fraction: float) -> Optional[float]:
        """The *fraction*-quantile (0..1) of the current window, or None."""
        return percentile(self._samples, fraction)

    def snapshot(self) -> dict:
        def _ms(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else round(seconds * 1000, 3)

        # Like the percentiles, max covers the current window only — a
        # one-off cold-start spike ages out instead of poisoning the
        # gauge forever.  count/mean stay lifetime.
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "p50_ms": _ms(self.percentile(0.50)),
            "p95_ms": _ms(self.percentile(0.95)),
            "max_ms": _ms(max(self._samples) if self._samples else None),
            "mean_ms": _ms(mean),
        }


class ServerMetrics:
    """Counters for one :class:`~repro.server.server.AsyncCompletionServer`."""

    def __init__(self, latency_window: int = 2048):
        self.started = time.time()
        self._started_monotonic = time.monotonic()
        self.requests = Counter()          # per endpoint
        self.completions = 0               # queries answered ok
        self.cache_hits = 0                # served from the result cache
        self.coalesced = 0                 # joined an in-flight synthesis
        self.synthesized = 0               # ran the pipeline
        self.rejected_overload = 0         # 429s from admission control
        self.shed_low_priority = 0         # of which: soft-watermark sheds
        self.deadline_partial = 0          # anytime results (truncated)
        self.errors = Counter()            # per error code
        self.scenes_registered = 0
        self.scenes_evicted = 0            # LRU pressure only
        self.scenes_released = 0           # client-requested releases
        self.scenes_edited = 0             # /v1/edit-scene deltas applied
        self.edits_reused = 0              # edits that re-hit prepared state
        self.streams = 0                   # streamed completions served
        self.stream_chunks = 0             # NDJSON chunks written to streams
        self.snapshot_restored = 0         # entries restored at startup
        self.snapshots_saved = 0           # snapshot files written
        self.queue_depth = 0               # pending/running syntheses now
        self.queue_peak = 0
        #: "complete" = every served query; "warm" = hits + coalesced;
        #: "synthesis" = executor wall-clock of actual pipeline runs.
        self.latency = {
            "complete": LatencyWindow(latency_window),
            "warm": LatencyWindow(latency_window),
            "synthesis": LatencyWindow(latency_window),
        }

    def enter_queue(self) -> None:
        self.queue_depth += 1
        if self.queue_depth > self.queue_peak:
            self.queue_peak = self.queue_depth

    def leave_queue(self) -> None:
        self.queue_depth -= 1

    def record_completion(self, seconds: float, *, cache_hit: bool,
                          coalesced: bool, partial: bool) -> None:
        self.completions += 1
        self.latency["complete"].record(seconds)
        if cache_hit:
            self.cache_hits += 1
        if coalesced:
            self.coalesced += 1
        if cache_hit or coalesced:
            self.latency["warm"].record(seconds)
        if partial:
            self.deadline_partial += 1

    def record_synthesis(self, seconds: float) -> None:
        self.synthesized += 1
        self.latency["synthesis"].record(seconds)

    def record_error(self, code: str) -> None:
        self.errors[code] += 1

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(self.uptime_seconds, 3),
            "requests": dict(self.requests),
            "completions": self.completions,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "synthesized": self.synthesized,
            "rejected_overload": self.rejected_overload,
            "shed_low_priority": self.shed_low_priority,
            "deadline_partial": self.deadline_partial,
            # Budget fast-fails, pulled out of the error map so dashboards
            # (and the router's cross-shard sum) can tell "shed on time"
            # from "failed" without string-keyed digging.
            "deadline_exceeded": self.errors["deadline_exceeded"],
            "errors": dict(self.errors),
            "scenes_registered": self.scenes_registered,
            "scenes_evicted": self.scenes_evicted,
            "scenes_released": self.scenes_released,
            "scenes_edited": self.scenes_edited,
            "edits_reused": self.edits_reused,
            "streams": self.streams,
            "stream_chunks": self.stream_chunks,
            "queue": {"depth": self.queue_depth, "peak": self.queue_peak},
            "latency": {name: window.snapshot()
                        for name, window in self.latency.items()},
        }
