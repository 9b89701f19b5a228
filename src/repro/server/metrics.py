"""Live serving metrics: counters, gauges and the one latency window.

Everything here is mutated from the event loop only (the server records
latencies after ``await``-ing executor work, never inside it), so plain
ints and deques suffice — no locks.  ``/v1/stats`` serves
:meth:`ServerMetrics.snapshot` verbatim.  :class:`LatencyWindow` is also
the router's per-backend window and the load harness's phase account.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Iterable, Optional


class LatencyWindow:
    """Exact percentiles over the most recent *window* samples.

    Keeps counts per whole microsecond (every latency reported is
    rounded to one) of the last *window* samples, or of every sample
    when *window* is ``None``.  A bounded window makes the percentiles
    reflect *current* behaviour rather than the whole process lifetime
    (a cold start would otherwise poison p95 forever); ``count`` and
    ``total`` stay lifetime.  A percentile is the order statistic at
    ``min(int(fraction * n), n - 1)`` of the *n* held samples, sorted.
    Counts add, so windows merge exactly.
    """

    def __init__(self, window: Optional[int] = None):
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        #: Held samples in arrival order, so the oldest can be evicted.
        self._recent: Optional[deque[int]] = (
            None if window is None else deque(maxlen=window))
        self._counts: Counter = Counter()      # microseconds -> held samples
        self.count = 0                         # lifetime samples
        self.total = 0.0                       # lifetime seconds

    def record(self, seconds: float) -> None:
        micros = round(seconds * 1_000_000)
        recent = self._recent
        if recent is not None:
            if len(recent) == recent.maxlen:
                oldest = recent.popleft()
                self._counts[oldest] -= 1
                if not self._counts[oldest]:
                    del self._counts[oldest]
            recent.append(micros)
        self._counts[micros] += 1
        self.count += 1
        self.total += seconds

    @property
    def window_count(self) -> int:
        """How many samples the window holds now."""
        return sum(self._counts.values())

    def quantile(self, fraction: float) -> Optional[float]:
        """The *fraction*-quantile (0..1) of the window in seconds, or
        None on an empty window."""
        held = self.window_count
        if not held:
            return None
        rank = min(int(fraction * held), held - 1)
        for micros in sorted(self._counts):
            rank -= self._counts[micros]
            if rank < 0:
                break
        return micros / 1_000_000

    def reset(self) -> None:
        """Forget the held samples; the lifetime count and total stay."""
        self._counts.clear()
        if self._recent is not None:
            self._recent.clear()

    def merge(self, other: LatencyWindow) -> None:
        """Add *other*'s held samples, count and total to this window,
        which must keep every sample (a bounded one could not tell which
        merged sample to evict first)."""
        if self._recent is not None:
            raise ValueError("a bounded window cannot merge")
        self._counts.update(other._counts)
        self.count += other.count
        self.total += other.total

    @classmethod
    def from_snapshots(cls, docs: Iterable[dict]) -> LatencyWindow:
        """The window, keeping every sample, that merges the windows
        whose :meth:`snapshot` documents are *docs*."""
        window = cls()
        for doc in docs:
            window._counts.update(dict(doc.get("buckets_us", ())))
            window.count += doc.get("count", 0)
            window.total += (doc.get("total_ms") or 0.0) / 1000
        return window

    def snapshot(self) -> dict:
        def _ms(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else round(seconds * 1000, 3)

        # Like the percentiles, max covers the current window only — a
        # one-off cold-start spike ages out instead of poisoning the
        # gauge forever.  count/mean/total stay lifetime.
        mean = self.total / self.count if self.count else None
        buckets = sorted(self._counts.items())
        return {
            "count": self.count,
            "p50_ms": _ms(self.quantile(0.50)),
            "p95_ms": _ms(self.quantile(0.95)),
            "max_ms": _ms(buckets[-1][0] / 1_000_000 if buckets else None),
            "mean_ms": _ms(mean),
            "total_ms": _ms(self.total),
            # Sorted [microseconds, count] pairs: what from_snapshots reads.
            "buckets_us": [[micros, held] for micros, held in buckets],
        }


class ServerMetrics:
    """Counters for one :class:`~repro.server.server.AsyncCompletionServer`."""

    #: Most recent samples each latency window keeps.
    LATENCY_WINDOW = 2048

    def __init__(self):
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
        self.snapshot_adopted = 0          # entries merged from siblings
        self.snapshots_saved = 0           # snapshot files written
        self.queue_depth = 0               # pending/running syntheses now
        self.queue_peak = 0
        #: "complete" = every served query; "warm" = hits + coalesced;
        #: "synthesis" = executor wall-clock of actual pipeline runs.
        self.latency = {
            "complete": LatencyWindow(self.LATENCY_WINDOW),
            "warm": LatencyWindow(self.LATENCY_WINDOW),
            "synthesis": LatencyWindow(self.LATENCY_WINDOW),
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

    def record_stream(self, chunks: int) -> None:
        if chunks:
            self.streams += 1
        self.stream_chunks += chunks

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
