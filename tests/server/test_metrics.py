"""Latency windows and serving counters."""

import random
from collections import Counter

import pytest

from repro.server.metrics import LatencyWindow, ServerMetrics


def brute_force_percentile(samples, fraction):
    """Independent recompute of the LatencyWindow convention."""
    ordered = sorted(samples)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def microsecond_counts(seconds):
    """The ``buckets_us`` pairs a window holding *seconds* reports."""
    return [[micros, count] for micros, count in
            sorted(Counter(round(s * 1_000_000) for s in seconds).items())]


class TestLatencyWindow:
    def test_empty_window(self):
        window = LatencyWindow()
        assert window.quantile(0.5) is None
        snapshot = window.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p95_ms"] is None

    def test_percentiles_on_known_data(self):
        window = LatencyWindow()
        for ms in range(1, 101):            # 1..100 ms
            window.record(ms / 1000)
        assert window.quantile(0.50) == pytest.approx(0.051)
        assert window.quantile(0.95) == pytest.approx(0.096)
        snapshot = window.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["max_ms"] == pytest.approx(100.0)
        assert snapshot["mean_ms"] == pytest.approx(50.5)

    def test_window_is_bounded_but_count_is_lifetime(self):
        window = LatencyWindow(window=10)
        for _ in range(50):
            window.record(0.001)
        for _ in range(10):
            window.record(1.0)              # the window now holds only these
        assert window.count == 60
        assert window.quantile(0.5) == pytest.approx(1.0)

    def test_max_ages_out_with_the_window(self):
        window = LatencyWindow(window=10)
        window.record(5.0)                  # cold-start spike
        for _ in range(10):
            window.record(0.001)            # pushes the spike out
        assert window.snapshot()["max_ms"] == pytest.approx(1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            LatencyWindow(window=0)

    def test_matches_brute_force_on_random_data(self):
        rng = random.Random(31)
        samples = [rng.lognormvariate(1.0, 1.5) / 1000 for _ in range(997)]
        window = LatencyWindow()
        for sample in samples:
            window.record(sample)
        for fraction in (0.0, 0.5, 0.9, 0.95, 0.99, 1.0):
            expected = round(brute_force_percentile(samples, fraction)
                             * 1_000_000) / 1_000_000
            assert window.quantile(fraction) == expected

    def test_bounded_window_holds_exactly_its_last_samples(self):
        rng = random.Random(7)
        bound = 16
        # Few distinct values, so evictions both decrement and empty
        # a bucket.
        samples = [rng.randint(1, 6) / 1000 for _ in range(3 * bound)]
        window = LatencyWindow(window=bound)
        for sample in samples:
            window.record(sample)
        assert window.window_count == bound
        assert window.snapshot()["buckets_us"] == \
            microsecond_counts(samples[-bound:])


class TestServerMetrics:
    def test_completion_accounting(self):
        metrics = ServerMetrics()
        metrics.record_completion(0.010, cache_hit=True, coalesced=False,
                                  partial=False)
        metrics.record_completion(0.020, cache_hit=False, coalesced=True,
                                  partial=False)
        metrics.record_completion(0.500, cache_hit=False, coalesced=False,
                                  partial=True)
        assert metrics.completions == 3
        assert metrics.cache_hits == 1
        assert metrics.coalesced == 1
        assert metrics.deadline_partial == 1
        # Warm window saw the hit and the coalesced join, not the cold run.
        assert metrics.latency["warm"].count == 2
        assert metrics.latency["complete"].count == 3

    def test_queue_gauge_and_peak(self):
        metrics = ServerMetrics()
        metrics.enter_queue()
        metrics.enter_queue()
        metrics.leave_queue()
        metrics.enter_queue()
        assert metrics.queue_depth == 2
        assert metrics.queue_peak == 2

    def test_snapshot_shape(self):
        metrics = ServerMetrics()
        metrics.requests["POST /v1/complete"] += 1
        metrics.record_synthesis(0.005)
        metrics.record_error("bad_request")
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == {"POST /v1/complete": 1}
        assert snapshot["synthesized"] == 1
        assert snapshot["errors"] == {"bad_request": 1}
        assert snapshot["uptime_s"] >= 0
        assert set(snapshot["latency"]) == {"complete", "warm", "synthesis"}
