"""Unit tests for the BENCH_core emitter and its gates (no timing)."""

import json
from pathlib import Path

from repro.bench.core_bench import (DEFAULT_ROWS, GATES, LARGEST_ROW, SCHEMA,
                                    build_report)
from repro.bench.gate import check

REPO_ROOT = Path(__file__).resolve().parents[2]


def _rows(prove: float, recon: float = 2.0) -> dict:
    return {
        "28": {"name": "x", "declarations": 10700, "cold_total_ms": 1.0,
               "prove_ms": prove, "recon_ms": recon,
               "total_ms": prove + recon, "best_total_ms": prove},
    }


def _check(committed_rows: dict, measured_rows: dict) -> list:
    return check(GATES, build_report(committed_rows),
                 build_report(measured_rows))


class TestRegressionGate:
    def test_within_bound_passes(self):
        assert _check(_rows(100.0), _rows(120.0)) == []

    def test_over_bound_fails(self):
        failures = _check(_rows(100.0), _rows(130.0))
        assert failures and failures[0].startswith("prove_ms: 130")

    def test_recon_regression_fails_even_with_prove_improvement(self):
        failures = _check(_rows(100.0, recon=100.0),
                          _rows(50.0, recon=130.0))
        assert len(failures) == 1
        assert failures[0].startswith("recon_ms: 130")

    def test_both_phases_can_fail_together(self):
        failures = _check(_rows(100.0, recon=100.0),
                          _rows(130.0, recon=130.0))
        assert len(failures) == 2
        assert failures[0].startswith("prove_ms:")
        assert failures[1].startswith("recon_ms:")

    def test_recon_within_bound_passes(self):
        assert _check(_rows(100.0, recon=100.0),
                      _rows(90.0, recon=120.0)) == []

    def test_disjoint_row_sets_are_reported(self):
        failures = _check(_rows(100.0), {"9": _rows(1.0)["28"]})
        assert len(failures) == 2
        assert all("no rows in common" in failure for failure in failures)


class TestReportShape:
    def test_report_carries_schema_protocol_and_summary(self):
        report = build_report(_rows(100.0), baseline=_rows(250.0))
        assert report["schema"] == SCHEMA
        assert report["protocol"]["largest_scene"] == LARGEST_ROW
        assert report["summary"]["prove_ms_sum"] == 100.0
        assert report["speedup_total"]["28"] == round(252.0 / 102.0, 2)

    def test_committed_bench_core_is_valid_and_meets_acceptance(self):
        """The repo-root BENCH_core.json must parse, cover the default
        rows, and record the packed-frontier acceptance: >= 1.5x summed
        warm recon time against the committed pre-change baseline."""
        path = REPO_ROOT / "BENCH_core.json"
        committed = json.loads(path.read_text(encoding="utf-8"))
        assert committed["schema"] == SCHEMA
        for number in DEFAULT_ROWS:
            row = committed["current"][str(number)]
            assert row["prove_ms"] > 0
            assert row["recon_ms"] >= 0
            assert row["total_ms"] > 0
            assert str(number) in committed["baseline"]
        baseline_recon = sum(committed["baseline"][str(n)]["recon_ms"]
                             for n in DEFAULT_ROWS)
        current_recon = sum(committed["current"][str(n)]["recon_ms"]
                            for n in DEFAULT_ROWS)
        assert current_recon > 0
        assert baseline_recon / current_recon >= 1.5
        # The end-to-end trajectory must not have regressed either.
        largest = str(committed["protocol"]["largest_scene"])
        assert committed["speedup_total"][largest] >= 1.0


class TestMedianTotalTriple:
    """The shared bench statistic: one real run's triple, median total."""

    def test_odd_count_picks_median_total_run(self):
        from repro.bench.timing import median_total_triple
        samples = [(10.0, 5.0, 15.0), (99.0, 99.0, 2500.0), (9.0, 5.5, 14.5)]
        assert median_total_triple(samples) == (10.0, 5.0, 15.0)

    def test_even_count_picks_lower_middle(self):
        from repro.bench.timing import median_total_triple
        samples = [(1.0, 1.0, 2.0), (2.0, 2.0, 4.0),
                   (3.0, 3.0, 6.0), (4.0, 4.0, 8.0)]
        assert median_total_triple(samples) == (2.0, 2.0, 4.0)

    def test_single_sample(self):
        from repro.bench.timing import median_total_triple
        assert median_total_triple([(1.0, 2.0, 3.0)]) == (1.0, 2.0, 3.0)

    def test_triple_is_one_run_never_a_field_mix(self):
        from repro.bench.timing import median_total_triple
        samples = [(30.0, 5.0, 35.0), (5.0, 30.0, 36.0), (20.0, 20.0, 40.0)]
        prove, recon, total = median_total_triple(samples)
        assert (prove, recon, total) in samples
        assert prove + recon <= total
