"""Unit tests for the BENCH_rank emitter and its gates.

Rank quality is deterministic (ranks, not timings), so unlike the
timing benches a small real measurement runs in-process here and the
committed ``BENCH_rank.json`` can be checked for structural honesty.
"""

import copy
import json
from pathlib import Path

from repro.bench.gate import check
from repro.bench.rank_bench import (GATES, SCHEMA, build_report, check_chain,
                                    measure_scenes, summarize_scenes)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _rows(rank_standard: int, rank_base: int = 3) -> dict:
    return {
        "url_reader": {
            "rank_base": rank_base, "rank_standard": rank_standard,
            "found_base": True, "found_standard": True,
        },
    }


def _trace(mrr: float) -> dict:
    return {"profile": "smoke", "events": 10, "distinct_scenes": 4,
            "rank_sum_base": 12, "rank_sum_standard": 10,
            "mrr_base": 0.8, "mrr_standard": mrr}


def _session() -> dict:
    return {"script": "url_reader_session.json", "complete_steps": 3,
            "rank_sum_base": 3, "rank_sum_standard": 3}


def _report(rank_standard: int, rank_base: int = 3,
            trace_mrr: float = 0.9) -> dict:
    return build_report(_rows(rank_standard, rank_base),
                        _trace(trace_mrr), _session())


class TestRegressionGate:
    def test_within_bound_passes(self):
        assert check(GATES, _report(2), _report(2)) == []

    def test_structural_gate_rejects_a_worsening_chain(self):
        failures = check_chain(_report(5, rank_base=3))
        assert any("structural" in failure for failure in failures)
        assert check_chain(_report(3, rank_base=3)) == []

    def test_rank_sum_regression_fails(self):
        # 3 > 2 * 1.25: over the bound, but still <= base (structural ok).
        failures = check(GATES, _report(2), _report(3))
        assert any(failure.startswith("rank_standard:")
                   for failure in failures)

    def test_mrr_floor_fails(self):
        committed = _report(1)          # MRR 1.0 committed
        measured = _report(2)           # MRR 0.5 < 0.75 floor
        failures = check(GATES, committed, measured)
        assert any(failure.startswith("reciprocal_rank:")
                   for failure in failures)

    def test_trace_mrr_floor_fails_independently(self):
        committed = _report(2, trace_mrr=1.0)
        measured = _report(2, trace_mrr=0.5)
        failures = check(GATES, committed, measured)
        assert len(failures) == 1
        assert failures[0].startswith("trace.mrr_standard:")

    def test_empty_committed_report_only_gates_structure(self):
        """A committed report without the gated metrics compares nothing,
        so every gate reports it instead of passing."""
        failures = check(GATES, {}, _report(2))
        assert len(failures) == len(GATES)
        assert all("no rows in common" in failure for failure in failures)

    def test_one_row_run_equal_to_its_committed_row_passes(self):
        """``--rows 13`` is compared on row 13 alone, not against the
        whole-corpus MRR."""
        committed = _committed()
        assert check(GATES, committed, _one_row_report(committed, "13")) \
            == []

    def test_one_row_run_worse_than_its_committed_row_fails(self):
        committed = _committed()
        measured = _one_row_report(committed, "13")
        committed["scenes"]["13"]["rank_standard"] = 1
        failures = check(GATES, committed, measured)
        assert [failure.split(":")[0] for failure in failures] \
            == ["rank_standard", "reciprocal_rank"]


def _committed() -> dict:
    return json.loads((REPO_ROOT / "BENCH_rank.json").read_text())


def _one_row_report(committed: dict, row: str) -> dict:
    """The report of a ``--rows <row>`` run that measured what the
    committed report holds for that row."""
    return build_report({row: copy.deepcopy(committed["scenes"][row])},
                        committed["trace"], committed["session"])


class TestReportShape:
    def test_report_carries_schema_protocol_and_summary(self):
        report = _report(2)
        assert report["schema"] == SCHEMA
        assert report["protocol"]["deterministic"] is True
        assert report["protocol"]["weighers"] == [
            "kind", "scope", "receiver", "constructor", "project_freq"]
        assert report["summary"]["scenes"] == 1

    def test_summary_counts_absent_snippets_via_found_flags(self):
        rows = {"a": {"rank_base": 11, "rank_standard": 1,
                      "found_base": False, "found_standard": True}}
        summary = summarize_scenes(rows)
        assert summary["mrr_base"] == 0.0
        assert summary["mrr_standard"] == 1.0


class TestRealMeasurement:
    def test_small_scene_run_is_deterministic_and_sound(self):
        first = measure_scenes(rows=(9,), n=5)
        second = measure_scenes(rows=(9,), n=5)
        assert first == second
        for observation in first.values():
            assert 1 <= observation["rank_base"] <= 6
            assert 1 <= observation["rank_standard"] <= 6


class TestCommittedReport:
    def test_committed_report_is_structurally_honest(self):
        """The repo's BENCH_rank.json must itself satisfy the structural
        gate — the standard chain improves (or matches) the base order."""
        path = REPO_ROOT / "BENCH_rank.json"
        committed = json.loads(path.read_text())
        assert committed["schema"] == SCHEMA
        summary = committed["summary"]
        assert summary["rank_sum_standard"] <= summary["rank_sum_base"]
        assert summary["mrr_standard"] >= summary["mrr_base"]
        # And at least one weigher demonstrably improves the rank sum —
        # the acceptance claim of the ranking PR, pinned to the artifact.
        assert summary["rank_sum_standard"] < summary["rank_sum_base"]
        assert check_chain(committed) == []
