"""SLO accounting: exact merged percentiles and error-budget edges."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.gate import check
from repro.loadgen.chaos import ChaosController, ChaosPlan
from repro.loadgen.slo import (GATES, SCHEMA, SLO, PhaseAccount,
                               SloAccountant, build_report, evaluate_slos,
                               report_findings)


def brute_force_percentile(samples, fraction):
    """Independent recompute of the LatencyWindow convention."""
    ordered = sorted(samples)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


class TestPercentile:
    """A phase's percentiles as its report shows them (the window's own
    property is in ``tests/server/test_metrics.py``)."""

    def test_empty_is_none(self):
        snapshot = PhaseAccount("idle").snapshot()
        assert snapshot["p95_ms"] is None and snapshot["p99_ms"] is None

    def test_single_sample(self):
        accountant = SloAccountant()
        accountant.record_ok("p", 42.0)
        snapshot = accountant.phase("p").snapshot()
        assert snapshot["p50_ms"] == 42.0
        assert snapshot["p99_ms"] == 42.0


class TestMergedPhases:
    def test_merged_p99_matches_brute_force_over_concatenation(self):
        """A p99 over merged phases equals a brute-force recompute over
        the concatenated samples: the merged window holds exactly their
        microsecond counts."""
        rng = random.Random(67)
        accountant = SloAccountant()
        raw = {"steady": [rng.expovariate(0.01) for _ in range(400)],
               "burst": [rng.expovariate(0.002) for _ in range(150)],
               "recovery": [rng.uniform(0.1, 2.0) for _ in range(30)]}
        for phase, samples in raw.items():
            for sample in samples:
                accountant.record_ok(phase, sample)

        for names in (("steady", "burst"), ("burst", "recovery"),
                      ("steady", "burst", "recovery")):
            merged = accountant.merged(names)
            concatenated = [s for name in names for s in raw[name]]
            assert merged.latency.snapshot()["buckets_us"] == [
                [micros, count] for micros, count in sorted(
                    Counter(round(ms * 1000) for ms in concatenated).items())]
            snapshot = merged.snapshot()
            for key, fraction in (("p50_ms", 0.50), ("p95_ms", 0.95),
                                  ("p99_ms", 0.99)):
                assert snapshot[key] == pytest.approx(
                    brute_force_percentile(concatenated, fraction),
                    abs=0.001)

    def test_merged_default_is_every_phase(self):
        accountant = SloAccountant()
        accountant.record_ok("a", 1.0)
        accountant.record_ok("b", 2.0)
        accountant.record_error("b", "overloaded")
        merged = accountant.merged()
        assert merged.requests == 3
        assert merged.errors == 1
        assert merged.error_codes == {"overloaded": 1}

    def test_merged_skips_unknown_names(self):
        accountant = SloAccountant()
        accountant.record_ok("a", 1.0)
        merged = accountant.merged(("a", "never-ran"))
        assert merged.requests == 1

    def test_hit_rate_accounting(self):
        accountant = SloAccountant()
        accountant.record_ok("p", 1.0, completion=True, cache_hit=True)
        accountant.record_ok("p", 1.0, completion=True, cache_hit=False)
        accountant.record_ok("p", 1.0)               # register/release op
        account = accountant.phase("p")
        assert account.completions == 2
        assert account.cache_hit_rate == pytest.approx(0.5)


class TestErrorBudgetEdges:
    def test_zero_request_phase_has_zero_error_rate(self):
        account = PhaseAccount("idle")
        assert account.requests == 0
        assert account.error_rate == 0.0

    def test_zero_request_phase_passes_zero_budget(self):
        """A phase that never ran consumed none of its budget — even a
        budget of exactly 0 must pass."""
        accountant = SloAccountant()
        accountant.phase("recovery")
        verdicts = evaluate_slos(accountant, [
            SLO("strict", phases=("recovery",), error_budget=0.0)])
        assert verdicts[0].ok, verdicts[0].failures

    def test_all_error_phase_blows_any_finite_budget(self):
        accountant = SloAccountant()
        for _ in range(20):
            accountant.record_error("burst", "connection")
        verdicts = evaluate_slos(accountant, [
            SLO("budget", phases=("burst",), error_budget=0.5)])
        assert not verdicts[0].ok
        assert any("error rate" in failure
                   for failure in verdicts[0].failures)

    def test_all_error_phase_does_not_sneak_past_latency_target(self):
        """No latency samples means latency targets are vacuous, but the
        error budget still has teeth — the combined SLO must fail."""
        accountant = SloAccountant()
        accountant.record_error("steady", "connection")
        verdicts = evaluate_slos(accountant, [
            SLO("latency+budget", phases=("steady",), p95_ms=100.0,
                error_budget=0.01)])
        assert not verdicts[0].ok

    def test_min_hit_rate_fails_without_completions(self):
        accountant = SloAccountant()
        accountant.record_ok("recovery", 1.0)        # non-completion op
        verdicts = evaluate_slos(accountant, [
            SLO("warm", phases=("recovery",), error_budget=1.0,
                min_hit_rate=0.99)])
        assert not verdicts[0].ok
        assert any("hit rate" in failure
                   for failure in verdicts[0].failures)

    def test_latency_target_breach_fails(self):
        accountant = SloAccountant()
        for latency in (10.0, 20.0, 5000.0):
            accountant.record_ok("steady", latency)
        verdicts = evaluate_slos(accountant, [
            SLO("p95", phases=("steady",), p95_ms=100.0,
                error_budget=1.0)])
        assert not verdicts[0].ok


def _report(p95s, *, slo_ok=True, kills=None):
    phases = {name: {"p95_ms": value} for name, value in p95s.items()}
    report = {"schema": SCHEMA, "phases": phases, "slo_ok": slo_ok,
              "slo": [] if slo_ok else [
                  {"slo": {"name": "broken"}, "ok": False}]}
    if kills is not None:
        report["chaos"] = {"kills": kills}
    return report


class TestCheckRegression:
    def test_within_budget_passes(self):
        committed = _report({"steady": 100.0, "burst": 200.0})
        measured = _report({"steady": 110.0, "burst": 220.0})
        assert check(GATES, committed, measured) == []

    def test_summed_p95_regression_fails(self):
        committed = _report({"steady": 100.0, "burst": 200.0})
        measured = _report({"steady": 100.0, "burst": 300.0})
        failures = check(GATES, committed, measured)
        assert failures and failures[0].startswith("p95_ms: 400")

    def test_summing_damps_single_phase_noise(self):
        """One phase 50% slower but the other faster: the sum stays
        inside the budget, so the gate does not fire on noise."""
        committed = _report({"steady": 100.0, "burst": 200.0})
        measured = _report({"steady": 150.0, "burst": 180.0})
        assert check(GATES, committed, measured) == []

    def test_no_common_phases_is_a_finding(self):
        failures = check(GATES, _report({"steady": 1.0}),
                         _report({"other": 1.0}))
        assert failures == [failures[0]]
        assert failures[0].startswith("p95_ms: no rows in common")

    def test_measured_slo_violation_is_a_finding(self):
        measured = _report({"steady": 100.0}, slo_ok=False)
        assert report_findings(_report({"steady": 100.0})) == []
        failures = report_findings(measured)
        assert any("violated its declared SLOs" in f for f in failures)

    def test_unrecovered_chaos_and_a_storm_are_findings(self):
        report = _report({"steady": 100.0}, kills=1)
        report["chaos"].update(recovered=True,
                               reregistration_storm_bounded=True)
        assert report_findings(report) == []
        report["chaos"].update(recovered=False,
                               reregistration_storm_bounded=False)
        assert report_findings(report) == [
            "chaos kill was never recovered (no respawn observed)",
            "re-registration storm exceeded the journaled scene "
            "population per kill"]
        report["chaos"]["mode"] = "slow"
        assert report_findings(report)[0] == "chaos stall was never resumed"

    def test_shrunk_chaos_coverage_is_a_finding(self):
        committed = _report({"steady": 100.0}, kills=2)
        measured = _report({"steady": 100.0}, kills=1)
        failures = check(GATES, committed, measured)
        assert [f.split(":")[0] for f in failures] == ["chaos.kills"]
        chaosless = check(GATES, committed, _report({"steady": 100.0}))
        assert [f.split(":")[0] for f in chaosless] == ["chaos.kills"]

    def test_chaosless_committed_report_tolerates_chaosless_run(self):
        committed = _report({"steady": 100.0})
        measured = _report({"steady": 100.0})
        assert check(GATES, committed, measured) == []


class TestBuildReport:
    def test_report_shape(self):
        accountant = SloAccountant()
        for phase, latency in (("steady", 10.0), ("burst", 20.0)):
            accountant.record_ok(phase, latency, completion=True,
                                 cache_hit=True)
        report = build_report(
            accountant,
            trace_doc={"spec": {"seed": 1}, "scenes": {"s": {}},
                       "events": [1, 2]},
            trace_digest="d" * 64,
            topology={"mode": "router", "backends": 2})
        assert report["schema"] == SCHEMA
        assert report["protocol"]["trace_digest"] == "d" * 64
        assert report["protocol"]["scenes"] == 1
        assert report["protocol"]["events"] == 2
        assert set(report["phases"]) == {"steady", "burst"}
        assert report["summary"]["p95_ms_sum"] == pytest.approx(30.0)
        assert "chaos" not in report
        # Whole-run SLOs evaluated over two clean requests all pass.
        assert report["slo_ok"] in (True, False)

    def test_report_carries_chaos_section(self):
        accountant = SloAccountant()
        accountant.record_ok("steady", 10.0)
        report = build_report(
            accountant, trace_doc={}, trace_digest="x",
            topology={}, chaos={"kills": 1, "recovered": True})
        assert report["chaos"] == {"kills": 1, "recovered": True}

    def test_committed_bench_serve_has_the_emitters_shape(self):
        """The repo-root BENCH_serve.json is what ``repro loadgen
        --chaos --output`` writes: its chaos section has the keys of
        `ChaosController.report`, and its whole-run and phase accounts
        the keys of `PhaseAccount.snapshot`."""
        path = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
        committed = json.loads(path.read_text(encoding="utf-8"))
        chaos = ChaosController(ChaosPlan()).report(None, 0)
        assert set(committed["chaos"]) == set(chaos)
        account = set(PhaseAccount("x").snapshot())
        assert set(committed["overall"]) == account
        for name, phase in committed["phases"].items():
            assert set(phase) == account, name


class TestDeadlineBucket:
    """``deadline_exceeded`` is its own bucket: the stack shed on time,
    it did not fail — so sheds live in the request denominator but
    never in the error numerator."""

    def test_deadline_sheds_are_requests_but_not_errors(self):
        account = PhaseAccount("burst")
        for _ in range(8):
            account.latency.record(0.010)
        account.deadline_exceeded = 2
        assert account.requests == 10
        assert account.errors == 0
        assert account.error_rate == 0.0

    def test_record_deadline_counts_phase_and_retries(self):
        accountant = SloAccountant()
        accountant.record_ok("burst", 12.0)
        accountant.record_deadline("burst", retries=1)
        accountant.record_deadline("burst")
        account = accountant.phase("burst")
        assert account.deadline_exceeded == 2
        assert account.retries == 1
        assert account.requests == 3
        snapshot = account.snapshot()
        assert snapshot["deadline_exceeded"] == 2
        assert snapshot["errors"] == 0
        assert snapshot["error_rate"] == 0.0

    def test_merged_sums_deadline_sheds_across_phases(self):
        accountant = SloAccountant()
        accountant.record_deadline("burst")
        accountant.record_deadline("recovery")
        accountant.record_ok("recovery", 5.0)
        merged = accountant.merged()
        assert merged.deadline_exceeded == 2
        assert merged.requests == 3

    def test_zero_error_budget_tolerates_deadline_sheds(self):
        """The gate-level contract: a phase full of on-time sheds must
        pass an error_budget=0 SLO, while one real error must fail it —
        sheds and failures are different verdicts by design."""
        accountant = SloAccountant()
        for _ in range(5):
            accountant.record_ok("burst", 10.0, completion=True)
        for _ in range(3):
            accountant.record_deadline("burst")
        slo = SLO(name="no-errors", phases=("burst",), error_budget=0.0)
        (verdict,) = evaluate_slos(accountant, [slo])
        assert verdict.ok, verdict.failures

        accountant.record_error("burst", "internal")
        (verdict,) = evaluate_slos(accountant, [slo])
        assert not verdict.ok
        assert any("error rate" in failure
                   for failure in verdict.failures)
