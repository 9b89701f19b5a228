"""SLO declarations, latency/error accounting, and the serve-side gate.

The accountant keeps **raw samples** per phase.  That is deliberate:
merged-window percentiles computed from summaries are approximations
(the router's stats merge has to conservatively max them), but the load
harness owns every sample it measured, so a p99 over any union of
phases is an exact order statistic — and the unit suite asserts the
merged computation equals a brute-force recompute over the
concatenation.

:func:`build_report` turns an accountant plus trace/topology metadata
into the ``BENCH_serve.json`` document; :func:`check_regression` is the
``--check`` gate CI runs against the committed copy, mirroring
``repro.bench.core_bench`` (non-blocking job, >25% p95 regression
fails).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.errors import ReproError
from repro.server import metrics

SCHEMA = "bench-serve/v1"


class SloError(ReproError):
    """A malformed SLO declaration or report."""


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """The *fraction*-quantile of *samples* as an exact order statistic.

    :func:`repro.server.metrics.percentile`, the server's convention, with
    the fraction range-checked.  ``None`` on no samples.
    """
    if not 0.0 <= fraction <= 1.0:
        raise SloError(f"fraction must be in [0, 1], got {fraction}")
    return metrics.percentile(samples, fraction)


@dataclass
class PhaseAccount:
    """Everything measured for one phase."""

    name: str
    latencies_ms: List[float] = field(default_factory=list)  # ok requests
    errors: int = 0
    error_codes: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    completions: int = 0            # ok "complete" ops (hit-rate base)
    retries: int = 0                # overload backoffs that later succeeded
    degraded: int = 0               # last-known-good answers (stale, honest)
    #: Budget fast-fails (504 ``deadline_exceeded``): the stack *shed on
    #: time* rather than failing — counted in ``requests`` but kept out
    #: of ``errors``/``error_rate`` so chaos runs can tell deliberate
    #: sheds from broken serving.
    deadline_exceeded: int = 0

    @property
    def requests(self) -> int:
        return len(self.latencies_ms) + self.errors + self.deadline_exceeded

    @property
    def error_rate(self) -> float:
        """Fraction of requests that failed; 0.0 for an empty phase.

        The zero-request convention matters for error budgets: a phase
        that never ran consumed none of its budget — it must neither
        fail (0/0 is not 100% errors) nor divide by zero.  Deadline
        sheds are in the denominator (they were requests) but not the
        numerator (the deadline contract was honoured).
        """
        total = self.requests
        return self.errors / total if total else 0.0

    @property
    def cache_hit_rate(self) -> Optional[float]:
        if not self.completions:
            return None
        return self.cache_hits / self.completions

    def snapshot(self) -> dict:
        def _r(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 3)

        latencies = self.latencies_ms
        return {
            "requests": self.requests,
            "ok": len(latencies),
            "errors": self.errors,
            "error_rate": round(self.error_rate, 5),
            "error_codes": dict(sorted(self.error_codes.items())),
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "completions": self.completions,
            "degraded": self.degraded,
            "deadline_exceeded": self.deadline_exceeded,
            "cache_hit_rate": _r(self.cache_hit_rate),
            "p50_ms": _r(percentile(latencies, 0.50)),
            "p95_ms": _r(percentile(latencies, 0.95)),
            "p99_ms": _r(percentile(latencies, 0.99)),
            "mean_ms": _r(sum(latencies) / len(latencies)
                          if latencies else None),
            "max_ms": _r(max(latencies) if latencies else None),
        }


class SloAccountant:
    """Per-phase accounting with exact merged percentiles."""

    def __init__(self):
        self._phases: Dict[str, PhaseAccount] = {}

    def phase(self, name: str) -> PhaseAccount:
        account = self._phases.get(name)
        if account is None:
            account = self._phases[name] = PhaseAccount(name)
        return account

    def phases(self) -> List[PhaseAccount]:
        return list(self._phases.values())

    def record_ok(self, phase: str, latency_ms: float, *,
                  completion: bool = False, cache_hit: bool = False,
                  degraded: bool = False, retries: int = 0) -> None:
        account = self.phase(phase)
        account.latencies_ms.append(latency_ms)
        account.retries += retries
        if completion:
            account.completions += 1
            if cache_hit:
                account.cache_hits += 1
            if degraded:
                account.degraded += 1

    def record_error(self, phase: str, code: str, *,
                     retries: int = 0) -> None:
        account = self.phase(phase)
        account.errors += 1
        account.retries += retries
        account.error_codes[code] = account.error_codes.get(code, 0) + 1

    def record_deadline(self, phase: str, *, retries: int = 0) -> None:
        """One budget fast-fail: shed on time, not failed."""
        account = self.phase(phase)
        account.deadline_exceeded += 1
        account.retries += retries

    def merged(self, names: Optional[Iterable[str]] = None) -> PhaseAccount:
        """One account over the union of *names* (default: every phase).

        Raw samples are concatenated, so percentiles of the merged
        account are exact over the union — no summary-merge
        approximation.
        """
        selected = (self._phases.values() if names is None else
                    [self._phases[name] for name in names
                     if name in self._phases])
        merged = PhaseAccount("merged")
        for account in selected:
            merged.latencies_ms.extend(account.latencies_ms)
            merged.errors += account.errors
            merged.cache_hits += account.cache_hits
            merged.completions += account.completions
            merged.retries += account.retries
            merged.degraded += account.degraded
            merged.deadline_exceeded += account.deadline_exceeded
            for code, count in account.error_codes.items():
                merged.error_codes[code] = (
                    merged.error_codes.get(code, 0) + count)
        return merged


# -- SLO declarations ---------------------------------------------------------


@dataclass(frozen=True)
class SLO:
    """One declared objective over one or more phases.

    ``phases=()`` means "every phase merged".  Latency targets compare
    against the exact merged percentile; ``error_budget`` is the maximum
    tolerated error *fraction* over the merged requests; ``min_hit_rate``
    asserts warmness (the recovery SLO's teeth after a chaos kill).
    """

    name: str
    phases: tuple = ()
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    error_budget: float = 0.01
    min_hit_rate: Optional[float] = None

    def to_doc(self) -> dict:
        return {"name": self.name, "phases": list(self.phases),
                "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
                "p99_ms": self.p99_ms, "error_budget": self.error_budget,
                "min_hit_rate": self.min_hit_rate}


@dataclass(frozen=True)
class SloVerdict:
    slo: SLO
    ok: bool
    failures: tuple
    measured: dict

    def to_doc(self) -> dict:
        return {"slo": self.slo.to_doc(), "ok": self.ok,
                "failures": list(self.failures),
                "measured": self.measured}


def evaluate_slos(accountant: SloAccountant,
                  slos: Sequence[SLO]) -> List[SloVerdict]:
    verdicts = []
    for slo in slos:
        merged = accountant.merged(slo.phases or None)
        snapshot = merged.snapshot()
        failures: List[str] = []
        for target_name in ("p50_ms", "p95_ms", "p99_ms"):
            target = getattr(slo, target_name)
            measured = snapshot[target_name]
            if target is None:
                continue
            if measured is None:
                # Latency targets over zero samples are vacuous only if
                # the error budget also passes (an all-error phase has no
                # latency samples, and must not sneak past its SLO).
                continue
            if measured > target:
                failures.append(f"{target_name} {measured:.1f} ms exceeds "
                                f"target {target:.1f} ms")
        if merged.error_rate > slo.error_budget:
            failures.append(
                f"error rate {merged.error_rate:.4f} exceeds budget "
                f"{slo.error_budget:.4f} "
                f"({merged.errors}/{merged.requests} requests)")
        if slo.min_hit_rate is not None:
            hit_rate = merged.cache_hit_rate
            if hit_rate is None or hit_rate < slo.min_hit_rate:
                failures.append(
                    f"cache hit rate "
                    f"{'n/a' if hit_rate is None else f'{hit_rate:.3f}'} "
                    f"below required {slo.min_hit_rate:.3f}")
        verdicts.append(SloVerdict(slo=slo, ok=not failures,
                                   failures=tuple(failures),
                                   measured=snapshot))
    return verdicts


#: The declared serving SLOs.  Latency targets are generous on purpose —
#: like ``BENCH_core.json`` the measured report carries the real
#: trajectory and the --check gate catches regressions; the SLOs bound
#: outright failure (editor keystroke budget blown, error budget burnt,
#: cold recovery after chaos).
DEFAULT_SLOS: tuple = (
    SLO("steady-latency", phases=("steady",), p95_ms=2000.0,
        error_budget=0.01),
    SLO("burst-latency", phases=("burst",), p99_ms=10000.0,
        error_budget=0.05),
    SLO("whole-run-errors", phases=(), error_budget=0.02),
    SLO("warm-recovery", phases=("recovery",), error_budget=0.0,
        min_hit_rate=0.99),
)


# -- the BENCH_serve.json document -------------------------------------------


def build_report(accountant: SloAccountant, *, trace_doc: dict,
                 trace_digest: str, topology: dict,
                 chaos: Optional[dict] = None,
                 slos: Sequence[SLO] = DEFAULT_SLOS) -> dict:
    """The ``BENCH_serve.json`` document for one replay."""
    verdicts = evaluate_slos(accountant, slos)
    phases = {account.name: account.snapshot()
              for account in accountant.phases()}
    overall = accountant.merged().snapshot()
    p95s = [snapshot["p95_ms"] for snapshot in phases.values()
            if snapshot["p95_ms"] is not None]
    report = {
        "schema": SCHEMA,
        "protocol": {
            "spec": trace_doc.get("spec", {}),
            "trace_digest": trace_digest,
            "scenes": len(trace_doc.get("scenes", {})),
            "events": len(trace_doc.get("events", [])),
            "topology": topology,
        },
        "phases": phases,
        "overall": overall,
        "summary": {
            "p95_ms_sum": round(sum(p95s), 2) if p95s else None,
            "overall_p95_ms": overall["p95_ms"],
            "overall_error_rate": overall["error_rate"],
        },
        "slo": [verdict.to_doc() for verdict in verdicts],
        "slo_ok": all(verdict.ok for verdict in verdicts),
    }
    if chaos is not None:
        report["chaos"] = chaos
    return report


def check_regression(committed: dict, measured: dict,
                     max_regression: float = 0.25) -> List[str]:
    """Findings of *measured* against the *committed* report.

    The gate is the summed per-phase p95 over phases both reports
    carry — summing damps single-phase scheduling noise exactly the way
    ``core_bench`` sums rows — plus a hard failure when the measured run
    violated its own SLOs or killed fewer backends than the committed
    run (a chaos run that stopped killing is not comparable).
    """
    failures: List[str] = []
    committed_phases = committed.get("phases", {})
    measured_phases = measured.get("phases", {})
    common = [name for name in committed_phases
              if name in measured_phases
              and committed_phases[name].get("p95_ms") is not None
              and measured_phases[name].get("p95_ms") is not None]
    if not common:
        return [f"no comparable phases between committed "
                f"({sorted(committed_phases)}) and measured "
                f"({sorted(measured_phases)}) reports"]
    committed_sum = sum(committed_phases[name]["p95_ms"]
                        for name in common)
    measured_sum = sum(measured_phases[name]["p95_ms"] for name in common)
    allowed = committed_sum * (1.0 + max_regression)
    if measured_sum > allowed:
        failures.append(
            f"p95 regression: {measured_sum:.1f} ms summed over phases "
            f"{common} exceeds the committed {committed_sum:.1f} ms by "
            f"more than {max_regression:.0%} (limit {allowed:.1f} ms)")
    if not measured.get("slo_ok", False):
        broken = [verdict["slo"]["name"]
                  for verdict in measured.get("slo", [])
                  if not verdict.get("ok")]
        failures.append(f"measured run violated its declared SLOs: "
                        f"{broken}")
    committed_kills = (committed.get("chaos") or {}).get("kills", 0)
    measured_kills = (measured.get("chaos") or {}).get("kills", 0)
    if committed_kills and measured_kills < committed_kills:
        failures.append(
            f"chaos coverage shrank: committed report kills "
            f"{committed_kills} backend(s), measured run killed "
            f"{measured_kills}")
    return failures


def load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SloError(f"cannot load report {path}: {exc}")
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise SloError(f"{path} is not a {SCHEMA} report")
    return report
