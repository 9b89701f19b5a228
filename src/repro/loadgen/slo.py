"""SLO declarations, latency/error accounting, and the serve-side gate.

Each phase keeps every ok request's latency in a
:class:`~repro.server.metrics.LatencyWindow` that never evicts:
microsecond counts, the same window the server and router report.
Windows merge by summing counts, so a p99 over any union of phases is
an exact order statistic — and the unit suite asserts the merged counts
equal the microsecond counts of the concatenated samples.

:func:`build_report` turns an accountant plus trace/topology metadata
into the ``BENCH_serve.json`` document; :func:`report_findings` is what
one report shows failed by itself, and ``GATES`` is what ``--check``
compares against the committed copy through :mod:`repro.bench.gate`,
like ``repro.bench.core_bench`` (non-blocking CI job, >25% p95
regression fails).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench import gate
from repro.server.metrics import LatencyWindow

SCHEMA = "bench-serve/v1"


@dataclass
class PhaseAccount:
    """Everything measured for one phase."""

    name: str
    #: Every ok request's latency (this window never evicts).
    latency: LatencyWindow = field(default_factory=LatencyWindow)
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
        return self.latency.count + self.errors + self.deadline_exceeded

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
        window = self.latency.snapshot()
        p99 = self.latency.quantile(0.99)
        return {
            "requests": self.requests,
            "ok": window["count"],
            "errors": self.errors,
            "error_rate": round(self.error_rate, 5),
            "error_codes": dict(sorted(self.error_codes.items())),
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "completions": self.completions,
            "degraded": self.degraded,
            "deadline_exceeded": self.deadline_exceeded,
            "cache_hit_rate": (round(self.cache_hit_rate, 3)
                               if self.completions else None),
            "p50_ms": window["p50_ms"],
            "p95_ms": window["p95_ms"],
            "p99_ms": None if p99 is None else round(p99 * 1000, 3),
            "mean_ms": window["mean_ms"],
            "max_ms": window["max_ms"],
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
        account.latency.record(latency_ms / 1000)
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

        The phases' windows merge by summing counts, so percentiles of the
        merged account are exact over the union.
        """
        selected = (self._phases.values() if names is None else
                    [self._phases[name] for name in names
                     if name in self._phases])
        merged = PhaseAccount("merged")
        for account in selected:
            merged.latency.merge(account.latency)
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


def report_findings(report: dict) -> List[str]:
    """What *report* shows failed by itself: a violated SLO, a chaos
    fault never recovered from, or a re-registration storm."""
    findings: List[str] = []
    if not report.get("slo_ok", False):
        broken = [verdict["slo"]["name"] for verdict in report.get("slo", [])
                  if not verdict.get("ok")]
        findings.append(f"measured run violated its declared SLOs: "
                        f"{broken}")
    chaos = report.get("chaos")
    if chaos is not None:
        if not chaos.get("recovered"):
            fault = ("stall was never resumed" if chaos.get("mode") == "slow"
                     else "kill was never recovered (no respawn observed)")
            findings.append(f"chaos {fault}")
        if chaos.get("reregistration_storm_bounded") is False:
            findings.append("re-registration storm exceeded the journaled "
                            "scene population per kill")
    return findings


def _chaos_kills(report: dict) -> dict:
    return {"chaos": (report.get("chaos") or {}).get("kills", 0)}


#: Summing the per-phase p95 damps single-phase scheduling noise the way
#: ``core_bench`` sums rows.  A chaos run that killed fewer backends than
#: the committed one is not comparable, so kills may not shrink at all.
GATES = (
    gate.Gate("p95_ms", gate.per_row("phases", field="p95_ms"), 0.25),
    gate.Gate("chaos.kills", _chaos_kills, 0.0, better="higher"),
)
