"""Trace-driven load generation, chaos, and SLO gating for the serving stack.

The package closes the loop the ROADMAP calls the serving-side perf
floor: :mod:`repro.loadgen.traces` synthesizes reproducible multi-tenant
workload traces from the corpus seams (Zipf scene popularity, bursty
arrivals, tenant churn), :mod:`repro.loadgen.driver` replays a trace
against a live ``repro serve`` / ``repro route`` topology through the
async client, :mod:`repro.loadgen.chaos` SIGKILLs backends mid-burst,
and :mod:`repro.loadgen.slo` turns the measured phases into a
``BENCH_serve.json`` report with declared SLOs and the ``GATES`` that
``--check`` compares through :mod:`repro.bench.gate`, the regression
gate ``BENCH_core.json`` also uses on the engine side.  ``repro
loadgen`` (see :mod:`repro.cli`) drives the identical code path from
the CLI, the benchmarks, and CI.
"""

from repro.loadgen.arrivals import ZipfSampler, bursty_arrivals, poisson_arrivals
from repro.loadgen.chaos import ChaosPlan
from repro.loadgen.driver import DriverConfig, replay_trace
from repro.loadgen.slo import SLO, SloAccountant, build_report
from repro.loadgen.traces import Trace, TraceSpec, generate_trace, load_trace, trace_digest

__all__ = [
    "ZipfSampler",
    "poisson_arrivals",
    "bursty_arrivals",
    "ChaosPlan",
    "DriverConfig",
    "replay_trace",
    "SLO",
    "SloAccountant",
    "build_report",
    "Trace",
    "TraceSpec",
    "generate_trace",
    "load_trace",
    "trace_digest",
]
