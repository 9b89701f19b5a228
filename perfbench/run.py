"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-session --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics, writes
its spans to ``.perfbench/`` and reports its own overhead.  Earlier lines
of standard output are a human-readable report: every metric with its
unit and sample count, host drift, GC pauses and any failed check.  The
last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

The program under test is the ``repro`` package under ``src/`` of the
same checkout; without it the run fails before printing a result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats  # noqa: E402
from perfbench.record import EDIT, STEADY, UNDO  # noqa: E402
from perfbench.tracing import OUTSIDE, Tracer  # noqa: E402

WORKLOADS = ("table2-session", "serve-cold")

#: Extra fresh-interpreter set-ups whose times join the run's own set-up
#: in the reported median.
SETUP_PROBES = 2

#: Span names a GC pause can be charged to (``gc.pause_ms.<span>``).
GC_SPANS = ("engine.prepare", "engine.complete", "engine.rerank",
            "core.render", "incremental.delta", "lang.parse",
            "wire.register", "wire.complete", "wire.release", OUTSIDE)

#: Per-layer metrics: name -> unit.  A layer a workload bypasses reports 0.
PER_LAYER = {
    "engine.prepare_ms": "ms",
    "engine.rerank_ms": "ms",
    "engine.cache_hit_ratio": "share",
    "engine.cache_evictions": "count",
    "core.explore_ms.first": "ms",
    "core.explore_ms.miss": "ms",
    "core.patterns_ms.first": "ms",
    "core.patterns_ms.miss": "ms",
    "core.reconstruct_ms.first": "ms",
    "core.reconstruct_ms.miss": "ms",
    "core.render_ms": "ms",
    "core.explore_nodes": "count",
    "core.explore_edges": "count",
    "core.pattern_count": "count",
    "core.reconstruct_expansions": "count",
    "core.reconstruct_enqueued": "count",
    "core.truncated_share": "share",
    "incremental.delta_ms": "ms",
    "incremental.undo_ms": "ms",
    "incremental.reused_share": "share",
    "incremental.dirty_types": "count",
    "lang.parse_ms": "ms",
    "server.backend_ms": "ms",
    "server.synthesis_ms": "ms",
    "server.coalesced": "count",
    "server.rejected": "count",
    "router.hop_ms": "ms",
    "router.hedge_ratio": "share",
    "router.hedge_win_ratio": "share",
    "router.replica_spread": "share",
    "router.failovers": "count",
    "router.retry_denied": "count",
    **{f"gc.pause_ms.{name}": "ms" for name in GC_SPANS},
    "gc.gen2": "count",
    "harness.late_tail_ms": "ms",
    "host.ref_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.completion_coverage": "share",
    "trace.completion_coverage_min": "share",
}


def make_workload(name: str, seed: int, seconds: int, tracer: Tracer):
    if name == "table2-session":
        from perfbench.table2 import Table2Session
        return Table2Session(seed, seconds, tracer)
    from perfbench.wire import ServeCold
    return ServeCold(seed, seconds, tracer)


def _setup_probe(workload_name: str, seed: int, seconds: int) -> float:
    """Time the program-start part of set-up in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr[-500:]}")
    return float(completed.stdout.strip().splitlines()[-1])


def _finite(value: float) -> float:
    return value if isinstance(value, (int, float)) and math.isfinite(
        value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    tracer = Tracer(enabled=bool(args.trace))
    workload = make_workload(args.workload, args.seed, args.seconds, tracer)
    if args.setup_probe:
        try:
            workload.setup_base()
            print(time.perf_counter() - STARTED)
        finally:
            workload.close()
        return 0

    rec = workload.recorder
    try:
        workload.setup_base()
        base_seconds = time.perf_counter() - STARTED
        inputs_started = time.perf_counter()
        workload.setup_inputs()
        inputs_seconds = time.perf_counter() - inputs_started
        with tracer.collecting_gc():
            workload.run()
        rec.peak_rss_mb = workload.peak_rss_mb()
        layers = workload.per_layer() if args.trace else {}
    finally:
        workload.close()
    probes = [_setup_probe(args.workload, args.seed, args.seconds)
              for _ in range(SETUP_PROBES)]
    rec.setup_seconds = statistics.median([base_seconds] + probes) \
        + inputs_seconds

    end_to_end = rec.end_to_end()
    counts = {**rec.counts(), "setup_s": 1 + SETUP_PROBES}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {rec.attempted} operations, "
          f"{rec.failed} failed, timed phase {rec.timed_seconds:.2f} s")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:24s} {value:12.4f} {unit:6s} n={counts.get(name, 1)}")
    tail = rec.tail_ms()
    print(f"{'miss_complete_p90_ms':24s} "
          f"{tail if tail is not None else float('nan'):12.4f} {'ms':6s} "
          f"n={len(rec.samples[STEADY])} (report only)")
    for name, kind in (("edit_ms", EDIT), ("undo_ms", UNDO)):
        batches = rec.samples.get(kind)
        if batches:
            print(f"{name:24s} {statistics.median(batches) * 1000:12.4f} "
                  f"{'ms':6s} n={len(batches)} (report only)")
    print(f"setup: base {base_seconds:.3f} s (probes "
          f"{', '.join(f'{p:.3f}' for p in probes)}), inputs and topology "
          f"{inputs_seconds:.3f} s")
    ref = rec.host_ref_ms
    print(f"host.ref_ms median {statistics.median(ref):.3f} "
          f"(min {min(ref):.3f}, max {max(ref):.3f}, n={len(ref)}); "
          f"harness GC pause {tracer.gc_pause_total * 1000:.1f} ms, "
          f"gen-2 collections {tracer.gen2_collections} "
          f"({rec.steady_gen2} inside steady completions)")
    if rec.backend_gen2 is not None:
        print(f"backend gen-2 collections {rec.backend_gen2} "
              f"(timed phase, from /v1/stats)")
    for message in rec.failures:
        print(f"FAILED: {message}")

    if args.trace:
        layers.update(_harness_layers(rec, tracer))
        metrics = {name: {"value": _finite(layers.get(name, 0.0)),
                          "unit": unit} for name, unit in PER_LAYER.items()}
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(str(path), {"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "work": rec.work,
                                "per_layer": layers})
        for name, entry in metrics.items():
            print(f"{name:34s} {entry['value']:14.4f} {entry['unit']}")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": _finite(value), "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": rec.failed == 0,
                      "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


def _harness_layers(rec, tracer: Tracer) -> dict:
    layers = {f"gc.pause_ms.{name}": seconds * 1000.0
              for name, seconds in tracer.gc_pause.items()}
    layers["host.ref_ms"] = statistics.median(rec.host_ref_ms)
    # The highest of these percentiles the gaps between operations carry.
    late = next((value for value in (stats.tail(rec.late, q)
                                     for q in (0.99, 0.95, 0.90))
                 if value is not None), stats.median(rec.late))
    layers["harness.late_tail_ms"] = late * 1000.0
    layers["trace.overhead_pct"] = (100.0 * tracer.overhead
                                    / max(rec.timed_seconds, 1e-9))
    return layers


if __name__ == "__main__":
    sys.exit(main())
