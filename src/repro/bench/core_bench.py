"""Core prover/reconstruction benchmark — the ``BENCH_core.json`` emitter.

Measures warm per-query synthesis latency on a fixed set of Table 2
scenes under the serving protocol the engine actually uses: the scene is
prepared once (coercion-extended environment, succinct signature, scene
arena), then every timed run constructs a *fresh*
:class:`~repro.core.synthesizer.Synthesizer` over the shared prepared
state and executes one full ``Synthesize`` (explore + patterns +
reconstruction, paper budgets, ``n`` = 10, ``full`` policy).  That is the
quantity the arena work optimises — cache-served repeats would measure
nothing, cold one-shot runs would mostly measure scene build.

Usage::

    python -m repro.bench.core_bench --output BENCH_core.json
    python -m repro.bench.core_bench --check BENCH_core.json \
        [--output benchmarks/out/BENCH_core.json]

``--check`` re-measures and fails (exit 1) when the summed prove time
*or* the summed reconstruction time, over the rows both reports carry,
grows more than 25% against the ``current`` numbers committed in the
given file (``GATES``, through :mod:`repro.bench.gate`) — the CI slow
job runs exactly this, so the repository carries a perf trajectory that
PRs must defend on both phases.  Timings are machine-dependent; the gate
compares sums across rows to damp per-row noise.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.bench import gate
from repro.bench.timing import median_total_triple

#: Default measured rows: a spread of scene sizes, including the largest
#: bundled scene (row 28, 10700 declarations — the acceptance row).
DEFAULT_ROWS = (2, 9, 15, 21, 28, 44)

DEFAULT_REPEATS = 8

SCHEMA = "bench-core/v1"

#: The acceptance row (largest bundled scene by declaration count).
LARGEST_ROW = 28

#: Both phases are gated independently: a change that halves prove but
#: doubles recon must not pass on the total.
GATES = (
    gate.Gate("prove_ms", gate.per_row("current", field="prove_ms"), 0.25),
    gate.Gate("recon_ms", gate.per_row("current", field="recon_ms"), 0.25),
)


def measure_rows(rows: Sequence[int] = DEFAULT_ROWS,
                 repeats: int = DEFAULT_REPEATS) -> dict:
    """Measure every row; returns ``{row: {prove_ms, recon_ms, ...}}``."""
    from repro.bench.suite import BENCHMARKS, build_scene
    from repro.core.config import SynthesisConfig
    from repro.core.subtyping import environment_with_subtyping
    from repro.core.synthesizer import Synthesizer
    from repro.core.weights import WeightPolicy

    results: dict[str, dict] = {}
    for number in rows:
        spec = BENCHMARKS[number - 1]
        scene = build_scene(spec)
        extended = environment_with_subtyping(scene.environment,
                                              scene.subtypes)
        extended.succinct_environment()
        samples = []
        for _ in range(repeats + 1):
            synthesizer = Synthesizer.from_prepared(
                extended, scene.environment, scene.subtypes,
                policy=WeightPolicy.standard(),
                config=SynthesisConfig.paper_defaults())
            start = time.perf_counter()
            result = synthesizer.synthesize(scene.goal, n=10)
            total = time.perf_counter() - start
            samples.append((result.prove_seconds * 1000,
                            result.reconstruction_seconds * 1000,
                            total * 1000))
        cold, warm = samples[0], samples[1:]
        prove, recon, total = median_total_triple(warm)
        results[str(number)] = {
            "name": spec.name,
            "declarations": spec.row.n_initial,
            "cold_total_ms": round(cold[2], 2),
            "prove_ms": round(prove, 2),
            "recon_ms": round(recon, 2),
            "total_ms": round(total, 2),
            "best_total_ms": round(min(s[2] for s in warm), 2),
        }
    return results


def _summed(rows: dict, field: str) -> float:
    return round(sum(row[field] for row in rows.values()), 2)


def build_report(rows: dict, baseline: Optional[dict] = None,
                 repeats: int = DEFAULT_REPEATS) -> dict:
    """The ``BENCH_core.json`` document for one measurement."""
    report = {
        "schema": SCHEMA,
        "protocol": {
            "statistic": f"median-total warm run of {repeats} "
                         "(fresh synthesizer, shared prepared scene; "
                         "one run's prove/recon/total triple)",
            "config": "paper defaults (0.5 s prover / 7 s recon), "
                      "n=10, full policy",
            "rows": sorted(int(number) for number in rows),
            "largest_scene": LARGEST_ROW,
        },
        "current": rows,
        "summary": {
            "prove_ms_sum": _summed(rows, "prove_ms"),
            "recon_ms_sum": _summed(rows, "recon_ms"),
            "total_ms_sum": _summed(rows, "total_ms"),
        },
    }
    if baseline is not None:
        report["baseline"] = baseline
        speedups = {}
        for number, row in rows.items():
            base = baseline.get(number)
            if base and row["total_ms"]:
                speedups[number] = round(base["total_ms"] / row["total_ms"],
                                         2)
        report["speedup_total"] = speedups
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.core_bench",
        description="measure warm core synthesis latency "
                    "(prove/recon/total per Table 2 scene)")
    parser.add_argument("--rows", default=None,
                        help="comma-separated Table 2 row numbers "
                             f"(default {','.join(map(str, DEFAULT_ROWS))})")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"timed runs per row (default {DEFAULT_REPEATS})")
    parser.add_argument("--output", default=None,
                        help="write the measured report to this path")
    parser.add_argument("--check", default=None, metavar="BENCH_core.json",
                        type=gate.report_loader(SCHEMA),
                        help="compare against a committed report and fail "
                             "on prove- or recon-time regression")
    args = parser.parse_args(argv)

    rows = DEFAULT_ROWS
    if args.rows:
        rows = tuple(int(part) for part in args.rows.split(",") if part.strip())

    baseline = args.check.get("baseline") if args.check else None
    measured = measure_rows(rows, repeats=args.repeats)
    report = build_report(measured, baseline=baseline, repeats=args.repeats)

    for number, row in sorted(measured.items(), key=lambda kv: int(kv[0])):
        print(f"row {number:>2} ({row['name']}, {row['declarations']} decls): "
              f"prove {row['prove_ms']:.1f} ms, recon {row['recon_ms']:.1f} ms, "
              f"total {row['total_ms']:.1f} ms")
    summary = report["summary"]
    print(f"summed: prove {summary['prove_ms_sum']:.1f} ms, "
          f"recon {summary['recon_ms_sum']:.1f} ms, "
          f"total {summary['total_ms_sum']:.1f} ms")

    return gate.conclude(report, [], GATES, args.check, args.output)


if __name__ == "__main__":
    sys.exit(main())
