"""Steadiness check: run a workload over several seeds and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload serve-cold --seeds 1-10

For each end-to-end metric it prints the median of the per-run values and
their spread — ``(Q3 - Q1) / median`` with ``statistics.quantiles(values,
n=4)`` — next to the metric's bound from ``BENCHMARK.json``.  A spread
above the bound fails the check; one above a third of it is flagged as
thin margin.  Runs go one at a time, untraced, for ``run_seconds`` each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--output", default=None,
                        help="also write every run's result line here")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    runs = []
    for seed in seeds_from(args.seeds):
        completed = subprocess.run(
            config["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(config["run_seconds"]),
                                 "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stderr[-1500:]}")
            return 1
        result = json.loads(lines[-1])
        host = "\n    ".join(line for line in lines
                           if line.startswith(("host.", "backend", "FAILED")))
        runs.append({"seed": seed, "host": host, **result})
        values = " ".join(f"{name}={entry['value']:.4g}"
                          for name, entry in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}\n"
              f"    {host}", flush=True)
    if args.output:
        Path(args.output).write_text(json.dumps(runs, indent=1))
    failed = not all(run["correct"] for run in runs)
    print(f"\n{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        spread = relative_spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict, failed = "OVER BOUND", True
            elif spread > bound / 3:
                verdict = "thin margin"
        print(f"{name:24s} {statistics.median(values):12.4f} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
