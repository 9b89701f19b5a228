"""Determinism self-check: two traced runs of one seed do the same work.

Usage (from the root of a checkout)::

    python3 perfbench/determinism.py --workload table2-session --seed 7

Runs the traced benchmark twice with the same seed, for ``run_seconds``
of ``BENCHMARK.json`` each, and compares the per-query ``core.*`` work
counts (explore nodes and edges, patterns, reconstruction expansions and
enqueued frontier entries) and the ``incremental.*`` counts of the
per-layer report.  Queries that hit a
time budget (explore or reconstruction truncated) in either run may
differ and are listed by query instead of failing the check.  Exit
status 0 means the two runs agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("nodes", "edges", "pattern_count", "expansions", "enqueued")
INCREMENTAL = ("incremental.dirty_types", "incremental.reused_share")


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"traced run failed:\n{completed.stderr[-2000:]}")
    dump = ROOT / ".perfbench" / f"trace-{workload}-{seed}.json"
    return json.loads(dump.read_text())["meta"]


def compare(first: dict, second: dict) -> tuple[list[str], list[str]]:
    """(mismatches, truncated queries) between two runs' metadata."""
    mismatches, truncated = [], []
    a = {entry["query"]: entry for entry in first["work"]}
    b = {entry["query"]: entry for entry in second["work"]}
    if set(a) != set(b):
        mismatches.append(f"different queries ran: {sorted(set(a) ^ set(b))}")
    for query in sorted(set(a) & set(b)):
        if a[query]["truncated"] or b[query]["truncated"]:
            truncated.append(query)
            continue
        for count in COUNTS:
            if a[query][count] != b[query][count]:
                mismatches.append(f"{query}: {count} {a[query][count]} != "
                                  f"{b[query][count]}")
    for name in INCREMENTAL:
        left, right = (first["per_layer"].get(name),
                       second["per_layer"].get(name))
        if left != right:
            mismatches.append(f"{name}: {left} != {right}")
    return mismatches, truncated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="table2-session")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    first = traced_run(args.workload, args.seed, seconds)
    second = traced_run(args.workload, args.seed, seconds)
    mismatches, truncated = compare(first, second)
    print(f"{len(first['work'])} queries compared; "
          f"{len(truncated)} hit a time budget and may differ: "
          f"{', '.join(truncated) or 'none'}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    print("deterministic" if not mismatches else "NOT deterministic")
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
