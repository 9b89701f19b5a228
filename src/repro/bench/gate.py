"""The one regression gate of every ``BENCH_*.json`` emitter.

``core_bench``, ``edit_bench``, ``rank_bench`` and ``repro loadgen``
each declare a ``GATES`` tuple: one :class:`Gate` per metric they
defend, with its direction and tolerance, and a reader that picks
``{row: value}`` out of a report.  :func:`check` sums each metric over
the rows both the committed and the measured report carry, so a run
over a subset of the committed rows (``--rows 13``) is compared on those
rows alone, and summing damps per-row noise.  A metric with no row in
common, one the committed report lacks included, is a finding: a gate
that compares nothing must not pass.

Checks that need one report only (the edit ordering, the ranking chain
against its base order, the SLO verdicts) stay with their emitter and
reach :func:`conclude` as findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class Gate:
    """One gated metric: summed over common rows, within ``tolerance``.

    ``read`` maps a report to ``{row: value}``; a row whose value is
    ``None`` does not carry the metric.  ``better`` is ``"lower"`` (the
    sum may grow by at most ``tolerance``) or ``"higher"`` (it may shrink
    by at most ``tolerance``).
    """

    metric: str
    read: Callable[[dict], Mapping[str, Optional[float]]]
    tolerance: float
    better: str = "lower"

    def __post_init__(self):
        if self.better not in DIRECTIONS:
            raise ValueError(f"better must be one of {DIRECTIONS}, "
                             f"got {self.better!r}")

    def finding(self, committed: dict, measured: dict) -> Optional[str]:
        """Why *measured* fails this gate against *committed*, or ``None``."""
        reference = self.read(committed)
        values = self.read(measured)
        rows = [row for row, value in reference.items()
                if value is not None and values.get(row) is not None]
        if not rows:
            return (f"{self.metric}: no rows in common between the committed "
                    f"{sorted(reference)} and measured {sorted(values)} "
                    f"reports")
        committed_sum = sum(reference[row] for row in rows)
        measured_sum = sum(values[row] for row in rows)
        where = f"summed over rows {', '.join(rows)}"
        if self.better == "lower":
            limit = committed_sum * (1.0 + self.tolerance)
            if measured_sum > limit:
                return (f"{self.metric}: {measured_sum:g} {where} exceeds "
                        f"the committed {committed_sum:g} by more than "
                        f"{self.tolerance:.0%} (limit {limit:g})")
        else:
            floor = committed_sum * (1.0 - self.tolerance)
            if measured_sum < floor:
                return (f"{self.metric}: {measured_sum:g} {where} fell below "
                        f"the committed {committed_sum:g} by more than "
                        f"{self.tolerance:.0%} (floor {floor:g})")
        return None


def per_row(*path: str, field: str
            ) -> Callable[[dict], Mapping[str, Optional[float]]]:
    """A ``Gate.read``: ``{row: fields[field]}`` over the rows at *path*."""
    def read(report: dict) -> Mapping[str, Optional[float]]:
        rows = report
        for key in path:
            rows = rows.get(key) or {}
        return {row: fields.get(field) for row, fields in rows.items()}
    return read


def check(gates: Sequence[Gate], committed: dict,
          measured: dict) -> list[str]:
    """Findings of *measured* against *committed*, at most one per gate."""
    findings = (gate.finding(committed, measured) for gate in gates)
    return [finding for finding in findings if finding is not None]


def report_loader(schema: str) -> Callable[[str], dict]:
    """The argparse ``type`` of ``--check``: loads a committed report.

    A file that cannot be read, or whose ``schema`` is not *schema*, is a
    usage error before anything is measured.
    """
    def load(path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise argparse.ArgumentTypeError(
                f"cannot load report {path}: {exc}") from None
        found = report.get("schema") if isinstance(report, dict) else None
        if found != schema:
            raise argparse.ArgumentTypeError(
                f"{path} is not a {schema} report (its schema is {found!r})")
        return report
    return load


def conclude(report: dict, findings: Sequence[str],
             gates: Sequence[Gate], committed: Optional[dict],
             output: Optional[str]) -> int:
    """Write *report* to *output*, gate it, print every finding; exit code.

    *findings* are the emitter's own checks of *report*; the gates run
    only when a *committed* report was given (``--check``).
    """
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
    findings = list(findings)
    if committed is not None:
        findings += check(gates, committed, report)
    for finding in findings:
        print(f"FAIL: {finding}", file=sys.stderr)
    if findings:
        return 1
    if committed is not None:
        print("regression gate passed: "
              + ", ".join(f"{gate.metric} within {gate.tolerance:.0%} "
                          f"({gate.better} is better)" for gate in gates))
    return 0
