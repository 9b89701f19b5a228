"""The one regression gate shared by every BENCH emitter (no timing)."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.bench.gate import Gate, check, per_row, report_loader

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Each emitter: the module declaring its ``SCHEMA`` and ``GATES``, and
#: its committed report.
EMITTERS = {
    "core": ("repro.bench.core_bench", "BENCH_core.json"),
    "edit": ("repro.bench.edit_bench", "BENCH_edit.json"),
    "rank": ("repro.bench.rank_bench", "BENCH_rank.json"),
    "serve": ("repro.loadgen.slo", "BENCH_serve.json"),
}

LATENCY = Gate("latency_ms", per_row("rows", field="latency_ms"), 0.25)
HITS = Gate("hits", per_row("rows", field="hits"), 0.0, better="higher")


def _report(**rows) -> dict:
    return {"rows": {row: {"latency_ms": latency, "hits": 10}
                     for row, latency in rows.items()}}


def _emitter(name: str):
    return importlib.import_module(EMITTERS[name][0])


class TestGate:
    def test_sums_only_the_rows_both_reports_carry(self):
        committed = _report(a=100.0, b=100.0)
        # Row c is new and row b unmeasured: a alone is compared.
        assert check([LATENCY], committed, _report(a=125.0, c=900.0)) == []
        failures = check([LATENCY], committed, _report(a=126.0, c=1.0))
        assert failures == ["latency_ms: 126 summed over rows a exceeds the "
                            "committed 100 by more than 25% (limit 125)"]

    def test_a_row_without_a_value_does_not_carry_the_metric(self):
        committed = _report(a=100.0, b=None)
        assert check([LATENCY], committed, _report(a=100.0, b=5000.0)) == []
        failures = check([LATENCY], _report(a=None), _report(a=1.0))
        assert failures[0].startswith("latency_ms: no rows in common")

    def test_a_metric_the_committed_report_lacks_is_a_finding(self):
        failures = check([LATENCY, HITS], {}, _report(a=1.0))
        assert [failure.split(":")[0] for failure in failures] \
            == ["latency_ms", "hits"]

    def test_higher_is_better_with_zero_tolerance_is_a_floor(self):
        committed = _report(a=1.0)
        measured = _report(a=1.0)
        assert check([HITS], committed, measured) == []
        measured["rows"]["a"]["hits"] = 11
        assert check([HITS], committed, measured) == []
        measured["rows"]["a"]["hits"] = 9
        assert check([HITS], committed, measured) == [
            "hits: 9 summed over rows a fell below the committed 10 by "
            "more than 0% (floor 10)"]

    def test_direction_is_lower_or_higher(self):
        with pytest.raises(ValueError):
            Gate("x", per_row("rows", field="x"), 0.1, better="smaller")


class TestCommittedReports:
    @pytest.mark.parametrize("name", sorted(EMITTERS))
    def test_gates_accept_the_committed_report(self, name):
        module = _emitter(name)
        committed = report_loader(module.SCHEMA)(
            str(REPO_ROOT / EMITTERS[name][1]))
        assert check(module.GATES, committed, committed) == []

    def test_loader_refuses_an_unreadable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(argparse.ArgumentTypeError, match="cannot load"):
            report_loader("bench-core/v1")(str(path))
        path.write_text(json.dumps([1]), encoding="utf-8")
        with pytest.raises(argparse.ArgumentTypeError,
                           match="not a bench-core/v1 report"):
            report_loader("bench-core/v1")(str(path))

    @pytest.mark.parametrize("name, wrong", [
        ("core", "rank"), ("edit", "core"), ("rank", "core"),
        ("serve", "edit")])
    def test_check_refuses_another_emitters_report(self, name, wrong,
                                                   capsys):
        """``--check`` with a committed file of another schema is a usage
        error before anything is measured."""
        path = str(REPO_ROOT / EMITTERS[wrong][1])
        with pytest.raises(SystemExit) as exited:
            if name == "serve":
                cli.main(["loadgen", "--check", path])
            else:
                _emitter(name).main(["--check", path])
        assert exited.value.code == 2
        schema = _emitter(name).SCHEMA
        assert f"is not a {schema} report" in capsys.readouterr().err


def test_importing_loadgen_loads_the_gate_alone():
    """``repro.loadgen`` reaches the gate through the ``repro.bench``
    package, which must not load the Table 2 runner or its provers."""
    code = ("import sys, repro.loadgen; print(sorted(name for name in "
            "sys.modules if name.startswith(('repro.bench.runner', "
            "'repro.javamodel', 'repro.provers'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"
