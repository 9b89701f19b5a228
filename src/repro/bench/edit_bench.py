"""Edit-session micro-benchmark — the ``BENCH_edit.json`` emitter.

Measures the incremental serving path's two claims on Table 2 scenes:

* **Edits** (row 28, 10,700 declarations): a single-declaration delta
  applied through :func:`~repro.incremental.delta.apply_scene_delta`
  (arena adoption, MATCH-index merge, memo transplant) must beat the
  full rebuild a plain ``/v1/register-scene`` would do — re-extending,
  re-indexing and re-summarising the scene from scratch.  Both an
  ``add`` and a ``remove`` are timed; every repeat uses a distinct
  declaration so neither path can hide behind the engine's scene-table
  dedup, and the rebuild side runs on a throwaway engine for the same
  reason.  The scene never completes, so this times the delta alone.
* **Editor loop** (rows 9, 21 and 28): the completion right after an
  edit must cost about what a warm miss costs, because the edit keeps
  reconstruction warm.  Each scene is warmed with its first completion;
  then every repeat times a warm miss (a new ``n``), the add of a fresh
  ``local … : String`` and the completion of the edited scene with the
  same ``n``, and undoes the add.  The collector is off inside each
  timed call (a collection runs before it), so a gen-2 pause cannot land
  on one side of the ratio only.

Usage::

    python -m repro.bench.edit_bench --output BENCH_edit.json
    python -m repro.bench.edit_bench --check BENCH_edit.json \
        [--output benchmarks/out/BENCH_edit.json]

The built-in check is structural, not trajectory-based: the run fails
(exit 1) when the median delta re-prepare does not beat the median full
rebuild for a single-declaration edit — that ordering is the reason the
incremental subsystem exists, so losing it is a bug, not noise — or when
any editor-loop row's post-edit miss exceeds ``MAX_POST_EDIT_RATIO``
times its warm miss.  ``--check`` additionally fails when the delta
time summed over the edit kinds both reports carry grows more than 50%
against the committed report (``GATES``, through
:mod:`repro.bench.gate`; single edits are noisy).  CI runs this
non-blocking and uploads the measured report next to ``BENCH_core``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from typing import Optional, Sequence

from repro.bench import gate
from repro.bench.core_bench import LARGEST_ROW

DEFAULT_REPEATS = 5

SCHEMA = "bench-edit/v1"

#: Editor-loop rows: 3.2k, 8.4k and 10.7k declarations.
EDITOR_ROWS = (9, 21, 28)

#: Largest post-edit/warm miss ratio ``check_ordering`` accepts.  An edit
#: that keeps reconstruction warm measures about 1.2x or less on every
#: editor-loop row, one that drops its memos 2-3x; the margin over 1.2x
#: absorbs runner noise.
MAX_POST_EDIT_RATIO = 1.5

GATES = (
    gate.Gate("delta_ms", gate.per_row("current", "edits", field="delta_ms"),
              0.5),
)


def _prepare_base(engine, row: int = LARGEST_ROW) -> tuple:
    """One Table 2 serving scene, prepared once: (spec, prepared)."""
    from repro.bench.suite import BENCHMARKS, build_scene

    spec = BENCHMARKS[row - 1]
    scene = build_scene(spec)
    prepared = engine.prepare(scene.environment, scene.subtypes,
                              goal=scene.goal, name=spec.name)
    return spec, prepared


def _timed_ms(call):
    """``(call(), wall ms)``, collector off inside the timed region."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        value = call()
        return value, (time.perf_counter() - start) * 1000
    finally:
        gc.enable()


def _rebuild_ms(edited) -> float:
    """Wall time of the full path: re-prepare the edited scene from scratch.

    A throwaway engine sidesteps the scene-table dedup, and a fresh
    ``Environment`` over the same declaration objects forces the whole
    prepare — coercion extension, succinct signature, MATCH indexes —
    to run again, exactly what ``/v1/register-scene`` pays on a
    re-register.  (Parsing is deliberately excluded: it would only pad
    the rebuild side, and the delta path skips it too.)
    """
    from repro.core.environment import Environment
    from repro.engine import CompletionEngine

    throwaway = CompletionEngine()
    declarations = tuple(edited.base_environment)
    start = time.perf_counter()
    rebuilt = Environment(declarations)
    throwaway.prepare(rebuilt, edited.subtypes, goal=edited.goal,
                      name="rebuild")
    return (time.perf_counter() - start) * 1000


def measure(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time delta-vs-rebuild for single-declaration edits of row 28."""
    from repro.engine import CompletionEngine
    from repro.incremental.delta import DeltaOp, apply_scene_delta

    engine = CompletionEngine()
    spec, prepared = _prepare_base(engine)

    # Distinct existing declarations to remove, one per repeat — locals
    # and imports only (removing the goal literal would be a different
    # scene class entirely).
    removable = [decl.name for decl in prepared.base_environment][:repeats]

    sections = {}
    for kind in ("add", "remove"):
        delta_samples, rebuild_samples = [], []
        for index in range(repeats):
            if kind == "add":
                ops = [DeltaOp.add(f"local bench_probe_{index} : String")]
            else:
                ops = [DeltaOp.remove(removable[index])]
            start = time.perf_counter()
            outcome = apply_scene_delta(engine, prepared, ops,
                                        name=spec.name)
            delta_samples.append((time.perf_counter() - start) * 1000)
            assert not outcome.reused, "benchmark edit hit the scene table"
            rebuild_samples.append(_rebuild_ms(outcome.prepared))
        sections[kind] = {
            "delta_ms": round(statistics.median(delta_samples), 2),
            "rebuild_ms": round(statistics.median(rebuild_samples), 2),
            "delta_best_ms": round(min(delta_samples), 2),
            "rebuild_best_ms": round(min(rebuild_samples), 2),
            "speedup": round(statistics.median(rebuild_samples)
                             / max(statistics.median(delta_samples), 1e-9),
                             2),
        }
    return {
        "row": LARGEST_ROW,
        "name": spec.name,
        "declarations": spec.row.n_initial,
        "repeats": repeats,
        "edits": sections,
        "editor_loop": [measure_editor_loop(row, repeats)
                        for row in EDITOR_ROWS],
    }


def measure_editor_loop(row: int, repeats: int = DEFAULT_REPEATS) -> dict:
    """Time the completion after an edit against a warm miss on *row*."""
    from repro.engine import CompletionEngine
    from repro.incremental.delta import DeltaOp, apply_scene_delta

    engine = CompletionEngine()
    spec, prepared = _prepare_base(engine, row)
    goal = prepared.goal
    first_n = engine.default_config.max_snippets
    engine.complete(prepared, goal, n=first_n)
    warm, delta, post_edit = [], [], []
    for index in range(repeats):
        # A new n misses the result cache but keeps every scene memo warm.
        n = first_n + 1 + index
        served, ms = _timed_ms(lambda: engine.complete(prepared, goal, n=n))
        assert not served.cache_hit, "warm miss hit the result cache"
        warm.append(ms)
        add = DeltaOp.add(f"local bench_editor_{index} : String")
        outcome, ms = _timed_ms(lambda: apply_scene_delta(
            engine, prepared, [add], name=spec.name))
        assert not outcome.reused, "benchmark edit hit the scene table"
        delta.append(ms)
        served, ms = _timed_ms(lambda: engine.complete(
            outcome.prepared, goal, n=n))
        assert not served.cache_hit, "post-edit miss hit the result cache"
        post_edit.append(ms)
        undone = apply_scene_delta(engine, outcome.prepared,
                                   [DeltaOp.remove(add.name)],
                                   name=spec.name)
        assert undone.prepared is prepared, "undo did not reattach the scene"
    warm_ms = statistics.median(warm)
    post_edit_ms = statistics.median(post_edit)
    return {
        "row": row,
        "name": spec.name,
        "declarations": spec.row.n_initial,
        "warm_miss_ms": round(warm_ms, 2),
        "delta_ms": round(statistics.median(delta), 2),
        "post_edit_miss_ms": round(post_edit_ms, 2),
        "post_edit_ratio": round(post_edit_ms / max(warm_ms, 1e-9), 2),
    }


def build_report(measured: dict) -> dict:
    """The ``BENCH_edit.json`` document for one measurement."""
    edits = measured["edits"]
    return {
        "schema": SCHEMA,
        "protocol": {
            "statistic": f"median of {measured['repeats']} "
                         "single-declaration edits (distinct declaration "
                         "per repeat; rebuild on a throwaway engine)",
            "scene": f"Table 2 row {measured['row']} "
                     f"({measured['declarations']} declarations)",
            "paths": "delta = apply_scene_delta over the warm prepared "
                     "scene; rebuild = fresh Environment + prepare from "
                     "scratch on a throwaway engine",
            "editor_loop": f"Table 2 rows "
                           f"{', '.join(str(r) for r in EDITOR_ROWS)}, "
                           f"warmed by their first completion; median of "
                           f"{measured['repeats']} repeats of warm miss "
                           "(new n) / add a fresh String local / "
                           "completion of the edited scene (same n) / "
                           "undo; collector off inside each timed call",
        },
        "current": measured,
        "summary": {
            "delta_ms_sum": round(sum(e["delta_ms"]
                                      for e in edits.values()), 2),
            "rebuild_ms_sum": round(sum(e["rebuild_ms"]
                                        for e in edits.values()), 2),
        },
    }


def check_ordering(measured: dict) -> list[str]:
    """The structural check: delta must beat rebuild on every edit kind,
    and the completion after an edit must stay near a warm miss."""
    failures = []
    for kind, section in measured["edits"].items():
        if section["delta_ms"] >= section["rebuild_ms"]:
            failures.append(
                f"{kind}: delta re-prepare {section['delta_ms']:.1f} ms "
                f"does not beat the full rebuild "
                f"{section['rebuild_ms']:.1f} ms on row {measured['row']}")
    for section in measured["editor_loop"]:
        if section["post_edit_ratio"] > MAX_POST_EDIT_RATIO:
            failures.append(
                f"row {section['row']}: the completion after an edit took "
                f"{section['post_edit_miss_ms']:.1f} ms, "
                f"{section['post_edit_ratio']:.2f}x the warm miss "
                f"{section['warm_miss_ms']:.1f} ms (limit "
                f"{MAX_POST_EDIT_RATIO}x)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.edit_bench",
        description="measure delta re-prepare vs full rebuild for "
                    "single-declaration edits of the largest scene")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"edits timed per kind (default "
                             f"{DEFAULT_REPEATS})")
    parser.add_argument("--output", default=None,
                        help="write the measured report to this path")
    parser.add_argument("--check", default=None, metavar="BENCH_edit.json",
                        type=gate.report_loader(SCHEMA),
                        help="compare against a committed report and fail "
                             "on delta-time regression")
    args = parser.parse_args(argv)

    measured = measure(repeats=args.repeats)
    report = build_report(measured)

    for kind, section in measured["edits"].items():
        print(f"{kind}: delta {section['delta_ms']:.1f} ms vs rebuild "
              f"{section['rebuild_ms']:.1f} ms "
              f"({section['speedup']:.1f}x) on "
              f"{measured['declarations']} declarations")
    for section in measured["editor_loop"]:
        print(f"row {section['row']}: post-edit miss "
              f"{section['post_edit_miss_ms']:.1f} ms vs warm miss "
              f"{section['warm_miss_ms']:.1f} ms "
              f"({section['post_edit_ratio']:.2f}x) on "
              f"{section['declarations']} declarations")

    return gate.conclude(report, check_ordering(measured), GATES,
                         args.check, args.output)


if __name__ == "__main__":
    sys.exit(main())
