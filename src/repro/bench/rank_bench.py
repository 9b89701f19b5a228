"""Rank-quality benchmark — the ``BENCH_rank.json`` emitter.

Where ``core_bench`` defends the repository's latency trajectory,
``rank_bench`` defends its *ranking* trajectory: the 1-based rank of the
expected snippet (and the mean reciprocal rank) over the Table 2 corpus
scenes, measured twice per scene — once on the base corpus-weight order
and once through the standard post-reconstruction weigher chain
(:meth:`repro.core.ranking.RankingPipeline.standard`).  Two replay
sections exercise the same metric under serving-shaped traffic:

* **trace** — the deterministic loadgen workload (``smoke`` profile):
  every Zipf-sampled ``complete`` event contributes one observation, so
  popular scenes dominate the averages exactly as they dominate
  production traffic, and repeated events ride the engine's result
  cache with the re-rank applied after lookup, like the server.
* **session** — the shipped IDE edit-session script replayed offline
  through ``engine.open_session``; each ``complete`` step contributes
  the rank of the scene's documented expected completion, across edits
  that add and then remove distractor declarations.

Everything here is deterministic (ranks, not timings), so the committed
``BENCH_rank.json`` reproduces byte-for-byte on any machine.

Usage::

    python -m repro.bench.rank_bench --output BENCH_rank.json
    python -m repro.bench.rank_bench --check BENCH_rank.json

``--check`` re-measures and fails (exit 1) when, over the scenes both
reports carry, the summed standard-chain rank grows or the summed
reciprocal rank (the MRR over those scenes) shrinks more than 25%
against the committed report, or when the trace replay's MRR shrinks
more than 25% (``GATES``, through :mod:`repro.bench.gate`).  Every run
also fails when the standard chain ranks worse than the base order it
re-scores — the structural claim of the ranking layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bench import gate

SCHEMA = "bench-rank/v1"

DEFAULT_N = 10

#: The shipped edit-session script the ``session`` section replays.
DEFAULT_SESSION_SCRIPT = (Path(__file__).resolve().parents[3]
                          / "examples/edit_sessions/url_reader_session.json")

#: Documented expected completions for the shipped example scenes, as
#: masked code (literal arguments appear as ``<lit>``); keyed by the
#: scene file stem the loadgen trace derives its tenant variants from.
EXPECTED_BY_BASE = {
    "url_reader": "new BufferedReader(new InputStreamReader("
                  "url.openStream()))",
    "file_writer": "new PrintWriter(new FileWriter(path))",
    "swing_label": "new JLabel(message)",
}


def _observe(result, reranked, expected, environment, n: int) -> dict:
    """One (base, standard) rank observation; absent ranks count n+1."""
    from repro.bench.matching import find_rank

    base = find_rank(result.snippets, expected, environment)
    standard = find_rank(reranked.snippets, expected, environment)
    return {
        "rank_base": base if base is not None else n + 1,
        "rank_standard": standard if standard is not None else n + 1,
        "found_base": base is not None,
        "found_standard": standard is not None,
    }


def measure_scenes(rows: Optional[Sequence[int]] = None,
                   n: int = DEFAULT_N) -> dict:
    """Expected-snippet rank per Table 2 scene, base vs standard chain."""
    from repro.bench.runner import scene_for, shared_engine
    from repro.bench.suite import BENCHMARKS
    from repro.core.ranking import RankingPipeline

    engine = shared_engine()
    pipeline = RankingPipeline.standard()
    numbers = rows or [spec.number for spec in BENCHMARKS]
    specs = {spec.number: spec for spec in BENCHMARKS}
    results: dict[str, dict] = {}
    for number in numbers:
        spec = specs[number]
        scene = scene_for(spec)
        prepared = engine.prepare_scene(scene)
        served = engine.complete(prepared, scene.goal, variant="full", n=n)
        outcome = pipeline.rerank(served.result, prepared.environment)
        observed = _observe(served.result, outcome.result, spec.expected,
                            prepared.environment, n)
        results[str(number)] = {"name": spec.name, **observed}
    return results


def measure_trace(profile: str = "smoke", n: int = DEFAULT_N) -> dict:
    """Replay the loadgen trace's completions, one observation per event.

    The Zipf scene popularity baked into the trace weights the averages:
    a hot scene's rank counts once per arrival, exactly as served.  The
    engine runs the standard chain the way the server does — base
    results cached, re-rank after lookup — while the base rank is read
    off the cached result directly.
    """
    from repro.core.ranking import RankingPipeline
    from repro.engine import CompletionEngine
    from repro.lang.loader import load_environment_text
    from repro.loadgen.traces import PROFILES, generate_trace

    trace = generate_trace(PROFILES[profile])
    engine = CompletionEngine(ranking=RankingPipeline.standard(),
                              scene_entries=max(len(trace.scenes), 64))
    prepared_by_key: dict[str, object] = {}
    observations = []
    for event in trace.events:
        if event.op != "complete":
            continue
        scene = trace.scenes[event.scene]
        base_stem = scene["name"].split("@", 1)[0]
        expected = EXPECTED_BY_BASE.get(base_stem)
        if expected is None:
            continue
        prepared = prepared_by_key.get(event.scene)
        if prepared is None:
            loaded = load_environment_text(scene["text"])
            prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                      goal=loaded.goal, name=scene["name"])
            prepared_by_key[event.scene] = prepared
        served = engine.complete(prepared, n=n)
        base = engine.results.get(served.key)
        observations.append(_observe(base, served.result, expected,
                                     prepared.environment, n))
    return {
        "profile": profile,
        "events": len(observations),
        "distinct_scenes": len(prepared_by_key),
        "rank_sum_base": sum(o["rank_base"] for o in observations),
        "rank_sum_standard": sum(o["rank_standard"] for o in observations),
        "mrr_base": _mrr(observations, "rank_base", "found_base"),
        "mrr_standard": _mrr(observations, "rank_standard",
                             "found_standard"),
    }


def measure_session(script_path: Optional[str] = None,
                    n: int = DEFAULT_N) -> dict:
    """Replay the shipped edit-session script, rank per complete step."""
    from repro.core.ranking import RankingPipeline
    from repro.engine import CompletionEngine
    from repro.lang.loader import load_environment_file

    path = Path(script_path) if script_path else DEFAULT_SESSION_SCRIPT
    raw = json.loads(path.read_text(encoding="utf-8"))
    steps = raw.get("steps") if isinstance(raw, dict) else raw
    scene_path = (Path(__file__).resolve().parents[3]
                  / "examples/scenes/url_reader.ins")
    expected = EXPECTED_BY_BASE["url_reader"]

    loaded = load_environment_file(scene_path)
    engine = CompletionEngine(ranking=RankingPipeline.standard())
    session = engine.open_session(
        engine.prepare(loaded.environment, loaded.subtypes,
                       goal=loaded.goal, name=scene_path.stem))
    step_rows = []
    for step in steps:
        kind, body = next(iter(step.items()))
        if kind == "edit":
            session.apply_delta(body)
            continue
        spec = body or {}
        count = spec.get("n", n)
        served = session.complete(n=count)
        base = engine.results.get(served.key)
        step_rows.append(_observe(base, served.result, expected,
                                  session.prepared.environment, count))
    return {
        "script": path.name,
        "complete_steps": len(step_rows),
        "rank_sum_base": sum(o["rank_base"] for o in step_rows),
        "rank_sum_standard": sum(o["rank_standard"] for o in step_rows),
        "steps": step_rows,
    }


def _mrr(observations, rank_field: str, found_field: str) -> float:
    if not observations:
        return 0.0
    total = sum(1.0 / o[rank_field] for o in observations if o[found_field])
    return round(total / len(observations), 4)


def summarize_scenes(rows: dict) -> dict:
    observations = list(rows.values())
    return {
        "scenes": len(observations),
        "rank_sum_base": sum(o["rank_base"] for o in observations),
        "rank_sum_standard": sum(o["rank_standard"] for o in observations),
        "mrr_base": _mrr(observations, "rank_base", "found_base"),
        "mrr_standard": _mrr(observations, "rank_standard",
                             "found_standard"),
    }


def build_report(scene_rows: dict, trace: dict, session: dict,
                 n: int = DEFAULT_N) -> dict:
    """The ``BENCH_rank.json`` document for one measurement."""
    return {
        "schema": SCHEMA,
        "protocol": {
            "statistic": "1-based expected-snippet rank (absent counts "
                         f"n+1) and MRR, n={n}, full policy; standard "
                         "weigher chain vs base corpus-weight order",
            "weighers": _weigher_names(),
            "deterministic": True,
        },
        "scenes": scene_rows,
        "summary": summarize_scenes(scene_rows),
        "trace": trace,
        "session": session,
    }


def _weigher_names() -> list:
    from repro.core.ranking import RankingPipeline

    return list(RankingPipeline.standard().names)


def _reciprocal_ranks(report: dict) -> dict:
    return {scene: (1.0 / row["rank_standard"] if row["found_standard"]
                    else 0.0)
            for scene, row in report.get("scenes", {}).items()}


def _trace_mrr(report: dict) -> dict:
    return {"trace": (report.get("trace") or {}).get("mrr_standard")}


#: The trace section is gated on MRR alone: its event count is part of
#: the workload's identity, not the quality signal.
GATES = (
    gate.Gate("rank_standard", gate.per_row("scenes", field="rank_standard"),
              0.25),
    gate.Gate("reciprocal_rank", _reciprocal_ranks, 0.25, better="higher"),
    gate.Gate("trace.mrr_standard", _trace_mrr, 0.25, better="higher"),
)


def check_chain(report: dict) -> list[str]:
    """The structural check: over the corpus scenes, the standard chain's
    summed expected rank must not be worse than the base order's."""
    summary = report["summary"]
    if summary["rank_sum_standard"] > summary["rank_sum_base"]:
        return [f"structural: the standard chain worsens the summed expected "
                f"rank over the corpus scenes ({summary['rank_sum_standard']} "
                f"vs base {summary['rank_sum_base']})"]
    return []


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.rank_bench",
        description="measure expected-snippet rank quality "
                    "(base order vs the standard weigher chain)")
    parser.add_argument("--rows", default=None,
                        help="comma-separated Table 2 row numbers "
                             "(default: all)")
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help=f"snippets per completion (default {DEFAULT_N})")
    parser.add_argument("--trace-profile", default="smoke",
                        help="loadgen trace profile to replay "
                             "(default smoke)")
    parser.add_argument("--session-script", default=None, metavar="PATH",
                        help="edit-session script to replay (default: the "
                             "shipped url_reader session)")
    parser.add_argument("--output", default=None,
                        help="write the measured report to this path")
    parser.add_argument("--check", default=None, metavar="BENCH_rank.json",
                        type=gate.report_loader(SCHEMA),
                        help="compare against a committed report and fail "
                             "on rank-quality regression")
    args = parser.parse_args(argv)

    rows = None
    if args.rows:
        rows = tuple(int(part) for part in args.rows.split(",")
                     if part.strip())

    scene_rows = measure_scenes(rows, n=args.n)
    trace = measure_trace(args.trace_profile, n=args.n)
    session = measure_session(args.session_script, n=args.n)
    report = build_report(scene_rows, trace, session, n=args.n)

    summary = report["summary"]
    print(f"scenes ({summary['scenes']}): summed expected rank "
          f"base={summary['rank_sum_base']} "
          f"standard={summary['rank_sum_standard']}; "
          f"MRR base={summary['mrr_base']:.4f} "
          f"standard={summary['mrr_standard']:.4f}")
    print(f"trace ({trace['profile']}, {trace['events']} completions over "
          f"{trace['distinct_scenes']} scenes): "
          f"MRR base={trace['mrr_base']:.4f} "
          f"standard={trace['mrr_standard']:.4f}")
    print(f"session ({session['script']}, {session['complete_steps']} "
          f"complete steps): rank sum base={session['rank_sum_base']} "
          f"standard={session['rank_sum_standard']}")

    return gate.conclude(report, check_chain(report), GATES, args.check,
                         args.output)


if __name__ == "__main__":
    sys.exit(main())
