"""Unit tests for the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import statistics
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.record import Recorder
from perfbench.run import PER_LAYER
from perfbench.tracing import OUTSIDE, Span, Tracer, covered_seconds, \
    self_seconds
from perfbench.wire import backend_gen2, signatures, type_of


# -- percentiles --------------------------------------------------------------

def test_nearest_rank_index():
    assert stats.rank_index(100, 0.90) == 89
    assert stats.rank_index(100, 0.99) == 98
    assert stats.rank_index(1, 0.5) == 0
    assert stats.rank_index(10, 0.5) == 4


def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert stats.samples_beyond(100, 0.90) == 10
    assert stats.tail(values, 0.90) == 90
    assert stats.samples_beyond(99, 0.90) == 9
    assert stats.tail(values[:99], 0.90) is None
    assert stats.tail(list(range(1000)), 0.99) == 989
    assert stats.tail(list(range(999)), 0.99) is None


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert stats.tail(values, 0.90) == 5.0
    assert stats.tail(sorted(values), 0.90) == 5.0


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert stats.relative_spread(values) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_recorder_reports_no_tail_when_it_is_thin():
    recorder = Recorder()
    recorder.samples["steady"] = [0.01] * 99
    assert recorder.tail_ms() is None
    recorder.samples["steady"] = [0.01] * 90 + [0.02] * 10
    assert recorder.tail_ms() == 10.0


def test_recorder_counts_failures_outside_the_limit():
    recorder = Recorder()
    recorder.completion(0.100, True)
    recorder.completion(0.300, True)
    recorder.completion(0.050, False)
    recorder.completion(0.200, True)
    recorder.samples["steady"] = recorder.samples["ready"] = \
        recorder.samples["first"] = [0.1]
    recorder.timed_seconds = 2.0
    metrics = recorder.end_to_end()
    assert metrics["within_250ms_share"][0] == 0.5
    assert metrics["completions_per_s"][0] == 1.5


def test_expected_rank_shares():
    recorder = Recorder()
    recorder.ranks = [1, 2, None, 12]
    recorder.samples["steady"] = recorder.samples["ready"] = \
        recorder.samples["first"] = [0.1]
    recorder.timed_seconds = 1.0
    metrics = recorder.end_to_end()
    assert metrics["expected_mrr"][0] == pytest.approx(
        (1 + 0.5 + 0 + 1 / 12) / 4)
    assert metrics["expected_top10_share"][0] == 0.5


# -- spans ---------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    parent = Span("engine.complete", 0.0, 10.0)
    children = [Span("a", 1.0, 3.0), Span("b", 2.0, 4.0),
                Span("c", 6.0, 7.0), Span("d", 9.0, 12.0)]
    # union inside [0, 10]: [1, 4] + [6, 7] + [9, 10] = 5
    assert covered_seconds(0.0, 10.0, [(c.start, c.end) for c in children]) \
        == 5.0
    assert self_seconds(parent, children) == 5.0
    assert self_seconds(parent, []) == 10.0


def test_spans_nest_and_share_the_request_id():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(enabled=True, clock=lambda: next(ticks))
    with tracer.span("engine.complete", "q1") as outer:
        with tracer.span("engine.rerank") as inner:
            pass
    assert inner.parent == outer.index
    assert inner.request == "q1"
    assert outer.start < inner.start < inner.end < outer.end
    assert tracer.children()[outer.index] == [inner]


def test_disabled_tracer_records_no_spans():
    tracer = Tracer(enabled=False)
    with tracer.span("engine.complete") as span:
        assert span is None
    assert tracer.spans == []


def test_wrap_skips_calls_outside_and_recursive_calls():
    tracer = Tracer(enabled=True)

    def render(depth):
        return 0 if depth == 0 else traced(depth - 1) + 1

    traced = tracer.wrap("core.render", render, nested=False)
    assert traced(3) == 3
    assert tracer.spans == []                 # no enclosing span
    with tracer.span("engine.complete"):
        traced(3)
    assert [span.name for span in tracer.spans] == ["engine.complete",
                                                    "core.render"]


# -- GC attribution -----------------------------------------------------------

def test_gc_pause_is_charged_to_the_innermost_open_span():
    now = [0.0]
    tracer = Tracer(enabled=True, clock=lambda: now[0])
    with tracer.span("engine.complete"):
        with tracer.span("core.render") as render:
            now[0] = 1.0
            tracer.on_gc("start", {"generation": 2})
            now[0] = 1.5
            tracer.on_gc("stop", {"generation": 2})
        now[0] = 2.0
        tracer.on_gc("start", {"generation": 0})
        now[0] = 2.25
        tracer.on_gc("stop", {"generation": 0})
    tracer.on_gc("start", {"generation": 1})
    now[0] = 3.0
    tracer.on_gc("stop", {"generation": 1})
    assert tracer.gc_pause["core.render"] == 0.5
    assert render.gc == 0.5
    assert tracer.gc_pause["engine.complete"] == 0.25
    assert tracer.gc_pause[OUTSIDE] == 0.75
    assert tracer.gen2_collections == 1
    assert tracer.gc_pause_total == 1.5


def test_untraced_runs_still_total_gc():
    now = [0.0]
    tracer = Tracer(enabled=False, clock=lambda: now[0])
    with tracer.span("engine.complete"):
        tracer.on_gc("start", {"generation": 2})
        now[0] = 0.4
        tracer.on_gc("stop", {"generation": 2})
    assert tracer.gc_pause == {OUTSIDE: 0.4}
    assert tracer.gen2_collections == 1


def test_backend_gen2_diffs_each_shard_from_v1_stats():
    def stats(*collections):
        return {"shards": [{"backend_id": f"b{index}",
                            "stats": {"gc": {"collections": counts}}}
                           for index, counts in enumerate(collections)]}

    before = stats([100, 10, 3], [90, 9, 1])
    after = stats([150, 14, 5], [95, 9, 1])
    assert backend_gen2(before, after) == [2, 0]
    # A backend missing from either document is left out.
    assert backend_gen2(stats([1, 1, 1]), after) == [4]


# -- serve-cold's independent answer check ------------------------------------

def test_type_of_checks_rendered_snippets_against_the_scene():
    text = ("local seed0 : T0\n"
            "imported gen.m1 : T0 -> T1 -> T2 [freq=3] [style=function] "
            "[display=m1]\n"
            "imported gen.m2 : T0 -> T1 [freq=3] [style=function] "
            "[display=m2]\n")
    table = signatures(text)
    assert type_of("m1(seed0, m2(seed0))", table) == "T2"
    assert type_of("m2(seed0)", table) == "T1"
    assert type_of("m1(seed0, seed0)", table) is None
    assert type_of("m1(seed0)", table) is None
    assert type_of("m3(seed0)", table) is None
    assert type_of("m2(seed0) + 1", table) is None


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_names_the_metrics_the_runs_print():
    config = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text())
    recorder = Recorder()
    recorder.samples["steady"] = recorder.samples["ready"] = \
        recorder.samples["first"] = [0.1]
    recorder.timed_seconds = 1.0
    printed = recorder.end_to_end()
    assert [m["name"] for m in config["end_to_end"]] == list(printed)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()}
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER
