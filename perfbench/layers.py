"""Per-layer metrics shared by the workloads' traced runs.

Spans sit only around calls into public functions; inside a completion
the two extra spans come from wrapping ``CompletionEngine.rerank_result``
and ``repro.lang.printer.render_snippet`` for the length of a traced run.
The core stage split is read from the ``SynthesisResult`` each completion
already carries; a run keeps only those numbers (:func:`stage_record`),
never the result, whose snippets hold on to their scene.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from typing import Iterator

from perfbench.tracing import Tracer, self_seconds


@contextmanager
def instrumented(engine, tracer: Tracer) -> Iterator[None]:
    """Span ``engine.rerank`` and ``core.render`` while the block runs."""
    import repro.lang.printer as printer

    if not tracer.enabled:
        yield
        return
    render = printer.render_snippet
    printer.render_snippet = tracer.wrap("core.render", render, nested=False)
    engine.rerank_result = tracer.wrap("engine.rerank", engine.rerank_result)
    try:
        yield
    finally:
        printer.render_snippet = render
        del engine.rerank_result


def _ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def engine_layers(tracer: Tracer, syntheses) -> dict:
    """engine, core and lang metrics from the spans and results.

    *syntheses* holds ``(kind, stage_record(result), engine.complete
    span)`` for every completion that ran the pipeline, kind ``first``
    (cold, on a scene just made ready) or ``miss`` (later, on a warm
    scene).
    """
    children = tracer.children()

    def child_seconds(span, name) -> float:
        return sum(child.seconds for child in children.get(span.index, ())
                   if child.name == name)

    metrics = {
        "engine.prepare_ms": _ms([span.seconds for span
                                  in tracer.named("engine.prepare")]),
        "lang.parse_ms": _ms([span.seconds for span
                              in tracer.named("lang.parse")]),
    }
    spans = [span for _, _, span in syntheses]
    metrics["engine.rerank_ms"] = _ms(
        [child_seconds(span, "engine.rerank") for span in spans])
    metrics["core.render_ms"] = _ms(
        [child_seconds(span, "core.render") for span in spans])
    for stage in ("explore", "patterns", "reconstruct"):
        for kind in ("first", "miss"):
            metrics[f"core.{stage}_ms.{kind}"] = _ms(
                [record[stage] for k, record, _ in syntheses if k == kind])
    records = [record for _, record, _ in syntheses]
    for metric, count in (("core.explore_nodes", "nodes"),
                          ("core.explore_edges", "edges"),
                          ("core.pattern_count", "pattern_count"),
                          ("core.reconstruct_expansions", "expansions"),
                          ("core.reconstruct_enqueued", "enqueued")):
        metrics[metric] = sum(record[count] for record in records)
    metrics["core.truncated_share"] = (
        sum(1 for record in records if record["truncated"])
        / max(1, len(records)))
    # Share of each completion span the core stages and the rerank span
    # account for.  The engine's own glue (key, cache, bookkeeping) is the
    # span's self time outside rerank minus the stage times, which run
    # inside it; render spans sit inside reconstruction, and GC pauses
    # inside a stage are part of that stage's wall time.
    coverage = []
    for _, record, span in syntheses:
        if span.seconds <= 0:
            continue
        reranks = [child for child in children.get(span.index, ())
                   if child.name == "engine.rerank"]
        glue = self_seconds(span, reranks) - record["total"]
        coverage.append(min(1.0, 1.0 - glue / span.seconds))
    metrics["trace.completion_coverage"] = (statistics.median(coverage)
                                            if coverage else 0.0)
    metrics["trace.completion_coverage_min"] = min(coverage, default=0.0)
    return metrics


def work_counts(result) -> dict:
    """The exact work counts of one synthesis (determinism evidence)."""
    return {"nodes": result.nodes_explored, "edges": result.edges_found,
            "pattern_count": result.pattern_count,
            "expansions": result.reconstruction_expansions,
            "enqueued": result.reconstruction_enqueued,
            "truncated": bool(result.explore_truncated
                              or result.reconstruction_truncated)}


def stage_record(result) -> dict:
    """Stage seconds and work counts of one ``SynthesisResult``."""
    return {"explore": result.explore_seconds,
            "patterns": result.patterns_seconds,
            "reconstruct": result.reconstruction_seconds,
            "total": result.total_seconds, **work_counts(result)}
