"""``table2-session``: closed-loop editor sessions on the paper's own scenes.

One in-process :class:`~repro.engine.CompletionEngine` with the standard
ranking chain (built the way ``repro serve`` and ``repro edit-session``
build it) serves a seeded, stratified sample of the 50 Table-2 scenes.
Each scene runs one session:

1. ``prepare`` (timed: ``scene_ready_ms``);
2. complete the row's goal — the cold first completion
   (``first_complete_ms``), ranked against the hand-written expectation of
   :mod:`repro.bench.suite`;
3. ``rounds`` seeded edit rounds: add a local through
   :func:`~repro.incremental.delta.apply_scene_delta`, complete (a miss on
   a warm scene: ``miss_complete_ms``), undo the add, and
   complete again — that last answer must be a cache hit with the
   pre-edit ranking byte for byte (checked, not timed as a metric).

Prepared scenes stay resident under the engine's own LRU bound.  The
harness drops each built scene once its session has run and keeps nothing
of a delta or a completion but numbers.  No server or
router is in the path, so core explore/patterns/reconstruct, ``prepare``,
deltas and GC on paper-sized heaps carry the whole cost.  Edits go through
``apply_scene_delta`` directly: a scene session (``open_session``) cannot
open Table-2 scenes, whose serialized text does not parse back yet.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

from perfbench.layers import (engine_layers, instrumented, stage_record,
                              work_counts)
from perfbench.record import EDIT, FIRST, READY, STEADY, UNDO, Recorder
from perfbench.tracing import Tracer, reference_loop_ms

#: Strata of the Table-2 rows: (stratum, rows drawn, edit rounds per
#: session, members).  Every import group and size band (#Initial) is in
#: every sample, so two seeds differ in which rows run but not in the mix.
#: The 27 ``java.io`` rows (3.4k declarations) carry most of the warm
#: misses; they are split into twelve strata of rows with neighbouring
#: warm-miss cost (measured with the collector off, 60-107 ms), so every
#: sample spans the whole cost range.  A cold first completion allocates
#: more long-lived objects than any other operation, and three to five of
#: them per run take a gen-2 pause of about a second.  17 of the 20
#: sessions are on 3-5k scenes (first completions under 210 ms), so the
#: median first completion stays among them however the pauses fall; with
#: 14 it flipped to the 6-10k scenes (250-450 ms) when a fourth pause
#: landed on a 3-5k one.  Larger scenes run fewer rounds, one of their
#: misses costing two to five ``java.io`` ones.
STRATA = (
    ("io-a", 1, 6, (5, 44)),
    ("io-b", 1, 6, (37, 42)),
    ("io-c", 1, 6, (2, 47)),
    ("io-d", 1, 6, (4, 36)),
    ("io-e", 1, 6, (43, 46)),
    ("io-f", 1, 6, (14, 15)),
    ("io-g", 1, 6, (18, 20)),
    ("io-h", 1, 6, (7, 38)),
    ("io-i", 1, 6, (8, 11, 25)),
    ("io-j", 1, 6, (10, 17, 19)),
    ("io-k", 1, 6, (3, 16, 39)),
    ("io-l", 1, 6, (6, 40)),
    ("net-3k", 2, 5, (9, 45, 50)),
    ("awt-5k", 3, 5, (1, 13, 41)),
    ("swing-6k", 1, 4, (12, 23, 26, 31, 35, 48)),
    ("8k", 1, 3, (21, 22, 24, 27, 30, 32, 33, 34, 49)),
    ("swing-10k", 1, 2, (28, 29)),
)

#: Local types the seeded edits draw from (present in every scene).
EDIT_TYPES = ("String", "int", "boolean", "Object")

#: ``--seconds`` the stratum rounds are sized for (106 warm misses: a p90
#: with 10 samples beyond it); longer runs scale the rounds up.
BASE_SECONDS = 30


def sample_sessions(seed: int, seconds: int) -> list[tuple[int, int]]:
    """The seeded stratified sample as (row, edit rounds), in run order.

    The work is fixed by the seed and ``--seconds``, never by the host's
    speed, so two runs of one seed time the same operations.
    """
    rng = random.Random(f"table2-rows:{seed}")
    scale = max(1.0, seconds / BASE_SECONDS)
    sessions = []
    for _, count, rounds, members in STRATA:
        sessions.extend((row, round(rounds * scale))
                        for row in rng.sample(members, count))
    rng.shuffle(sessions)
    return sessions


def _answered(served) -> bool:
    """Ranked snippets, or the partial answer of a search that ran out of
    its time budget (the anytime contract): a pause that pushes synthesis
    past its budget changes the answer, which the rank metrics show."""
    result = served.result
    return bool(result.snippets) or (result.explore_truncated
                                     or result.reconstruction_truncated)


def _ranking(result) -> list[tuple]:
    return [(snippet.rank, snippet.code, snippet.weight)
            for snippet in result.snippets]


class Table2Session:
    """Set-up and timed phase of ``table2-session``."""

    def __init__(self, seed: int, seconds: int, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.recorder = Recorder()
        #: (kind, stage record, completion span) of traced syntheses.
        self.syntheses: list[tuple] = []
        #: (kind, reused, dirty types, span) of every delta batch, kind
        #: ``add`` (re-prepares) or ``undo`` (a scene-table hit).
        self.deltas: list[tuple] = []

    # -- set-up ---------------------------------------------------------------

    def setup_base(self) -> None:
        """Imports, JDK model, corpus weights and the engine."""
        from repro.core.ranking import RankingPipeline
        from repro.corpus.synthetic import default_frequencies
        from repro.engine import CompletionEngine
        from repro.javamodel.jdk import shared_jdk

        shared_jdk()
        default_frequencies()
        self.engine = CompletionEngine(ranking=RankingPipeline.standard())

    def setup_inputs(self) -> None:
        """Build the sampled scenes and the seeded edit scripts.

        Scenes are built here, not when their session starts: a build
        allocates enough to start a gen-2 collection, which then lands
        on the first completions of some sessions and not of others.
        """
        from repro.bench.suite import BENCHMARKS, build_scene

        self.sessions = []
        for row, rounds in sample_sessions(self.seed, self.seconds):
            spec = BENCHMARKS[row - 1]
            rng = random.Random(f"table2-edits:{self.seed}:{row}")
            pool = EDIT_TYPES + tuple(t for _, t in spec.locals)
            edits = [f"local edit{index}_{rng.randrange(1000)} : "
                     f"{rng.choice(pool)}" for index in range(rounds)]
            self.sessions.append((row, spec, build_scene(spec), edits))

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """This process's peak resident set: harness inputs plus engine."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- timed phase ----------------------------------------------------------

    def run(self) -> None:
        with instrumented(self.engine, self.tracer):
            self._sessions()

    def _sessions(self) -> None:
        from repro.bench.matching import find_rank
        from repro.incremental.delta import DeltaOp, apply_scene_delta

        engine, tracer, rec = self.engine, self.tracer, self.recorder
        clock = time.perf_counter
        self.stats_before = dataclasses.replace(engine.cache_stats)
        started = clock()
        due = started

        def late() -> None:
            rec.late.append(clock() - due)

        while self.sessions:
            row, spec, scene, edits = self.sessions.pop(0)
            rec.host_ref_ms.append(reference_loop_ms())
            request = f"row{row}"
            due = clock()
            late()
            t0 = clock()
            with tracer.span("engine.prepare", request):
                prepared = engine.prepare(scene.environment, scene.subtypes,
                                          goal=scene.goal, name=spec.name)
            t1 = clock()
            rec.samples[READY].append(t1 - t0)
            rec.attempt(True)

            due = clock()
            late()
            t0 = clock()
            with tracer.span("engine.complete", request) as span:
                first = engine.complete(prepared)
            seconds = clock() - t0
            due = clock()
            ok = rec.attempt(not first.cache_hit and _answered(first),
                             f"row {row}: first completion was not a "
                             f"fresh ranked answer")
            rec.samples[FIRST].append(seconds)
            rec.completion(seconds, ok)
            rec.ranks.append(find_rank(first.snippets, spec.expected,
                                       prepared.environment))
            self._note(row, "first", 0, first.result, span)
            baseline = _ranking(first.result)

            for index, line in enumerate(edits, start=1):
                late()
                with tracer.span("lang.parse", request):
                    add = [DeltaOp.add(line)]
                t0 = clock()
                with tracer.span("incremental.delta", request) as span:
                    added = apply_scene_delta(engine, prepared, add,
                                              name=spec.name)
                rec.samples[EDIT].append(clock() - t0)
                self.deltas.append(("add", added.reused, added.dirty_types,
                                    span))
                due = clock()
                rec.attempt(not added.reused and added.added == (add[0].name,),
                            f"row {row}: add {line!r} did not re-prepare")

                late()
                gen2 = tracer.gen2_collections
                t0 = clock()
                with tracer.span("engine.complete", request) as span:
                    miss = engine.complete(added.prepared)
                seconds = clock() - t0
                due = clock()
                rec.steady_gen2 += tracer.gen2_collections - gen2
                ok = rec.attempt(not miss.cache_hit and _answered(miss),
                                 f"row {row} round {index}: edited scene "
                                 f"answered from cache or empty")
                rec.samples[STEADY].append(seconds)
                rec.completion(seconds, ok)
                self._note(row, "miss", index, miss.result, span)

                late()
                t0 = clock()
                with tracer.span("incremental.delta", request) as span:
                    undone = apply_scene_delta(
                        engine, added.prepared,
                        [DeltaOp.remove(add[0].name)], name=spec.name)
                rec.samples[UNDO].append(clock() - t0)
                self.deltas.append(("undo", undone.reused,
                                    undone.dirty_types, span))
                due = clock()
                rec.attempt(undone.reused and undone.prepared.fingerprint
                            == prepared.fingerprint,
                            f"row {row} round {index}: undo did not return "
                            f"to the prepared scene")

                late()
                with tracer.span("engine.complete", request):
                    again = engine.complete(undone.prepared)
                due = clock()
                rec.attempt(
                    again.cache_hit and _ranking(again.result) == baseline,
                    f"row {row} round {index}: post-undo completion was not "
                    f"a hit with the pre-edit ranking")
                prepared = undone.prepared
        rec.timed_seconds = clock() - started
        rec.host_ref_ms.append(reference_loop_ms())
        self.stats_after = dataclasses.replace(engine.cache_stats)

    def _note(self, row: int, kind: str, index: int, result, span) -> None:
        if span is not None:
            self.syntheses.append((kind, stage_record(result), span))
        self.recorder.work.append({"query": f"row{row}/{kind}{index}",
                                   **work_counts(result)})

    # -- per-layer metrics ----------------------------------------------------

    def per_layer(self) -> dict:
        metrics = engine_layers(self.tracer, self.syntheses)
        before, after = self.stats_before, self.stats_after
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        metrics["engine.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["engine.cache_evictions"] = after.evictions - before.evictions
        for metric, kind in (("incremental.delta_ms", "add"),
                             ("incremental.undo_ms", "undo")):
            metrics[metric] = statistics.median(
                span.seconds for k, _, _, span in self.deltas if k == kind
            ) * 1000.0
        metrics["incremental.reused_share"] = (
            sum(1 for _, reused, _, _ in self.deltas if reused)
            / len(self.deltas))
        metrics["incremental.dirty_types"] = sum(
            dirty for _, _, dirty, _ in self.deltas)
        metrics["gc.gen2"] = self.tracer.gen2_collections
        return metrics
