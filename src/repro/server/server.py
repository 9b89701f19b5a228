"""The asyncio completion server.

One event loop, one engine, many editors.  The serving rules:

* **Never block the loop.**  Synthesis, scene preparation and edits are
  CPU-bound, so they run on one fixed thread executor; the loop only does
  cache lookups, key construction and byte shuffling.  (Pure-Python
  synthesis holds the GIL, so threads buy loop *responsiveness*, not CPU
  parallelism: one server uses one core, and more cores mean more
  ``repro route`` backends.)
* **Coalesce identical work.**  Concurrent requests that resolve to the
  same :class:`~repro.engine.keys.QueryKey` share one in-flight synthesis
  (single-flight): the first starts it, the rest ``await`` its future and
  are counted as *coalesced*.  50 identical Ctrl+Space storms cost one
  pipeline run.
* **Admit or reject fast.**  At most ``max_pending`` syntheses may be
  queued or running; a miss beyond that is rejected immediately with a
  429/``overloaded`` error rather than queued into a latency collapse.
  Cache hits and coalesced joins bypass admission — they add no work.
* **Deadlines are anytime budgets.**  ``deadline_ms`` maps onto the
  paper's prover/reconstruction limits (§5.6); an expired budget returns
  the partial ranking found in time, marked ``"partial": true``.
* **A stream is a completion plus a chunk emitter.**  Streamed and unary
  completions share one path — admission, single-flight, cache, rerank,
  accounting — and differ only in how the served snippets reach the
  wire.

The cache/coalescing discipline: the engine's result cache and in-flight
tables are touched *only* from the event loop; executor threads run the
pure pipeline (`_run_synthesis`, the one executor entry point for
synthesis, streamed or not) and nothing else.  That single-writer rule
is what makes the stdlib dicts safe without locks.

The HTTP wire (connection loop, parsing, dispatch, error envelopes,
stream writer) is :class:`~repro.server.front.HttpFront`, shared with
the router; this module declares the routes and ``_complete_one``.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from dataclasses import dataclass
from typing import Optional

from repro.core.ranking import RankingPipeline
from repro.core.synthesizer import SynthesisResult
from repro.core.types import Type
from repro.corpus.mining import ProjectWeightTables
from repro.engine.engine import (GC_POLICY, CompletionEngine,
                                 PreparedScene, policy_for_variant)
from repro.engine.keys import query_key
from repro.server import protocol
from repro.server.front import HttpFront, _StreamWire
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (AdoptSnapshotRequest, CompleteRequest,
                                   EditSceneRequest, ProtocolError,
                                   RegisterSceneRequest,
                                   ReleaseSceneRequest, deadline_config)
from repro.engine.cache import LRUCache
from repro.server.registry import (RegisteredScene, SceneRegistry,
                                   build_scene, scene_id_for)

#: Threads of the one executor that runs synthesis, registration, edits,
#: type shedding and snapshot writes.  Synthesis holds the GIL, so more
#: threads add no CPU throughput; several let a short job (a snapshot
#: write, a type shed) run beside a long synthesis instead of behind it.
EXECUTOR_THREADS = 4


@dataclass(frozen=True)
class ServerConfig:
    """What ``repro serve`` sets for one :class:`AsyncCompletionServer`.

    Every field has a ``repro serve`` flag; the tunables no flag reaches
    are constants (``AsyncCompletionServer.SHED_WATERMARK``,
    ``ServerMetrics.LATENCY_WINDOW``, ``HttpFront.READ_TIMEOUT_S``).
    """

    host: str = "127.0.0.1"
    port: int = 8777                       # 0 = ephemeral
    max_pending: int = 64                  # admission-control bound
    max_scenes: int = 32                   # registry LRU size
    default_deadline_ms: Optional[int] = None
    #: Result-cache snapshot file (``repro serve --snapshot``).  When set,
    #: the server restores the snapshot at startup (starting the replica
    #: warm) and re-saves it after syntheses and on shutdown — the
    #: cross-process persistence seam the sharded router's backend
    #: respawns rely on.  ``None`` disables persistence.
    snapshot_path: Optional[str] = None
    #: Minimum seconds between post-synthesis snapshot saves.  0 saves
    #: after every synthesis (concurrent syntheses still coalesce into
    #: one pending save) — the right default for replica durability;
    #: raise it on write-heavy workloads where the snapshot file is big.
    snapshot_interval: float = 0.0
    #: Debug fault injection (``repro serve --inject-latency-ms``): every
    #: completion sleeps this long before serving.  Models a gray-failed
    #: backend — alive, answering, *slow* — for the chaos harness and
    #: the router's hedging/ejection tests.  0 disables.
    inject_latency_ms: int = 0
    #: Post-reconstruction re-ranking: when True (the default) the
    #: server's engine runs the standard weigher chain over every served
    #: result — after cache lookup, so cached entries stay base-ranked
    #: and one fingerprint key serves every context.  False serves raw
    #: corpus-weight order (the engine-library default).
    rerank: bool = True
    #: Per-project weight table file (``repro serve --project-weights``),
    #: a :meth:`ProjectWeightTables.save` JSON document.  When set, the
    #: ranking stage re-scores each scene with its own project's mined
    #: frequencies (merged-global fallback).  Explicit configuration here
    #: wins over tables riding in a restored snapshot.
    project_weights_path: Optional[str] = None


def _run_synthesis(prepared: PreparedScene, goal: Type, policy, config,
                   n: Optional[int], on_snippet=None) -> SynthesisResult:
    """The executor entry point: one engine synthesis
    (:meth:`PreparedScene.synthesize`, which proves once per scene state).

    *on_snippet*, when given, runs on this executor thread with each
    snippet as reconstruction emits it — a live stream's bridge to the
    loop.  Module-level so tests can monkeypatch it (to count, delay or
    stub synthesis) without touching the serving logic around it.
    """
    return prepared.synthesize(goal, policy, config, n=n,
                               on_snippet=on_snippet)


def _apply_edit(engine: CompletionEngine, scene: RegisteredScene,
                ops_payloads, name: Optional[str]
                ) -> tuple[RegisteredScene, str, "DeltaOutcome"]:
    """Executor entry point for one scene delta: parse, apply, re-prepare.

    Pure with respect to the registry, like :func:`build_scene` (callers
    hold the registration lock).  Returns the edited scene as an
    un-adopted :class:`RegisteredScene`, its canonical serialized text —
    what a router journals so replicas can reproduce the edited state by
    plain re-registration — and the delta outcome.
    """
    from repro.incremental.delta import (DeltaError, apply_scene_delta,
                                         parse_delta_ops)
    from repro.lang.serializer import serialize_environment

    try:
        ops = parse_delta_ops(ops_payloads)
        outcome = apply_scene_delta(engine, scene.prepared, ops,
                                    name=name or scene.name)
    except DeltaError as error:
        raise ProtocolError(str(error), code="scene_error") from error
    prepared = outcome.prepared
    text = serialize_environment(prepared.base_environment,
                                 prepared.subtypes, prepared.goal)
    edited = RegisteredScene(scene_id=scene_id_for(prepared),
                             name=prepared.name,
                             prepared=prepared,
                             declarations=len(prepared.base_environment))
    return edited, text, outcome


@dataclass
class _ResolvedCompletion:
    """A validated completion request bound to its scene and cache key."""

    scene: RegisteredScene
    prepared: PreparedScene
    goal: Type
    variant: str
    policy: object
    config: object
    deadline_ms: Optional[int]
    key: object


class AsyncCompletionServer:
    """HTTP/JSON front end over one :class:`CompletionEngine`."""

    #: Soft admission watermark, as a fraction of ``max_pending``: once
    #: the queue is this full, below-normal-priority requests (protocol
    #: ``priority`` < 5) are shed with 429 while normal and high
    #: priorities keep landing until the hard ceiling — under pressure
    #: the interactive tier degrades last.
    SHED_WATERMARK = 0.75

    def __init__(self, engine: Optional[CompletionEngine] = None,
                 config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        # The engine's scene LRU must cover every registered scene plus
        # the one being prepared (engine.prepare inserts *before* the
        # registry evicts), or prepared state the registry still serves
        # gets dropped out from under it.
        scene_capacity = self.config.max_scenes + 1
        self.engine = engine or CompletionEngine(
            result_entries=2048,
            scene_entries=max(scene_capacity, 16),
            ranking=(RankingPipeline.standard() if self.config.rerank
                     else RankingPipeline.empty()))
        if self.engine.scenes.max_entries < scene_capacity:
            self.engine.scenes.max_entries = scene_capacity
        self.metrics = ServerMetrics()
        # Type-shedding on eviction is deferred to the executor (see
        # _scene_evicted) so a large intern-table trim never runs on the
        # event loop.
        self.registry = SceneRegistry(
            self.engine, max_scenes=self.config.max_scenes,
            on_evict=self._scene_evicted, on_release=self._scene_released,
            shed_types_on_release=False)
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS, thread_name_prefix="synthesis")
        self._inflight: dict = {}          # QueryKey -> asyncio.Future
        self._inflight_scenes: dict = {}   # text digest -> asyncio.Future
        self._register_lock = asyncio.Lock()
        #: text digest -> scene id: lets repeated inline-scene completes
        #: skip the parse/prepare path (and its lock) entirely.
        self._inline_ids = LRUCache(max_entries=256)
        self.front = HttpFront({
            ("GET", "/healthz"): self._healthz_payload,
            ("GET", "/v1/stats"): self._stats_payload,
            ("POST", "/v1/register-scene"): self._handle_register,
            ("POST", "/v1/release-scene"): self._handle_release,
            ("POST", "/v1/edit-scene"): self._handle_edit,
            ("POST", "/v1/adopt-snapshot"): self._handle_adopt,
        }, self._complete_one, requests=self.metrics.requests,
            errors=self.metrics.errors, on_stream=self.metrics.record_stream)
        self.host = self.config.host
        self.port = self.config.port
        #: Snapshot persistence state (event-loop-only, like the caches):
        #: one save runs at a time (`_snapshot_future` is it); saves
        #: requested while one is in flight (or inside the debounce
        #: interval) set the dirty flag and are flushed by the in-flight
        #: save's completion callback or the shutdown save.
        self._snapshot_future: Optional[asyncio.Future] = None
        self._snapshot_dirty = False
        self._last_snapshot = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.config.project_weights_path is not None:
            # Strict: a typo'd --project-weights path should fail the
            # serve command, not silently rank on the global table.
            self.engine.set_project_weights(
                ProjectWeightTables.load(self.config.project_weights_path))
        if self.config.snapshot_path is not None:
            # Start warm: restore whatever the previous incarnation (or a
            # router-managed predecessor) persisted.  Forgiving — a
            # missing or corrupt snapshot just starts cold.  Tables
            # loaded above win over any riding in the snapshot.
            self.metrics.snapshot_restored = self.engine.restore_results(
                self.config.snapshot_path)
        self.host, self.port = await self.front.start(self.config.host,
                                                      self.config.port)

    async def serve_forever(self) -> None:
        await self.front.serve_forever()

    async def close(self) -> None:
        await self.front.close()
        if self.config.snapshot_path is not None:
            # Drain any in-flight executor save first: cancel_futures
            # below cannot stop an already-running write, and a stale
            # save finishing *after* the final flush would os.replace the
            # freshest snapshot with an older one.  The serving socket is
            # closed, so no new syntheses can extend this loop.
            while self._snapshot_future is not None:
                future = self._snapshot_future
                try:
                    await future
                except Exception:           # noqa: BLE001 — shutdown path
                    pass
                if future is self._snapshot_future:
                    break                   # callback did not reschedule
            if self._snapshot_dirty:
                # Final flush; failure must not block shutdown.
                try:
                    self._save_snapshot()
                    self.metrics.snapshots_saved += 1
                    self._snapshot_dirty = False
                except Exception:           # noqa: BLE001 — shutdown path
                    pass
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- snapshot persistence ------------------------------------------------

    def _save_snapshot(self) -> int:
        """Write the result cache to the configured snapshot file.

        Synchronous form for single-threaded callers (startup, shutdown);
        the serving path goes through :meth:`_maybe_snapshot`, which
        splits the cache walk (event loop) from the disk write (executor).
        """
        assert self.config.snapshot_path is not None
        return self.engine.snapshot_results(self.config.snapshot_path)

    def _maybe_snapshot(self) -> None:
        """Schedule a debounced snapshot save off the event loop.

        Called after each synthesis.  The cache is walked *here*, on the
        event loop (iterating the live LRU from an executor thread would
        race `get`-promotes), and only the pickling/disk write runs on
        the executor.  At most one save runs at a time; requests arriving
        during a save (or within ``snapshot_interval`` of the last one)
        mark the cache dirty and ride the next save — so a burst of
        syntheses costs one file write, and the shutdown path flushes
        whatever is still dirty.
        """
        if self.config.snapshot_path is None:
            return
        self._snapshot_dirty = True
        if self._snapshot_future is not None:
            return
        if (time.monotonic() - self._last_snapshot
                < self.config.snapshot_interval):
            return                          # close() flushes the residue
        loop = asyncio.get_running_loop()
        entries = self.engine.collect_results()
        try:
            future = loop.run_in_executor(self._executor,
                                          self.engine.write_snapshot,
                                          self.config.snapshot_path,
                                          entries,
                                          self.engine.project_weights_doc())
        except RuntimeError:
            return                          # executor already shut down
        self._snapshot_future = future
        self._snapshot_dirty = False

        def _done(done_future: asyncio.Future) -> None:
            self._snapshot_future = None
            self._last_snapshot = time.monotonic()
            if done_future.cancelled():
                self._snapshot_dirty = True
                return
            if done_future.exception() is None:
                self.metrics.snapshots_saved += 1
                if self._snapshot_dirty:
                    self._maybe_snapshot()
            else:
                self._snapshot_dirty = True
                self.metrics.record_error("snapshot")

        future.add_done_callback(_done)

    def _scene_evicted(self, scene: RegisteredScene) -> None:
        self.metrics.scenes_evicted += 1
        self._shed_types_async()
        # The purge shrank the result cache; without a re-save a restart
        # would resurrect the dropped entries from the stale snapshot.
        self._maybe_snapshot()

    def _scene_released(self, scene: RegisteredScene) -> None:
        # Client-requested release: counted apart from LRU evictions so
        # `/v1/stats` keeps capacity pressure and tenant churn separable.
        self.metrics.scenes_released += 1
        self._shed_types_async()
        self._maybe_snapshot()

    def _shed_types_async(self) -> None:
        try:
            self._executor.submit(self.engine.shed_types)
        except RuntimeError:
            pass                            # executor already shut down

    # -- endpoint: register-scene -------------------------------------------

    async def register_scene_text(self, text: str,
                                  name: Optional[str] = None
                                  ) -> tuple[RegisteredScene, bool]:
        """Register ``.ins`` text; returns ``(scene, already_registered)``.

        Public so the CLI can preload scenes through the exact serving
        path.  Registration is CPU work (parse + prepare), so it is
        admission-controlled like synthesis: beyond ``max_pending`` queued
        jobs it answers 429 instead of queueing without bound.  Known text
        (by digest) short-circuits to the registered scene without touching
        the executor or the lock — repeated inline-scene completes are a
        dict hit.  The lock serialises engine scene-table mutation
        (prepare on the executor vs. release on eviction).
        """
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        known_id = self._inline_ids.get(digest)
        if known_id is not None and known_id in self.registry:
            return self.registry.get(known_id), True

        async def build() -> tuple[RegisteredScene, bool]:
            async with self._register_lock:
                scene = await asyncio.get_running_loop().run_in_executor(
                    self._executor, build_scene, self.engine, text, name)
                return self.registry.adopt(scene)

        # Single-flight per digest, like synthesis: a storm of identical
        # registrations costs one parse+prepare and one admission slot.
        (scene, already), joined = await self._single_flight(
            self._inflight_scenes, digest, build)
        already = already or joined
        if not already:
            self.metrics.scenes_registered += 1
        self._inline_ids.put(digest, scene.scene_id)
        return scene, already

    async def _handle_register(self, payload) -> dict:
        request = RegisterSceneRequest.from_payload(payload)
        scene, already = await self.register_scene_text(request.text,
                                                        request.name)
        return protocol.ok_payload(
            scene_id=scene.scene_id,
            name=scene.name,
            declarations=scene.declarations,
            fingerprint=scene.prepared.fingerprint,
            goal=str(scene.prepared.goal) if scene.prepared.goal else None,
            cached=already,
        )

    # -- endpoint: release-scene ---------------------------------------------

    def _handle_release(self, payload) -> dict:
        """Explicitly drop one registered scene (idempotent).

        Release work (result purge, arena release) is dict-sized and
        runs inline; the potentially large intern-table shed is deferred
        to the executor by the registry callback, exactly like eviction.
        """
        request = ReleaseSceneRequest.from_payload(payload)
        released = self.registry.release(request.scene_id)
        return protocol.ok_payload(scene_id=request.scene_id,
                                   released=released)

    async def _handle_adopt(self, payload) -> dict:
        """Merge a sibling replica's snapshot into the result cache.

        A router calls this on every live sibling when a backend dies,
        so the reads that fail over answer from the dead replica's warm
        results instead of synthesizing them again.  The file is read
        on the executor; the merge runs here, on the cache's owning
        thread, and keeps only entries for scenes this server holds.
        """
        request = AdoptSnapshotRequest.from_payload(payload)
        if self.config.snapshot_path is None:
            raise ProtocolError("adopt-snapshot needs a server started "
                                "with --snapshot")
        path = str(Path(self.config.snapshot_path).with_name(
            f"{request.peer}.snapshot"))
        snapshot = await asyncio.get_running_loop().run_in_executor(
            self._executor, CompletionEngine.read_snapshot, path)
        restored = (0 if snapshot is None else self.engine.merge_results(
            snapshot, self.registry.fingerprints()))
        self.metrics.snapshot_adopted += restored
        return protocol.ok_payload(peer=request.peer, restored=restored)

    # -- endpoint: edit-scene ------------------------------------------------

    async def _handle_edit(self, payload) -> dict:
        """Apply declaration deltas to a registered scene.

        The delta work (line parsing, environment rebuild, incremental
        re-prepare) is CPU-bound, so it runs on the executor under the
        registration lock — same admission and serialisation discipline
        as ``register-scene``.  The source scene stays registered (its
        results are warm and the editor may undo back to it); capacity
        pressure retires it through the ordinary LRU.  The response
        carries the edited scene's canonical serialized ``text`` so a
        router can journal the edit as a plain registration.
        """
        request = EditSceneRequest.from_payload(payload)
        scene = self.registry.get(request.scene_id)
        self._admit_or_reject()
        loop = asyncio.get_running_loop()
        self.metrics.enter_queue()
        try:
            async with self._register_lock:
                edited, text, outcome = await loop.run_in_executor(
                    self._executor, _apply_edit, self.engine, scene,
                    request.ops, request.name)
                edited, already = self.registry.adopt(edited)
        finally:
            self.metrics.leave_queue()
        self.metrics.scenes_edited += 1
        if outcome.reused:
            self.metrics.edits_reused += 1
        if not already:
            self.metrics.scenes_registered += 1
        # The canonical text now maps to a registered scene: let inline
        # completes (and journal replays) of that text skip re-preparing.
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self._inline_ids.put(digest, edited.scene_id)
        return protocol.ok_payload(
            scene_id=edited.scene_id,
            previous_scene_id=scene.scene_id,
            name=edited.name,
            declarations=edited.declarations,
            fingerprint=edited.prepared.fingerprint,
            goal=(str(edited.prepared.goal)
                  if edited.prepared.goal else None),
            added=list(outcome.added),
            removed=list(outcome.removed),
            reused=outcome.reused,
            cached=already,
            text=text,
        )

    # -- endpoint: complete --------------------------------------------------

    async def _resolve_completion(self, request: CompleteRequest
                                  ) -> _ResolvedCompletion:
        """Bind a validated request to its scene, goal, policy and key."""
        from repro.lang.parser import parse_type

        if request.scene_id is not None:
            scene = self.registry.get(request.scene_id)
        else:
            scene, _ = await self.register_scene_text(request.scene)
        prepared = scene.prepared

        goal = (parse_type(request.goal) if request.goal is not None
                else prepared.goal)
        if goal is None:
            raise ProtocolError(
                f"scene {scene.scene_id} has no goal; pass 'goal'")
        variant = request.variant or "full"
        policy = policy_for_variant(variant)
        deadline_ms = (request.deadline_ms
                       if request.deadline_ms is not None
                       else self.config.default_deadline_ms)
        # End-to-end budget: the remaining-budget hop count caps the
        # synthesis deadline (the paper's anytime search makes any
        # residue useful), and a budget that arrives already spent is
        # refused before any synthesis work is admitted.
        if request.budget_ms is not None:
            if request.budget_ms <= 0:
                raise ProtocolError(
                    "end-to-end budget spent before serving",
                    code="deadline_exceeded")
            deadline_ms = (request.budget_ms if deadline_ms is None
                           else min(deadline_ms, request.budget_ms))
        config = deadline_config(self.engine.default_config, deadline_ms)
        key = query_key(prepared.fingerprint, goal, policy, config,
                        request.n)
        return _ResolvedCompletion(scene=scene, prepared=prepared,
                                   goal=goal, variant=variant,
                                   policy=policy, config=config,
                                   deadline_ms=deadline_ms, key=key)

    async def _complete_one(self, request: CompleteRequest,
                            wire: Optional[_StreamWire] = None) -> dict:
        """Serve one completion; with a *wire*, stream its snippets too.

        A stream is this same completion plus a chunk emitter.  The
        leader of a live stream (an empty ranking chain, so base order is
        served order) writes each snippet as reconstruction emits it;
        every other stream replays the served, re-ranked result.  The
        caller ends the stream with the returned payload as its ``done``
        chunk.
        """
        start = time.perf_counter()
        if self.config.inject_latency_ms:
            await asyncio.sleep(self.config.inject_latency_ms / 1000.0)
        resolved = await self._resolve_completion(request)
        loop = asyncio.get_running_loop()
        on_snippet = None
        if wire is not None and not self.engine.ranking:

            def on_snippet(snippet) -> None:
                # Runs on the synthesis thread.  call_soon_threadsafe
                # keeps emission order, and every write lands before the
                # executor future's own completion callback.
                loop.call_soon_threadsafe(
                    wire.write, protocol.stream_snippet_chunk(snippet))

        # Cache -> join in-flight -> admit -> synthesize, in that order.
        result = self.engine.results.get(resolved.key)
        cache_hit, coalesced = result is not None, False
        if not cache_hit:

            async def synthesize() -> SynthesisResult:
                synthesis_start = time.perf_counter()
                synthesized = await loop.run_in_executor(
                    self._executor, _run_synthesis, resolved.prepared,
                    resolved.goal, resolved.policy, resolved.config,
                    request.n, on_snippet)
                self.engine.results.put(resolved.key, synthesized)
                self.metrics.record_synthesis(
                    time.perf_counter() - synthesis_start)
                self._maybe_snapshot()
                return synthesized

            result, coalesced = await self._single_flight(
                self._inflight, resolved.key, synthesize, request.priority)
        # Re-ranking runs strictly after cache lookup: the cache (and
        # snapshot) hold base results, so one fingerprint-keyed entry
        # serves every context — a repeat query with different hints is
        # still a cache hit, just re-scored for *its* cursor.
        final, reranked = self.engine.rerank_result(
            result, resolved.prepared, request.context)
        if wire is not None and not wire.chunks:
            # Replay the served result (a live leader wrote it already).
            for snippet in final.snippets:
                wire.write(protocol.stream_snippet_chunk(snippet))
        resolved.scene.completions += 1
        seconds = time.perf_counter() - start
        partial = bool(final.explore_truncated
                       or final.reconstruction_truncated)
        self.metrics.record_completion(seconds, cache_hit=cache_hit,
                                       coalesced=coalesced, partial=partial)
        return protocol.completion_payload(
            scene_id=resolved.scene.scene_id, goal=resolved.goal,
            variant=resolved.variant, result=final,
            cache_hit=cache_hit, coalesced=coalesced,
            deadline_ms=resolved.deadline_ms, server_seconds=seconds,
            reranked=reranked)

    async def _single_flight(self, inflight: dict, key, work,
                             priority: Optional[int] = None) -> tuple:
        """Join *key*'s in-flight leader, or lead: admit, run, publish.

        Returns ``(value, joined)``.  Only a leader adds work, so only it
        faces admission and holds a queue slot; joiners share its value
        or its error.  Serves both scene registration and synthesis.
        """
        leader = inflight.get(key)
        if leader is not None:
            return await asyncio.shield(leader), True
        self._admit_or_reject(priority)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        inflight[key] = future
        self.metrics.enter_queue()
        try:
            value = await work()
        except BaseException as error:
            if isinstance(error, asyncio.CancelledError):
                # Only the leader's task was cancelled (shutdown); give
                # joined waiters an answerable error, not cancellation.
                future.set_exception(ProtocolError(
                    "cancelled: server shutting down", code="internal"))
            else:
                future.set_exception(error)
            future.exception()              # mark retrieved for no-waiter case
            raise
        else:
            future.set_result(value)
        finally:
            self.metrics.leave_queue()
            inflight.pop(key, None)
        return value, False

    def _admit_or_reject(self, priority: Optional[int] = None) -> None:
        """Admission control: one gauge (queue depth) bounds all CPU work.

        Two thresholds: below-normal-priority work is shed at the soft
        watermark (lowest priority first is the graceful-degradation
        contract — batch backfill yields before interactive completions
        feel anything), everyone is rejected at the hard ceiling.
        """
        if self.metrics.queue_depth >= self.config.max_pending:
            self.metrics.rejected_overload += 1
            raise ProtocolError(
                f"server overloaded: {self.metrics.queue_depth} jobs "
                f"pending (limit {self.config.max_pending}); retry later",
                code="overloaded")
        if priority is not None and priority < protocol.NORMAL_PRIORITY:
            watermark = self.SHED_WATERMARK * self.config.max_pending
            if self.metrics.queue_depth >= watermark:
                self.metrics.rejected_overload += 1
                self.metrics.shed_low_priority += 1
                raise ProtocolError(
                    f"server under pressure: {self.metrics.queue_depth} "
                    f"jobs pending; priority {priority} work is shed "
                    f"until the queue drains", code="overloaded")

    # -- endpoints: stats / health ------------------------------------------

    def _healthz_payload(self) -> dict:
        return protocol.ok_payload(
            status="ok", uptime_s=round(self.metrics.uptime_seconds, 3))

    def _stats_payload(self) -> dict:
        import gc

        from repro.core.space import arena_stats, simple_type_stats
        from repro.core.succinct import intern_table_stats

        stats = self.engine.cache_stats
        return protocol.ok_payload(
            server=self.metrics.snapshot(),
            executor={"threads": EXECUTOR_THREADS},
            engine={
                "result_entries": len(self.engine.results),
                "result_capacity": self.engine.results.max_entries,
                "result_stats": {
                    "hits": stats.hits, "misses": stats.misses,
                    "insertions": stats.insertions,
                    "refreshes": stats.refreshes,
                    "evictions": stats.evictions,
                    "hit_rate": round(stats.hit_rate, 4),
                },
                "prepared_scenes": len(self.engine.scenes),
                "snapshot": {
                    "path": self.config.snapshot_path,
                    "restored": self.metrics.snapshot_restored,
                    "adopted": self.metrics.snapshot_adopted,
                    "saved": self.metrics.snapshots_saved,
                },
            },
            ranking=self.engine.ranking_stats(),
            scenes=self.registry.describe(),
            core={"interned_types": intern_table_stats(),
                  "simple_types": simple_type_stats(),
                  "env_arena": arena_stats()},
            gc={
                **GC_POLICY.stats(),
                "thresholds": list(gc.get_threshold()),
                "counts": list(gc.get_count()),
                "collections": [generation["collections"]
                                for generation in gc.get_stats()],
            },
        )

