"""``serve-cold``: registration and cold synthesis over the wire.

Spawns ``repro route`` at its defaults (2 backend processes, R=2
replication, rerank on, GC untuned) and drives it from this one process
over one connection in a closed loop, one request in flight.  For each
scene it registers a fresh seeded scene text of 1.2k declarations, asks
:data:`COLD_GOALS` distinct goals (all cache misses) and releases the
scene.  Registration (parse, prepare on both R=2 owners, journal), cold
synthesis, replica choice and hedging dominate; result-cache hits and
deltas are bypassed.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Optional

from perfbench.layers import (engine_layers, instrumented, stage_record,
                              work_counts)
from perfbench.record import FIRST, READY, STEADY, Recorder
from perfbench.tracing import Tracer, reference_loop_ms

#: Distinct goals per serve-cold scene; the first is ``first_complete``.
COLD_GOALS = 6
COLD_DECLARATIONS = 1200
COLD_BASE_TYPES = 120
#: serve-cold scenes per second of ``--seconds`` (fixed work).  No
#: tenant stays registered between them: with 8 resident tenants each
#: backend ran a gen-2 collection about every second build, and whether
#: both owners collected in the same registration split the registrations
#: into two modes 0.2 s apart with the median on the boundary.  On a heap
#: of little more than the scene at hand, every build pays a short
#: collection.
COLD_SCENES_PER_S = 1.2
#: Seconds between host reference-loop samples during a timed phase.
REF_INTERVAL_S = 1.0
#: Scenes a traced run replays in-process to price lang, engine and core.
REPLAYS = 6


def _check_ranks(response: dict) -> Optional[str]:
    """Why a completion response breaks the wire contract, or None."""
    if not response.get("ok", False):
        return f"not ok: {response}"
    if response.get("degraded"):
        return "degraded answer on a healthy topology"
    snippets = response.get("snippets") or []
    if not snippets:
        return "no snippets"
    if [s.get("rank") for s in snippets] != list(range(1, len(snippets) + 1)):
        return f"ranks not 1..{len(snippets)}"
    return None


def backend_gen2(before: dict, after: dict) -> list[int]:
    """Gen-2 collections per backend between two ``/v1/stats`` documents
    (the shards' ``gc.collections``), in backend order."""
    def collections(stats: dict) -> dict:
        return {shard["backend_id"]:
                shard.get("stats", {}).get("gc", {}).get("collections")
                for shard in stats.get("shards", [])}

    old = collections(before)
    return [new[2] - old[backend][2]
            for backend, new in sorted(collections(after).items())
            if new and old.get(backend)]


class Topology:
    """One ``repro route`` process at its defaults and its backends."""

    def __init__(self):
        self.process = None
        self.host = "127.0.0.1"
        self.port = 0
        self.backend_pids: list[int] = []

    def start(self) -> None:
        from repro.server.router import spawn_cli_server

        self.process, self.host, self.port = spawn_cli_server(
            "route", label="perfbench-router")
        health = asyncio.run(self._healthz())
        self.backend_pids = [backend["pid"] for backend in health["backends"]
                             if backend.get("pid")]
        if len(self.backend_pids) < 2 or not all(
                backend.get("healthy") for backend in health["backends"]):
            raise RuntimeError(f"router is not healthy: {health}")

    async def _healthz(self) -> dict:
        from repro.server.client import AsyncCompletionClient

        async with AsyncCompletionClient(self.host, self.port) as client:
            return await client.healthz()

    def peak_rss_mb(self) -> float:
        """Router VmHWM plus every backend's VmHWM."""
        total_kb = 0
        for pid in [self.process.pid] + self.backend_pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        import os
        import signal
        import subprocess

        if self.process is None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            # The router stops and reaps its backends on SIGTERM; one that
            # does not exit is killed with its backends, which are then
            # waited for until they are gone.
            self.process.kill()
            self.process.wait(timeout=20)
            deadline = time.monotonic() + 10
            for pid in self.backend_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    continue
                while os.path.exists(f"/proc/{pid}") and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
        self.process = None


def cold_scene_text(seed: int, iteration: int) -> tuple[str, list[str]]:
    """A seeded 1.2k-declaration scene and its goals.

    The same kind of scene the router throughput test builds, plus one
    planted answer per goal: ``want<j>(seed0)`` is the hand-written
    expectation for goal ``T<4+j>``.
    """
    rng = random.Random(f"serve-cold:{seed}:{iteration}")
    types = [f"T{i}" for i in range(COLD_BASE_TYPES)]
    lines = ["local seed0 : T0", "local seed1 : T1"]
    for i in range(COLD_DECLARATIONS):
        arity = rng.choice([1, 1, 2, 2, 3, 3, 4])
        signature = " -> ".join([rng.choice(types) for _ in range(arity)]
                                + [rng.choice(types)])
        lines.append(f"imported gen.m{i} : {signature} "
                     f"[freq={rng.randint(0, 200)}] [style=function] "
                     f"[display=m{i}]")
    goals = [f"T{4 + j}" for j in range(COLD_GOALS)]
    for j, goal in enumerate(goals):
        lines.append(f"imported gen.want{j} : T0 -> {goal} [freq=1000] "
                     f"[style=function] [display=want{j}]")
    lines.append("goal T2")
    return "\n".join(lines) + "\n", goals


def signatures(text: str) -> dict[str, tuple[tuple[str, ...], str]]:
    """display name -> (parameter types, result type) of a cold scene."""
    table = {}
    for line in text.splitlines():
        if line.startswith("local "):
            name, _, type_name = line[len("local "):].partition(" : ")
            table[name] = ((), type_name.strip())
        elif line.startswith("imported "):
            head, _, rest = line.partition(" : ")
            signature = rest.split(" [", 1)[0].split(" -> ")
            display = rest.rsplit("[display=", 1)[1].rstrip("]")
            table[display] = (tuple(signature[:-1]), signature[-1])
    return table


def type_of(code: str, table: dict) -> Optional[str]:
    """The type of a rendered snippet ``f(a, g(b))`` under *table*, or None
    when it is not a well-typed application of the scene's declarations."""
    def parse(position: int) -> tuple[Optional[str], int]:
        end = position
        while end < len(code) and (code[end].isalnum() or code[end] == "_"):
            end += 1
        name = code[position:end]
        if name not in table:
            return None, end
        params, result = table[name]
        if end < len(code) and code[end] == "(":
            argument_types = []
            end += 1
            while True:
                argument, end = parse(end)
                argument_types.append(argument)
                if code.startswith(", ", end):
                    end += 2
                elif code.startswith(")", end):
                    end += 1
                    break
                else:
                    return None, end
            if tuple(argument_types) != params:
                return None, end
        elif params:
            return None, end
        return result, end

    result, end = parse(0)
    return result if end == len(code) else None


class ServeCold:
    """Closed-loop registration and cold synthesis of fresh scenes."""

    def __init__(self, seed: int, seconds: int, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.recorder = Recorder()
        self.topology = Topology()
        #: What the per-layer metrics read of each completion response:
        #: (kind, round trip seconds, cache_hit, server_ms, synthesis_ms).
        self.responses: list[tuple] = []
        #: Per released scene id: backend -> completions served (traced).
        self.scene_spread: dict[str, dict] = {}

    def setup_base(self) -> None:
        """Imports and the topology start (router + 2 backends)."""
        import repro.server.client  # noqa: F401

        self.topology.start()

    def close(self) -> None:
        self.topology.close()

    def peak_rss_mb(self) -> float:
        return self.topology.peak_rss_mb()

    def client(self):
        from repro.server.client import AsyncCompletionClient

        return AsyncCompletionClient(self.topology.host, self.topology.port,
                                     timeout=120.0)

    async def _host_sampler(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            self.recorder.host_ref_ms.append(reference_loop_ms())
            try:
                await asyncio.wait_for(stop.wait(), REF_INTERVAL_S)
            except asyncio.TimeoutError:
                pass

    async def _timed(self, body) -> None:
        """Run *body* as the timed phase with host sampling and stats."""
        async with self.client() as client:
            self.stats_before = await client.stats()
        stop = asyncio.Event()
        sampler = asyncio.ensure_future(self._host_sampler(stop))
        started = time.perf_counter()
        try:
            await body()
        finally:
            self.recorder.timed_seconds = time.perf_counter() - started
            stop.set()
            await sampler
        async with self.client() as client:
            self.stats_after = await client.stats()
        self.recorder.backend_gen2 = backend_gen2(self.stats_before,
                                                  self.stats_after)

    async def complete(self, client, kind: str, scene_id: str, goal=None,
                       n: int = 10, request: Optional[str] = None
                       ) -> tuple[float, Optional[dict]]:
        """One timed completion; failures are recorded, never raised."""
        from repro.core.errors import ReproError

        started = time.perf_counter()
        try:
            with self.tracer.span("wire.complete", request):
                response = await client.complete(scene_id, goal=goal, n=n)
        except ReproError as exc:
            self.recorder.attempt(False, f"{kind} complete: {exc}")
            return time.perf_counter() - started, None
        seconds = time.perf_counter() - started
        problem = _check_ranks(response)
        if problem is not None:
            self.recorder.attempt(False, f"{kind} complete: {problem}")
            return seconds, None
        self.responses.append((kind, seconds, response["cache_hit"],
                               response.get("server_ms"),
                               response.get("synthesis_ms")))
        return seconds, response

    # -- per-layer metrics ----------------------------------------------------

    def per_layer(self) -> dict:
        before, after = self.stats_before, self.stats_after
        metrics: dict = {}

        def diff(*path) -> float:
            def get(doc):
                for key in path:
                    doc = doc.get(key, {}) if isinstance(doc, dict) else {}
                return doc if isinstance(doc, (int, float)) else 0
            return get(after) - get(before)

        hits = diff("engine", "result_stats", "hits")
        misses = diff("engine", "result_stats", "misses")
        metrics["engine.cache_hit_ratio"] = (hits / (hits + misses)
                                             if hits + misses else 0.0)
        metrics["engine.cache_evictions"] = diff("engine", "result_stats",
                                                 "evictions")
        metrics["server.coalesced"] = diff("server", "coalesced")
        metrics["server.rejected"] = diff("server", "rejected_overload")
        fired = diff("router", "hedges", "fired")
        won = diff("router", "hedges", "won")
        served_misses = [synthesis_ms for _, _, hit, _, synthesis_ms
                         in self.responses if not hit]
        metrics["router.hedge_ratio"] = (fired / len(served_misses)
                                         if served_misses else 0.0)
        metrics["router.hedge_win_ratio"] = won / fired if fired else 0.0
        metrics["router.failovers"] = diff("router", "failovers")
        metrics["router.retry_denied"] = diff("router", "retry_budget",
                                              "denied")
        metrics["gc.gen2"] = sum(self.recorder.backend_gen2)
        steady = [(seconds, server_ms) for kind, seconds, _, server_ms, _
                  in self.responses if kind == STEADY]
        if steady:
            metrics["server.backend_ms"] = statistics.median(
                server_ms for _, server_ms in steady)
            metrics["router.hop_ms"] = statistics.median(
                seconds * 1000.0 - server_ms for seconds, server_ms in steady)
        if served_misses:
            metrics["server.synthesis_ms"] = statistics.median(served_misses)
        metrics["router.replica_spread"] = self._replica_spread()
        metrics.update(self._replay())
        return metrics

    @staticmethod
    def _scene_counts(stats: dict) -> dict:
        """scene id -> backend -> completions served, from ``/v1/stats``."""
        counts: dict = {}
        for shard in stats.get("shards", []):
            for scene in shard.get("stats", {}).get("scenes", {}).get(
                    "scenes", []):
                counts.setdefault(scene["scene_id"], {})[
                    shard["backend_id"]] = scene["completions"]
        return counts

    def _replica_spread(self) -> float:
        """Share of the timed phase's scenes that both R=2 owners served."""
        before = self._scene_counts(self.stats_before)
        spread = dict(self.scene_spread)
        for scene_id, counts in self._scene_counts(self.stats_after).items():
            old = before.get(scene_id, {})
            spread[scene_id] = {backend: count - old.get(backend, 0)
                                for backend, count in counts.items()}
        served = [counts for counts in spread.values()
                  if any(counts.values())]
        both = sum(1 for counts in served
                   if sum(1 for count in counts.values() if count) >= 2)
        return both / len(served) if served else 0.0

    async def note_spread(self, client, scene_id: str) -> None:
        """Traced runs: remember which backends served *scene_id* before
        it is released (a released scene leaves the stats)."""
        self.scene_spread[scene_id] = self._scene_counts(
            await client.stats()).get(scene_id, {})

    def _replay(self) -> dict:
        """Price lang, engine and core on the workload's own scenes.

        The backends hide these layers behind the wire, so a traced run
        replays ``load_environment_text``, ``CompletionEngine.prepare`` and
        the same completions in this process, on an engine built the way
        ``repro serve`` builds it.
        """
        from repro.core.ranking import RankingPipeline
        from repro.engine import CompletionEngine
        from repro.lang.loader import load_environment_text
        from repro.lang.parser import parse_type

        tracer = self.tracer
        engine = CompletionEngine(ranking=RankingPipeline.standard())
        syntheses = []
        with instrumented(engine, tracer):
            for number, (text, goals) in enumerate(self.scenes[:REPLAYS]):
                with tracer.span("lang.parse"):
                    loaded = load_environment_text(text)
                with tracer.span("engine.prepare"):
                    prepared = engine.prepare(loaded.environment,
                                              loaded.subtypes,
                                              goal=loaded.goal)
                for index, goal in enumerate(goals):
                    with tracer.span("engine.complete") as span:
                        served = engine.complete(prepared, parse_type(goal))
                    syntheses.append(("first" if index == 0 else "miss",
                                      stage_record(served.result), span))
                    self.recorder.work.append(
                        {"query": f"replay{number}/{index}",
                         **work_counts(served.result)})
        return engine_layers(tracer, syntheses)

    def setup_inputs(self) -> None:
        count = max(17, round(self.seconds * COLD_SCENES_PER_S))
        self.scenes = [cold_scene_text(self.seed, index)
                       for index in range(count)]
        self.tables = [signatures(text) for text, _ in self.scenes]
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        """One untimed scene through the whole loop, so that no lazy
        import or first-use cost of the router and backends is timed."""
        text, goals = cold_scene_text(self.seed, -1)
        async with self.client() as client:
            registered = await client.register_scene(text, name="warm-up")
            for goal in goals:
                await client.complete(registered["scene_id"], goal=goal)
            await client.release_scene(registered["scene_id"])

    def run(self) -> None:
        asyncio.run(self._timed(self._closed_loop))

    async def _closed_loop(self) -> None:
        from repro.core.errors import ReproError

        rec, tracer = self.recorder, self.tracer
        clock = time.perf_counter
        # One connection, one request in flight: registration already
        # occupies both R=2 owners one after the other, and a second
        # connection only adds queueing behind the other's parse, which
        # on a shared 2-vCPU host measures the scheduler, not the program.
        async with self.client() as client:
            due = clock()
            for index, ((text, goals), table) in enumerate(
                    zip(self.scenes, self.tables)):
                request = f"scene{index}"
                rec.late.append(clock() - due)
                started = clock()
                try:
                    with tracer.span("wire.register", request):
                        registered = await client.register_scene(
                            text, name=f"cold-{self.seed}-{index}")
                except ReproError as exc:
                    due = clock()
                    rec.attempt(False, f"register: {exc}")
                    continue
                rec.samples[READY].append(clock() - started)
                due = clock()
                rec.attempt(True)
                scene_id = registered["scene_id"]
                for number, goal in enumerate(goals):
                    kind = FIRST if number == 0 else STEADY
                    rec.late.append(clock() - due)
                    seconds, response = await self.complete(
                        client, kind, scene_id, goal=goal, request=request)
                    due = clock()
                    ok = response is not None and rec.attempt(
                        not response["cache_hit"]
                        and all(type_of(s["code"], table) == goal
                                for s in response["snippets"]),
                        f"{request} {goal}: a hit, or a snippet that is not "
                        f"a well-typed {goal}")
                    if ok:
                        rec.samples[kind].append(seconds)
                        rec.ranks.append(next(
                            (s["rank"] for s in response["snippets"]
                             if s["code"] == f"want{number}(seed0)"), None))
                    rec.completion(seconds, ok)
                try:
                    if tracer.enabled:
                        await self.note_spread(client, scene_id)
                    rec.late.append(clock() - due)
                    with tracer.span("wire.release", request):
                        await client.release_scene(scene_id)
                    rec.attempt(True)
                except ReproError as exc:
                    rec.attempt(False, f"release: {exc}")
                due = clock()
