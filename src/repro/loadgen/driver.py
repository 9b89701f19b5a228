"""Replays a workload trace against a live serving topology.

The driver speaks only the public wire — the same
:class:`~repro.server.client.AsyncCompletionClient` every other consumer
uses — so whatever it measures is what a real editor fleet would see:

* **open-loop phases** dispatch each event at its trace timestamp
  (scaled by ``time_scale``) without waiting for earlier responses, the
  arrival model under which queueing delay is visible;
* **closed-loop phases** run N workers issuing events back-to-back,
  the model for a bounded worker fleet (prime and recovery sweeps);
* completions go through :meth:`AsyncCompletionClient.complete_text`,
  so scene registration, eviction, and unknown-scene retry behave
  exactly as they do for production clients;
* 429s (admission control) are retried behind full-jitter exponential
  backoff (:func:`~repro.server.client.jittered_backoff_s` — a
  deterministic backoff would march the whole simulated fleet back in
  lockstep) and counted as ``retries`` — only exhausted retries burn
  error budget.  This is the stack's one 429 retry loop: the client
  raises every 429 at once;
* ``degraded: true`` answers (the router's last-known-good fallback
  when every replica of a scene is down) count as successes but are
  tallied separately, so a chaos run can assert exactly how much
  fidelity it gave up;
* a :class:`~repro.loadgen.chaos.ChaosPlan` strikes inside the
  chaos-eligible phase, between dispatches, mid-burst by construction.

The result is an :class:`~repro.loadgen.slo.SloAccountant` holding every
measured latency plus the topology's own closing stats — everything
``BENCH_serve.json`` needs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.loadgen.chaos import (ChaosController, ChaosOutcome, ChaosPlan,
                                 await_recovery, restart_count)
from repro.loadgen.slo import SloAccountant
from repro.loadgen.traces import Trace, TraceEvent
from repro.server.client import (AsyncCompletionClient, ClientConnectionError,
                                 DeadlineExceededError, OverloadedError,
                                 SceneNotFoundError, ServerError,
                                 jittered_backoff_s, wait_until_healthy)

#: Per-request timeout of the driver's client.
REQUEST_TIMEOUT_S = 120.0
#: Cap on concurrently in-flight requests (open-loop phases); keeps a
#: slow topology from accumulating unbounded tasks.
MAX_IN_FLIGHT = 128
#: Admission-control (429) retries per request before it counts against
#: the error budget; the delay before retry *k* is drawn uniformly from
#: ``[0, min(OVERLOAD_BACKOFF_CAP_S, OVERLOAD_BACKOFF_S * 2**k)]``.
OVERLOAD_RETRIES = 4
OVERLOAD_BACKOFF_S = 0.05
OVERLOAD_BACKOFF_CAP_S = 2.0


@dataclass
class DriverConfig:
    """How to replay: where, how fast, and how hard to push — what
    ``repro loadgen`` sets."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Multiplies every trace timestamp (0.5 = replay twice as fast).
    time_scale: float = 1.0
    chaos: Optional[ChaosPlan] = None
    #: Client-stamped end-to-end deadline (and budget) per completion.
    #: ``None`` replays without deadlines — the pre-PR-9 behaviour.  A
    #: ``deadline_exceeded`` answer lands in its own accountant bucket:
    #: the stack shed on time, it did not fail.
    deadline_ms: Optional[int] = None


@dataclass
class ReplayResult:
    """Everything one replay measured."""

    accountant: SloAccountant
    wall_seconds: float
    stats: Optional[dict] = None            # closing /v1/stats
    healthz: Optional[dict] = None          # closing /healthz
    chaos: Optional[ChaosOutcome] = None
    scene_ids: Dict[str, str] = field(default_factory=dict)

    @property
    def topology_doc(self) -> dict:
        """The report's ``topology`` section."""
        doc: dict = {"backends": None, "router": False}
        if self.healthz is not None:
            backends = self.healthz.get("backends")
            if backends is not None:
                doc["router"] = True
                doc["backends"] = len(backends)
                doc["restarts"] = restart_count(self.healthz)
        return doc


async def _execute(event: TraceEvent, trace: Trace,
                   client: AsyncCompletionClient, config: DriverConfig,
                   accountant: SloAccountant,
                   scene_ids: Dict[str, str]) -> None:
    """Run one event, with bounded 429 backoff, into the accountant."""
    scene = trace.scenes[event.scene]
    retries = 0
    while True:
        start = time.perf_counter()
        try:
            if event.op == "register":
                response = await client.register_scene(scene["text"],
                                                       name=scene["name"])
                scene_ids[event.scene] = response["scene_id"]
                accountant.record_ok(
                    event.phase, (time.perf_counter() - start) * 1000.0,
                    retries=retries)
            elif event.op == "complete":
                response = await client.complete_text(
                    scene["text"], name=scene["name"], n=event.n,
                    deadline_ms=config.deadline_ms)
                scene_ids[event.scene] = response.get(
                    "scene_id", scene_ids.get(event.scene, ""))
                accountant.record_ok(
                    event.phase, (time.perf_counter() - start) * 1000.0,
                    completion=True,
                    cache_hit=bool(response.get("cache_hit")),
                    degraded=bool(response.get("degraded")),
                    retries=retries)
            elif event.op == "release":
                scene_id = scene_ids.get(event.scene)
                if scene_id is None:
                    scene_id = (await client.register_scene(
                        scene["text"], name=scene["name"]))["scene_id"]
                await client.release_scene(scene_id)
                scene_ids.pop(event.scene, None)
                accountant.record_ok(
                    event.phase, (time.perf_counter() - start) * 1000.0,
                    retries=retries)
            else:
                accountant.record_error(event.phase,
                                        f"bad_op:{event.op}")
            return
        except OverloadedError:
            if retries < OVERLOAD_RETRIES:
                await asyncio.sleep(jittered_backoff_s(
                    retries, base=OVERLOAD_BACKOFF_S,
                    cap=OVERLOAD_BACKOFF_CAP_S))
                retries += 1
                continue
            accountant.record_error(event.phase, "overloaded",
                                    retries=retries)
            return
        except SceneNotFoundError:
            accountant.record_error(event.phase, "not_found",
                                    retries=retries)
            return
        except DeadlineExceededError:
            # The stack refused to serve a spent budget — the deadline
            # contract working, never retried, never an error.
            accountant.record_deadline(event.phase, retries=retries)
            return
        except ServerError as exc:
            accountant.record_error(event.phase, exc.code,
                                    retries=retries)
            return
        except (ClientConnectionError, asyncio.TimeoutError):
            accountant.record_error(event.phase, "connection",
                                    retries=retries)
            return


async def _strike(controller: ChaosController,
                  client: AsyncCompletionClient, phase: str,
                  event_index: int, accountant: SloAccountant) -> None:
    try:
        healthz = await client.healthz()
        controller.strike(healthz, phase=phase, event_index=event_index)
    except (ClientConnectionError, ServerError):
        # The front door itself is unreachable — that is an error the
        # in-flight requests will surface; don't crash the dispatcher.
        accountant.record_error(phase, "chaos_strike_failed")


async def _run_open_phase(phase_name: str, events: List[TraceEvent],
                          trace: Trace, client: AsyncCompletionClient,
                          config: DriverConfig,
                          accountant: SloAccountant,
                          scene_ids: Dict[str, str],
                          controller: Optional[ChaosController],
                          kill_indices: List[int]) -> None:
    loop = asyncio.get_running_loop()
    in_flight = asyncio.Semaphore(MAX_IN_FLIGHT)
    tasks: List[asyncio.Task] = []
    phase_start = loop.time()

    async def _guarded(event: TraceEvent) -> None:
        async with in_flight:
            await _execute(event, trace, client, config, accountant,
                           scene_ids)

    kills = set(kill_indices)
    for index, event in enumerate(events):
        if controller is not None and index in kills:
            await _strike(controller, client, phase_name, index,
                          accountant)
        target = phase_start + (event.t_ms / 1000.0) * config.time_scale
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_guarded(event)))
    if tasks:
        await asyncio.gather(*tasks)


async def _run_closed_phase(events: List[TraceEvent], workers: int,
                            trace: Trace, client: AsyncCompletionClient,
                            config: DriverConfig,
                            accountant: SloAccountant,
                            scene_ids: Dict[str, str]) -> None:
    queue: asyncio.Queue = asyncio.Queue()
    for event in events:
        queue.put_nowait(event)

    async def _worker() -> None:
        while True:
            try:
                event = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            await _execute(event, trace, client, config, accountant,
                           scene_ids)

    await asyncio.gather(*(_worker() for _ in range(max(1, workers))))


async def replay_trace(trace: Trace, config: DriverConfig) -> ReplayResult:
    """Replay every phase of *trace*, in order, against the topology."""
    accountant = SloAccountant()
    scene_ids: Dict[str, str] = {}
    controller = (ChaosController(config.chaos,
                                  time_scale=config.time_scale)
                  if config.chaos is not None else None)
    started = time.perf_counter()
    async with AsyncCompletionClient(
            config.host, config.port,
            timeout=REQUEST_TIMEOUT_S) as client:
        await wait_until_healthy(client)
        for phase in trace.phases:
            events = trace.events_for(phase.name)
            if not events:
                continue
            kill_indices: List[int] = []
            if controller is not None and phase.chaos_eligible:
                kill_indices = config.chaos.kill_indices(len(events))
            if phase.mode == "open":
                await _run_open_phase(phase.name, events, trace, client,
                                      config, accountant, scene_ids,
                                      controller, kill_indices)
            else:
                if controller is not None and kill_indices:
                    # Closed-loop chaos phase: strike before the sweep.
                    await _strike(controller, client, phase.name, 0,
                                  accountant)
                await _run_closed_phase(events, phase.workers, trace,
                                        client, config, accountant,
                                        scene_ids)
        wall = time.perf_counter() - started

        if controller is not None and (controller.kills
                                       or controller.stalls):
            # Respawn is a background concern on the router (failover
            # serves the traffic); give it a bounded window to land so
            # the closing stats reflect recovery, not a race.  A timeout
            # is not an error here — the chaos report's ``recovered``
            # field carries the verdict.  Slow-mode stalls still held are
            # resumed first; they recover by turning healthy, not
            # restarting.
            controller.resume_all()
            await await_recovery(client, min_restarts=controller.kills)

        stats: Optional[dict] = None
        healthz: Optional[dict] = None
        try:
            stats = await client.stats()
            healthz = await client.healthz()
        except (ClientConnectionError, ServerError):
            pass                            # report survives a dead topology

    chaos_outcome: Optional[ChaosOutcome] = None
    if controller is not None:
        router_stats = (stats or {}).get("router")
        journal_scenes = 0
        if router_stats is not None:
            journal_scenes = (router_stats.get("journal") or {}).get(
                "scenes", 0)
        chaos_outcome = ChaosOutcome(plan=config.chaos,
                                     controller=controller,
                                     router_stats=router_stats,
                                     journal_scenes=journal_scenes)
    return ReplayResult(accountant=accountant, wall_seconds=wall,
                        stats=stats, healthz=healthz, chaos=chaos_outcome,
                        scene_ids=scene_ids)
