"""Chaos injection: the one fault layer of the serving stack.

Every fault a test or benchmark delivers goes through
:class:`ChaosController`: ``repro loadgen --chaos`` strikes mid-replay
(:mod:`repro.loadgen.driver`), and ``python -m repro.server.smoke
--router --chaos`` strikes mid-burst.  The controller learns the
topology the way any operator would (``GET /healthz``, which lists
every backend with its pid when the router supervises the process, and
``GET /v1/admin/backends`` for the ring) and sends signals.  Three
fault modes:

* ``kill`` — ``SIGKILL``, the one signal a process cannot trap.  The
  router must notice the dead shard, respawn it once (not once per
  queued request), replay the journal, restore the snapshot, and keep
  answering.
* ``slow`` — ``SIGSTOP``, then ``SIGCONT`` once the stall's hold has
  passed; the controller schedules the resume itself.  The gray
  failure: the process stays alive, its sockets keep accepting,
  in-flight requests (streams included) simply *stall* — breakers see
  no connection failure, so only deadline clamps, hedged retries and
  latency-outlier ejection can save the traffic.  Recovery means the
  stalled backend rejoins candidate ordering, with zero restarts
  expected.
* ``majority`` — ``SIGKILL`` every ring owner of one scene
  (:meth:`ChaosController.ring_owners`), so no replica holds it and
  the router can only answer from its last-known-good cache.

Everything interesting happens in the serving stack; the drivers'
recovery checks plus the SLO gates assert it all from the outside.
:meth:`ChaosController.report` is the evidence both drivers write,
:func:`format_report` its one-line summary, and :func:`await_recovery`
the one wait for recovery.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import ReproError
from repro.server.client import (AsyncCompletionClient, ClientConnectionError,
                                 ServerError)
from repro.server.router import HashRing


class ChaosError(ReproError):
    """Chaos was requested but cannot be delivered."""


@dataclass(frozen=True)
class ChaosPlan:
    """When and how hard to strike.

    The first strike lands ``AT_FRACTION`` of the way through the
    chaos-eligible phase's events, so the burst is genuinely mid-flight;
    ``kills`` > 1 strikes repeatedly, evenly spaced over the remaining
    events.  ``mode`` picks the fault: ``kill`` (SIGKILL, a crash),
    ``slow`` (SIGSTOP for ``stall_s`` seconds, the gray failure —
    ``kills`` then counts stalls) or ``majority`` (SIGKILL every owner
    of one scene).
    """

    #: Where in the chaos phase the first strike lands (0.5 = halfway).
    AT_FRACTION = 0.5

    kills: int = 1
    seed: int = 2013
    mode: str = "kill"                      # "kill" | "slow" | "majority"
    stall_s: float = 2.0                    # SIGSTOP hold (slow mode)

    def kill_indices(self, events_in_phase: int) -> List[int]:
        """Event indices (within the chaos phase) that trigger a strike."""
        if self.kills < 1 or events_in_phase < 1:
            return []
        first = min(int(self.AT_FRACTION * events_in_phase),
                    events_in_phase - 1)
        if self.kills == 1:
            return [first]
        remaining = events_in_phase - first
        step = max(1, remaining // self.kills)
        return [min(first + index * step, events_in_phase - 1)
                for index in range(self.kills)]


@dataclass
class KillRecord:
    backend_id: str
    pid: int
    phase: str
    event_index: int
    at_monotonic: float

    def to_doc(self) -> dict:
        return {"backend_id": self.backend_id, "pid": self.pid,
                "phase": self.phase, "event_index": self.event_index}


@dataclass
class StallRecord:
    """One SIGSTOP delivered (and, eventually, its SIGCONT)."""

    backend_id: str
    pid: int
    phase: str
    event_index: int
    at_monotonic: float
    resumed: bool = False

    def to_doc(self) -> dict:
        return {"backend_id": self.backend_id, "pid": self.pid,
                "phase": self.phase, "event_index": self.event_index,
                "resumed": self.resumed}


class ChaosController:
    """Picks victims (deterministically, per plan seed) and strikes.

    A stall holds for the plan's ``stall_s`` times *time_scale*, so a
    replay at another ``--time-scale`` stalls a comparable slice of it.
    """

    def __init__(self, plan: ChaosPlan, time_scale: float = 1.0):
        self.plan = plan
        self.hold_s = plan.stall_s * time_scale
        self.records: List[KillRecord] = []
        self.stall_records: List[StallRecord] = []
        self._rng = random.Random(plan.seed)
        # A stall is resumed by its timer thread or by resume_all.
        self._resume_lock = threading.Lock()

    @property
    def kills(self) -> int:
        return len(self.records)

    @property
    def stalls(self) -> int:
        return len(self.stall_records)

    @staticmethod
    def killable_backends(healthz: dict) -> List[dict]:
        """Backends the controller can strike: managed, with a pid."""
        backends = healthz.get("backends") or []
        return [backend for backend in backends
                if backend.get("managed") and backend.get("pid")]

    @staticmethod
    def ring_owners(healthz: dict, roster: dict,
                    scene_id: str) -> List[dict]:
        """The ``/healthz`` entries of *scene_id*'s owners, primary first.

        The router's ring is deterministic over backend ids, so it is
        rebuilt here from the backends *healthz* lists (a draining one is
        off the ring) and the ring replicas and replication that
        *roster* (``GET /v1/admin/backends``) reports.
        """
        backends = {backend["backend_id"]: backend
                    for backend in healthz.get("backends") or []
                    if not backend.get("draining")}
        ring = HashRing(replicas=roster["ring"]["replicas"])
        for backend_id in backends:
            ring.add(backend_id)
        return [backends[backend_id] for backend_id
                in ring.route_n(scene_id, roster["replication"])]

    def strike(self, healthz: dict, *, phase: str, event_index: int,
               victims: Optional[List[dict]] = None):
        """Deliver one fault of the plan's mode.

        *victims* are the backends the fault may hit, by default every
        managed one *healthz* lists; a driver aiming at one scene passes
        its :meth:`ring_owners`.  ``kill`` and ``slow`` hit one of them,
        drawn with the plan's seed; ``majority`` kills every one.
        Returns the fault's record (``majority``: the list of them).
        """
        if victims is not None:
            healthz = {"backends": victims}
            if len(self.killable_backends(healthz)) < len(victims):
                raise ChaosError(
                    f"cannot strike {[v.get('backend_id') for v in victims]}"
                    f": chaos needs router-supervised backends with pids")
        if self.plan.mode == "slow":
            return self.stall(healthz, phase=phase,
                              event_index=event_index)
        victims = self.killable_backends(healthz)
        if not victims:
            raise ChaosError(
                "no managed backend with a pid to kill — chaos needs a "
                "router-supervised topology (repro route), not attached "
                "backends")
        if self.plan.mode == "majority":
            return [self._kill(victim, phase, event_index)
                    for victim in victims]
        victim = victims[self._rng.randrange(len(victims))]
        return self._kill(victim, phase, event_index)

    def _kill(self, victim: dict, phase: str,
              event_index: int) -> KillRecord:
        pid = int(victim["pid"])
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            # Already dead (e.g. crashed on its own); the respawn path is
            # exercised either way, so record the strike as delivered.
            pass
        except OSError as exc:
            raise ChaosError(f"cannot kill backend pid {pid}: {exc}")
        record = KillRecord(backend_id=str(victim.get("backend_id")),
                            pid=pid, phase=phase, event_index=event_index,
                            at_monotonic=time.monotonic())
        self.records.append(record)
        return record

    def stall(self, healthz: dict, *, phase: str,
              event_index: int) -> StallRecord:
        """SIGSTOP one managed backend (skipping ones already stalled).

        The victim keeps its sockets open and its pending work parked —
        the canonical gray failure — until a timer SIGCONTs it after
        :attr:`hold_s`, or :meth:`resume_all` does first; a backend
        that died while stopped is simply recorded as resumed (nothing
        left to continue).
        """
        stalled = {record.pid for record in self.stall_records
                   if not record.resumed}
        victims = [victim for victim in self.killable_backends(healthz)
                   if int(victim["pid"]) not in stalled]
        if not victims:
            raise ChaosError(
                "no managed backend with a pid to stall — chaos needs a "
                "router-supervised topology (repro route) with an "
                "un-stalled backend left")
        victim = victims[self._rng.randrange(len(victims))]
        pid = int(victim["pid"])
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            pass                            # died first; stall moot
        except OSError as exc:
            raise ChaosError(f"cannot stall backend pid {pid}: {exc}")
        record = StallRecord(backend_id=str(victim.get("backend_id")),
                             pid=pid, phase=phase,
                             event_index=event_index,
                             at_monotonic=time.monotonic())
        self.stall_records.append(record)
        timer = threading.Timer(self.hold_s, self._resume, (record,))
        timer.daemon = True
        timer.start()
        return record

    def _resume(self, record: StallRecord) -> bool:
        """SIGCONT one stall unless it was resumed already."""
        with self._resume_lock:
            if record.resumed:
                return False
            record.resumed = True
        try:
            os.kill(record.pid, signal.SIGCONT)
        except OSError:
            pass                            # gone; nothing to continue
        return True

    def resume_all(self) -> int:
        """SIGCONT every outstanding stall now; idempotent.  Returns how
        many were resumed by this call."""
        return sum(self._resume(record) for record in self.stall_records)

    def report(self, router_stats: Optional[dict],
               journal_scenes: int) -> dict:
        """The report's ``chaos`` section, including recovery evidence.

        ``reregistration_storm_bounded`` is the "no retry storm" check:
        after a kill, the router re-teaches scenes one ``unknown scene``
        retry at a time, so the re-registration count across the run
        must stay within the journaled scene population per kill — if
        each query of each scene re-registered, this blows up
        immediately.
        """
        section = {
            "mode": self.plan.mode,
            "kills": self.kills,
            "records": [record.to_doc() for record in self.records],
            "stalls": self.stalls,
            "stall_records": [record.to_doc()
                              for record in self.stall_records],
            "resumed": (all(record.resumed
                            for record in self.stall_records)
                        if self.stall_records else None),
            "observed_restarts": None,
            "observed_reregistrations": None,
            "observed_failovers": None,
            "degraded_served": None,
            "retry_budget": None,
            "observed_hedges": None,
            "observed_deadline_exceeded": None,
            "observed_slow_timeouts": None,
            "observed_ejections": None,
            "observed_rebalances": None,
            "reregistration_storm_bounded": None,
            "recovered": None,
        }
        if router_stats is not None:
            restarts = router_stats.get("restarts", 0)
            reregistrations = router_stats.get("reregistrations", 0)
            section["observed_restarts"] = restarts
            section["observed_reregistrations"] = reregistrations
            section["observed_failovers"] = router_stats.get("failovers")
            section["degraded_served"] = router_stats.get(
                "degraded_served")
            section["retry_budget"] = router_stats.get("retry_budget")
            section["observed_hedges"] = router_stats.get("hedges")
            section["observed_deadline_exceeded"] = router_stats.get(
                "deadline_exceeded")
            section["observed_slow_timeouts"] = router_stats.get(
                "slow_timeouts")
            section["observed_ejections"] = router_stats.get("ejections")
            section["observed_rebalances"] = router_stats.get(
                "rebalances")
            bound = max(1, self.kills + self.stalls) * max(journal_scenes,
                                                           1)
            section["reregistration_storm_bounded"] = (
                reregistrations <= bound)
            if self.plan.mode == "slow":
                # A stall recovers by *rejoining*, not respawning: every
                # SIGSTOP got its SIGCONT.  (Restarts stay visible above
                # — a stalled backend that died anyway shows up there.)
                section["recovered"] = (self.stalls == 0
                                        or bool(section["resumed"]))
            else:
                section["recovered"] = (self.kills == 0
                                        or restarts >= self.kills)
        return section


def format_report(doc: dict) -> str:
    """One summary line of a :meth:`ChaosController.report` document."""
    struck = ", ".join(f"{record['backend_id']} (pid {record['pid']})"
                       for record in doc["records"] + doc["stall_records"])
    if doc["mode"] == "slow":
        hedges = doc["observed_hedges"] or {}
        return (f"chaos(slow): {doc['stalls']} stall(s) [{struck}], "
                f"resumed: {doc['resumed']}, "
                f"hedges {hedges.get('fired')} (won {hedges.get('won')}), "
                f"deadline_exceeded {doc['observed_deadline_exceeded']}, "
                f"slow timeouts {doc['observed_slow_timeouts']}, "
                f"ejections {doc['observed_ejections']}, "
                f"respawns {doc['observed_restarts']}")
    return (f"chaos({doc['mode']}): {doc['kills']} kill(s) [{struck}], "
            f"{doc['observed_restarts']} respawn(s), "
            f"{doc['observed_failovers']} failover(s), "
            f"{doc['degraded_served']} degraded, "
            f"reregistration storm bounded: "
            f"{doc['reregistration_storm_bounded']}")


@dataclass
class ChaosOutcome:
    """What the driver hands the report builder."""

    plan: ChaosPlan
    controller: ChaosController
    router_stats: Optional[dict] = None
    journal_scenes: int = 0
    extra: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = self.controller.report(self.router_stats,
                                     self.journal_scenes)
        doc.update(self.extra)
        return doc


def restart_count(health: Optional[dict]) -> int:
    """The backends' summed restart count in a ``/healthz`` document."""
    return sum(backend.get("restarts", 0)
               for backend in (health or {}).get("backends") or [])


async def await_recovery(client: AsyncCompletionClient, *,
                         min_restarts: int = 0, timeout_s: float = 30.0
                         ) -> tuple[bool, Optional[dict]]:
    """Poll ``/healthz`` until the topology has recovered from a strike.

    Recovered means the backends' restart counts add up to at least
    *min_restarts* and every backend reports healthy.  Respawns (and a
    stalled backend's rejoin) happen in the background on the router, so
    a chaos driver waits for them rather than assume the first answer
    after a strike implies recovery.  Returns whether that happened
    within *timeout_s*, and the last ``/healthz`` document read (``None``
    if none was); an unreachable front door ends the wait at once.
    """
    deadline = time.monotonic() + timeout_s
    health: Optional[dict] = None
    while True:
        try:
            health = await client.healthz()
        except (ClientConnectionError, ServerError):
            return False, health
        if (restart_count(health) >= min_restarts
                and all(backend.get("healthy")
                        for backend in health.get("backends") or [])):
            return True, health
        if time.monotonic() >= deadline:
            return False, health
        await asyncio.sleep(0.05)
