"""The sharded completion router: one front door, many backends.

``repro route`` supervises N backend completion servers (each a full
:class:`~repro.server.server.AsyncCompletionServer` process) and speaks
the *existing* versioned HTTP/JSON protocol on both sides — clients
already address scenes by content-derived ids, so sharding drops in with
zero wire changes.  Its front side is the server's own
:class:`~repro.server.front.HttpFront`.  The pieces:

* **Consistent hash ring** (:class:`HashRing`): every backend owns
  ``ring_replicas`` pseudo-random points on a 64-bit ring; a scene id
  routes to the backend owning the first point at or after its hash.
  Adding or removing one backend therefore remaps only ~1/N of the
  scenes — the property that makes scale-up cheap.
* **Scene journal** (:class:`SceneJournal`): a durable, content-addressed
  log of every registered scene's text.  Registration is idempotent
  (identical text ⇒ identical scene id), so replaying the journal into a
  backend — on restart, scale-up, or attach — is always safe.  Explicit
  releases append tombstones, so released scenes stay released across
  replays.
* **Replica supervision**: a dead managed backend is respawned on demand
  (first failing request pays the restart), its journal shard replayed,
  and — when a snapshot directory is configured — the backend restores
  its own result-cache snapshot (``repro serve --snapshot``), so a
  restart is not only transparent but *warm*.
* **Transparent re-registration**: a backend answering ``unknown scene``
  (evicted, or restarted outside the router's supervision) is re-taught
  the scene from the journal and the query retried — clients never see
  backend lifecycle.
* **Stats aggregation**: ``GET /v1/stats`` merges every backend's
  snapshot into one view — counters summed, latency windows merged
  exactly by summing their microsecond counts — with the per-shard
  truth under ``shards`` and the router's own counters under ``router``.
* **Replicated placement** (:meth:`HashRing.route_n`): every scene is
  journaled to R distinct ring owners (``replication``, default 2);
  reads go to the first healthy owner in ring order and fail over to a
  sibling replica instantly when one dies — the dead replica respawns
  in the background instead of stalling the request that found it, and
  every live sibling adopts its result-cache snapshot
  (``POST /v1/adopt-snapshot``), so the failed-over reads answer warm.
  Unary and streamed completions take the same read path: a stream is
  opened (up to its first chunk) by the ladder that serves a unary
  read, with its budget, hedge, failover, re-teach and degraded rungs.
* **Circuit breakers and retry budgets**: each backend carries a
  closed → open → half-open breaker (consecutive connection failures
  open it; a cooldown admits probe traffic), and failover retries spend
  a router-wide token bucket that accrues per request — a dead shard's
  retry storm can neither hammer the corpse nor starve healthy shards.
* **Graceful degradation**: when *every* replica of a scene is down,
  the router answers from its last-known-good completion cache with a
  ``degraded: true`` marker instead of a 5xx — stale-but-instant beats
  absent for an interactive completer.
* **Admin surface** (``/v1/admin/backends``): live add / drain / remove
  of backends over the already-safe ``HashRing.add/remove`` + journal
  replay path; drain moves sticky edit-sessions before removal.

The router holds no synthesis state of its own: everything it needs to
rebuild a backend is in the journal and the backends' snapshot files, so
the router process itself is restartable too (same journal ⇒ same
routing table ⇒ same shard contents).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable, Optional, Sequence

from repro.core.errors import ReproError
from repro.server import protocol
from repro.server.client import (AsyncCompletionClient, ClientConnectionError,
                                 SceneNotFoundError, ServerError,
                                 wait_until_healthy)
from repro.server.metrics import LatencyWindow
from repro.server.protocol import (CompleteRequest, EditSceneRequest,
                                   ProtocolError, RegisterSceneRequest,
                                   ReleaseSceneRequest)
from repro.server.front import HttpFront, _StreamWire

#: Sentinel prefix hashed to pick the probe backend for *new* scene text
#: (the scene id — the real routing key — is only known once a backend
#: has prepared the scene).  Deterministic, so duplicate registrations
#: always probe the same backend.
_DIGEST_KEY_PREFIX = "digest:"


# -- consistent hash ring ----------------------------------------------------


class HashRing:
    """Consistent hashing over backend ids.

    Each backend owns ``replicas`` points drawn from SHA-256 on a 64-bit
    ring; a key routes to the backend owning the first point at or after
    the key's hash (wrapping).  With V points per backend, adding or
    removing a backend moves only the keys in the arcs it gains or
    loses — ~1/N of the keyspace — while every other key keeps its
    owner, which is exactly the stability the scene journal's replay
    relies on.
    """

    def __init__(self, replicas: int = 64):
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []      # sorted (point, id)
        self._backends: set[str] = set()

    @staticmethod
    def _point(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, backend_id: str) -> None:
        if backend_id in self._backends:
            return
        self._backends.add(backend_id)
        self._points.extend(
            (self._point(f"{backend_id}#{index}"), backend_id)
            for index in range(self.replicas))
        self._points.sort()

    def remove(self, backend_id: str) -> None:
        if backend_id not in self._backends:
            return
        self._backends.discard(backend_id)
        self._points = [point for point in self._points
                        if point[1] != backend_id]

    def route(self, key: str) -> str:
        """The backend id owning *key*; raises when the ring is empty."""
        return self.route_n(key, 1)[0]

    def route_n(self, key: str, n: int) -> list[str]:
        """The first ``min(n, len(self))`` *distinct* owners of *key*.

        Walks clockwise from the key's point collecting distinct backend
        ids — the classic successor list.  The same walk that gives
        ``route`` its ~1/N remap property applies per replica slot:
        adding a backend can only insert itself into (and push the tail
        out of) a key's owner list, never shuffle the survivors'
        relative order, so replica sets stay stable under churn.
        """
        if not self._points:
            raise ProtocolError("no backends on the ring", code="internal")
        want = min(n, len(self._backends))
        index = bisect_left(self._points, (self._point(key), ""))
        owners: list[str] = []
        for step in range(len(self._points)):
            backend_id = self._points[(index + step) % len(self._points)][1]
            if backend_id not in owners:
                owners.append(backend_id)
                if len(owners) == want:
                    break
        return owners

    @property
    def backends(self) -> frozenset:
        return frozenset(self._backends)

    def __len__(self) -> int:
        return len(self._backends)


# -- scene journal -----------------------------------------------------------


@dataclass(frozen=True)
class JournalEntry:
    """One registered scene, replayable from text."""

    digest: str                             # sha256 of the exact text
    scene_id: str                           # content-derived serving id
    name: Optional[str]
    text: str


class SceneJournal:
    """Durable, content-addressed log of registered scene texts.

    The file format is append-only JSONL: ``{"op": "register", ...}``
    records a scene, ``{"op": "release", "scene_id": ...}`` tombstones
    it.  Replaying the file rebuilds the live set exactly; a torn final
    line (crash mid-append) is ignored.  With ``path=None`` the journal
    is memory-only — same semantics, no durability.

    Registration on the serving side is content-derived and idempotent,
    so replaying any suffix, prefix or repetition of the journal into a
    backend converges on the same registered set — the property that
    makes restart/scale-up replay unconditionally safe.
    """

    #: Compact on load once the historical op count exceeds this many
    #: times the live set (plus slack): register/release churn appends
    #: full scene texts and tombstones forever, so without an occasional
    #: rewrite the file and every restart's replay grow with *history*
    #: rather than with the live set.
    COMPACT_FACTOR = 4

    def __init__(self, path: Optional[str] = None, *,
                 compact_on_load: bool = True):
        self.path = Path(path) if path is not None else None
        self._by_digest: dict[str, JournalEntry] = {}
        self._by_scene: dict[str, JournalEntry] = {}
        self.corrupt_lines = 0
        self.compactions = 0
        #: ``False`` keeps the load strictly read-only (the dry-run
        #: validator must never rewrite the file it is inspecting).
        self._compact_on_load = compact_on_load
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        ops = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                ops += 1
                try:
                    op = json.loads(line)
                except json.JSONDecodeError:
                    self.corrupt_lines += 1
                    continue               # torn append; keep replaying
                self._apply(op)
        if (self._compact_on_load
                and ops > self.COMPACT_FACTOR * len(self._by_digest) + 16):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the file as the live register set (atomic).

        Dead history — tombstoned scenes, superseded duplicates, corrupt
        lines — is dropped; the live entries are exactly preserved, so a
        reload after compaction rebuilds identical state.
        """
        assert self.path is not None
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                   prefix=".journal-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for digest, entry in self._by_digest.items():
                    handle.write(json.dumps(
                        {"op": "register", "digest": digest,
                         "scene_id": entry.scene_id, "name": entry.name,
                         "text": entry.text},
                        separators=(",", ":"), sort_keys=True) + "\n")
            os.replace(tmp, self.path)
            self.compactions += 1
            self.corrupt_lines = 0          # rewritten clean
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass                        # keep the uncompacted file

    def _apply(self, op: dict) -> None:
        if not isinstance(op, dict):
            self.corrupt_lines += 1
            return
        if op.get("op") == "register" and isinstance(op.get("text"), str):
            entry = JournalEntry(digest=op.get("digest", ""),
                                 scene_id=op.get("scene_id", ""),
                                 name=op.get("name"),
                                 text=op["text"])
            if entry.digest and entry.scene_id:
                self._by_digest[entry.digest] = entry
                self._by_scene.setdefault(entry.scene_id, entry)
        elif op.get("op") == "release" and isinstance(op.get("scene_id"),
                                                      str):
            self._forget(op["scene_id"])
        else:
            self.corrupt_lines += 1

    def _forget(self, scene_id: str) -> bool:
        removed = self._by_scene.pop(scene_id, None) is not None
        for digest in [digest for digest, entry in self._by_digest.items()
                       if entry.scene_id == scene_id]:
            del self._by_digest[digest]
            removed = True
        return removed

    def _append(self, op: dict) -> None:
        if self.path is None:
            return
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(op, separators=(",", ":"),
                                    sort_keys=True) + "\n")

    def record(self, *, digest: str, scene_id: str, name: Optional[str],
               text: str) -> bool:
        """Record one registration; returns False when already journaled."""
        if digest in self._by_digest:
            return False
        entry = JournalEntry(digest=digest, scene_id=scene_id, name=name,
                             text=text)
        self._by_digest[digest] = entry
        self._by_scene.setdefault(scene_id, entry)
        self._append({"op": "register", "digest": digest,
                      "scene_id": scene_id, "name": name, "text": text})
        return True

    def remove(self, scene_id: str) -> bool:
        """Tombstone a scene; returns False when it was not journaled."""
        removed = self._forget(scene_id)
        if removed:
            self._append({"op": "release", "scene_id": scene_id})
        return removed

    def lookup_digest(self, digest: str) -> Optional[JournalEntry]:
        return self._by_digest.get(digest)

    def lookup_scene(self, scene_id: str) -> Optional[JournalEntry]:
        return self._by_scene.get(scene_id)

    def entries(self) -> list[JournalEntry]:
        """Live scenes (tombstoned ones excluded), one per scene id."""
        return list(self._by_scene.values())

    def __len__(self) -> int:
        return len(self._by_scene)


# -- resilience primitives ---------------------------------------------------


class CircuitBreaker:
    """Per-backend circuit breaker: closed → open → half-open.

    ``failure_threshold`` consecutive connection failures open the
    circuit; after ``reset_timeout_s`` of cooldown the breaker admits
    exactly *one* probe (half-open) and its result decides — success
    closes it, failure re-opens it for another cooldown.  While the
    probe is outstanding every other :meth:`allow` answers ``False``,
    so a burst arriving right at cooldown expiry cannot stampede a
    still-sick backend.  Only *connection-level* failures count: a
    backend answering an error envelope is alive and keeps its breaker
    closed.

    The clock is injectable (monotonic seconds) so state transitions are
    unit-testable without sleeping; ``last_failure_at`` is wall-clock,
    for operators reading ``/healthz``.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 2.0, *,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be at least 1, "
                             f"got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_total = 0               # lifetime open transitions
        self._opened_at: Optional[float] = None
        self._probe_inflight = False        # the single half-open probe
        self.last_failure_at: Optional[float] = None    # wall clock

    def allow(self) -> bool:
        """May a call be attempted now?  (Open → half-open on cooldown.)

        Half-open admits exactly one outstanding probe: the cooldown
        transition grants it, and every further ``allow`` is refused
        until :meth:`record_success` / :meth:`record_failure` settles
        the probe's fate.
        """
        if self.state == "open":
            assert self._opened_at is not None
            if self._clock() - self._opened_at >= self.reset_timeout_s:
                self.state = "half_open"
                self._probe_inflight = True
            else:
                return False
        elif self.state == "half_open":
            if self._probe_inflight:
                return False
            self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = None
        self._probe_inflight = False

    def record_failure(self) -> None:
        self.last_failure_at = time.time()
        self.consecutive_failures += 1
        self._probe_inflight = False
        if (self.state == "half_open"
                or self.consecutive_failures >= self.failure_threshold):
            if self.state != "open":
                self.opened_total += 1
            self.state = "open"
            self._opened_at = self._clock()

    def describe(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opened_total": self.opened_total,
            "last_failure_at": self.last_failure_at,
        }


class RetryBudget:
    """Router-wide token bucket bounding failover/retry volume.

    Every incoming request earns ``ratio`` tokens (capped at ``burst``);
    every retry — a second or later attempt for the same request —
    spends one.  With the default ratio 0.2 at most ~20% of steady-state
    traffic can be retries, so a dead shard's retry storm is bounded by
    construction rather than by luck.  Purely count-based (no clock):
    deterministic under test and under replay.
    """

    def __init__(self, ratio: float = 0.2, burst: float = 10.0):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be within [0, 1], got {ratio}")
        if burst < 1.0:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst                 # start full: cold-start retries ok
        self.granted = 0
        self.denied = 0

    def on_request(self) -> None:
        """Accrue credit for one incoming (non-retry) request."""
        self.tokens = min(self.burst, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Spend one retry token; False = budget exhausted, stop retrying."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def describe(self) -> dict:
        return {
            "ratio": self.ratio,
            "burst": self.burst,
            "tokens": round(self.tokens, 3),
            "granted": self.granted,
            "denied": self.denied,
        }


class LastKnownGood:
    """Bounded LRU of the last successful completion per query shape.

    Keyed by ``(scene_id, goal, variant, n, deadline_ms)``; the stored
    payload is a *copy* of the backend's successful response.  When
    every replica of a scene is down, the router serves this copy with
    ``degraded: true`` instead of a 5xx — for an interactive completer a
    stale ranked list beats an error page, and the marker lets clients
    render it honestly.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        self.hits = 0

    def remember(self, key: tuple, payload: dict) -> None:
        self._entries.pop(key, None)
        self._entries[key] = dict(payload)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, key: tuple) -> Optional[dict]:
        payload = self._entries.get(key)
        if payload is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return dict(payload)

    def purge_scene(self, scene_id: str) -> int:
        """Drop every cached answer for *scene_id* (on release)."""
        stale = [key for key in self._entries if key[0] == scene_id]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)


# -- backends ----------------------------------------------------------------


@dataclass
class Backend:
    """One shard: address, client, and (when managed) its process."""

    backend_id: str
    host: str
    port: int
    client: AsyncCompletionClient
    process: Optional[subprocess.Popen] = None
    snapshot_path: Optional[str] = None
    restarts: int = 0
    healthy: bool = True
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    draining: bool = False                  # admin drain in progress
    inflight: int = 0                       # router calls outstanding
    answered: int = 0                       # router calls answered, ever
    #: Service times of the last 128 router calls, the budget-clamped
    #: timeouts of a stalled backend included: its p95 drives outlier
    #: ejection and the hedge delay.
    latency: LatencyWindow = field(
        default_factory=lambda: LatencyWindow(128))
    ejected: bool = False                   # latency outlier, demoted
    ejected_at: Optional[float] = None      # monotonic; rejoin clock
    load_ewma: float = 0.0                  # supervisor-sampled inflight

    @property
    def managed(self) -> bool:
        return self.process is not None

    def describe(self) -> dict:
        return {
            "backend_id": self.backend_id,
            "address": f"{self.host}:{self.port}",
            "managed": self.managed,
            "healthy": self.healthy,
            "draining": self.draining,
            "restarts": self.restarts,
            "inflight": self.inflight,
            "ejected": self.ejected,
            "latency": self.latency.snapshot(),
            "load_ewma": round(self.load_ewma, 3),
            "breaker": self.breaker.describe(),
            "snapshot_path": self.snapshot_path,
            # The supervised process id (None when attached): the chaos
            # harness reads this off /healthz to deliver its SIGKILLs —
            # killing through the public health view keeps the harness on
            # the operator's side of the wire.
            "pid": self.process.pid if self.process is not None else None,
        }


_LISTEN_PREFIXES = ("serving on http://", "routing on http://")


def _drain_pipe(stdout, label: str) -> None:
    """Forward a child's remaining output so its pipe can never fill.

    A spawned server keeps writing after its listen line (snapshot
    restore notes, warnings, tracebacks); nobody reading the pipe would
    eventually block the child on a full buffer — a wedged shard the
    supervisor cannot distinguish from overload.  Runs on a daemon
    thread; forwarding to stderr keeps backend diagnostics visible.
    """
    try:
        for line in stdout:
            sys.stderr.write(f"[{label}] {line}")
    except (OSError, ValueError):
        pass                                # child died / pipe closed


def spawn_cli_server(command: str, args: Sequence[str] = (),
                     label: Optional[str] = None
                     ) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro <command> --port 0`` and wait for its listen line.

    Blocking — call from an executor in async code.  Returns
    ``(process, host, port)``.  The child inherits our environment plus
    this package's source root on ``PYTHONPATH``, so spawning works both
    from an installed package and a source checkout; after the listen
    line is seen, a daemon thread keeps draining (and forwarding) the
    child's output.  Shared by the router's backend supervision, the
    smoke harness and ``repro loadgen`` — one spawn protocol, zero
    drift; :func:`stop_cli_server` stops what it starts.
    """
    import threading

    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", command, "--port", "0",
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if not line:
            raise ClientConnectionError(
                f"repro {command} exited before listening "
                f"(rc={process.poll()})")
        if any(line.startswith(prefix) for prefix in _LISTEN_PREFIXES):
            address = line.split("http://", 1)[1].strip()
            host, _, port = address.rpartition(":")
            threading.Thread(
                target=_drain_pipe,
                args=(process.stdout, label or f"{command}:{port}"),
                daemon=True).start()
            return process, host, int(port)


def stop_cli_server(process: subprocess.Popen, host: str,
                    port: int) -> Optional[str]:
    """SIGTERM a :func:`spawn_cli_server` process while an idle keep-alive
    client holds a connection to it.

    Blocking.  Returns ``None`` once it exits; if it is still running
    10 s later, SIGKILLs it and the backends its ``/healthz`` lists, and
    returns that failure.
    """
    import http.client  # deferred: serving processes never stop one

    pids = [process.pid]
    idle = http.client.HTTPConnection(host, port, timeout=10)
    try:
        idle.request("GET", "/healthz")
        health = json.loads(idle.getresponse().read())
        pids += [backend["pid"] for backend in health.get("backends", [])
                 if backend.get("pid")]
    except (OSError, http.client.HTTPException, ValueError):
        pass                                # the front is already gone
    process.terminate()
    try:
        process.wait(timeout=10)
        return None
    except subprocess.TimeoutExpired:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        process.wait()
        return "still running 10 s after SIGTERM with an idle client"
    finally:
        idle.close()


def _kill_spawned(spawn: "asyncio.Future") -> None:
    """Stop a backend whose spawn finished after its respawn was
    cancelled."""
    if not spawn.cancelled() and spawn.exception() is None:
        process = spawn.result()[0]
        process.kill()
        process.wait()


def _spawn_serve_process(snapshot_path: Optional[str],
                         backend_args: Sequence[str],
                         label: Optional[str] = None
                         ) -> tuple[subprocess.Popen, str, int]:
    """Start one ``repro serve --port 0`` backend; blocking (executor)."""
    args = list(backend_args)
    if snapshot_path is not None:
        args = ["--snapshot", snapshot_path] + args
    return spawn_cli_server("serve", args, label=label)


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RouterConfig:
    """What ``repro route`` sets for one :class:`CompletionRouter`.

    Every field has a ``repro route`` flag; the tunables no flag reaches
    (timeouts, breakers, retry budget, hedging, ejection, rebalancing)
    are constants on :class:`CompletionRouter`.
    """

    host: str = "127.0.0.1"
    port: int = 8787                        # 0 = ephemeral
    #: Managed backends to spawn (ignored when ``attach`` names running
    #: servers instead).
    backends: int = 2
    #: Pre-existing backend addresses (``host:port``) to route over
    #: without supervising their processes.
    attach: tuple = ()
    #: Durable scene-journal file; ``None`` keeps the journal in memory
    #: (replays still work within the router's lifetime).
    journal_path: Optional[str] = None
    #: Directory for per-backend result-cache snapshots; when set, each
    #: managed backend gets ``--snapshot <dir>/<backend_id>.snapshot`` so
    #: respawned replicas start warm.
    snapshot_dir: Optional[str] = None
    #: Virtual nodes per backend on the hash ring.
    ring_replicas: int = 64
    #: Extra ``repro serve`` arguments for managed backends
    #: (e.g. ``("--max-scenes", "8")``).
    backend_args: tuple = ()
    #: Distinct ring owners per scene (clamped to the live backend
    #: count).  R=2 means one SIGKILL never stalls a scene: a sibling
    #: replica already holds it.
    replication: int = 2


def check_config(config: RouterConfig, *,
                 read_journal: bool = True) -> list[str]:
    """Validate a router configuration without spawning (or writing)
    anything.

    Returns a list of human-readable problems (empty = valid); backs
    ``repro route --check-config`` so CI can fail fast on misconfigured
    shard maps before paying for process spawns.  ``read_journal=False``
    skips parsing the journal's contents (path/permission checks only) —
    used on the real startup path, where the router is about to parse the
    file anyway and a second full read would double startup I/O.
    """
    problems: list[str] = []
    if config.attach:
        for address in config.attach:
            host, _, port = str(address).rpartition(":")
            if not host or not port.isdigit() or not 0 < int(port) < 65536:
                problems.append(f"--attach address {address!r} is not "
                                f"host:port")
    elif config.backends < 1:
        problems.append(f"--backends must be at least 1, "
                        f"got {config.backends}")
    if config.ring_replicas < 1:
        problems.append(f"--ring-replicas must be at least 1, "
                        f"got {config.ring_replicas}")
    if config.replication < 1:
        problems.append(f"--replication must be at least 1, "
                        f"got {config.replication}")
    if config.attach and config.snapshot_dir is not None:
        problems.append("--snapshot-dir only applies to managed backends "
                        "(drop it or drop --attach)")
    if config.journal_path is not None:
        parent = Path(config.journal_path).resolve().parent
        if not parent.is_dir():
            problems.append(f"journal directory {parent} does not exist")
        elif not os.access(parent, os.W_OK):
            problems.append(f"journal directory {parent} is not writable")
        elif Path(config.journal_path).exists():
            if not os.access(config.journal_path, os.R_OK):
                problems.append(f"journal {config.journal_path} is not "
                                f"readable")
            elif read_journal:
                try:
                    # Strictly read-only: a validator must never rewrite
                    # (compact) the file it is inspecting.
                    journal = SceneJournal(config.journal_path,
                                           compact_on_load=False)
                except OSError as exc:
                    problems.append(f"journal {config.journal_path} "
                                    f"cannot be read: {exc}")
                else:
                    if journal.corrupt_lines:
                        problems.append(
                            f"journal {config.journal_path} has "
                            f"{journal.corrupt_lines} unreadable line(s) "
                            f"({len(journal)} scenes replayable)")
    if config.snapshot_dir is not None and not config.attach:
        snapshot_dir = Path(config.snapshot_dir).resolve()
        if snapshot_dir.exists():
            if not snapshot_dir.is_dir():
                problems.append(f"--snapshot-dir {config.snapshot_dir} "
                                f"exists and is not a directory")
            elif not os.access(snapshot_dir, os.W_OK):
                problems.append(f"--snapshot-dir {config.snapshot_dir} "
                                f"is not writable")
        else:
            # start() will mkdir -p; fail fast if no existing ancestor
            # would allow that.
            ancestor = snapshot_dir.parent
            while not ancestor.exists() and ancestor != ancestor.parent:
                ancestor = ancestor.parent
            if not (ancestor.is_dir() and os.access(ancestor, os.W_OK)):
                problems.append(f"--snapshot-dir {config.snapshot_dir} "
                                f"cannot be created (nearest existing "
                                f"ancestor {ancestor} is not a writable "
                                f"directory)")
    return problems


# -- the router --------------------------------------------------------------


class CompletionRouter:
    """HTTP/JSON front door that shards scenes over backend servers.

    The class constants are the tunables no ``repro route`` flag sets.
    """

    #: Per-attempt timeout towards a backend, before any deadline clamp.
    REQUEST_TIMEOUT_S = 120.0
    #: Consecutive connection failures that open a backend's breaker,
    #: and the cooldown before an open breaker admits a half-open probe.
    BREAKER_FAILURES = 5
    BREAKER_RESET_S = 2.0
    #: Retry tokens earned per incoming request (at most this fraction
    #: of traffic can be failover or hedge retries) and the bucket's
    #: burst cap.
    RETRY_BUDGET_RATIO = 0.2
    RETRY_BUDGET_BURST = 10.0
    #: Last-known-good completions kept for degraded answers when every
    #: replica of a scene is down.
    LKG_ENTRIES = 512
    #: Supervisor sweep period: how often dead managed processes are
    #: re-kicked and unhealthy attached backends probed.
    SUPERVISE_INTERVAL_S = 0.25
    #: Hedged retries: when the first attempt outlives ``HEDGE_FACTOR`` ×
    #: its backend's windowed p95 (floored at ``HEDGE_FLOOR_MS`` so a
    #: cold window cannot hedge instantly), one budgeted hedge fires to
    #: the next live sibling replica.  Hedges spend the retry budget's
    #: bucket, so hedge amplification is bounded by
    #: ``RETRY_BUDGET_RATIO`` by construction.  0 disables hedging.
    HEDGE_FACTOR = 2.0
    HEDGE_FLOOR_MS = 50
    #: Latency outlier ejection: a backend whose windowed p95 exceeds
    #: ``EJECT_MULTIPLIER`` × the cohort median (both sides needing at
    #: least ``EJECT_MIN_SAMPLES`` window samples) is demoted in
    #: candidate ordering like a half-open breaker; after
    #: ``EJECT_RESET_S`` it rejoins with a cleared window.
    EJECT_MULTIPLIER = 3.0
    EJECT_MIN_SAMPLES = 16
    EJECT_RESET_S = 5.0
    #: Sustained-skew rebalancing: when the hottest backend's
    #: supervisor-sampled inflight EWMA exceeds ``REBALANCE_SKEW_RATIO``
    #: × the coldest's *and* the absolute gap is at least
    #: ``REBALANCE_MIN_GAP``, continuously for ``REBALANCE_DWELL_S``
    #: seconds, up to ``REBALANCE_MAX_SCENES`` of the hottest backend's
    #: busiest scenes are re-homed onto the coldest owner (journal
    #: re-teach + sticky-session re-home).  A dwell of 0 disables the
    #: automatic policy; the ``rebalance`` admin action still triggers
    #: one pass on demand.
    REBALANCE_SKEW_RATIO = 3.0
    REBALANCE_MIN_GAP = 4.0
    REBALANCE_DWELL_S = 10.0
    REBALANCE_MAX_SCENES = 8
    #: Supervisor-sample smoothing for per-backend inflight load.
    LOAD_EWMA_ALPHA = 0.3
    #: Most per-scene traffic counters kept; beyond this the cold half
    #: is dropped (only the hot entries feed rebalance decisions).
    MAX_SCENE_TRAFFIC = 4096
    #: Most sticky edit-session homes kept (FIFO beyond this).
    MAX_SESSION_HOMES = 1024

    def __init__(self, config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        self.ring = HashRing(self.config.ring_replicas)
        self.journal = SceneJournal(self.config.journal_path)
        self.backends: dict[str, Backend] = {}
        self.requests: Counter = Counter()
        self.errors: Counter = Counter()
        self.reregistrations = 0            # unknown-scene retries served
        self.replayed = 0                   # journal entries re-registered
        self.restarts = 0                   # backend respawns
        self.edits = 0                      # scene deltas forwarded
        self.streams_proxied = 0            # streamed completions proxied
        self.failovers = 0                  # replica attempts failed over
        self.degraded_served = 0            # LKG answers with degraded: true
        self.drains = 0                     # admin drains completed
        self.deadline_exceeded = 0          # budget fast-fails (shed on time)
        self.slow_timeouts = 0              # attempts cut by the clamp
        self.hedges = 0                     # hedged retries fired
        self.hedges_won = 0                 # of which the hedge answered first
        self.ejections = 0                  # latency outliers demoted
        self.rebalances = 0                 # skew-driven scene migrations
        self.adopted = 0                    # results merged from dead siblings
        #: Recent rebalance decisions, oldest first, for stats readers.
        self.rebalance_events: deque = deque(maxlen=32)
        #: scene id -> serve count; feeds hottest-scene selection when a
        #: rebalance fires.  Bounded: beyond the cap the cold half is
        #: dropped (the hot entries are the only ones rebalancing reads).
        self._scene_traffic: Counter = Counter()
        self._skew_since: Optional[float] = None    # monotonic dwell clock
        self.retry_budget = RetryBudget(self.RETRY_BUDGET_RATIO,
                                        self.RETRY_BUDGET_BURST)
        self.lkg = LastKnownGood(self.LKG_ENTRIES)
        self._respawn_tasks: dict[str, asyncio.Task] = {}
        #: backend id -> snapshot adoptions in flight into it; a read
        #: routed there waits for them (see :meth:`_begin_takeover`).
        self._adoptions: dict[str, set] = {}
        self._supervisor_task: Optional[asyncio.Task] = None
        #: scene id -> backend id for delta-edited scenes: an edit leaves
        #: warm incremental state on the backend that applied it, which
        #: the ring (hashing the *new* content id) knows nothing about.
        #: Bounded FIFO; a stale home self-heals through the
        #: unknown-scene re-teach path, because re-teaching registers the
        #: journaled text wherever :meth:`_owner` routed the request.
        self._session_homes: dict[str, str] = {}
        self.started = time.monotonic()
        self._respawn_locks: dict[str, asyncio.Lock] = {}
        self.front = HttpFront({
            ("GET", "/healthz"): self._healthz_payload,
            ("GET", "/v1/stats"): self._stats_payload,
            ("POST", "/v1/register-scene"): self._handle_register,
            ("POST", "/v1/release-scene"): self._handle_release,
            ("POST", "/v1/edit-scene"): self._handle_edit,
            ("POST", "/v1/adopt-snapshot"): self._refuse_adopt,
            ("GET", "/v1/admin/backends"): self._admin_list_payload,
            ("POST", "/v1/admin/backends"): self._handle_admin,
        }, self._complete_one, requests=self.requests, errors=self.errors)
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.config.attach:
            for address in self.config.attach:
                host, _, port = str(address).rpartition(":")
                self._adopt_backend(Backend(
                    backend_id=address, host=host, port=int(port),
                    client=self._client(host, int(port))))
        else:
            if self.config.snapshot_dir is not None:
                Path(self.config.snapshot_dir).mkdir(parents=True,
                                                     exist_ok=True)
            for index in range(self.config.backends):
                await self._spawn_backend(f"b{index}")
        for backend in self.backends.values():
            await wait_until_healthy(backend.client)
            await self._replay_into(backend)
        self.host, self.port = await self.front.start(self.config.host,
                                                      self.config.port)
        self._supervisor_task = asyncio.ensure_future(self._supervise())

    async def serve_forever(self) -> None:
        await self.front.serve_forever()

    async def close(self) -> None:
        await self.front.close()
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            try:
                await self._supervisor_task
            except asyncio.CancelledError:
                pass
            self._supervisor_task = None
        for task in self._respawn_tasks.values():
            if not task.done():
                task.cancel()
        for task in self._respawn_tasks.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass                        # shutting down; outcome moot
        self._respawn_tasks.clear()
        for pending in self._adoptions.values():
            for task in list(pending):
                task.cancel()
        for backend in self.backends.values():
            await backend.client.close()
            if backend.process is not None:
                backend.process.terminate()
        for backend in self.backends.values():
            if backend.process is not None:
                try:
                    backend.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    backend.process.kill()
                    backend.process.wait()

    def _client(self, host: str, port: int) -> AsyncCompletionClient:
        return AsyncCompletionClient(host, port,
                                     timeout=self.REQUEST_TIMEOUT_S)

    def _adopt_backend(self, backend: Backend) -> None:
        backend.breaker = CircuitBreaker(self.BREAKER_FAILURES,
                                         self.BREAKER_RESET_S)
        self.backends[backend.backend_id] = backend
        self.ring.add(backend.backend_id)
        self._respawn_locks[backend.backend_id] = asyncio.Lock()

    def _backend_snapshot_path(self, backend_id: str) -> Optional[str]:
        if self.config.snapshot_dir is None:
            return None
        return str(Path(self.config.snapshot_dir)
                   / f"{backend_id}.snapshot")

    async def _spawn_backend(self, backend_id: str) -> Backend:
        snapshot_path = self._backend_snapshot_path(backend_id)
        loop = asyncio.get_running_loop()
        process, host, port = await loop.run_in_executor(
            None, _spawn_serve_process, snapshot_path,
            self.config.backend_args, backend_id)
        backend = Backend(backend_id=backend_id, host=host, port=port,
                          client=self._client(host, port), process=process,
                          snapshot_path=snapshot_path)
        self._adopt_backend(backend)
        return backend

    # -- supervision ---------------------------------------------------------

    async def _respawn(self, backend: Backend) -> None:
        """Restart a dead managed backend and replay its journal shard.

        Serialised per backend: concurrent requests that all hit the dead
        shard pay one restart between them.  The respawned process
        restores its own snapshot (``repro serve --snapshot``), then the
        journal replay re-registers every scene the ring assigns it —
        restart over, state intact, warm where the snapshot had entries.
        """
        async with self._respawn_locks[backend.backend_id]:
            process = backend.process
            if process is not None and process.poll() is None:
                return                      # a peer already respawned it
            backend.healthy = False
            if process is not None:
                process.wait()              # reap the corpse
            await backend.client.close()
            loop = asyncio.get_running_loop()
            spawn = loop.run_in_executor(
                None, _spawn_serve_process, backend.snapshot_path,
                self.config.backend_args, backend.backend_id)
            try:
                new_process, host, port = await asyncio.shield(spawn)
            except asyncio.CancelledError:
                # close() cancelled the respawn mid-spawn; the child
                # still starts, and nothing else would ever stop it.
                spawn.add_done_callback(_kill_spawned)
                raise
            backend.process = new_process
            backend.host, backend.port = host, port
            backend.client = self._client(host, port)
            backend.restarts += 1
            self.restarts += 1
            await wait_until_healthy(backend.client)
            await self._replay_into(backend)
            backend.healthy = True
            backend.breaker.record_success()    # fresh process, clean slate

    async def _replay_into(self, backend: Backend) -> int:
        """Re-register every journaled scene whose R-owner set contains
        *backend* — with replication > 1 each scene replays into every
        surviving copy of its replica set, not just one primary."""
        replayed = 0
        for entry in self.journal.entries():
            owners = self.ring.route_n(entry.scene_id,
                                       self.config.replication)
            if backend.backend_id not in owners:
                continue
            try:
                await backend.client.register_scene(entry.text,
                                                    name=entry.name)
                replayed += 1
            except ReproError:
                self.errors["replay"] += 1   # scene text rotted; keep going
        self.replayed += replayed
        return replayed

    def _owner(self, scene_id: str) -> Backend:
        candidates = self._candidates(scene_id)
        if not candidates:
            raise ProtocolError("no backends on the ring", code="internal")
        return candidates[0]

    def _candidates(self, scene_id: str) -> list[Backend]:
        """The scene's replica set, best-first.

        The sticky edit-session home (warm incremental state) leads when
        it exists; the ring's R owners follow, healthy ones first, so
        reads land on a live replica even while a sibling is mid-respawn.
        An ejected backend (latency outlier) sorts with the non-closed
        breakers: still a candidate of last resort, never the first
        choice.  Among equally healthy owners the ring order stands:
        every read of a scene goes to its primary, whose result cache
        and per-environment memos it warmed.  Ordering by load instead
        spread one key over both replicas, so each paid the cold
        synthesis, and a recovery read could miss on the replica that
        never computed the key.  Sustained skew is the rebalance
        policy's job and a stalled primary the hedge's.
        """
        ids: list[str] = []
        home = self._session_homes.get(scene_id)
        if home is not None and home in self.backends:
            ids.append(home)
        for owner_id in self.ring.route_n(scene_id,
                                          self.config.replication):
            if owner_id not in ids:
                ids.append(owner_id)
        head = [self.backends[home]] if ids and ids[0] == home else []
        tail = [self.backends[backend_id]
                for backend_id in ids[len(head):]
                if backend_id in self.backends]
        tail.sort(key=lambda b: (not b.healthy,
                                 b.ejected or b.breaker.state != "closed"))
        return head + tail

    def _kick_respawn(self, backend: Backend) -> None:
        """Start a *background* respawn of a dead managed backend.

        The request that found the corpse fails over to a sibling
        replica instead of paying the restart; the respawn task (one per
        backend, serialised by the respawn lock) rebuilds the replica
        off the critical path.
        """
        if not backend.managed or backend.process.poll() is None:
            return
        task = self._respawn_tasks.get(backend.backend_id)
        if task is not None and not task.done():
            return
        task = asyncio.ensure_future(self._respawn(backend))
        task.add_done_callback(self._respawn_task_done)
        self._respawn_tasks[backend.backend_id] = task
        self._begin_takeover(backend)

    def _begin_takeover(self, dead: Backend) -> None:
        """Have every live sibling adopt *dead*'s result-cache snapshot.

        Reads of the dead replica's scenes fail over to its siblings,
        which never computed the keys the dead primary answered; merging
        its snapshot lets them answer those keys warm.  A read routed to
        a sibling first waits for the sibling's adoption
        (:meth:`_await_adoptions`), so a failover never races the merge.
        """
        for sibling in self.backends.values():
            if sibling is dead or not sibling.healthy:
                continue
            task = asyncio.ensure_future(self._adopt(sibling, dead))
            pending = self._adoptions.setdefault(sibling.backend_id, set())
            pending.add(task)
            task.add_done_callback(pending.discard)

    async def _adopt(self, sibling: Backend, dead: Backend) -> None:
        if sibling.snapshot_path is None or dead.snapshot_path is None:
            return
        try:
            response = await sibling.client.adopt_snapshot(dead.backend_id)
        except ReproError:
            self.errors["adopt"] += 1       # reads there simply run cold
            return
        self.adopted += response.get("restored", 0)

    async def _await_adoptions(self, backend: Backend,
                               deadline_at: Optional[float]) -> None:
        pending = self._adoptions.get(backend.backend_id)
        if pending:
            await asyncio.wait(set(pending),
                               timeout=self._attempt_timeout_s(deadline_at))

    def _respawn_task_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        if task.exception() is not None:
            self.errors["respawn"] += 1     # the supervisor sweep re-kicks

    async def _supervise(self) -> None:
        """Background sweep: recover backends that traffic routes around.

        With replicated reads, a corpse stops *receiving* requests the
        moment it is marked unhealthy — so request-driven respawn alone
        can strand it dead forever (and a kick lost to the SIGKILL/
        ``poll()`` race would never be retried).  This loop re-kicks
        dead managed processes and health-probes unhealthy attached
        backends so both kinds rejoin without needing a request to trip
        over them.  The same sweep re-evaluates latency-outlier
        ejections and runs the sustained-skew rebalance policy — gray
        failures are a supervision concern exactly like crashes.
        """
        while True:
            await asyncio.sleep(self.SUPERVISE_INTERVAL_S)
            for backend in list(self.backends.values()):
                if backend.managed:
                    if backend.process.poll() is not None:
                        self._kick_respawn(backend)
                elif not backend.healthy:
                    try:
                        await backend.client.healthz()
                    except ReproError:
                        continue            # still down; next sweep retries
                    backend.healthy = True
                    backend.breaker.record_success()
            self._sweep_ejections(time.monotonic())
            await self._sweep_rebalance(time.monotonic())

    def _sweep_ejections(self, now: float) -> None:
        """Demote latency outliers; readmit served-out ejections.

        A backend whose windowed p95 detaches from the cohort median by
        ``EJECT_MULTIPLIER`` is marked ejected — candidate ordering then
        treats it like a half-open breaker (last resort, not first
        choice).  After ``EJECT_RESET_S`` the mark clears and the
        latency window resets, so readmission is judged on post-recovery
        samples only.  Pure function of window state + *now*: unit
        tests drive it directly with fabricated samples and clocks.
        """
        backends = list(self.backends.values())
        for backend in backends:
            if not backend.ejected:
                continue
            assert backend.ejected_at is not None
            if now - backend.ejected_at >= self.EJECT_RESET_S:
                backend.ejected = False
                backend.ejected_at = None
                backend.latency.reset()
        if len(backends) < 2:
            return
        minimum = self.EJECT_MIN_SAMPLES
        for backend in backends:
            if backend.ejected:
                continue
            if backend.latency.window_count < minimum:
                continue
            mine = backend.latency.quantile(0.95)
            cohort = sorted(
                sibling.latency.quantile(0.95)
                for sibling in backends
                if sibling is not backend
                and sibling.latency.window_count >= minimum)
            if mine is None or not cohort:
                continue
            median = cohort[len(cohort) // 2]
            if median > 0 and mine > self.EJECT_MULTIPLIER * median:
                backend.ejected = True
                backend.ejected_at = now
                self.ejections += 1

    def _note_scene_traffic(self, scene_id: str) -> None:
        self._scene_traffic[scene_id] += 1
        if len(self._scene_traffic) > self.MAX_SCENE_TRAFFIC:
            self._scene_traffic = Counter(dict(
                self._scene_traffic.most_common(
                    self.MAX_SCENE_TRAFFIC // 2)))

    def _skew_pair(self) -> Optional[tuple["Backend", "Backend"]]:
        """(hottest, coldest) by load EWMA when skew exceeds the policy
        thresholds, else None."""
        live = [backend for backend in self.backends.values()
                if backend.healthy and not backend.draining]
        if len(live) < 2:
            return None
        hottest = max(live, key=lambda b: b.load_ewma)
        coldest = min(live, key=lambda b: b.load_ewma)
        gap = hottest.load_ewma - coldest.load_ewma
        ratio_ok = (hottest.load_ewma
                    > self.REBALANCE_SKEW_RATIO * coldest.load_ewma)
        if ratio_ok and gap >= self.REBALANCE_MIN_GAP:
            return hottest, coldest
        return None

    async def _sweep_rebalance(self, now: float) -> None:
        """One tick of the sustained-skew policy (dwell-gated)."""
        if self.REBALANCE_DWELL_S <= 0:
            return
        for backend in self.backends.values():
            backend.load_ewma = (
                self.LOAD_EWMA_ALPHA * backend.inflight
                + (1 - self.LOAD_EWMA_ALPHA) * backend.load_ewma)
        pair = self._skew_pair()
        if pair is None:
            self._skew_since = None
            return
        if self._skew_since is None:
            self._skew_since = now
            return
        if now - self._skew_since < self.REBALANCE_DWELL_S:
            return
        await self._rebalance_once(*pair)

    async def _rebalance_once(self, hot: "Backend",
                              cold: "Backend") -> dict:
        """Re-home up to ``REBALANCE_MAX_SCENES`` of *hot*'s busiest
        scenes onto *cold*.

        Reuses the machinery every other recovery path already trusts:
        the journal re-teaches the scene's text to the cold owner
        (registration is idempotent), then the sticky-session home map
        points the scene there — exactly how drains move edit sessions.
        The hot copy is left in place; eviction reclaims it, and a
        stale copy is harmless because routing follows the home map.
        """
        moved: list[str] = []
        for scene_id, _hits in self._scene_traffic.most_common():
            if len(moved) >= self.REBALANCE_MAX_SCENES:
                break
            candidates = self._candidates(scene_id)
            if not candidates:
                continue
            if candidates[0].backend_id != hot.backend_id:
                continue                    # not this backend's load
            entry = self.journal.lookup_scene(scene_id)
            if entry is None:
                continue                    # nothing durable to re-teach
            try:
                await self._call_fast(cold, lambda c, e=entry:
                                      c.register_scene(e.text, name=e.name))
            except (ProtocolError, ServerError):
                continue                    # cold owner balked; skip scene
            self._remember_home(scene_id, cold.backend_id)
            self._scene_traffic.pop(scene_id, None)     # count afresh
            moved.append(scene_id)
        event = {"from": hot.backend_id, "to": cold.backend_id,
                 "scenes": moved, "at": time.time()}
        if moved:
            self.rebalances += 1
            self.rebalance_events.append(event)
        self._skew_since = None             # moved (or nothing movable):
        return event                        # re-observe before acting again

    async def _call_fast(self, backend: Backend,
                         call: Callable[[AsyncCompletionClient],
                                        Awaitable[dict]]) -> dict:
        """One backend RPC with *no* blocking recovery.

        A connection failure marks the breaker, kicks a background
        respawn, and raises — the caller's ladder fails over to a
        sibling replica instead of waiting out a restart here.
        """
        backend.inflight += 1
        started = time.monotonic()
        try:
            result = await call(backend.client)
        except ClientConnectionError as exc:
            backend.healthy = False
            backend.breaker.record_failure()
            self._kick_respawn(backend)
            raise ProtocolError(
                f"backend {backend.backend_id} unreachable: {exc}",
                code="internal") from exc
        finally:
            backend.inflight -= 1
        backend.latency.record(time.monotonic() - started)
        backend.answered += 1
        backend.healthy = True
        backend.breaker.record_success()
        return result

    def _remember_home(self, scene_id: str, backend_id: str) -> None:
        self._session_homes.pop(scene_id, None)
        self._session_homes[scene_id] = backend_id
        while len(self._session_homes) > self.MAX_SESSION_HOMES:
            self._session_homes.pop(next(iter(self._session_homes)))

    async def _call(self, backend: Backend,
                    call: Callable[[AsyncCompletionClient], Awaitable[dict]]
                    ) -> dict:
        """One backend RPC with crash-respawn-retry for managed shards.

        The *blocking* recovery path: used where there is no sibling
        replica to fail over to (registrations, last-resort completions,
        R=1 topologies) — the first failing request pays the restart
        rather than erroring.  Serialised by the respawn lock, so a
        storm collapses onto one restart.
        """
        try:
            result = await call(backend.client)
            backend.answered += 1
            backend.healthy = True          # answered: recovered if it was down
            backend.breaker.record_success()
            return result
        except ClientConnectionError as exc:
            error: Exception = exc
            backend.breaker.record_failure()
            if backend.managed:
                if backend.process.poll() is None:
                    # The connection broke but the process looks alive —
                    # give a just-killed process a beat to actually die
                    # before deciding which failure this is.
                    await asyncio.sleep(0.2)
                if backend.process.poll() is not None:
                    # The respawn or the retried call can themselves fail
                    # (child dies before listening, respawned process
                    # crashes again); that is still shard infrastructure
                    # down, never a client error — fall through to the
                    # 'internal' wrap below rather than letting a bare
                    # ClientConnectionError surface as a 400.
                    try:
                        await self._respawn(backend)
                        result = await call(backend.client)
                        backend.breaker.record_success()
                        return result
                    except ClientConnectionError as retry_exc:
                        backend.breaker.record_failure()
                        error = retry_exc
            backend.healthy = False
            raise ProtocolError(
                f"backend {backend.backend_id} unreachable: {error}",
                code="internal") from error

    # -- endpoint: register-scene --------------------------------------------

    async def _handle_register(self, payload) -> dict:
        request = RegisterSceneRequest.from_payload(payload)
        return await self.register_text(request.text, request.name)

    async def register_text(self, text: str,
                            name: Optional[str] = None) -> dict:
        """Register one scene on every backend in its replica set.

        The routing key — the content-derived scene id — only exists
        after a backend has prepared the scene, so new text is first
        registered on a deterministic *probe* backend (hash of the text
        digest).  Once the id is known, the scene is registered on all R
        ring owners and released from the probe when it is neither one of
        them nor the scene's edit-session home, whose copy is the warm
        one reads go to first; the journal then remembers digest → scene
        id, so every later registration and inline completion of the same
        text routes straight to the owners.
        """
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        known = self.journal.lookup_digest(digest)
        if known is not None:
            return await self._register_on_owners(known.scene_id, text,
                                                  name)

        probe = self.backends[self.ring.route(_DIGEST_KEY_PREFIX + digest)]
        response = await self._call(
            probe, lambda c: c.register_scene(text, name=name))
        scene_id = response["scene_id"]
        owner_ids = self.ring.route_n(scene_id, self.config.replication)
        if (probe.backend_id not in owner_ids
                and self._session_homes.get(scene_id) != probe.backend_id):
            try:                            # de-home the probe's stray copy
                await probe.client.release_scene(scene_id)
            except (ReproError, ClientConnectionError):
                pass                        # best-effort; eviction covers it
        self.journal.record(digest=digest, scene_id=scene_id,
                            name=name or response.get("name"), text=text)
        try:
            return await self._register_on_owners(
                scene_id, text, name, placed=(probe.backend_id, response))
        except ProtocolError:
            # Every owner is down right now: the registration is still
            # durable (journal) and valid (the probe prepared it) — the
            # replay/re-teach paths finish placement when owners return.
            return response

    async def _register_on_owners(
            self, scene_id: str, text: str, name: Optional[str],
            placed: Optional[tuple[str, dict]] = None) -> dict:
        """Register *text* on each replica-set backend; first response
        wins, later copies are best-effort (a dead sibling is re-taught
        by journal replay when it respawns).

        *placed* is ``(backend id, response)`` of a backend that has just
        registered the text: when it is an owner, its response fills its
        slot and it is not sent the text again — a second copy would
        only answer a digest hit (``cached: true``) for a fresh scene.
        """
        response: Optional[dict] = None
        last_error: Optional[ProtocolError] = None
        for backend in self._candidates(scene_id):
            if placed is not None and backend.backend_id == placed[0]:
                response = response or placed[1]
                continue
            try:
                if response is None:
                    response = await self._call(
                        backend, lambda c: c.register_scene(text, name=name))
                else:
                    await self._call_fast(
                        backend, lambda c: c.register_scene(text, name=name))
            except ProtocolError as error:
                if error.code != "internal":
                    raise                   # scene itself is bad: surface it
                last_error = error
        if response is None:
            raise last_error or ProtocolError("no backends on the ring",
                                              code="internal")
        return response

    # -- endpoint: complete --------------------------------------------------

    async def _resolve_scene_id(self, request: CompleteRequest) -> str:
        """The routing key for one completion request.

        Inline scene text resolves to a scene id first (journal hit is a
        dict lookup; miss pays one registration) so the query routes by
        the same key every time.
        """
        if request.scene_id is not None:
            return request.scene_id
        digest = hashlib.sha256(request.scene.encode("utf-8")).hexdigest()
        entry = self.journal.lookup_digest(digest)
        if entry is None:
            registered = await self.register_text(request.scene, None)
            return registered["scene_id"]
        return entry.scene_id

    @staticmethod
    def _lkg_key(scene_id: str, request: CompleteRequest) -> tuple:
        # Context hints DO key the LKG store (unlike the backend result
        # cache): LKG replays full serialized *responses*, whose snippet
        # order already reflects the hints they were served with.
        context = (None if request.context is None
                   else tuple(sorted(request.context.to_payload().items())))
        return (scene_id, request.goal, request.variant, request.n,
                request.deadline_ms, context)

    # -- end-to-end deadline arithmetic --------------------------------------

    @staticmethod
    def _deadline_at(request: CompleteRequest) -> Optional[float]:
        """The absolute (monotonic) instant this request's budget dies.

        Computed once at ingress from the client-stamped ``budget_ms``;
        every downstream clamp and hop re-derives *remaining* budget
        from this single anchor, so retries and hedges can never renew
        the budget.
        """
        if request.budget_ms is None:
            return None
        return time.monotonic() + request.budget_ms / 1000.0

    @staticmethod
    def _remaining_budget_ms(deadline_at: Optional[float]) -> Optional[int]:
        """Whole milliseconds of budget left; clamped at 0, never None
        for a budgeted request."""
        if deadline_at is None:
            return None
        return max(0, int((deadline_at - time.monotonic()) * 1000))

    def _fail_fast_if_spent(self, deadline_at: Optional[float]) -> None:
        """A spent budget is refused *before* dispatch — the client
        already stopped caring, so burning a backend slot (or a retry
        token) on the answer is pure waste."""
        if deadline_at is None:
            return
        if deadline_at - time.monotonic() <= 0:
            self.deadline_exceeded += 1
            raise ProtocolError(
                "end-to-end budget spent before dispatch",
                code="deadline_exceeded")

    def _attempt_timeout_s(self, deadline_at: Optional[float]) -> float:
        """Per-attempt timeout: ``min(REQUEST_TIMEOUT_S, remaining)``."""
        if deadline_at is None:
            return self.REQUEST_TIMEOUT_S
        return min(self.REQUEST_TIMEOUT_S,
                   max(deadline_at - time.monotonic(), 0.0))

    async def _complete_one(self, request: CompleteRequest,
                            wire: Optional[_StreamWire] = None) -> dict:
        """Serve one completion through the replica ladder.

        With a *wire* the completion is proxied as a stream: the ladder's
        RPC opens the backend stream and pulls its first chunk, so a
        stream gets the unary read's budget, hedge, failover, re-teach
        and degraded rungs, and every backend failure before that chunk
        is still an HTTP error upstream.  Later chunks are relayed as the
        backend emits them; the ``done`` chunk is returned for the
        caller to write.
        """
        scene_id = await self._resolve_scene_id(request)
        deadline_at = self._deadline_at(request)
        key = self._lkg_key(scene_id, request)

        def hop() -> dict:
            # Re-derived per attempt: each hop sees only what is left.
            # Priority and context hints ride every attempt, so failover
            # and hedge retries shed and rank exactly like the first try.
            return dict(goal=request.goal, variant=request.variant,
                        n=request.n, deadline_ms=request.deadline_ms,
                        budget_ms=self._remaining_budget_ms(deadline_at),
                        priority=request.priority, context=request.context)

        if wire is None:
            async def complete(client: AsyncCompletionClient) -> dict:
                response = await client.complete(scene_id, **hop())
                if response.get("ok") and not response.get("partial"):
                    self.lkg.remember(key, response)
                return response

            return await self._serve_with_failover(
                scene_id, key, complete,
                lambda cached: {**cached, "degraded": True}, deadline_at)

        async def open_stream(client: AsyncCompletionClient) -> tuple:
            stream = client.complete_stream(scene_id, **hop())
            return stream, await stream.__anext__()

        stream, chunk = await self._serve_with_failover(
            scene_id, key, open_stream, self._degraded_stream, deadline_at)
        self.streams_proxied += 1
        try:
            while chunk["chunk"] != "done":
                await wire.send(chunk)
                chunk = await stream.__anext__()
        finally:
            await stream.aclose()
        return chunk

    async def _attempt_backend(self, backend: Backend, scene_id: str,
                               call: Callable[[AsyncCompletionClient],
                                              Awaitable],
                               rpc: Optional[Callable] = None):
        """One backend attempt, with the journal re-teach for a backend
        that is alive but lost the scene (eviction, unsupervised
        restart) — invisible upstream.

        *rpc* carries each call: :meth:`_call_fast` (the default; a
        dead backend fails the attempt so the ladder can fail over) or
        :meth:`_call` (blocking respawn-and-retry, where there is no
        sibling to fail over to).
        """
        rpc = rpc or self._call_fast
        try:
            return await rpc(backend, call)
        except SceneNotFoundError:
            entry = self.journal.lookup_scene(scene_id)
            if entry is None:
                raise                       # never registered through us
            self.reregistrations += 1
            await rpc(backend, lambda c: c.register_scene(
                entry.text, name=entry.name))
            return await rpc(backend, call)

    async def _attempt_timed(self, backend: Backend, scene_id: str,
                             call: Callable[[AsyncCompletionClient],
                                            Awaitable],
                             deadline_at: Optional[float]):
        """One replica attempt under the budget-clamped timeout.

        The clamp is ``min(REQUEST_TIMEOUT_S, remaining_budget)`` — a
        SIGSTOP'd backend can hold an attempt for at most the smaller
        of the two, never the flat 120 s.  A cut attempt still records
        its elapsed time into the backend's latency window (slowness
        must show up even when nothing returns) and surfaces as
        ``deadline_exceeded`` when the budget is what expired, or as an
        ordinary failover-able ``internal`` otherwise.
        """
        timeout = self._attempt_timeout_s(deadline_at)
        started = time.monotonic()
        try:
            return await asyncio.wait_for(
                self._attempt_backend(backend, scene_id, call), timeout)
        except asyncio.TimeoutError:
            backend.latency.record(time.monotonic() - started)
            self.slow_timeouts += 1
            if deadline_at is not None and time.monotonic() >= deadline_at:
                self.deadline_exceeded += 1
                raise ProtocolError(
                    f"backend {backend.backend_id} outlived the "
                    f"remaining end-to-end budget",
                    code="deadline_exceeded") from None
            raise ProtocolError(
                f"backend {backend.backend_id} exceeded the "
                f"{timeout:.3f}s per-attempt timeout",
                code="internal") from None

    def _hedge_delay_s(self, backend: Backend,
                       deadline_at: Optional[float]) -> Optional[float]:
        """How long the first attempt may run before a hedge fires.

        Percentile-derived — ``HEDGE_FACTOR`` × the backend's windowed
        p95, floored at ``HEDGE_FLOOR_MS`` so an empty window cannot
        hedge every request — and budget-bounded: with a live deadline
        the hedge fires no later than half the remaining budget, so the
        hedge itself still has budget to run in.  ``None`` = disabled.
        """
        if self.HEDGE_FACTOR <= 0:
            return None
        p95 = backend.latency.quantile(0.95)
        delay = max(self.HEDGE_FLOOR_MS / 1000.0,
                    (p95 or 0.0) * self.HEDGE_FACTOR)
        if deadline_at is not None:
            remaining = max(deadline_at - time.monotonic(), 0.0)
            delay = min(delay, remaining / 2)
        return delay

    @staticmethod
    def _settle_task(task: "asyncio.Task") -> None:
        """Cancel a losing hedge arm — which closes its backend
        connection, a stream it has opened included — and keep its
        eventual exception from tripping the event loop's
        never-retrieved warning."""
        task.cancel()
        task.add_done_callback(
            lambda t: t.cancelled() or t.exception())

    async def _attempt_hedged(self, backend: Backend,
                              siblings: Sequence[Backend], scene_id: str,
                              call: Callable[[AsyncCompletionClient],
                                             Awaitable],
                              deadline_at: Optional[float]):
        """The first ladder rung, with a budget-bounded hedge.

        If the primary attempt outlives the percentile-derived hedge
        delay while its backend answers nothing, and the next live
        sibling replica carries fewer calls than the primary, one hedge
        fires to that sibling — *spending a retry-budget token*, so
        hedge volume is bounded by the same bucket as failovers.
        Otherwise the attempt waits another delay: a backend that
        answered other calls is busy, not stalled, and a sibling at
        least as loaded would only queue a duplicate synthesis behind
        its own work.  First success wins; the loser is cancelled.
        When both arms fail, the primary's error surfaces (the ladder's
        failover handling takes it from there).
        """
        delay = self._hedge_delay_s(backend, deadline_at)
        sibling = next(
            (candidate for candidate in siblings
             if candidate.healthy and not candidate.ejected
             and candidate.breaker.state == "closed"), None)
        primary = asyncio.ensure_future(
            self._attempt_timed(backend, scene_id, call, deadline_at))
        if delay is None or sibling is None:
            return await primary
        while True:
            answered = backend.answered
            done, _ = await asyncio.wait({primary}, timeout=delay)
            if primary in done:
                return primary.result()
            if (backend.answered == answered
                    and sibling.inflight < backend.inflight):
                break                       # stalled, and the sibling has room
        if not self.retry_budget.try_spend():
            return await primary            # bucket dry: no hedge today
        self.hedges += 1
        secondary = asyncio.ensure_future(
            self._attempt_timed(sibling, scene_id, call, deadline_at))
        pending = {primary, secondary}
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                if task.exception() is None:
                    for loser in pending:
                        self._settle_task(loser)
                    if task is secondary:
                        self.hedges_won += 1
                    return task.result()
        return primary.result()             # both failed: primary's error

    async def _serve_with_failover(self, scene_id: str, key: tuple,
                                   call: Callable[[AsyncCompletionClient],
                                                  Awaitable],
                                   degraded: Callable[[dict], object],
                                   deadline_at: Optional[float] = None):
        """The read path: healthiest replica first, instant failover.

        *call* is one attempt's RPC: a unary completion, or a stream
        opened up to its first chunk.  The ladder tries each replica-set
        backend in best-first order; a connection failure kicks a
        background respawn and moves on to the sibling.  Attempts beyond
        the first spend the router's retry budget — a storm against a
        dead shard is bounded by construction.
        A budgeted request is refused outright once its budget is spent
        (``deadline_exceeded``; never retried), each attempt runs under
        the budget-clamped timeout, and the first rung may hedge to a
        sibling when the primary turns out slow.  When every replica is
        down the last-known-good answer under *key* is rendered by
        *degraded* (marked ``degraded: true``); with nothing cached the
        preferred owner pays a blocking respawn-and-retry (the
        pre-replication behaviour), so R=1 topologies and cold scenes
        still recover without a client-visible error.
        """
        self.retry_budget.on_request()
        self._note_scene_traffic(scene_id)
        self._fail_fast_if_spent(deadline_at)
        candidates = self._candidates(scene_id)
        attempts = 0
        last_error: Optional[ProtocolError] = None
        for index, backend in enumerate(candidates):
            if len(candidates) > 1 and not backend.breaker.allow():
                continue                    # open circuit: skip the corpse
            if attempts:
                self._fail_fast_if_spent(deadline_at)
                if not self.retry_budget.try_spend():
                    break                   # budget spent: stop hammering
            attempts += 1
            await self._await_adoptions(backend, deadline_at)
            try:
                if attempts == 1:
                    return await self._attempt_hedged(
                        backend, candidates[index + 1:], scene_id, call,
                        deadline_at)
                return await self._attempt_timed(backend, scene_id, call,
                                                 deadline_at)
            except ProtocolError as error:
                if error.code != "internal":
                    raise                   # backend answered: not a failover
                last_error = error
                self.failovers += 1
        cached = self.lkg.get(key)
        if cached is not None:
            self.degraded_served += 1
            return degraded(cached)
        if not candidates:
            raise last_error or ProtocolError("no backends on the ring",
                                              code="internal")
        self._fail_fast_if_spent(deadline_at)   # a blocking respawn is
        return await self._attempt_backend(     # never worth a dead budget
            candidates[0], scene_id, call, rpc=self._call)

    @staticmethod
    def _degraded_stream(payload: dict) -> tuple:
        """A last-known-good answer as an opened stream: ``(rest, first
        chunk)``, like the stream RPC's result.

        Mirrors the backend's wire shape — one ``snippet`` chunk per
        snippet, then a ``done`` summary — with ``degraded: true`` on
        the summary, so streaming clients degrade exactly like unary
        ones when every replica is down.
        """
        chunks = [{"v": protocol.PROTOCOL_VERSION, "chunk": "snippet",
                   **snippet} for snippet in payload.get("snippets") or []]
        chunks.append(protocol.stream_done_chunk({**payload,
                                                  "degraded": True}))

        async def rest():
            for chunk in chunks[1:]:
                yield chunk

        return rest(), chunks[0]

    # -- endpoint: edit-scene ------------------------------------------------

    async def _handle_edit(self, payload) -> dict:
        """Forward declaration deltas to the scene's owner and journal
        the result.

        The edit must run where the prepared state lives (the old scene's
        owner — or its sticky home, if it was itself produced by edits).
        The response's canonical ``text`` is journaled as a plain
        registration under the *new* scene id, so a respawned replica
        replays straight to the delta-edited state; the new id is then
        sticky-homed to the backend holding the warm incremental state,
        since the ring — hashing the new content id — would route
        follow-up queries elsewhere.
        """
        request = EditSceneRequest.from_payload(payload)
        backend = self._owner(request.scene_id)

        def call(client: AsyncCompletionClient) -> Awaitable[dict]:
            return client.edit_scene(request.scene_id, list(request.ops),
                                     name=request.name)

        response = await self._attempt_backend(backend, request.scene_id,
                                               call, rpc=self._call)
        self.edits += 1
        text = response.get("text")
        scene_id = response.get("scene_id")
        if isinstance(text, str) and isinstance(scene_id, str):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.journal.record(digest=digest, scene_id=scene_id,
                                name=response.get("name"), text=text)
            self._remember_home(scene_id, backend.backend_id)
        return response

    # -- endpoint: release-scene ---------------------------------------------

    async def _handle_release(self, payload) -> dict:
        request = ReleaseSceneRequest.from_payload(payload)
        candidates = self._candidates(request.scene_id)
        self._session_homes.pop(request.scene_id, None)
        journaled = self.journal.remove(request.scene_id)
        self.lkg.purge_scene(request.scene_id)  # released means *gone*
        released = False
        last_error: Optional[ProtocolError] = None
        for backend in candidates:          # every replica holds a copy
            try:
                response = await self._call_fast(
                    backend, lambda c: c.release_scene(request.scene_id))
                released = released or bool(response.get("released"))
            except ProtocolError as error:
                if error.code != "internal":
                    raise
                last_error = error
        if last_error is not None and not released and not journaled:
            raise last_error
        # An unreachable shard with a durable tombstone still counts as
        # released: the scene will not be replayed into any future
        # replica, which is the client-visible meaning of "released".
        return protocol.ok_payload(scene_id=request.scene_id,
                                   released=released or journaled)

    # -- endpoint: adopt-snapshot --------------------------------------------

    def _refuse_adopt(self, payload) -> dict:
        """A router holds no result cache to merge into: its backends
        adopt each other's snapshots when one dies (see
        :meth:`_begin_takeover`)."""
        raise ProtocolError("adopt-snapshot is a backend endpoint; the "
                            "router runs it on its backends itself")

    # -- endpoint: admin backends --------------------------------------------

    def _admin_list_payload(self) -> dict:
        return protocol.ok_payload(
            backends=[backend.describe()
                      for backend in self.backends.values()],
            replication=self.config.replication,
            ring={"replicas": self.ring.replicas, "size": len(self.ring)},
            retry_budget=self.retry_budget.describe(),
            journal_scenes=len(self.journal))

    async def _handle_admin(self, payload) -> dict:
        """Live elasticity over the already-safe ring + journal-replay
        path: ``add`` spawns (or attaches) a backend and replays its
        shard into it; ``drain`` takes a backend off the ring and moves
        its scenes — sticky edit-sessions included — onto the remaining
        owners; ``remove`` drains (if needed) and tears the process
        down.  Requests in flight during a drain finish against the
        drained backend (it keeps serving until removal)."""
        request = protocol.AdminBackendsRequest.from_payload(payload)
        if request.action == "add":
            return await self._admin_add(request)
        if request.action == "rebalance":
            return await self._admin_rebalance()
        backend = self.backends.get(request.backend_id)
        if backend is None:
            raise ProtocolError(
                f"unknown backend {request.backend_id!r}", code="not_found")
        if request.action == "drain":
            moved = await self._admin_drain(backend)
            return protocol.ok_payload(backend=backend.describe(),
                                       **moved)
        if backend.draining:                # already off the ring
            moved = {"replayed": 0, "moved_sessions": 0}
        else:
            moved = await self._admin_drain(backend)
        await self._admin_remove(backend)
        return protocol.ok_payload(backend_id=request.backend_id,
                                   removed=True, **moved)

    async def _admin_add(self, request) -> dict:
        taken = set(self.backends)
        index = 0
        while f"b{index}" in taken:
            index += 1
        backend_id = request.backend_id or f"b{index}"
        if backend_id in self.backends:
            raise ProtocolError(f"backend {backend_id!r} already exists",
                                code="bad_request")
        if request.address is not None:
            host, _, port = request.address.rpartition(":")
            backend = Backend(backend_id=backend_id, host=host,
                              port=int(port),
                              client=self._client(host, int(port)))
            self._adopt_backend(backend)
        elif self.config.attach:
            raise ProtocolError(
                "an attach-mode router cannot spawn backends; pass an "
                "address to add one", code="bad_request")
        else:
            backend = await self._spawn_backend(backend_id)
        try:
            await wait_until_healthy(backend.client)
        except ClientConnectionError as exc:
            await self._admin_remove(backend)   # roll the adoption back
            raise ProtocolError(
                f"new backend {backend_id!r} never became healthy: {exc}",
                code="internal") from exc
        replayed = await self._replay_into(backend)
        return protocol.ok_payload(backend=backend.describe(),
                                   replayed=replayed)

    async def _admin_rebalance(self) -> dict:
        """Force one rebalance pass now (no dwell wait).

        Hot/cold selection for the manual trigger is by observed scene
        traffic share — deterministic under test and meaningful even
        between supervisor sweeps, when the inflight EWMA may not have
        caught up yet.
        """
        live = [backend for backend in self.backends.values()
                if backend.healthy and not backend.draining]
        if len(live) < 2:
            raise ProtocolError("rebalance needs at least two live "
                                "backends", code="bad_request")
        shares: Counter = Counter(
            {backend.backend_id: 0 for backend in live})
        for scene_id, hits in self._scene_traffic.items():
            candidates = self._candidates(scene_id)
            if candidates and candidates[0].backend_id in shares:
                shares[candidates[0].backend_id] += hits
        hot = max(live, key=lambda b: shares[b.backend_id])
        cold = min(live, key=lambda b: shares[b.backend_id])
        if hot.backend_id == cold.backend_id:
            raise ProtocolError("no traffic skew to rebalance",
                                code="bad_request")
        event = await self._rebalance_once(hot, cold)
        return protocol.ok_payload(moved=len(event["scenes"]), **event)

    async def _admin_drain(self, backend: Backend) -> dict:
        """Take *backend* off the ring and re-home its state.

        After ``ring.remove`` the journal replay re-registers every
        scene on its new owners (registration is idempotent, so scenes
        already resident elsewhere are cheap no-ops); sticky
        edit-session homes pointing at the drained backend are moved to
        the scene's new preferred owner, re-taught from the journal so
        the session keeps answering — on a cold replica, but correctly.
        """
        if len(self.ring) <= 1 and backend.backend_id in self.ring.backends:
            raise ProtocolError("cannot drain the last backend",
                                code="bad_request")
        self.ring.remove(backend.backend_id)
        backend.draining = True
        replayed = 0
        for sibling in self.backends.values():
            if sibling.backend_id == backend.backend_id:
                continue
            try:
                replayed += await self._replay_into(sibling)
            except ProtocolError:
                self.errors["replay"] += 1  # sibling down; respawn replays
        moved_sessions = 0
        for scene_id, home in list(self._session_homes.items()):
            if home != backend.backend_id:
                continue
            entry = self.journal.lookup_scene(scene_id)
            new_home = self.backends[self.ring.route(scene_id)]
            if entry is not None:
                try:
                    await self._call_fast(new_home, lambda c:
                                          c.register_scene(entry.text,
                                                           name=entry.name))
                except ProtocolError:
                    pass                    # re-teach on first query instead
            self._session_homes[scene_id] = new_home.backend_id
            moved_sessions += 1
        self.drains += 1
        return {"replayed": replayed, "moved_sessions": moved_sessions}

    async def _admin_remove(self, backend: Backend) -> None:
        self.ring.remove(backend.backend_id)
        self.backends.pop(backend.backend_id, None)
        self._respawn_locks.pop(backend.backend_id, None)
        task = self._respawn_tasks.pop(backend.backend_id, None)
        if task is not None and not task.done():
            task.cancel()
        await backend.client.close()
        if backend.process is not None:
            backend.process.terminate()
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, backend.process.wait, 10)
            except subprocess.TimeoutExpired:
                backend.process.kill()
                await loop.run_in_executor(None, backend.process.wait)

    # -- endpoints: stats / health -------------------------------------------

    def _healthz_payload(self) -> dict:
        return protocol.ok_payload(
            status="ok",
            uptime_s=round(time.monotonic() - self.started, 3),
            backends=[backend.describe()
                      for backend in self.backends.values()])

    def _router_section(self) -> dict:
        return {
            "backends": len(self.backends),
            "healthy": sum(1 for backend in self.backends.values()
                           if backend.healthy),
            "ring": {"replicas": self.ring.replicas,
                     "points": len(self.ring) * self.ring.replicas},
            "journal": {"scenes": len(self.journal),
                        "durable": self.journal.path is not None,
                        "corrupt_lines": self.journal.corrupt_lines},
            "requests": dict(self.requests),
            "errors": dict(self.errors),
            "reregistrations": self.reregistrations,
            "replayed": self.replayed,
            "restarts": self.restarts,
            "adopted": self.adopted,
            "edits": self.edits,
            "streams_proxied": self.streams_proxied,
            "session_homes": len(self._session_homes),
            "replication": self.config.replication,
            "failovers": self.failovers,
            "degraded_served": self.degraded_served,
            "drains": self.drains,
            "retry_budget": self.retry_budget.describe(),
            "lkg_entries": len(self.lkg),
            "breakers": {backend_id: backend.breaker.describe()
                         for backend_id, backend in self.backends.items()},
            # Gray-failure instrumentation: budget sheds, clamp cuts,
            # hedge volume/wins, latency-outlier ejections and the
            # skew-rebalance history — the signals the slow-backend
            # chaos report reads back.
            "deadline_exceeded": self.deadline_exceeded,
            "slow_timeouts": self.slow_timeouts,
            "hedges": {"fired": self.hedges, "won": self.hedges_won},
            "ejections": self.ejections,
            "ejected": sorted(backend_id
                              for backend_id, backend
                              in self.backends.items() if backend.ejected),
            "backend_latency": {
                backend_id: backend.latency.snapshot()
                for backend_id, backend in self.backends.items()},
            "rebalances": self.rebalances,
            "rebalance_events": list(self.rebalance_events),
        }

    async def _stats_payload(self) -> dict:
        """One merged view over every backend's ``/v1/stats``.

        Counters are summed (the merged ``server`` section therefore
        equals the arithmetic sum of the per-backend counters), latency
        windows are merged exactly — each shard's window is rebuilt from
        its microsecond counts and the counts summed, so merged
        percentiles and max are those of the union of the windows — and
        the untouched per-backend payloads ride along under ``shards``.
        """
        async def _fetch(backend: Backend):
            try:
                stats = await backend.client.stats()
                backend.healthy = True
                return backend, stats, None
            except (ReproError, ClientConnectionError) as exc:
                backend.healthy = False
                return backend, None, str(exc)

        fetched = await asyncio.gather(*(
            _fetch(backend) for backend in self.backends.values()))
        shards = []
        payloads = []
        for backend, stats, error in fetched:
            shard = backend.describe()
            if stats is None:
                shard["error"] = error
            else:
                shard["stats"] = {key: value for key, value in stats.items()
                                  if key not in ("v", "ok")}
                payloads.append(stats)
            shards.append(shard)
        merged_server = _merge_server_sections(
            [payload.get("server", {}) for payload in payloads])
        merged_engine = _sum_numeric_sections(
            [payload.get("engine", {}) for payload in payloads])
        result_stats = merged_engine.get("result_stats")
        if isinstance(result_stats, dict):
            # Rates do not sum; recompute from the summed counters.
            lookups = (result_stats.get("hits", 0)
                       + result_stats.get("misses", 0))
            result_stats["hit_rate"] = (
                round(result_stats.get("hits", 0) / lookups, 4)
                if lookups else 0.0)
        merged_executor = _sum_numeric_sections(
            [payload.get("executor", {}) for payload in payloads])
        merged_core = _sum_numeric_sections(
            [payload.get("core", {}) for payload in payloads])
        merged_scenes = _sum_numeric_sections(
            [{key: value
              for key, value in payload.get("scenes", {}).items()
              if key != "scenes"}         # counts only, not per-scene rows
             for payload in payloads])
        return protocol.ok_payload(
            server=merged_server,
            engine=merged_engine,
            executor=merged_executor,
            core=merged_core,
            scenes=merged_scenes,
            router=self._router_section(),
            shards=shards,
        )


# -- stats merging -----------------------------------------------------------


def _sum_numeric_sections(sections: list) -> dict:
    """Recursively sum numeric leaves across parallel dicts.

    Non-numeric leaves keep the first non-None value seen; missing keys
    are treated as absent, not zero.  Used for the ``engine``/``core``
    sections, whose leaves are counters or capacities — both meaningfully
    summable across shard processes (total entries, total capacity).
    """
    merged: dict = {}
    for section in sections:
        if not isinstance(section, dict):
            continue
        for key, value in section.items():
            if isinstance(value, dict):
                merged[key] = _sum_numeric_sections(
                    [merged.get(key, {}), value])
            elif isinstance(value, bool):
                merged[key] = merged.get(key) or value
            elif isinstance(value, (int, float)):
                base = merged.get(key)
                merged[key] = (base + value
                               if isinstance(base, (int, float)) else value)
            elif key not in merged or merged[key] is None:
                merged[key] = value
    return merged


def _merge_server_sections(sections: list) -> dict:
    """Merge backend ``server`` metric sections into one summed view."""
    merged = _sum_numeric_sections(
        [{key: value for key, value in section.items()
          if key not in ("latency", "uptime_s", "queue")}
         for section in sections])
    merged["uptime_s"] = max(
        (section.get("uptime_s", 0.0) for section in sections),
        default=0.0)
    merged["queue"] = _sum_numeric_sections(
        [section.get("queue", {}) for section in sections])
    names = {name for section in sections
             for name in section.get("latency", {})}
    merged["latency"] = {
        name: LatencyWindow.from_snapshots(
            section.get("latency", {}).get(name, {})
            for section in sections).snapshot()
        for name in sorted(names)}
    return merged
