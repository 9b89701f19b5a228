"""The sharded completion router: one front door, many backends.

``repro route`` supervises N backend completion servers (each a full
:class:`~repro.server.server.AsyncCompletionServer` process) and speaks
the *existing* versioned HTTP/JSON protocol on both sides — clients
already address scenes by content-derived ids, so sharding drops in with
zero wire changes.  The pieces:

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
  (count summed, mean weighted, percentiles conservatively maxed) — with
  the per-shard truth under ``shards`` and the router's own counters
  under ``router``.
* **Replicated placement** (:meth:`HashRing.route_n`): every scene is
  journaled to R distinct ring owners (``replication``, default 2);
  reads go to the healthiest/least-loaded owner and fail over to a
  sibling replica instantly when one dies — the dead replica respawns
  in the background instead of stalling the request that found it.
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
import hashlib
import json
import os
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
from repro.server.metrics import percentile
from repro.server.protocol import (CompleteRequest, EditSceneRequest,
                                   ProtocolError, RegisterSceneRequest,
                                   ReleaseSceneRequest)
from repro.server.server import (AsyncCompletionServer, _HttpError,
                                 _HttpRequest, _http_response, _stream_head,
                                 _stream_request_payload, read_http_request)

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


class LatencyTracker:
    """Per-backend service-time window + EWMA feeding the gray-failure
    defences.

    The bounded sample window yields the p95 that drives outlier
    ejection and the hedge threshold; the EWMA is the cheap trend line
    operators read off ``/healthz``.  A SIGSTOP'd backend never
    *completes* calls, so its window is fed by the budget-clamped
    timeouts it causes — slowness shows up here even when no call ever
    returns.  ``reset`` clears the window (keeping the lifetime count)
    so a recovered backend re-qualifies on fresh data instead of being
    haunted by its stalled past.
    """

    def __init__(self, window: int = 128, alpha: float = 0.2):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be within (0, 1], got {alpha}")
        self._samples: deque = deque(maxlen=window)
        self.alpha = alpha
        self.ewma_ms: Optional[float] = None
        self.count = 0                      # lifetime samples recorded

    def record(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self._samples.append(ms)
        self.count += 1
        self.ewma_ms = (ms if self.ewma_ms is None
                        else self.alpha * ms + (1 - self.alpha) * self.ewma_ms)

    @property
    def window_count(self) -> int:
        return len(self._samples)

    def percentile(self, fraction: float) -> Optional[float]:
        """The *fraction*-quantile (0..1) of the window, in ms, or None."""
        return percentile(self._samples, fraction)

    def reset(self) -> None:
        self._samples.clear()
        self.ewma_ms = None

    def describe(self) -> dict:
        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 3)

        return {
            "count": self.count,
            "window": len(self._samples),
            "ewma_ms": _round(self.ewma_ms),
            "p50_ms": _round(self.percentile(0.50)),
            "p95_ms": _round(self.percentile(0.95)),
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
    latency: LatencyTracker = field(default_factory=LatencyTracker)
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
            "latency": self.latency.describe(),
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
    child's output.  Shared by the router's backend supervision and the
    smoke harness — one spawn protocol, zero drift.
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
    """Knobs for one :class:`CompletionRouter`."""

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
    #: (e.g. ``("--workers", "2")``).
    backend_args: tuple = ()
    #: Per-request timeout towards backends.
    request_timeout: float = 120.0
    read_timeout: float = 60.0
    #: Distinct ring owners per scene (clamped to the live backend
    #: count).  R=2 means one SIGKILL never stalls a scene: a sibling
    #: replica already holds it.
    replication: int = 2
    #: Consecutive connection failures that open a backend's breaker.
    breaker_failures: int = 5
    #: Cooldown before an open breaker admits a half-open probe.
    breaker_reset_s: float = 2.0
    #: Retry tokens earned per incoming request (≤ this fraction of
    #: traffic can be failover retries) and the bucket's burst cap.
    retry_budget_ratio: float = 0.2
    retry_budget_burst: float = 10.0
    #: Last-known-good completion cache entries kept for degraded
    #: answers when every replica of a scene is down.
    lkg_entries: int = 512
    #: Supervisor sweep period: how often dead managed processes are
    #: re-kicked and unhealthy attached backends probed.
    supervise_interval_s: float = 0.25
    #: Hedged retries: when the first attempt outlives
    #: ``hedge_factor`` × its backend's windowed p95 (floored at
    #: ``hedge_floor_ms`` so a cold window cannot hedge instantly), one
    #: budgeted hedge fires to the next live sibling replica.  Hedges
    #: spend the same retry-budget token bucket as failovers, so hedge
    #: amplification is bounded by ``retry_budget_ratio`` by
    #: construction.  ``hedge_factor=0`` disables hedging.
    hedge_factor: float = 2.0
    hedge_floor_ms: int = 50
    #: Latency outlier ejection: a backend whose windowed p95 exceeds
    #: ``eject_multiplier`` × the cohort median (both sides needing at
    #: least ``eject_min_samples`` window samples) is demoted in
    #: candidate ordering like a half-open breaker; after
    #: ``eject_reset_s`` it rejoins with a cleared window.
    eject_multiplier: float = 3.0
    eject_min_samples: int = 16
    eject_reset_s: float = 5.0
    #: Sustained-skew rebalancing: when the hottest backend's
    #: supervisor-sampled inflight EWMA exceeds
    #: ``rebalance_skew_ratio`` × the coldest's *and* the absolute gap
    #: is at least ``rebalance_min_gap``, continuously for
    #: ``rebalance_dwell_s`` seconds, up to ``rebalance_max_scenes`` of
    #: the hottest backend's busiest scenes are re-homed onto the
    #: coldest owner (journal re-teach + sticky-session re-home).
    #: ``rebalance_dwell_s=0`` disables the automatic policy; the
    #: ``rebalance`` admin action still triggers one pass on demand.
    rebalance_skew_ratio: float = 3.0
    rebalance_min_gap: float = 4.0
    rebalance_dwell_s: float = 10.0
    rebalance_max_scenes: int = 8


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
    if not 0.0 <= config.retry_budget_ratio <= 1.0:
        problems.append(f"retry budget ratio must be within [0, 1], "
                        f"got {config.retry_budget_ratio}")
    if config.breaker_failures < 1:
        problems.append(f"breaker failure threshold must be at least 1, "
                        f"got {config.breaker_failures}")
    if config.hedge_factor < 0:
        problems.append(f"hedge factor must be non-negative, "
                        f"got {config.hedge_factor}")
    if config.hedge_floor_ms < 0:
        problems.append(f"hedge floor must be non-negative, "
                        f"got {config.hedge_floor_ms}")
    if config.eject_multiplier < 1.0:
        problems.append(f"eject multiplier must be at least 1, "
                        f"got {config.eject_multiplier}")
    if config.eject_min_samples < 1:
        problems.append(f"eject min samples must be at least 1, "
                        f"got {config.eject_min_samples}")
    if config.rebalance_skew_ratio < 1.0:
        problems.append(f"rebalance skew ratio must be at least 1, "
                        f"got {config.rebalance_skew_ratio}")
    if config.rebalance_dwell_s < 0:
        problems.append(f"rebalance dwell must be non-negative, "
                        f"got {config.rebalance_dwell_s}")
    if config.rebalance_max_scenes < 1:
        problems.append(f"rebalance max scenes must be at least 1, "
                        f"got {config.rebalance_max_scenes}")
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
    """HTTP/JSON front door that shards scenes over backend servers."""

    #: The router serves the backend surface plus its own admin
    #: endpoints — the shared prefix is the server's tuple, so a
    #: *backend* endpoint can never exist on one side only.
    KNOWN_PATHS = AsyncCompletionServer.KNOWN_PATHS + (
        "/v1/admin/backends",)

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
        #: Recent rebalance decisions, oldest first, for stats readers.
        self.rebalance_events: deque = deque(maxlen=32)
        #: scene id -> serve count; feeds hottest-scene selection when a
        #: rebalance fires.  Bounded: beyond the cap the cold half is
        #: dropped (the hot entries are the only ones rebalancing reads).
        self._scene_traffic: Counter = Counter()
        self._skew_since: Optional[float] = None    # monotonic dwell clock
        self.retry_budget = RetryBudget(self.config.retry_budget_ratio,
                                        self.config.retry_budget_burst)
        self.lkg = LastKnownGood(self.config.lkg_entries)
        self._respawn_tasks: dict[str, asyncio.Task] = {}
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
        self._server: Optional[asyncio.base_events.Server] = None
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
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._supervisor_task = asyncio.ensure_future(self._supervise())

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
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
                                     timeout=self.config.request_timeout)

    def _adopt_backend(self, backend: Backend) -> None:
        backend.breaker = CircuitBreaker(self.config.breaker_failures,
                                         self.config.breaker_reset_s)
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
            new_process, host, port = await loop.run_in_executor(
                None, _spawn_serve_process, backend.snapshot_path,
                self.config.backend_args, backend.backend_id)
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

    #: Most sticky edit-session homes kept (FIFO beyond this).
    MAX_SESSION_HOMES = 1024

    def _owner(self, scene_id: str) -> Backend:
        candidates = self._candidates(scene_id)
        if not candidates:
            raise ProtocolError("no backends on the ring", code="internal")
        return candidates[0]

    def _candidates(self, scene_id: str) -> list[Backend]:
        """The scene's replica set, best-first.

        The sticky edit-session home (warm incremental state) leads when
        it exists; the ring's R owners follow, healthiest and
        least-loaded first, so reads land on a live replica even while a
        sibling is mid-respawn.  An ejected backend (latency outlier)
        sorts with the non-closed breakers: still a candidate of last
        resort, never the first choice.
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
                                 b.ejected or b.breaker.state != "closed",
                                 b.inflight))
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
            await asyncio.sleep(self.config.supervise_interval_s)
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
        ``eject_multiplier`` is marked ejected — candidate ordering then
        treats it like a half-open breaker (last resort, not first
        choice).  After ``eject_reset_s`` the mark clears and the
        latency window resets, so readmission is judged on post-recovery
        samples only.  Pure function of tracker state + *now*: unit
        tests drive it directly with fabricated samples and clocks.
        """
        backends = list(self.backends.values())
        for backend in backends:
            if not backend.ejected:
                continue
            assert backend.ejected_at is not None
            if now - backend.ejected_at >= self.config.eject_reset_s:
                backend.ejected = False
                backend.ejected_at = None
                backend.latency.reset()
        if len(backends) < 2:
            return
        minimum = self.config.eject_min_samples
        for backend in backends:
            if backend.ejected:
                continue
            if backend.latency.window_count < minimum:
                continue
            mine = backend.latency.percentile(0.95)
            cohort = sorted(
                sibling.latency.percentile(0.95)
                for sibling in backends
                if sibling is not backend
                and sibling.latency.window_count >= minimum)
            if mine is None or not cohort:
                continue
            median = cohort[len(cohort) // 2]
            if median > 0 and mine > self.config.eject_multiplier * median:
                backend.ejected = True
                backend.ejected_at = now
                self.ejections += 1

    #: Supervisor-sample smoothing for per-backend inflight load.
    LOAD_EWMA_ALPHA = 0.3
    #: Most per-scene traffic counters kept; beyond this the cold half
    #: is dropped (only the hot entries feed rebalance decisions).
    MAX_SCENE_TRAFFIC = 4096

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
                    > self.config.rebalance_skew_ratio * coldest.load_ewma)
        if ratio_ok and gap >= self.config.rebalance_min_gap:
            return hottest, coldest
        return None

    async def _sweep_rebalance(self, now: float) -> None:
        """One tick of the sustained-skew policy (dwell-gated)."""
        if self.config.rebalance_dwell_s <= 0:
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
        if now - self._skew_since < self.config.rebalance_dwell_s:
            return
        await self._rebalance_once(*pair)

    async def _rebalance_once(self, hot: "Backend",
                              cold: "Backend") -> dict:
        """Re-home up to ``rebalance_max_scenes`` of *hot*'s busiest
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
            if len(moved) >= self.config.rebalance_max_scenes:
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

    # -- connection handling (same wire as the server) -----------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_http_request(reader),
                        self.config.read_timeout)
                except asyncio.TimeoutError:
                    break
                except _HttpError as error:
                    self.errors["bad_request"] += 1
                    writer.write(_http_response(
                        error.status,
                        protocol.error_payload("bad_request", str(error)),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                stream_payload = _stream_request_payload(request)
                if stream_payload is not None:
                    await self._proxy_stream(stream_payload, writer)
                    break               # EOF-framed body: connection is done
                status, payload = await self._dispatch(request)
                writer.write(_http_response(status, payload,
                                            request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: _HttpRequest) -> tuple[int, dict]:
        route = (request.method, request.path)
        if request.path in self.KNOWN_PATHS and request.method in ("GET",
                                                                   "POST"):
            self.requests[f"{request.method} {request.path}"] += 1
        else:
            self.requests["other"] += 1
        try:
            if route == ("GET", "/healthz"):
                return 200, self._healthz_payload()
            if route == ("GET", "/v1/stats"):
                return 200, await self._stats_payload()
            if route == ("POST", "/v1/register-scene"):
                request_obj = RegisterSceneRequest.from_payload(
                    protocol.decode_body(request.body))
                return 200, await self.register_text(request_obj.text,
                                                      request_obj.name)
            if route == ("POST", "/v1/complete"):
                return 200, await self._complete_one(
                    CompleteRequest.from_payload(
                        protocol.decode_body(request.body)))
            if route == ("POST", "/v1/complete-batch"):
                return 200, await self._handle_batch(
                    protocol.decode_body(request.body))
            if route == ("POST", "/v1/release-scene"):
                return 200, await self._handle_release(
                    protocol.decode_body(request.body))
            if route == ("POST", "/v1/edit-scene"):
                return 200, await self._handle_edit(
                    protocol.decode_body(request.body))
            if route == ("GET", "/v1/admin/backends"):
                return 200, self._admin_list_payload()
            if route == ("POST", "/v1/admin/backends"):
                return 200, await self._handle_admin(
                    protocol.decode_body(request.body))
            if request.path in self.KNOWN_PATHS:
                self.errors["bad_request"] += 1
                return 405, protocol.error_payload(
                    "bad_request",
                    f"method {request.method} not allowed on {request.path}")
            raise ProtocolError(f"unknown path {request.path!r}",
                                code="not_found")
        except ServerError as error:
            # A backend answered an error envelope: pass it through with
            # its own code and status — the router adds no new failure
            # vocabulary to the wire.
            self.errors[error.code] += 1
            return error.status, protocol.error_payload(error.code,
                                                        error.message)
        except ProtocolError as error:
            self.errors[error.code] += 1
            return error.status, protocol.error_payload(error.code,
                                                        str(error))
        except ReproError as error:
            self.errors["bad_request"] += 1
            return 400, protocol.error_payload("bad_request", str(error))
        except Exception as error:          # noqa: BLE001 — serving boundary
            self.errors["internal"] += 1
            return 500, protocol.error_payload(
                "internal", f"{type(error).__name__}: {error}")

    # -- endpoint: register-scene --------------------------------------------

    async def register_text(self, text: str,
                            name: Optional[str] = None) -> dict:
        """Register one scene on every backend in its replica set.

        The routing key — the content-derived scene id — only exists
        after a backend has prepared the scene, so new text is first
        registered on a deterministic *probe* backend (hash of the text
        digest).  Once the id is known, the scene is registered on all R
        ring owners and released from the probe when it is not one of
        them; the journal then remembers digest → scene id, so every
        later registration and inline completion of the same text routes
        straight to the owners.
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
        if probe.backend_id not in owner_ids:
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

    def _remember_lkg(self, key: tuple, response: dict) -> dict:
        if response.get("ok") and not response.get("partial"):
            self.lkg.remember(key, response)
        return response

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
        """Per-attempt timeout: ``min(request_timeout, remaining)``."""
        if deadline_at is None:
            return self.config.request_timeout
        return min(self.config.request_timeout,
                   max(deadline_at - time.monotonic(), 0.0))

    async def _complete_one(self, request: CompleteRequest) -> dict:
        scene_id = await self._resolve_scene_id(request)
        deadline_at = self._deadline_at(request)

        def call(client: AsyncCompletionClient) -> Awaitable[dict]:
            # Re-derived per attempt: each hop sees only what is left.
            # Context hints ride every attempt, so failover and hedge
            # retries rank exactly like the first try.
            return client.complete(scene_id, goal=request.goal,
                                   variant=request.variant, n=request.n,
                                   deadline_ms=request.deadline_ms,
                                   budget_ms=self._remaining_budget_ms(
                                       deadline_at),
                                   priority=request.priority,
                                   context=request.context)

        return await self._serve_with_failover(scene_id, request, call,
                                               deadline_at=deadline_at)

    async def _attempt_backend(self, backend: Backend, scene_id: str,
                               call: Callable[[AsyncCompletionClient],
                                              Awaitable[dict]]) -> dict:
        """One replica attempt, with the journal re-teach for a backend
        that is alive but lost the scene (eviction, unsupervised
        restart) — invisible upstream."""
        try:
            return await self._call_fast(backend, call)
        except SceneNotFoundError:
            entry = self.journal.lookup_scene(scene_id)
            if entry is None:
                raise                       # never registered through us
            self.reregistrations += 1
            await self._call_fast(backend, lambda c: c.register_scene(
                entry.text, name=entry.name))
            return await self._call_fast(backend, call)

    async def _attempt_timed(self, backend: Backend, scene_id: str,
                             call: Callable[[AsyncCompletionClient],
                                            Awaitable[dict]],
                             deadline_at: Optional[float]) -> dict:
        """One replica attempt under the budget-clamped timeout.

        The clamp is ``min(request_timeout, remaining_budget)`` — a
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

        Percentile-derived — ``hedge_factor`` × the backend's windowed
        p95, floored at ``hedge_floor_ms`` so an empty window cannot
        hedge every request — and budget-bounded: with a live deadline
        the hedge fires no later than half the remaining budget, so the
        hedge itself still has budget to run in.  ``None`` = disabled.
        """
        if self.config.hedge_factor <= 0:
            return None
        p95_ms = backend.latency.percentile(0.95)
        delay = max(self.config.hedge_floor_ms / 1000.0,
                    (p95_ms or 0.0) / 1000.0 * self.config.hedge_factor)
        if deadline_at is not None:
            remaining = max(deadline_at - time.monotonic(), 0.0)
            delay = min(delay, remaining / 2)
        return delay

    @staticmethod
    def _settle_task(task: "asyncio.Task") -> None:
        """Cancel a losing hedge arm and keep its eventual exception
        from tripping the event loop's never-retrieved warning."""
        task.cancel()
        task.add_done_callback(
            lambda t: t.cancelled() or t.exception())

    async def _attempt_hedged(self, backend: Backend,
                              siblings: Sequence[Backend], scene_id: str,
                              call: Callable[[AsyncCompletionClient],
                                             Awaitable[dict]],
                              deadline_at: Optional[float]) -> dict:
        """The first ladder rung, with a budget-bounded hedge.

        If the primary attempt outlives the percentile-derived hedge
        delay, one hedge fires to the next live sibling replica —
        *spending a retry-budget token*, so hedge volume is bounded by
        the same bucket as failovers.  First success wins; the loser is
        cancelled.  When both arms fail, the primary's error surfaces
        (the ladder's failover handling takes it from there).
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
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if primary in done:
            return primary.result()
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

    async def _serve_with_failover(self, scene_id: str,
                                   request: CompleteRequest,
                                   call: Callable[[AsyncCompletionClient],
                                                  Awaitable[dict]],
                                   deadline_at: Optional[float] = None
                                   ) -> dict:
        """The read path: healthiest replica first, instant failover.

        The ladder tries each replica-set backend in best-first order; a
        connection failure kicks a background respawn and moves on to
        the sibling.  Attempts beyond the first spend the router's retry
        budget — a storm against a dead shard is bounded by construction.
        A budgeted request is refused outright once its budget is spent
        (``deadline_exceeded``; never retried), each attempt runs under
        the budget-clamped timeout, and the first rung may hedge to a
        sibling when the primary turns out slow.  When every replica is
        down the last-known-good cache answers with ``degraded: true``;
        with nothing cached the preferred owner pays a blocking
        respawn-and-retry (the pre-replication behaviour), so R=1
        topologies and cold scenes still recover without a
        client-visible error.
        """
        self.retry_budget.on_request()
        self._note_scene_traffic(scene_id)
        self._fail_fast_if_spent(deadline_at)
        key = self._lkg_key(scene_id, request)
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
            try:
                if attempts == 1:
                    result = await self._attempt_hedged(
                        backend, candidates[index + 1:], scene_id, call,
                        deadline_at)
                else:
                    result = await self._attempt_timed(
                        backend, scene_id, call, deadline_at)
                return self._remember_lkg(key, result)
            except ProtocolError as error:
                if error.code != "internal":
                    raise                   # backend answered: not a failover
                last_error = error
                self.failovers += 1
        cached = self.lkg.get(key)
        if cached is not None:
            self.degraded_served += 1
            return {**cached, "degraded": True}
        if not candidates:
            raise last_error or ProtocolError("no backends on the ring",
                                              code="internal")
        self._fail_fast_if_spent(deadline_at)   # a blocking respawn is
        backend = candidates[0]                 # never worth a dead budget
        try:
            return self._remember_lkg(key,
                                      await self._call(backend, call))
        except SceneNotFoundError:
            entry = self.journal.lookup_scene(scene_id)
            if entry is None:
                raise
            self.reregistrations += 1
            await self._call(backend, lambda c: c.register_scene(
                entry.text, name=entry.name))
            return self._remember_lkg(key, await self._call(backend, call))

    async def _handle_batch(self, payload) -> dict:
        requests = protocol.parse_batch_payload(payload)

        async def _serve(request: CompleteRequest) -> dict:
            try:
                return await self._complete_one(request)
            except ServerError as error:
                self.errors[error.code] += 1
                return protocol.error_payload(error.code, error.message)
            except ProtocolError as error:
                self.errors[error.code] += 1
                return protocol.error_payload(error.code, str(error))
            except ReproError as error:
                self.errors["bad_request"] += 1
                return protocol.error_payload("bad_request", str(error))

        results = await asyncio.gather(*(_serve(r) for r in requests))
        return protocol.ok_payload(results=list(results))

    # -- endpoint: complete (streaming) --------------------------------------

    async def _proxy_stream(self, payload: dict,
                            writer: asyncio.StreamWriter) -> None:
        """Proxy one streamed completion from the owning backend.

        Chunks are re-framed line by line, so the editor sees snippets as
        the backend emits them — the router adds routing, not buffering.
        Failures before the first chunk (validation, unknown scene, dead
        shard) stay ordinary HTTP error responses; after the head is on
        the wire they become a terminal ``error`` chunk, exactly like the
        backend's own late failures.
        """
        self.requests["POST /v1/complete"] += 1
        head_written = False
        try:
            request = CompleteRequest.from_payload(payload)
            scene_id = await self._resolve_scene_id(request)
            stream, chunk = await self._open_stream(scene_id, request)
            writer.write(_stream_head())
            head_written = True
            self.streams_proxied += 1
            while True:
                writer.write(protocol.encode_stream_chunk(chunk))
                await writer.drain()
                try:
                    chunk = await stream.__anext__()
                except StopAsyncIteration:
                    break
        except ServerError as error:
            self.errors[error.code] += 1
            await self._stream_failure(writer, head_written, error.code,
                                       error.message)
        except ProtocolError as error:
            self.errors[error.code] += 1
            await self._stream_failure(writer, head_written, error.code,
                                       str(error))
        except ReproError as error:
            self.errors["bad_request"] += 1
            await self._stream_failure(writer, head_written, "bad_request",
                                       str(error))
        except Exception as error:          # noqa: BLE001 — serving boundary
            self.errors["internal"] += 1
            await self._stream_failure(writer, head_written, "internal",
                                       f"{type(error).__name__}: {error}")

    async def _stream_failure(self, writer: asyncio.StreamWriter,
                              head_written: bool, code: str,
                              message: str) -> None:
        try:
            if head_written:
                writer.write(protocol.encode_stream_chunk(
                    protocol.stream_error_chunk(code, message)))
            else:
                writer.write(_http_response(
                    protocol.STATUS_FOR_CODE.get(code, 500),
                    protocol.error_payload(code, message),
                    keep_alive=False))
            await writer.drain()
        except (ConnectionError, OSError):
            pass                            # downstream client vanished

    async def _open_stream(self, scene_id: str, request: CompleteRequest):
        """The owner's chunk stream plus its first chunk.

        Opening eagerly pulls one chunk so every backend-side failure
        mode surfaces *here*, before the proxy commits a response head —
        with the same replica ladder as the unary path: instant failover
        to a sibling (budgeted), a journal re-teach for unknown scenes,
        a degraded last-known-good stream when every replica is down,
        and a blocking respawn-and-retry only as the final resort.
        """
        def first_of(client: AsyncCompletionClient):
            async def opened():
                stream = client.complete_stream(
                    scene_id, goal=request.goal, variant=request.variant,
                    n=request.n, deadline_ms=request.deadline_ms,
                    context=request.context)
                try:
                    return stream, await stream.__anext__()
                except StopAsyncIteration:
                    raise ClientConnectionError(
                        "backend closed the stream before any chunk")
            return opened()

        self.retry_budget.on_request()
        candidates = self._candidates(scene_id)
        attempts = 0
        last_error: Optional[ProtocolError] = None
        for backend in candidates:
            if len(candidates) > 1 and not backend.breaker.allow():
                continue
            if attempts and not self.retry_budget.try_spend():
                break
            attempts += 1
            try:
                try:
                    return await self._call_fast(backend, first_of)
                except SceneNotFoundError:
                    entry = self.journal.lookup_scene(scene_id)
                    if entry is None:
                        raise
                    self.reregistrations += 1
                    await self._call_fast(backend, lambda c:
                                          c.register_scene(entry.text,
                                                           name=entry.name))
                    return await self._call_fast(backend, first_of)
            except ProtocolError as error:
                if error.code != "internal":
                    raise
                last_error = error
                self.failovers += 1
        cached = self.lkg.get(self._lkg_key(scene_id, request))
        if cached is not None:
            self.degraded_served += 1
            return self._degraded_stream(cached)
        if not candidates:
            raise last_error or ProtocolError("no backends on the ring",
                                              code="internal")
        return await self._call(candidates[0], first_of)

    @staticmethod
    def _degraded_stream(payload: dict):
        """A synthesized chunk stream replaying a last-known-good answer.

        Mirrors the backend's wire shape — one ``snippet`` chunk per
        snippet, then a ``done`` summary — with ``degraded: true`` on
        the summary, so streaming clients degrade exactly like unary
        ones when every replica is down.
        """
        done = protocol.stream_done_chunk({**payload, "degraded": True})
        snippets = payload.get("snippets") or []

        def snippet_chunk(snippet: dict) -> dict:
            return {"v": protocol.PROTOCOL_VERSION, "chunk": "snippet",
                    **snippet}

        async def remaining():
            for snippet in snippets[1:]:
                yield snippet_chunk(snippet)
            yield done

        async def only_done():
            return
            yield                           # pragma: no cover — generator

        if not snippets:
            return only_done(), done
        return remaining(), snippet_chunk(snippets[0])

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

        try:
            response = await self._call(backend, call)
        except SceneNotFoundError:
            entry = self.journal.lookup_scene(request.scene_id)
            if entry is None:
                raise
            self.reregistrations += 1
            backend = self._owner(request.scene_id)
            await self._call(backend, lambda c: c.register_scene(
                entry.text, name=entry.name))
            response = await self._call(backend, call)
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
                backend_id: backend.latency.describe()
                for backend_id, backend in self.backends.items()},
            "rebalances": self.rebalances,
            "rebalance_events": list(self.rebalance_events),
        }

    async def _stats_payload(self) -> dict:
        """One merged view over every backend's ``/v1/stats``.

        Counters are summed (the merged ``server`` section therefore
        equals the arithmetic sum of the per-backend counters), latency
        windows are merged — counts summed, means request-weighted,
        percentiles and max conservatively maxed (a true merged quantile
        would need the raw samples) — and the untouched per-backend
        payloads ride along under ``shards``.
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


def _merge_latency_windows(windows: list) -> dict:
    """Merge latency snapshots: sum counts, weight means, max quantiles."""
    counts = [window.get("count", 0) for window in windows]
    total = sum(counts)

    def _max(field: str) -> Optional[float]:
        values = [window.get(field) for window in windows
                  if window.get(field) is not None]
        return max(values) if values else None

    mean = None
    if total:
        weighted = sum(window.get("mean_ms") * count
                       for window, count in zip(windows, counts)
                       if window.get("mean_ms") is not None and count)
        mean = round(weighted / total, 3)
    return {"count": total, "p50_ms": _max("p50_ms"),
            "p95_ms": _max("p95_ms"), "max_ms": _max("max_ms"),
            "mean_ms": mean}


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
        name: _merge_latency_windows(
            [section.get("latency", {}).get(name, {})
             for section in sections])
        for name in sorted(names)}
    return merged
