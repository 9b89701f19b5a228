"""Async client for the completion server.

A minimal stdlib HTTP/1.1 client over ``asyncio.open_connection`` with a
small keep-alive connection pool, so ``asyncio.gather`` over many
:meth:`AsyncCompletionClient.complete` calls genuinely runs concurrently
(one socket per in-flight request, reused afterwards).

Server-side failures surface as typed exceptions keyed by the protocol's
error codes: :class:`OverloadedError` (admission control said 429 — back
off and retry; the load driver does, behind :func:`jittered_backoff_s`),
:class:`SceneNotFoundError` (the scene id was evicted — re-register),
:class:`ServerError` (everything else), and
:class:`ClientConnectionError` for transport failures.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Optional, Sequence

import hashlib

from repro.core.errors import ReproError
from repro.core.ranking import CompletionContext
from repro.server.protocol import (PROTOCOL_VERSION, AdminBackendsRequest,
                                   AdoptSnapshotRequest, CompleteRequest,
                                   EditSceneRequest,
                                   RegisterSceneRequest, ReleaseSceneRequest,
                                   encode_body)


def _as_context(context) -> Optional[CompletionContext]:
    """Accept either a :class:`CompletionContext` or its dict wire form."""
    if context is None or isinstance(context, CompletionContext):
        return context
    return CompletionContext.from_payload(context)

#: Process-wide RNG for backoff jitter, seeded from OS entropy: every
#: client process draws different delays, which is the whole point.
_JITTER_RNG = random.Random()


def jittered_backoff_s(attempt: int, *, base: float = 0.05,
                       cap: float = 2.0,
                       rng: Optional[random.Random] = None) -> float:
    """Full-jitter exponential backoff delay for retry *attempt* (0-based).

    ``uniform(0, min(cap, base * 2**attempt))`` — the AWS "full jitter"
    scheme.  A *deterministic* backoff makes every client that was
    rejected in the same instant retry in the same instant: the
    coordinated wave re-overloads a respawning backend in lockstep,
    forever.  Spreading each delay uniformly over the exponential window
    decorrelates the wave while keeping the same mean pressure.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    window = min(cap, base * (2 ** attempt))
    return (rng or _JITTER_RNG).uniform(0.0, window)


class ServerError(ReproError):
    """The server answered with an error envelope."""

    def __init__(self, code: str, message: str, status: int):
        self.code = code
        self.status = status
        self.message = message              # unprefixed, for passthrough
        super().__init__(f"[{code}] {message}")


class OverloadedError(ServerError):
    """Admission control rejected the request (429); retry with backoff."""


class SceneNotFoundError(ServerError):
    """The scene id is unknown or was evicted; re-register the scene."""


class DeadlineExceededError(ServerError):
    """The end-to-end budget was spent before the request could be served.

    A deliberate fast-fail, not a transport flake: the server (or router)
    refused to start work it could not finish inside the client's
    ``budget_ms``.  Never retried — the budget that made the first
    attempt fail is even more spent now.
    """


class ClientConnectionError(ReproError):
    """The server could not be reached or the connection broke mid-call."""


def _error_for(payload: dict, status: int) -> ServerError:
    error = payload.get("error") or {}
    code = error.get("code", "internal")
    message = error.get("message", "unknown server error")
    if code == "overloaded":
        return OverloadedError(code, message, status)
    if code == "not_found" and "scene id" in message:
        return SceneNotFoundError(code, message, status)
    if code == "deadline_exceeded":
        return DeadlineExceededError(code, message, status)
    return ServerError(code, message, status)


class AsyncCompletionClient:
    """Talks the server's JSON protocol; safe for concurrent use.

    A 429 raises :class:`OverloadedError` at once: the client never
    retries it, so a caller's own backoff is the only one in play.
    """

    #: Keep-alive connections kept open for reuse; more are closed
    #: after their response.
    MAX_IDLE_CONNECTIONS = 32

    def __init__(self, host: str = "127.0.0.1", port: int = 8777, *,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        self._closed = False
        #: text digest -> scene id, for :meth:`complete_text`'s
        #: register-once / re-register-on-eviction discipline.
        self._scene_ids: dict[str, str] = {}

    async def __aenter__(self) -> "AsyncCompletionClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for _reader, writer in idle:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- transport -----------------------------------------------------------

    async def _connection(self) -> tuple[asyncio.StreamReader,
                                         asyncio.StreamWriter, bool]:
        """An idle pooled connection (pooled=True) or a fresh one."""
        if self._idle:
            reader, writer = self._idle.pop()
            return reader, writer, True
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise ClientConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        return reader, writer, False

    async def _request(self, method: str, path: str,
                       payload: Optional[dict] = None) -> dict:
        if self._closed:
            raise ClientConnectionError("client is closed")
        # Requests carry the protocol version (the server rejects a
        # mismatch with ``unsupported_version`` instead of silently
        # reinterpreting fields under new semantics).
        if payload is not None:
            payload = {"v": PROTOCOL_VERSION, **payload}
        body = encode_body(payload) if payload is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: keep-alive\r\n"
                f"\r\n")
        message = head.encode("latin-1") + body

        while True:
            reader, writer, pooled = await self._connection()
            reuse = False
            try:
                writer.write(message)
                await writer.drain()
                status, headers, response = await asyncio.wait_for(
                    self._read_response(reader), self.timeout)
                reuse = (headers.get("connection", "keep-alive").lower()
                         != "close")
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                writer.close()
                if pooled and not isinstance(exc, asyncio.TimeoutError):
                    # A pooled keep-alive socket can be stale (server
                    # restarted, idle timeout); retry once on a fresh
                    # connection before giving up.
                    continue
                raise ClientConnectionError(
                    f"request {method} {path} failed: {exc}") from exc
            finally:
                if reuse and not self._closed and \
                        len(self._idle) < self.MAX_IDLE_CONNECTIONS:
                    self._idle.append((reader, writer))
                else:
                    # Not poolable (close-marked, pool full, or client
                    # closed): always close, never leak the socket.
                    writer.close()
            break

        try:
            decoded = json.loads(response.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClientConnectionError(
                f"undecodable response body from {path}: {exc}") from exc
        if not isinstance(decoded, dict) or decoded.get("v") is None:
            raise ClientConnectionError(
                f"response from {path} is not a protocol envelope")
        if decoded["v"] != PROTOCOL_VERSION:
            raise ServerError(
                "internal",
                f"protocol version mismatch: server v{decoded['v']}, "
                f"client v{PROTOCOL_VERSION}", status)
        if not decoded.get("ok", False):
            raise _error_for(decoded, status)
        return decoded

    @staticmethod
    async def _read_response_head(reader: asyncio.StreamReader
                                  ) -> tuple[int, dict]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {line!r}")
        status = int(parts[1])
        headers: dict = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    @classmethod
    async def _read_response(cls, reader: asyncio.StreamReader
                             ) -> tuple[int, dict, bytes]:
        status, headers = await cls._read_response_head(reader)
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return status, headers, body

    # -- protocol calls ------------------------------------------------------

    async def healthz(self) -> dict:
        return await self._request("GET", "/healthz")

    async def backends(self) -> list:
        """The topology's backend descriptions from ``/healthz``.

        Empty for a plain single server (no ``backends`` section); a
        router lists every shard with address, health, restart count and
        — when supervised — pid.  The load/chaos driver's view of the
        topology comes entirely through this call.
        """
        health = await self.healthz()
        backends = health.get("backends")
        return list(backends) if isinstance(backends, list) else []

    async def stats(self) -> dict:
        return await self._request("GET", "/v1/stats")

    async def register_scene(self, text: str,
                             name: Optional[str] = None) -> dict:
        request = RegisterSceneRequest(text=text, name=name)
        return await self._request("POST", "/v1/register-scene",
                                   request.to_payload())

    async def complete(self, scene_id: Optional[str] = None, *,
                       scene: Optional[str] = None,
                       goal: Optional[str] = None,
                       variant: Optional[str] = None,
                       n: Optional[int] = None,
                       deadline_ms: Optional[int] = None,
                       budget_ms: Optional[int] = None,
                       priority: Optional[int] = None,
                       context: Optional[CompletionContext | dict] = None,
                       ) -> dict:
        # A deadline doubles as the absolute end-to-end budget: the first
        # hop starts the clock, every later hop receives whatever is left.
        # Callers that want the anytime budget without the fast-fail
        # contract can pass budget_ms explicitly (or not at all).
        if budget_ms is None:
            budget_ms = deadline_ms
        request = CompleteRequest(scene_id=scene_id, scene=scene, goal=goal,
                                  variant=variant, n=n,
                                  deadline_ms=deadline_ms,
                                  budget_ms=budget_ms,
                                  priority=priority,
                                  context=_as_context(context))
        return await self._request("POST", "/v1/complete",
                                   request.to_payload())

    async def admin_backends(self) -> dict:
        """The router's live backend roster (``GET /v1/admin/backends``)."""
        return await self._request("GET", "/v1/admin/backends")

    async def admin_backend(self, action: str, *,
                            backend_id: Optional[str] = None,
                            address: Optional[str] = None) -> dict:
        """Live elasticity: ``add`` / ``drain`` / ``remove`` a backend."""
        request = AdminBackendsRequest(action=action, backend_id=backend_id,
                                       address=address)
        return await self._request("POST", "/v1/admin/backends",
                                   request.to_payload())

    async def release_scene(self, scene_id: str) -> dict:
        """Explicitly drop a registered scene (idempotent server-side)."""
        request = ReleaseSceneRequest(scene_id=scene_id)
        return await self._request("POST", "/v1/release-scene",
                                   request.to_payload())

    async def adopt_snapshot(self, peer: str) -> dict:
        """Merge sibling *peer*'s result-cache snapshot (held scenes only)."""
        request = AdoptSnapshotRequest(peer=peer)
        return await self._request("POST", "/v1/adopt-snapshot",
                                   request.to_payload())

    async def edit_scene(self, scene_id: str, ops: Sequence[dict], *,
                         name: Optional[str] = None) -> dict:
        """Apply declaration deltas; returns the edited scene's identity.

        *ops* is the wire form: ``{"op": "add", "decl": <line>}`` /
        ``{"op": "remove", "name": <name>}``, applied in order.  The
        response names the new content-derived ``scene_id`` (complete
        against it from now on) and carries the canonical serialized
        ``text`` of the edited scene.
        """
        request = EditSceneRequest(scene_id=scene_id,
                                   ops=tuple(dict(op) for op in ops),
                                   name=name)
        return await self._request("POST", "/v1/edit-scene",
                                   request.to_payload())

    async def complete_stream(self, scene_id: Optional[str] = None, *,
                              scene: Optional[str] = None,
                              goal: Optional[str] = None,
                              variant: Optional[str] = None,
                              n: Optional[int] = None,
                              deadline_ms: Optional[int] = None,
                              budget_ms: Optional[int] = None,
                              priority: Optional[int] = None,
                              context: Optional[CompletionContext
                                                | dict] = None):
        """One completion as an async stream of NDJSON chunk dicts.

        The request is :meth:`complete`'s, with the same defaults.
        Yields chunks in wire order: ``snippet`` chunks in rank order as
        the server emits them, then the terminal ``done`` chunk carrying
        the full batch-mode payload (so collected snippets can be checked
        against the final answer).  A mid-stream ``error`` chunk raises
        the matching typed exception, and a stream cut off before its
        ``done`` chunk raises :class:`ClientConnectionError`.  Streams
        ride a dedicated connection, never the keep-alive pool — the
        server frames the body by closing the socket.
        """
        if self._closed:
            raise ClientConnectionError("client is closed")
        request = CompleteRequest(scene_id=scene_id, scene=scene, goal=goal,
                                  variant=variant, n=n,
                                  deadline_ms=deadline_ms,
                                  budget_ms=(deadline_ms if budget_ms is None
                                             else budget_ms),
                                  priority=priority, stream=True,
                                  context=_as_context(context))
        body = encode_body({"v": PROTOCOL_VERSION, **request.to_payload()})
        head = (f"POST /v1/complete HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n"
                f"\r\n")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise ClientConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        try:
            try:
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
                status, headers = await asyncio.wait_for(
                    self._read_response_head(reader), self.timeout)
                if headers.get("content-type", "").startswith(
                        "application/json"):
                    # Pre-stream failure: an ordinary error envelope.
                    length = int(headers.get("content-length", "0") or "0")
                    raw = (await asyncio.wait_for(
                        reader.readexactly(length), self.timeout)
                        if length else b"")
                    decoded = json.loads(raw.decode("utf-8")) if raw else {}
                    raise _error_for(decoded, status)
                while True:
                    line = await asyncio.wait_for(reader.readline(),
                                                  self.timeout)
                    if not line:
                        raise ConnectionError(
                            "stream ended before its done chunk")
                    if not line.strip():
                        continue
                    try:
                        chunk = json.loads(line.decode("utf-8"))
                    except (UnicodeDecodeError,
                            json.JSONDecodeError) as exc:
                        raise ClientConnectionError(
                            f"undecodable stream chunk "
                            f"{line[:80]!r}: {exc}") from exc
                    if not isinstance(chunk, dict) or \
                            chunk.get("v") != PROTOCOL_VERSION:
                        raise ServerError(
                            "internal",
                            f"protocol version mismatch on stream chunk: "
                            f"{chunk!r:.80}", status)
                    if chunk.get("chunk") == "error":
                        raise _error_for(chunk, status)
                    yield chunk
                    if chunk.get("chunk") == "done":
                        break
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                raise ClientConnectionError(
                    f"stream POST /v1/complete failed: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def complete_text(self, text: str, *,
                            name: Optional[str] = None,
                            goal: Optional[str] = None,
                            variant: Optional[str] = None,
                            n: Optional[int] = None,
                            deadline_ms: Optional[int] = None,
                            context: Optional[CompletionContext
                                              | dict] = None) -> dict:
        """Complete against scene *text*, registering it as needed.

        The retry-on-unknown-scene helper: the scene is registered once
        (the id memoised per text digest), and a
        :class:`SceneNotFoundError` — the server evicted or restarted —
        transparently re-registers and retries, so callers never handle
        scene lifecycle themselves.  Registration is content-derived and
        therefore idempotent; one retry is always sufficient.
        """
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        scene_id = self._scene_ids.get(digest)
        context = _as_context(context)
        if scene_id is None:
            registered = await self.register_scene(text, name=name)
            scene_id = registered["scene_id"]
            self._scene_ids[digest] = scene_id
        try:
            return await self.complete(scene_id, goal=goal, variant=variant,
                                       n=n, deadline_ms=deadline_ms,
                                       context=context)
        except SceneNotFoundError:
            registered = await self.register_scene(text, name=name)
            self._scene_ids[digest] = registered["scene_id"]
            return await self.complete(registered["scene_id"], goal=goal,
                                       variant=variant, n=n,
                                       deadline_ms=deadline_ms,
                                       context=context)

    async def complete_batch(self,
                             queries: Sequence[CompleteRequest | dict]
                             ) -> list[dict]:
        payload = {"queries": [
            q.to_payload() if isinstance(q, CompleteRequest) else dict(q)
            for q in queries]}
        response = await self._request("POST", "/v1/complete-batch", payload)
        return list(response["results"])


async def wait_until_healthy(client: AsyncCompletionClient,
                             timeout: float = 10.0,
                             interval: float = 0.05) -> dict:
    """Poll ``/healthz`` until the server answers (startup helper)."""
    deadline = asyncio.get_running_loop().time() + timeout
    last: Any = None
    while asyncio.get_running_loop().time() < deadline:
        try:
            return await client.healthz()
        except ClientConnectionError as exc:
            last = exc
            await asyncio.sleep(interval)
    raise ClientConnectionError(
        f"server at {client.host}:{client.port} never became healthy "
        f"within {timeout}s: {last}")
