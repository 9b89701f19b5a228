"""The HTTP/1.1 front shared by the completion server and the router.

Both processes speak the same versioned JSON protocol to their callers,
so one :class:`HttpFront` serves both: the listening socket and its
connection loop, the request parser, the response encoder, the NDJSON
stream wire, the request and error counters, and the one mapping from
exceptions to error envelopes.  An owner
(:class:`~repro.server.server.AsyncCompletionServer` or
:class:`~repro.server.router.CompletionRouter`) declares a route table
and a ``_complete_one(request, wire=None)`` coroutine; the front serves
``/v1/complete`` and ``/v1/complete-batch`` through the latter, so the
two processes cannot drift apart on the wire.
"""

from __future__ import annotations

import asyncio
import inspect
from collections import Counter
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional

from repro.core.errors import ReproError
from repro.server import protocol
from repro.server.client import ServerError
from repro.server.protocol import CompleteRequest, ProtocolError

#: Largest accepted request body (a scene upload is a few KB; 8 MiB is
#: already absurdly generous).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most header lines accepted per request (clients send a handful).
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


@dataclass(frozen=True)
class _HttpRequest:
    method: str
    path: str
    headers: dict
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return (self.headers.get("connection", "keep-alive").lower()
                != "close")


class _HttpError(ProtocolError):
    """A request the wire rejects (400, 405, 413) with a ``bad_request``
    envelope, answered over HTTP rather than by a connection reset."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def read_http_request(reader: asyncio.StreamReader
                            ) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request off *reader*, or ``None`` at EOF.

    Raises :class:`_HttpError` for requests that are malformed but still
    answerable over HTTP.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: "
                              f"{line[:80]!r}")
    method, target, _version = parts
    headers: dict = {}
    header_lines = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise _HttpError(400, f"more than {MAX_HEADER_LINES} "
                                  f"header lines")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "non-numeric Content-Length")
    if length < 0:
        raise _HttpError(400, f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body of {length} bytes exceeds "
                              f"the {MAX_BODY_BYTES}-byte limit")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return _HttpRequest(method=method, path=path, headers=headers,
                        body=body)


def _http_response(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = protocol.encode_body(payload)
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


def _stream_wire(request: _HttpRequest,
                 writer: asyncio.StreamWriter) -> Optional["_StreamWire"]:
    """The chunk wire of a streamed complete request, or ``None``.

    The byte sniff keeps the hot batch path free of a second JSON decode;
    a streamed body decodes here and again in dispatch, which is cheap
    next to serving it.  Undecodable bodies fall through to the
    normal dispatch path, which reports the error with a proper HTTP
    status.  :class:`HttpFront` asks it of every request, so the server
    and the router stream on exactly the same requests.
    """
    if (request.method, request.path) != ("POST", "/v1/complete"):
        return None
    if b'"stream"' not in request.body:
        return None
    try:
        payload = protocol.decode_body(request.body)
    except ProtocolError:
        return None
    if not isinstance(payload, dict) or payload.get("stream") is not True:
        return None
    return _StreamWire(writer)


class _StreamWire:
    """The NDJSON chunk writer of one streamed response.

    The response head goes out with the first chunk, so until then a
    failed request still answers with an ordinary HTTP error; after it,
    with a terminal ``error`` chunk.  A vanished reader must not abort
    synthesis — the result still goes into the cache and coalesced
    waiters still get it — so a write failure flips ``broken`` and later
    chunks are silently dropped.
    """

    #: No Content-Length: the body is an NDJSON sequence of unknown
    #: length, framed by connection close (HTTP/1.1 EOF framing), which
    #: is why a streamed response always ends its connection.
    HEAD = (f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {protocol.STREAM_CONTENT_TYPE}\r\n"
            f"Connection: close\r\n"
            f"\r\n").encode("latin-1")

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self.broken = False
        self.chunks = 0

    def write(self, chunk: dict) -> None:
        """Queue one chunk (the head rides with the first) unawaited."""
        if self.broken or self._writer.is_closing():
            self.broken = True
            return
        data = protocol.encode_stream_chunk(chunk)
        self._writer.write(data if self.chunks else self.HEAD + data)
        self.chunks += 1

    async def send(self, chunk: dict) -> None:
        self.write(chunk)
        await self._drain()

    async def finish(self, status: int, payload: dict) -> None:
        """End the stream: *payload* is the done chunk's completion on
        200, else an error envelope."""
        if status == 200:
            self.write(protocol.stream_done_chunk(payload))
        elif self.chunks:
            error = payload["error"]
            self.write(protocol.stream_error_chunk(error["code"],
                                                   error["message"]))
        elif not self.broken:
            self._writer.write(_http_response(status, payload,
                                              keep_alive=False))
        await self._drain()

    async def _drain(self) -> None:
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            self.broken = True


class HttpFront:
    """One listening socket serving a route table over HTTP/1.1.

    *routes* maps ``(method, path)`` to a handler: ``GET`` handlers take
    no argument, ``POST`` handlers the decoded JSON body; either may be
    a plain function or a coroutine function and returns the ``ok``
    payload.  The front adds ``/v1/complete`` and
    ``/v1/complete-batch`` on top of *complete_one*.  Requests are
    counted in *requests* per served ``"METHOD /path"`` (anything else
    under ``"other"``, so a path-scanning client cannot grow the counter
    without bound) and failures in *errors* per error code; a finished
    stream reports its chunk count to *on_stream*.
    """

    #: Idle/read timeout per request on a connection: a half-sent
    #: request (or an idle keep-alive socket) releases its handler task
    #: and fd after this many seconds instead of pinning them forever.
    #: The client's stale-pool retry makes idle closes transparent.
    READ_TIMEOUT_S = 60.0

    def __init__(self, routes: dict,
                 complete_one: Callable[..., Awaitable[dict]], *,
                 requests: Counter, errors: Counter,
                 on_stream: Callable[[int], None] = lambda chunks: None):
        self._complete_one = complete_one
        self.routes = {**routes,
                       ("POST", "/v1/complete"): self._complete,
                       ("POST", "/v1/complete-batch"): self._complete_batch}
        self._paths = frozenset(path for _method, path in self.routes)
        self.requests = requests
        self.errors = errors
        self._on_stream = on_stream
        self._server: Optional[asyncio.base_events.Server] = None
        #: Live accepted connections and their handler tasks, severed
        #: and ended on close() — a closed front must look *gone*
        #: (keep-alive sockets included), the way a killed process does,
        #: not just stop listening.
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Listen on *host*:*port* (0 = ephemeral); return the address."""
        self._server = await asyncio.start_server(
            self._accept, host=host, port=port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, sever every accepted connection and end its
        handler.

        Connections close *before* ``wait_closed()``, which on Python >=
        3.12.1 waits for them: an idle keep-alive client would otherwise
        hold shutdown for the full read timeout.  The handlers end here
        too, mid-request ones included (their reply has no socket left
        to go to), so none is left for the event loop to cancel at exit.
        """
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        for writer in list(self._conn_writers):
            writer.close()
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await server.wait_closed()

    # -- the connection loop -------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Serve a new connection on a task this front owns.

        A coroutine callback would run on a task owned by the stream
        protocol instead, which Python 3.11 reports with a traceback
        whenever it ends cancelled.
        """
        self._conn_writers.add(writer)
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            # A connection accepted while close() runs ends at once.
            while self._server is not None:
                try:
                    request = await asyncio.wait_for(
                        read_http_request(reader), self.READ_TIMEOUT_S)
                except asyncio.TimeoutError:
                    break                   # idle or half-sent: reclaim
                except _HttpError as error:
                    # Still answer over HTTP (then close): a diagnosable
                    # 400/413 beats a bare connection reset.
                    writer.write(_http_response(*self._error_envelope(error),
                                                keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                wire = _stream_wire(request, writer)
                status, payload = await self._dispatch(request, wire)
                if wire is not None:
                    await wire.finish(status, payload)
                    self._on_stream(wire.chunks)
                    break               # EOF-framed body: connection is done
                writer.write(_http_response(status, payload,
                                            request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass                            # torn connection
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass                        # teardown race during close()

    async def _dispatch(self, request: _HttpRequest,
                        wire: Optional[_StreamWire]) -> tuple[int, dict]:
        known = (request.path in self._paths
                 and request.method in ("GET", "POST"))
        self.requests[f"{request.method} {request.path}" if known
                      else "other"] += 1
        try:
            handler = self.routes.get((request.method, request.path))
            if handler is None:
                if request.path in self._paths:
                    raise _HttpError(405, f"method {request.method} not "
                                          f"allowed on {request.path}")
                raise ProtocolError(f"unknown path {request.path!r}",
                                    code="not_found")
            args = (() if request.method == "GET"
                    else (protocol.decode_body(request.body),))
            if wire is not None:            # only POST /v1/complete streams
                args += (wire,)
            payload = handler(*args)
            if inspect.isawaitable(payload):
                payload = await payload
            return 200, payload
        except Exception as error:          # noqa: BLE001 — serving boundary
            return self._error_envelope(error)

    def _error_envelope(self, error: Exception) -> tuple[int, dict]:
        """Count *error* under its code; return ``(status, envelope)``.

        A backend's own error envelope (:class:`ServerError`, raised by
        the router's client) passes through with its code and status —
        the router adds no failure vocabulary to the wire.
        """
        if isinstance(error, ServerError):
            status, code, message = error.status, error.code, error.message
        elif isinstance(error, ProtocolError):
            status, code, message = error.status, error.code, str(error)
        elif isinstance(error, ReproError):
            status, code, message = 400, "bad_request", str(error)
        else:
            status, code = 500, "internal"
            message = f"{type(error).__name__}: {error}"
        self.errors[code] += 1
        return status, protocol.error_payload(code, message)

    # -- the completion routes -----------------------------------------------

    def _complete(self, payload, wire: Optional[_StreamWire] = None):
        return self._complete_one(CompleteRequest.from_payload(payload), wire)

    async def _complete_batch(self, payload) -> dict:
        """Answer every query concurrently; a failed query becomes its
        own error envelope instead of failing the batch."""
        async def serve(request: CompleteRequest) -> dict:
            try:
                return await self._complete_one(request)
            except ReproError as error:
                return self._error_envelope(error)[1]

        results = await asyncio.gather(
            *(serve(request)
              for request in protocol.parse_batch_payload(payload)))
        return protocol.ok_payload(results=list(results))
