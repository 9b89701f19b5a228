"""The HTTP front shared by the completion server and the router.

Both processes serve their wire through one :class:`HttpFront`, so these
tests run against each of them: the router attached to an in-process
backend, the server on its own.
"""

import asyncio
import contextlib
import time

import pytest

from repro.server.router import CompletionRouter, RouterConfig
from repro.server.server import AsyncCompletionServer, ServerConfig


@contextlib.asynccontextmanager
async def running_front(process: str):
    """The *process* front (``server`` or ``router``), started."""
    backend = AsyncCompletionServer(config=ServerConfig(port=0))
    await backend.start()
    front = backend
    try:
        if process == "router":
            front = CompletionRouter(RouterConfig(
                port=0, attach=(f"{backend.host}:{backend.port}",)))
            await front.start()
        yield front
    finally:
        if front is not backend:
            await front.close()
        await backend.close()


class TestRoutes:
    def test_router_routes_every_server_route(self):
        server = AsyncCompletionServer(config=ServerConfig(port=0))
        router = CompletionRouter(RouterConfig(port=0))
        assert set(server.front.routes) <= set(router.front.routes)


class TestShutdown:
    @pytest.mark.parametrize("process", ["server", "router"])
    def test_close_severs_an_idle_keep_alive_connection(self, process):
        # A closed front must look gone, idle keep-alive sockets included.
        # On Python >= 3.12.1 the listener's wait_closed() waits for every
        # accepted connection, so one left open holds close() for the
        # full read timeout.
        async def main():
            async with running_front(process) as front:
                reader, writer = await asyncio.open_connection(front.host,
                                                               front.port)
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert b"200" in await reader.readline()
                await reader.readuntil(b"\r\n\r\n")   # headers; body stays
                started = time.monotonic()
                await asyncio.wait_for(front.close(), timeout=2)
                assert time.monotonic() - started < 2
                body = await asyncio.wait_for(reader.read(), timeout=2)
                assert body.endswith(b"}")            # then EOF
                writer.close()

        asyncio.run(main())

    @pytest.mark.parametrize("process", ["server", "router"])
    def test_close_leaves_no_handler_for_the_loop_to_cancel(self, process):
        # A connection handler still running when the loop shuts down is
        # cancelled by asyncio.run, and Python 3.11's stream protocol
        # reports each such task through the loop's exception handler
        # ("Exception in callback ... CancelledError").
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["message"]))
            async with running_front(process) as front:
                reader, writer = await asyncio.open_connection(front.host,
                                                               front.port)
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                await front.close()
                writer.close()

        asyncio.run(main())
        assert reported == []
