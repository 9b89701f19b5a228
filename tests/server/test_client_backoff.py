"""Client-side 429 handling: full-jitter exponential backoff.

The backoff draws use a seeded RNG.  The client itself never retries a
429 (the load driver's loop, tested in ``tests/loadgen/test_driver.py``,
is the one that does); that is checked against a fake server.
"""

import asyncio
import json
import random

import pytest

from repro.server.client import (AsyncCompletionClient, OverloadedError,
                                 jittered_backoff_s)
from repro.server.protocol import PROTOCOL_VERSION


class TestJitteredBackoff:
    def test_delay_stays_inside_the_exponential_window(self):
        rng = random.Random(7)
        for attempt in range(12):
            window = min(2.0, 0.05 * (2 ** attempt))
            for _ in range(50):
                delay = jittered_backoff_s(attempt, base=0.05, cap=2.0,
                                           rng=rng)
                assert 0.0 <= delay <= window

    def test_delays_are_actually_jittered(self):
        """The whole point: two draws for the same attempt differ, so a
        rejected fleet does not retry in lockstep."""
        rng = random.Random(7)
        draws = {jittered_backoff_s(4, rng=rng) for _ in range(20)}
        assert len(draws) > 1

    def test_cap_bounds_late_attempts(self):
        rng = random.Random(7)
        for _ in range(50):
            assert jittered_backoff_s(30, base=0.05, cap=2.0,
                                      rng=rng) <= 2.0

    def test_mean_grows_with_attempt(self):
        """Later attempts back off longer on average (exponential part)."""
        rng = random.Random(7)

        def mean(attempt):
            return sum(jittered_backoff_s(attempt, rng=rng)
                       for _ in range(400)) / 400

        assert mean(0) < mean(2) < mean(5)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            jittered_backoff_s(-1)


class TestNoClientRetry:
    def test_a_429_is_raised_after_one_request(self):
        async def main():
            requests = []
            body = json.dumps({"v": PROTOCOL_VERSION, "ok": False, "error": {
                "code": "overloaded", "message": "busy"}}).encode()

            async def answer_429(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                requests.append(1)
                writer.write(b"HTTP/1.1 429 Too Many Requests\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(answer_429, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncCompletionClient("127.0.0.1", port) as client:
                    with pytest.raises(OverloadedError):
                        await client.healthz()
            finally:
                server.close()
                await server.wait_closed()
            assert len(requests) == 1

        asyncio.run(main())
