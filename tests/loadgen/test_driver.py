"""The load driver's 429 retry loop, the serving stack's only one.

Each case runs :func:`repro.loadgen.driver._execute` against a fake
client that answers 429 a set number of times, with ``asyncio.sleep``
recording its delays instead of waiting — no sockets, no wall clock.
"""

import asyncio
from types import SimpleNamespace

import repro.loadgen.driver as driver
from repro.loadgen.slo import SloAccountant
from repro.loadgen.traces import TraceEvent
from repro.server.client import OverloadedError

TRACE = SimpleNamespace(scenes={"s0": {"name": "s0.ins", "text": "goal A"}})
EVENT = TraceEvent(t_ms=0.0, phase="burst", op="complete", scene="s0")


class _FlakyClient:
    """Answers ``complete_text`` with 429 *failures* times, then a hit."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    async def complete_text(self, text, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise OverloadedError("overloaded", "busy", 429)
        return {"scene_id": "scn_0", "cache_hit": True}


def _replay_one(monkeypatch, failures: int):
    """Run one completion event; returns (client, sleeps, phase account)."""
    sleeps = []

    async def fake_sleep(seconds):
        sleeps.append(seconds)

    monkeypatch.setattr(driver.asyncio, "sleep", fake_sleep)
    client = _FlakyClient(failures)
    accountant = SloAccountant()
    asyncio.run(driver._execute(EVENT, TRACE, client, driver.DriverConfig(),
                                accountant, {}))
    return client, sleeps, accountant.phase("burst")


class TestOverloadRetries:
    def test_retries_until_success_with_jittered_sleeps(self, monkeypatch):
        client, sleeps, account = _replay_one(monkeypatch, failures=3)
        assert client.calls == 4
        assert account.latency.count == 1 and account.errors == 0
        assert account.retries == 3
        assert len(sleeps) == 3
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= min(2.0, 0.05 * (2 ** attempt))

    def test_exhausted_retries_are_recorded_as_overloaded(self, monkeypatch):
        client, sleeps, account = _replay_one(monkeypatch, failures=10)
        assert client.calls == 5                # initial + 4 retries
        assert account.error_codes == {"overloaded": 1}
        assert account.retries == 4
        assert len(sleeps) == 4

    def test_success_needs_no_sleep(self, monkeypatch):
        client, sleeps, account = _replay_one(monkeypatch, failures=0)
        assert client.calls == 1
        assert account.retries == 0
        assert sleeps == []
