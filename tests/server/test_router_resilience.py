"""Resilience: breakers, retry budgets, degraded answers, admin surface.

The unit tests drive :class:`CircuitBreaker` with a fake monotonic clock
and :class:`RetryBudget`/:class:`LastKnownGood` with plain calls — no
sleeps anywhere.  The behaviour tests run the router over *attached*
in-process backends and simulate death by closing a backend's listening
socket: deterministic, timing-free, and exactly what a SIGKILL looks
like from the router's side of the wire.
"""

import asyncio
import contextlib

import pytest

from repro.server import protocol
from repro.server.client import (AsyncCompletionClient, ServerError)
from repro.server.router import (CircuitBreaker, CompletionRouter,
                                 LastKnownGood, RetryBudget, RouterConfig)
from repro.server.server import AsyncCompletionServer, ServerConfig

SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

OTHER_SCENE = """
local count : Int
imported demo.Box.new : Int -> Box \
[freq=10] [style=constructor] [display=Box]
goal Box
"""


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        breaker = CircuitBreaker(clock=FakeClock())
        assert breaker.state == "closed"
        assert breaker.allow() is True
        assert breaker.describe()["state"] == "closed"

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=2.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False
        assert breaker.opened_total == 1
        assert breaker.last_failure_at is not None

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed", (
            "non-consecutive failures must not open the circuit")

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=2.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.allow() is False     # still cooling down
        clock.advance(2.0)
        assert breaker.allow() is True      # half-open: probe admitted
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() is True

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout_s=2.0,
                                 clock=clock)
        for _ in range(5):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.0)
        assert breaker.allow() is True
        assert breaker.state == "half_open"
        breaker.record_failure()            # one strike in half-open
        assert breaker.state == "open"
        assert breaker.opened_total == 2
        assert breaker.allow() is False     # a fresh cooldown started

    def test_half_open_admits_exactly_one_probe(self):
        """Regression: half-open must be a *single* probe slot.

        Before the fix every caller that found the breaker half-open was
        admitted — a burst against a barely-recovered backend.  Now the
        first ``allow()`` claims the probe; concurrent callers wait for
        its verdict.
        """
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=2.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow() is True      # the probe slot
        assert breaker.state == "half_open"
        assert breaker.allow() is False     # concurrent caller: wait
        assert breaker.allow() is False
        breaker.record_failure()            # probe lost
        assert breaker.state == "open"
        assert breaker.allow() is False     # fresh cooldown started
        clock.advance(2.0)
        assert breaker.allow() is True      # next probe window
        assert breaker.allow() is False     # still one at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow(), (
            "a closed breaker admits everyone again")

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)

    def test_describe_is_json_shaped(self):
        breaker = CircuitBreaker(clock=FakeClock())
        breaker.record_failure()
        described = breaker.describe()
        assert described["consecutive_failures"] == 1
        assert described["opened_total"] == 0
        assert isinstance(described["last_failure_at"], float)


# -- retry budget ------------------------------------------------------------


class TestRetryBudget:
    def test_starts_full_and_spends_down(self):
        budget = RetryBudget(ratio=0.2, burst=2.0)
        assert budget.try_spend() is True
        assert budget.try_spend() is True
        assert budget.try_spend() is False
        assert budget.granted == 2
        assert budget.denied == 1

    def test_requests_accrue_fractional_credit(self):
        budget = RetryBudget(ratio=0.2, burst=1.0)
        assert budget.try_spend() is True   # drain the initial burst
        assert budget.try_spend() is False
        for _ in range(4):
            budget.on_request()
        assert budget.try_spend() is False  # 0.8 tokens: not yet a retry
        budget.on_request()
        assert budget.try_spend() is True   # the 5th request earns one

    def test_credit_caps_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=2.0)
        for _ in range(100):
            budget.on_request()
        assert budget.tokens == 2.0
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()

    def test_ratio_bounds_steady_state_retry_fraction(self):
        """Over a long run, grants can't exceed ratio*requests + burst."""
        budget = RetryBudget(ratio=0.2, burst=10.0)
        requests = 500
        for _ in range(requests):
            budget.on_request()
            budget.try_spend()              # every request wants a retry
        assert budget.granted <= 0.2 * requests + 10.0
        assert budget.denied == requests - budget.granted

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="ratio"):
            RetryBudget(ratio=1.5)
        with pytest.raises(ValueError, match="burst"):
            RetryBudget(burst=0.5)


# -- last-known-good cache ---------------------------------------------------


class TestLastKnownGood:
    KEY = ("scn_1", None, None, None, None)

    def test_remember_and_get_returns_a_copy(self):
        lkg = LastKnownGood(capacity=4)
        payload = {"ok": True, "snippets": [{"code": "new File(name)"}]}
        lkg.remember(self.KEY, payload)
        served = lkg.get(self.KEY)
        assert served == payload
        served["mutated"] = True
        assert "mutated" not in lkg.get(self.KEY)
        assert lkg.hits == 2

    def test_lru_eviction_prefers_recent(self):
        lkg = LastKnownGood(capacity=2)
        keys = [("scn_a",), ("scn_b",), ("scn_c",)]
        for key in keys:
            lkg.remember(key, {"ok": True})
        assert lkg.get(keys[0]) is None     # oldest fell out
        assert lkg.get(keys[1]) is not None
        assert lkg.get(keys[2]) is not None
        assert len(lkg) == 2

    def test_purge_scene_drops_every_variant(self):
        lkg = LastKnownGood(capacity=8)
        lkg.remember(("scn_1", "goal_a"), {"ok": True})
        lkg.remember(("scn_1", "goal_b"), {"ok": True})
        lkg.remember(("scn_2", None), {"ok": True})
        assert lkg.purge_scene("scn_1") == 2
        assert lkg.get(("scn_1", "goal_a")) is None
        assert lkg.get(("scn_2", None)) is not None


# -- protocol: admin + priority ----------------------------------------------


class TestAdminProtocol:
    def test_round_trip(self):
        request = protocol.AdminBackendsRequest(action="drain",
                                                backend_id="b1")
        parsed = protocol.AdminBackendsRequest.from_payload(
            request.to_payload())
        assert parsed.action == "drain"
        assert parsed.backend_id == "b1"

    def test_rejects_unknown_action(self):
        with pytest.raises(protocol.ProtocolError, match="action"):
            protocol.AdminBackendsRequest.from_payload(
                {"v": protocol.PROTOCOL_VERSION, "action": "explode"})

    def test_drain_requires_backend_id(self):
        with pytest.raises(protocol.ProtocolError, match="backend_id"):
            protocol.AdminBackendsRequest.from_payload(
                {"v": protocol.PROTOCOL_VERSION, "action": "drain"})

    def test_address_only_valid_for_add(self):
        with pytest.raises(protocol.ProtocolError, match="address"):
            protocol.AdminBackendsRequest.from_payload(
                {"v": protocol.PROTOCOL_VERSION, "action": "remove",
                 "backend_id": "b0", "address": "127.0.0.1:1"})

    def test_priority_bounds(self):
        request = protocol.CompleteRequest.from_payload(
            {"v": protocol.PROTOCOL_VERSION, "scene_id": "scn_1",
             "priority": 0})
        assert request.priority == 0
        with pytest.raises(protocol.ProtocolError, match="priority"):
            protocol.CompleteRequest.from_payload(
                {"v": protocol.PROTOCOL_VERSION, "scene_id": "scn_1",
                 "priority": protocol.MAX_PRIORITY + 1})


# -- behaviour: failover, degradation, elasticity ----------------------------


@contextlib.asynccontextmanager
async def attached_router(n=2):
    """A router over *n* in-process backends (no subprocesses).

    Closing a backend's ``AsyncCompletionServer`` makes its address
    refuse connections — the router sees exactly what a SIGKILL'd
    process looks like, without any process or timing machinery.
    """
    backends = []
    for _ in range(n):
        server = AsyncCompletionServer(config=ServerConfig(port=0))
        await server.start()
        backends.append(server)
    router = CompletionRouter(RouterConfig(
        port=0, attach=tuple(f"{s.host}:{s.port}" for s in backends)))
    await router.start()
    client = AsyncCompletionClient(router.host, router.port)
    try:
        yield router, backends, client
    finally:
        await client.close()
        await router.close()
        for server in backends:
            await server.close()


def _owner_servers(router, backends, scene_id):
    servers = []
    for owner_id in router.ring.route_n(scene_id,
                                        router.config.replication):
        backend = router.backends[owner_id]
        for server in backends:
            if (server.host, server.port) == (backend.host, backend.port):
                servers.append(server)
                break
    return servers


class TestReplicaFailover:
    def test_kill_one_replica_serves_from_sibling(self):
        """One dead replica is invisible: the sibling answers the very
        next completion, full-fidelity (not degraded)."""
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                first = await client.complete(scene_id)
                assert first["inhabited"] is True

                primary = _owner_servers(router, backends, scene_id)[0]
                await primary.close()       # refuse all future connections

                served = await client.complete(scene_id)
                assert served["snippets"] == first["snippets"]
                assert "degraded" not in served
                assert router.failovers >= 1
                stats = await client.stats()
                section = stats["router"]
                assert section["failovers"] >= 1
                assert section["degraded_served"] == 0

        asyncio.run(main())

    def test_kill_during_burst_zero_errors_bounded_retries(self):
        """The timing-free e2e: a replica dies mid-burst.  Every request
        still answers full-fidelity, and the retry volume stays inside
        the budget envelope (granted <= ratio*requests + burst)."""
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                other = (await client.register_scene(
                    OTHER_SCENE))["scene_id"]
                await client.complete(scene_id)
                await client.complete(other)

                primary = _owner_servers(router, backends, scene_id)[0]
                total = 40
                for index in range(total):
                    if index == 5:
                        await primary.close()
                    served = await client.complete(
                        scene_id if index % 2 else other)
                    assert served.get("ok", True) is not False
                    assert "degraded" not in served

                budget = router.retry_budget
                ceiling = (budget.ratio * (total + 4) + budget.burst)
                assert budget.granted <= ceiling
                assert router.failovers >= 1
                # The very first post-kill contact marked the corpse
                # unhealthy; candidate ordering then routes around it,
                # so failovers stay far below one per post-kill request
                # (every one beyond the first paid a budget token).
                dead = router.backends[router.ring.route(scene_id)]
                assert dead.healthy is False
                assert dead.breaker.consecutive_failures >= 1
                assert router.failovers <= budget.granted + 1

        asyncio.run(main())

    def test_all_replicas_down_serves_degraded_from_lkg(self, monkeypatch):
        # burst=1: the budget runs dry before the breakers open, so this
        # test also proves exhaustion degrades instead of 5xx.  The
        # budget is built with the router, from the class.
        monkeypatch.setattr(CompletionRouter, "RETRY_BUDGET_BURST", 1.0)

        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                baseline = await client.complete(scene_id)
                assert baseline["inhabited"] is True

                for server in backends:
                    await server.close()    # every replica is gone

                served = await client.complete(scene_id)
                assert served["degraded"] is True
                assert served["snippets"] == baseline["snippets"]
                assert router.degraded_served == 1

                # The degraded path keeps answering while the budget
                # drains — and keeps answering after it's empty, too.
                for _ in range(5):
                    again = await client.complete(scene_id)
                    assert again["degraded"] is True
                assert router.retry_budget.denied > 0

        asyncio.run(main())

    def test_all_down_without_lkg_is_an_error_not_a_hang(self):
        """A never-completed query shape has nothing cached: with every
        replica down the client sees a clean error envelope."""
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                for server in backends:
                    await server.close()
                with pytest.raises(ServerError):
                    await client.complete(scene_id)

        asyncio.run(main())

    def test_degraded_stream_replays_cached_snippets(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                baseline = await client.complete(scene_id)
                for server in backends:
                    await server.close()

                chunks = []
                async for chunk in client.complete_stream(scene_id):
                    chunks.append(chunk)
                done = chunks[-1]
                assert done["chunk"] == "done"
                assert done["degraded"] is True
                streamed = [c for c in chunks if c["chunk"] == "snippet"]
                assert ([s["code"] for s in streamed]
                        == [s["code"] for s in baseline["snippets"]])

        asyncio.run(main())


class TestAdminElasticity:
    def test_add_by_address_replays_and_serves(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)

                extra = AsyncCompletionServer(config=ServerConfig(port=0))
                await extra.start()
                try:
                    added = await client.admin_backend(
                        "add", address=f"{extra.host}:{extra.port}")
                    assert added["backend"]["healthy"] is True
                    roster = await client.admin_backends()
                    assert len(roster["backends"]) == 3
                    assert roster["replication"] == 2

                    # The new backend owns a slice of the ring; scenes
                    # whose replica set now includes it were replayed.
                    new_id = added["backend"]["backend_id"]
                    owners = router.ring.route_n(
                        scene_id, router.config.replication)
                    if new_id in owners:
                        assert added["replayed"] >= 1
                    served = await client.complete(scene_id)
                    assert "degraded" not in served
                finally:
                    await extra.close()

        asyncio.run(main())

    def test_drain_moves_scenes_and_keeps_serving(self):
        async def main():
            async with attached_router(3) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                baseline = await client.complete(scene_id)

                victim_id = router.ring.route(scene_id)
                drained = await client.admin_backend(
                    "drain", backend_id=victim_id)
                assert drained["backend"]["draining"] is True
                assert victim_id not in router.ring.backends
                assert victim_id in router.backends   # still attached

                served = await client.complete(scene_id)
                assert served["snippets"] == baseline["snippets"]
                assert "degraded" not in served
                assert router.drains == 1

        asyncio.run(main())

    def test_remove_tears_down_and_survivors_serve(self):
        async def main():
            async with attached_router(3) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                baseline = await client.complete(scene_id)

                victim_id = router.ring.route(scene_id)
                removed = await client.admin_backend(
                    "remove", backend_id=victim_id)
                assert removed["removed"] is True
                assert victim_id not in router.backends
                roster = await client.admin_backends()
                assert len(roster["backends"]) == 2

                served = await client.complete(scene_id)
                assert served["snippets"] == baseline["snippets"]
                assert "degraded" not in served

        asyncio.run(main())

    def test_cannot_drain_the_last_backend(self):
        async def main():
            async with attached_router(1) as (router, backends, client):
                (backend_id,) = router.backends
                with pytest.raises(ServerError, match="last backend"):
                    await client.admin_backend("drain",
                                               backend_id=backend_id)

        asyncio.run(main())

    def test_unknown_backend_is_not_found(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                with pytest.raises(ServerError, match="unknown backend"):
                    await client.admin_backend("drain", backend_id="b99")

        asyncio.run(main())

    def test_attach_mode_add_requires_address(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                with pytest.raises(ServerError, match="address"):
                    await client.admin_backend("add")

        asyncio.run(main())


class TestBreakerObservability:
    def test_healthz_and_stats_surface_breaker_state(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)
                primary_id = router.ring.route(scene_id)
                primary = _owner_servers(router, backends, scene_id)[0]
                await primary.close()
                await client.complete(scene_id)     # trips a failure

                health = await client.healthz()
                by_id = {b["backend_id"]: b for b in health["backends"]}
                described = by_id[primary_id]["breaker"]
                assert described["consecutive_failures"] >= 1
                assert described["last_failure_at"] is not None

                stats = await client.stats()
                section = stats["router"]
                assert section["replication"] == 2
                assert primary_id in section["breakers"]
                budget = section["retry_budget"]
                assert {"ratio", "burst", "tokens", "granted",
                        "denied"} <= set(budget)

        asyncio.run(main())
