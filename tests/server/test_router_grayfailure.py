"""Gray-failure defences: deadlines, hedging, ejection, rebalancing.

Unit tests drive the router's pure helpers (each backend's latency
window, the deadline clamps, the ejection sweep, the skew policy) with
fabricated samples and clocks — no sleeps, no races.  Behaviour tests
run the router over *attached* in-process backends and simulate the
gray failure with ``ServerConfig(inject_latency_ms=...)`` — a backend
that answers, just pathologically late, which is exactly what a
SIGSTOP'd shard looks like from the router's side of the wire until
the attempt timeout fires.
"""

import asyncio
import contextlib
import dataclasses
import json
import socket
import threading

import pytest

import repro.server.server as server_module
from repro.server.client import (AsyncCompletionClient,
                                 DeadlineExceededError, OverloadedError,
                                 ServerError)
from repro.server.protocol import CompleteRequest, ProtocolError
from repro.server.router import Backend, CompletionRouter, RouterConfig
from repro.server.server import AsyncCompletionServer, ServerConfig

SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

SCENE_TEMPLATE = """
local name : String
imported demo.Box{index}.new : String -> Box{index} \
[freq=10] [style=constructor] [display=Box{index}]
goal Box{index}
"""


# -- latency tracker ---------------------------------------------------------


def _backend() -> Backend:
    return Backend(backend_id="t0", host="127.0.0.1", port=1, client=None)


class TestLatencyTracker:
    """Each backend tracks its service times in a 128-call
    :class:`~repro.server.metrics.LatencyWindow`."""

    def test_percentile_of_empty_window_is_none(self):
        backend = _backend()
        assert backend.latency.quantile(0.95) is None
        assert backend.describe()["latency"]["p95_ms"] is None

    def test_percentile_picks_the_tail(self):
        latency = _backend().latency
        for _ in range(99):
            latency.record(0.010)
        latency.record(1.0)                 # one outlier
        assert latency.quantile(0.5) == pytest.approx(0.010)
        assert latency.quantile(0.99) == pytest.approx(1.0)

    def test_reset_clears_window_but_keeps_lifetime_count(self):
        latency = _backend().latency
        latency.record(0.010)
        latency.record(0.020)
        latency.reset()
        assert latency.window_count == 0
        assert latency.quantile(0.5) is None
        assert latency.count == 2           # history stays in the books
        assert latency.total == pytest.approx(0.030)

    def test_describe_is_json_shaped(self):
        backend = _backend()
        for _ in range(200):
            backend.latency.record(0.0125)
        described = json.loads(json.dumps(backend.describe()))["latency"]
        assert described["count"] == 200
        assert described["buckets_us"] == [[12500, 128]]   # the last 128
        assert described["p50_ms"] == described["p95_ms"] == 12.5
        assert "ewma_ms" not in described


# -- deadline clamps (unit) --------------------------------------------------


def _set_constants(router: CompletionRouter, constants: dict) -> None:
    """Override router class constants (``HEDGE_FACTOR=0.0``, ...) on
    this one instance."""
    for name, value in constants.items():
        assert hasattr(CompletionRouter, name), f"no router constant {name}"
        setattr(router, name, value)


def _bare_router(n: int = 1, **constants) -> CompletionRouter:
    """An unstarted router over *n* fake backends, with *constants* set
    on the instance.

    The deadline, hedge-delay, ejection, and skew helpers are pure
    functions of backend state — no sockets needed, so the fakes carry
    no client at all.
    """
    router = CompletionRouter(RouterConfig(port=0))
    _set_constants(router, constants)
    for index in range(n):
        router._adopt_backend(Backend(backend_id=f"t{index}",
                                      host="127.0.0.1", port=1 + index,
                                      client=None))
    return router


class TestDeadlineClamps:
    def test_no_budget_means_no_deadline(self):
        request = CompleteRequest(scene_id="scn_1")
        assert CompletionRouter._deadline_at(request) is None
        assert CompletionRouter._remaining_budget_ms(None) is None

    def test_remaining_budget_is_clamped_at_zero(self):
        import time as _time
        spent = _time.monotonic() - 5.0     # died five seconds ago
        assert CompletionRouter._remaining_budget_ms(spent) == 0

    def test_fail_fast_raises_deadline_exceeded_and_counts(self):
        import time as _time
        router = _bare_router()
        router._fail_fast_if_spent(None)    # unbudgeted: never refused
        with pytest.raises(ProtocolError) as excinfo:
            router._fail_fast_if_spent(_time.monotonic() - 0.001)
        assert excinfo.value.code == "deadline_exceeded"
        assert router.deadline_exceeded == 1

    def test_attempt_timeout_is_min_of_config_and_remaining(self):
        import time as _time
        router = _bare_router(REQUEST_TIMEOUT_S=10.0)
        assert router._attempt_timeout_s(None) == 10.0
        soon = _time.monotonic() + 1.0
        assert router._attempt_timeout_s(soon) <= 1.0
        far = _time.monotonic() + 3600.0
        assert router._attempt_timeout_s(far) == 10.0
        assert router._attempt_timeout_s(_time.monotonic() - 1.0) == 0.0


class TestHedgeDelay:
    def test_cold_window_uses_the_floor(self):
        router = _bare_router(HEDGE_FLOOR_MS=80)
        backend = next(iter(router.backends.values()))
        assert router._hedge_delay_s(backend, None) == pytest.approx(0.080)

    def test_delay_is_percentile_derived(self):
        router = _bare_router(HEDGE_FACTOR=2.0, HEDGE_FLOOR_MS=10)
        backend = next(iter(router.backends.values()))
        for _ in range(20):
            backend.latency.record(0.100)   # p95 = 100 ms
        assert router._hedge_delay_s(backend, None) == pytest.approx(0.200)

    def test_delay_is_bounded_by_half_the_remaining_budget(self):
        import time as _time
        router = _bare_router(HEDGE_FACTOR=2.0, HEDGE_FLOOR_MS=500)
        backend = next(iter(router.backends.values()))
        deadline_at = _time.monotonic() + 0.100
        delay = router._hedge_delay_s(backend, deadline_at)
        assert delay is not None and delay <= 0.050 + 1e-3

    def test_factor_zero_disables_hedging(self):
        router = _bare_router(HEDGE_FACTOR=0.0)
        backend = next(iter(router.backends.values()))
        assert router._hedge_delay_s(backend, None) is None


# -- ejection sweep (unit) ---------------------------------------------------


def _feed(backend: Backend, ms: float, n: int) -> None:
    for _ in range(n):
        backend.latency.record(ms / 1000.0)


class TestEjectionSweep:
    def test_outlier_p95_is_ejected(self):
        router = _bare_router(3, EJECT_MIN_SAMPLES=8,
                              EJECT_MULTIPLIER=3.0)
        slow, *cohort = list(router.backends.values())
        _feed(slow, 500.0, 8)
        for backend in cohort:
            _feed(backend, 10.0, 8)
        router._sweep_ejections(now=100.0)
        assert slow.ejected is True
        assert router.ejections == 1
        assert all(not backend.ejected for backend in cohort)

    def test_needs_minimum_samples_on_both_sides(self):
        router = _bare_router(2, EJECT_MIN_SAMPLES=8)
        slow, fast = list(router.backends.values())
        _feed(slow, 500.0, 8)
        _feed(fast, 10.0, 7)                # cohort one sample short
        router._sweep_ejections(now=100.0)
        assert slow.ejected is False

    def test_single_backend_never_ejects_itself(self):
        router = _bare_router(EJECT_MIN_SAMPLES=1)
        (backend,) = router.backends.values()
        _feed(backend, 500.0, 10)
        router._sweep_ejections(now=100.0)
        assert backend.ejected is False

    def test_ejection_clears_after_reset_with_a_fresh_window(self):
        router = _bare_router(2, EJECT_MIN_SAMPLES=4, EJECT_RESET_S=5.0)
        slow, fast = list(router.backends.values())
        _feed(slow, 500.0, 4)
        _feed(fast, 10.0, 4)
        router._sweep_ejections(now=100.0)
        assert slow.ejected is True
        router._sweep_ejections(now=104.0)  # still inside the penalty
        assert slow.ejected is True
        router._sweep_ejections(now=105.0)
        assert slow.ejected is False
        assert slow.latency.window_count == 0, (
            "readmission must be judged on post-recovery samples only")

    def test_ejected_backend_sorts_last_among_healthy(self):
        router = _bare_router(2)
        scene_id = "scn_order"
        first = router._candidates(scene_id)[0]
        first.ejected = True
        assert router._candidates(scene_id)[0] is not first
        assert first in router._candidates(scene_id)    # last resort

    def test_load_does_not_reorder_healthy_owners(self):
        # Reads stay on the primary that warmed the scene; spreading them
        # by load made each replica pay the same cold synthesis.
        router = _bare_router(2)
        scene_id = "scn_order"
        first, second = router._candidates(scene_id)
        first.inflight, second.inflight = 50, 0
        assert router._candidates(scene_id) == [first, second]


# -- skew policy (unit) ------------------------------------------------------


class TestSkewPolicy:
    def test_skew_pair_requires_ratio_and_absolute_gap(self):
        router = _bare_router(2, REBALANCE_SKEW_RATIO=3.0,
                              REBALANCE_MIN_GAP=4.0)
        hot, cold = list(router.backends.values())
        hot.load_ewma, cold.load_ewma = 3.0, 0.5
        assert router._skew_pair() is None  # 6x ratio but gap only 2.5
        hot.load_ewma = 12.0
        pair = router._skew_pair()
        assert pair is not None and pair[0] is hot and pair[1] is cold
        cold.load_ewma = 5.0                # gap 7 but ratio only 2.4x
        assert router._skew_pair() is None

    def test_unhealthy_and_draining_backends_are_not_rebalance_peers(self):
        router = _bare_router(2)
        hot, cold = list(router.backends.values())
        hot.load_ewma, cold.load_ewma = 100.0, 0.0
        cold.healthy = False
        assert router._skew_pair() is None  # one live backend is no pair

    def test_sweep_waits_out_the_dwell_before_acting(self):
        """The policy needs *sustained* skew: a single hot sample must
        not trigger a move, and the dwell clock resets when skew
        subsides."""
        async def main():
            router = _bare_router(2, REBALANCE_DWELL_S=10.0,
                                  REBALANCE_MIN_GAP=1.0,
                                  REBALANCE_SKEW_RATIO=2.0)
            hot, cold = list(router.backends.values())
            fired = []

            async def _recording_rebalance(a, b):
                fired.append((a.backend_id, b.backend_id))
                router._skew_since = None
                return {"from": a.backend_id, "to": b.backend_id,
                        "scenes": [], "at": 0.0}

            router._rebalance_once = _recording_rebalance
            hot.inflight, cold.inflight = 50, 0
            await router._sweep_rebalance(now=100.0)    # skew noticed
            await router._sweep_rebalance(now=105.0)    # inside dwell
            assert fired == []
            hot.inflight = 0                            # skew subsides
            for tick in (106.0, 107.0, 108.0, 120.0):
                hot.load_ewma = 0.0                     # decayed away
                await router._sweep_rebalance(now=tick)
            assert fired == [], "dwell must reset when skew subsides"
            hot.inflight = 50
            hot.load_ewma, cold.load_ewma = 50.0, 0.0
            await router._sweep_rebalance(now=200.0)
            await router._sweep_rebalance(now=211.0)    # dwell served
            assert fired == [(hot.backend_id, cold.backend_id)]

        asyncio.run(main())

    def test_dwell_zero_disables_the_automatic_policy(self):
        async def main():
            router = _bare_router(2, REBALANCE_DWELL_S=0.0)
            hot, cold = list(router.backends.values())
            hot.load_ewma = 1000.0
            await router._sweep_rebalance(now=100.0)
            assert router._skew_since is None
            assert router.rebalances == 0

        asyncio.run(main())


# -- behaviour: in-process topology ------------------------------------------


@contextlib.asynccontextmanager
async def attached_router(n=2, server_configs=None, **constants):
    """A router over *n* in-process backends (no subprocesses), with
    router *constants* set on its instance.

    ``server_configs`` lets a test hand individual backends a
    ``ServerConfig`` — e.g. ``inject_latency_ms`` to make exactly one
    shard pathologically slow, the in-process stand-in for SIGSTOP.
    """
    backends = []
    for index in range(n):
        config = (server_configs[index] if server_configs
                  else ServerConfig(port=0))
        server = AsyncCompletionServer(config=config)
        await server.start()
        backends.append(server)
    router = CompletionRouter(RouterConfig(
        port=0, attach=tuple(f"{s.host}:{s.port}" for s in backends)))
    _set_constants(router, constants)
    await router.start()
    client = AsyncCompletionClient(router.host, router.port)
    try:
        yield router, backends, client
    finally:
        await client.close()
        await router.close()
        for server in backends:
            await server.close()


def _make_slow(server, latency_ms):
    """Turn one live backend gray: it still answers, just very late."""
    server.config = dataclasses.replace(server.config,
                                        inject_latency_ms=latency_ms)


async def _stream(client, scene_id, **kwargs):
    return [chunk async for chunk in client.complete_stream(scene_id,
                                                            **kwargs)]


def _peer_closed(writer) -> bool:
    """Whether the far end of one server-side connection has closed."""
    fd = socket.dup(writer.transport.get_extra_info("socket").fileno())
    with socket.socket(fileno=fd) as sock:
        try:
            return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
        except BlockingIOError:
            return False


def _primary_index(router, backends, scene_id):
    backend = router.backends[router._candidates(scene_id)[0].backend_id]
    for index, server in enumerate(backends):
        if (server.host, server.port) == (backend.host, backend.port):
            return index
    raise AssertionError("primary owner is not one of our servers")


class TestDeadlineBehaviour:
    def test_spent_budget_is_refused_with_504_and_never_retried(self):
        """Every replica is slow and the budget is tiny: the attempt
        timeout clamps to the remaining budget, the request dies with
        ``deadline_exceeded`` — and the ladder must *not* spend retry
        tokens chasing a budget the client already gave up on."""
        async def main():
            slow = [ServerConfig(port=0, inject_latency_ms=2_000)
                    for _ in range(2)]
            async with attached_router(
                    2, server_configs=slow,
                    HEDGE_FACTOR=0.0) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                with pytest.raises(DeadlineExceededError):
                    await client.complete(scene_id, n=5, budget_ms=80)
                assert router.deadline_exceeded >= 1
                assert router.retry_budget.granted == 0, (
                    "deadline_exceeded must never be retried")
                assert router.failovers == 0

        asyncio.run(main())

    def test_spent_budget_stream_is_refused_like_a_unary_read(self):
        """A routed stream anchors the client's budget at the router and
        fails fast once it is spent — the unary read's ladder."""
        async def main():
            slow = [ServerConfig(port=0, inject_latency_ms=2_000)
                    for _ in range(2)]
            async with attached_router(
                    2, server_configs=slow,
                    HEDGE_FACTOR=0.0) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                with pytest.raises(DeadlineExceededError):
                    await _stream(client, scene_id, n=5, budget_ms=80)
                assert router.deadline_exceeded >= 1
                assert router.retry_budget.granted == 0
                assert router.failovers == 0

        asyncio.run(main())

    def test_unbudgeted_requests_still_serve_from_slow_backends(self):
        async def main():
            slow = [ServerConfig(port=0, inject_latency_ms=50)
                    for _ in range(2)]
            async with attached_router(
                    2, server_configs=slow,
                    HEDGE_FACTOR=0.0) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                served = await client.complete(scene_id, n=5)
                assert served["snippets"]
                assert router.deadline_exceeded == 0

        asyncio.run(main())


class TestHedgingBehaviour:
    def test_slow_primary_is_hedged_to_the_sibling(self):
        """One shard answers late (the gray failure); the request's
        hedge must complete on the fast sibling well inside the budget,
        spending exactly one retry token."""
        async def main():
            async with attached_router(
                    2, HEDGE_FLOOR_MS=30) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                baseline = await client.complete(scene_id, n=6)

                primary = _primary_index(router, backends, scene_id)
                _make_slow(backends[primary], 2_000)

                served = await client.complete(scene_id, n=7,
                                               budget_ms=10_000)
                assert served["snippets"]
                assert "degraded" not in served
                assert [s["code"] for s in served["snippets"]][:6] == [
                    s["code"] for s in baseline["snippets"]][:6]
                assert router.hedges >= 1
                assert router.hedges_won >= 1
                assert router.retry_budget.granted >= 1, (
                    "hedges must spend the shared retry-budget bucket")

        asyncio.run(main())

    def test_slow_primary_is_hedged_for_a_stream_too(self):
        """A stream is opened by the unary read's ladder, hedge included:
        a slow primary's stream completes on the sibling with the unary
        baseline's snippets."""
        async def main():
            async with attached_router(
                    2, HEDGE_FLOOR_MS=30) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                baseline = await client.complete(scene_id, n=6)

                primary = _primary_index(router, backends, scene_id)
                _make_slow(backends[primary], 2_000)

                chunks = await _stream(client, scene_id, n=6)
                done = chunks[-1]
                assert done["chunk"] == "done"
                assert "degraded" not in done
                assert done["snippets"] == baseline["snippets"]
                assert [c["code"] for c in chunks[:-1]] == [
                    s["code"] for s in baseline["snippets"]]
                assert router.hedges >= 1
                assert router.hedges_won >= 1

                # Cancelling the losing arm closed its stream to the slow
                # primary; it is not held open until the primary answers.
                slow = backends[primary]
                for _ in range(100):
                    if any(map(_peer_closed, slow.front._conn_writers)):
                        break
                    await asyncio.sleep(0.01)
                assert any(map(_peer_closed, slow.front._conn_writers))

        asyncio.run(main())

    def test_sibling_at_least_as_loaded_gets_no_hedge(self):
        """A hedge onto a sibling carrying as many calls as the primary
        would queue a duplicate synthesis behind its own work: the slow
        primary answers instead."""
        async def main():
            async with attached_router(
                    2, HEDGE_FLOOR_MS=30) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                await client.complete(scene_id, n=6)
                primary, sibling = router._candidates(scene_id)
                _make_slow(backends[_primary_index(router, backends,
                                                   scene_id)], 300)
                sibling.inflight += 1       # one call in flight there too
                try:
                    served = await client.complete(scene_id, n=7)
                finally:
                    sibling.inflight -= 1
                assert served["snippets"]
                assert router.hedges == 0

        asyncio.run(main())

    def test_primary_answering_other_calls_gets_no_hedge(self):
        """A primary that keeps answering is busy, not stalled: the
        attempt waits on it past the hedge delay."""
        async def main():
            async with attached_router(
                    2, HEDGE_FLOOR_MS=30) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                await client.complete(scene_id, n=6)
                primary = router._candidates(scene_id)[0]
                _make_slow(backends[_primary_index(router, backends,
                                                   scene_id)], 300)

                async def answering():
                    while True:
                        await asyncio.sleep(0.01)
                        primary.answered += 1

                ticker = asyncio.ensure_future(answering())
                try:
                    served = await client.complete(scene_id, n=7)
                finally:
                    ticker.cancel()
                assert served["snippets"]
                assert router.hedges == 0

        asyncio.run(main())

    def test_dry_budget_blocks_the_hedge(self, monkeypatch):
        # The retry budget is built with the router, from the class.
        monkeypatch.setattr(CompletionRouter, "RETRY_BUDGET_BURST", 1.0)

        async def main():
            async with attached_router(
                    2, HEDGE_FLOOR_MS=10) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                await client.complete(scene_id, n=6)

                primary = _primary_index(router, backends, scene_id)
                _make_slow(backends[primary], 150)
                while router.retry_budget.try_spend():
                    pass                    # drain the bucket dry

                served = await client.complete(scene_id, n=7)
                assert served["snippets"], (
                    "a dry bucket parks the request on the primary — "
                    "slow, but served")
                assert router.hedges == 0
                assert router.retry_budget.denied >= 1

        asyncio.run(main())


class TestRoutedPriority:
    def test_low_priority_stream_is_shed_like_a_unary_read(
            self, monkeypatch):
        """Both replicas sit at the soft watermark (1 of 4 pending at
        ``SHED_WATERMARK = 0.25``): the router forwards the client's
        priority, so a priority-0 stream is shed with 429 exactly like a
        priority-0 unary read."""
        release = threading.Event()
        real = server_module._run_synthesis

        def blocking_synthesis(*args):
            release.wait(10)
            return real(*args)

        monkeypatch.setattr(server_module, "_run_synthesis",
                            blocking_synthesis)
        monkeypatch.setattr(AsyncCompletionServer, "SHED_WATERMARK", 0.25)

        async def main():
            tight = [ServerConfig(port=0, max_pending=4) for _ in range(2)]
            async with attached_router(
                    2, server_configs=tight,
                    HEDGE_FACTOR=0.0) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                directs = [AsyncCompletionClient(server.host, server.port)
                           for server in backends]
                held = [asyncio.create_task(direct.complete(scene_id, n=1))
                        for direct in directs]
                try:
                    for _ in range(500):
                        if all(server.metrics.queue_depth >= 1
                               for server in backends):
                            break
                        await asyncio.sleep(0.01)
                    assert all(server.metrics.queue_depth == 1
                               for server in backends)
                    with pytest.raises(OverloadedError):
                        await client.complete(scene_id, n=2, priority=0)
                    with pytest.raises(OverloadedError):
                        await asyncio.wait_for(
                            _stream(client, scene_id, n=2, priority=0), 5)
                finally:
                    release.set()
                    await asyncio.gather(*held)
                    for direct in directs:
                        await direct.close()

        asyncio.run(main())


class TestRebalanceBehaviour:
    ZIPF_HITS = (64, 32, 16, 8, 4, 2)       # the skewed-tail workload

    async def _zipf_traffic(self, client, scenes=6):
        """Register *scenes* scenes and drive a Zipf-shaped completion
        mix over them; returns their scene ids, hottest first."""
        scene_ids = []
        for index in range(scenes):
            text = SCENE_TEMPLATE.format(index=index)
            scene_ids.append((await client.register_scene(
                text, name=f"zipf{index}.ins"))["scene_id"])
        for scene_id, hits in zip(scene_ids, self.ZIPF_HITS):
            for _ in range(hits):
                await client.complete(scene_id, n=3)
        return scene_ids

    @staticmethod
    def _traffic_share(router):
        """Per-backend share of observed scene traffic, by current
        candidate ordering — the quantity rebalancing exists to level."""
        shares = {backend_id: 0 for backend_id in router.backends}
        for scene_id, hits in router._scene_traffic.items():
            owner = router._candidates(scene_id)[0].backend_id
            shares[owner] += hits
        return shares

    def test_admin_rebalance_moves_hot_scenes_to_the_cold_owner(self):
        """The Zipf gate: a skewed-tail workload concentrates traffic
        on one owner; one ``rebalance`` admin action must re-home hot
        scenes so the hottest owner's share strictly drops — with every
        moved scene still answering full-fidelity from its new home."""
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_ids = await self._zipf_traffic(client)
                before = self._traffic_share(router)
                hot_id = max(before, key=before.get)
                cold_id = min(before, key=before.get)
                assert before[hot_id] > before[cold_id], (
                    "the Zipf mix must actually skew (seeded, so this "
                    "is deterministic)")

                moved = await client.admin_backend("rebalance")
                assert moved["moved"] >= 1
                assert moved["from"] == hot_id
                assert moved["to"] == cold_id

                after = self._traffic_share(router)
                # Moved scenes were popped from the traffic ledger, so
                # compare by re-measuring a fresh identical mix.
                for scene_id, hits in zip(scene_ids, self.ZIPF_HITS):
                    for _ in range(hits):
                        await client.complete(scene_id, n=3)
                after = self._traffic_share(router)
                assert after[hot_id] < before[hot_id], (
                    f"hot owner share did not drop: {before} -> {after}")
                assert after[cold_id] > before[cold_id]

                for scene_id in moved["scenes"]:
                    assert (router._candidates(scene_id)[0].backend_id
                            == cold_id), "moved scene not homed cold"
                    served = await client.complete(scene_id, n=5)
                    assert served["snippets"] and "degraded" not in served

                assert router.rebalances == 1
                assert len(router.rebalance_events) == 1
                stats = await client.stats()
                section = stats["router"]
                assert section["rebalances"] == 1
                assert section["rebalance_events"][0]["from"] == hot_id

        asyncio.run(main())

    def test_rebalance_without_skew_is_refused(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                with pytest.raises(ServerError, match="skew|two live"):
                    await client.admin_backend("rebalance")

        asyncio.run(main())

    def test_rebalance_needs_two_live_backends(self):
        async def main():
            async with attached_router(1) as (router, backends, client):
                with pytest.raises(ServerError, match="two live"):
                    await client.admin_backend("rebalance")

        asyncio.run(main())


class TestGraySignalsSurface:
    def test_stats_and_healthz_carry_the_gray_counters(self):
        async def main():
            async with attached_router(2) as (router, backends, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                await client.complete(scene_id, n=5)
                stats = await client.stats()
                section = stats["router"]
                assert section["deadline_exceeded"] == 0
                assert section["slow_timeouts"] == 0
                assert section["hedges"] == {"fired": 0, "won": 0}
                assert section["ejections"] == 0
                assert section["ejected"] == []
                assert section["rebalances"] == 0
                assert section["rebalance_events"] == []
                latencies = section["backend_latency"]
                assert set(latencies) == set(router.backends)
                assert any(doc["count"] >= 1
                           for doc in latencies.values()), (
                    "serving must feed the per-backend latency windows")

                health = await client.healthz()
                for doc in health["backends"]:
                    assert "ejected" in doc
                    assert "latency" in doc

        asyncio.run(main())
