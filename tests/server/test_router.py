"""The sharded router: hash ring, journal, routing, supervision.

Unit tests cover the pure pieces (:class:`HashRing`, :class:`SceneJournal`,
``check_config``); the serving tests run the router over *attached*
in-process :class:`AsyncCompletionServer` backends (fast, no subprocesses);
the end-to-end test spawns two real ``repro serve`` backend processes,
kills one, and asserts the respawned replica loses no client-visible
state — journal replay re-registers its scenes and the snapshot restore
makes the retried completion a warm cache hit.
"""

import asyncio
import contextlib
from pathlib import Path

import pytest

from repro.server.client import (AsyncCompletionClient, SceneNotFoundError,
                                 ServerError)
from repro.server.router import (CompletionRouter, HashRing, RouterConfig,
                                 SceneJournal, check_config)
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

THIRD_SCENE = """
local flag : Boolean
imported demo.Gate.new : Boolean -> Gate \
[freq=10] [style=constructor] [display=Gate]
goal Gate
"""


class TestHashRing:
    def test_routing_is_deterministic_and_total(self):
        ring = HashRing(replicas=32)
        for backend in ("b0", "b1", "b2"):
            ring.add(backend)
        keys = [f"scn_{i:08x}" for i in range(500)]
        first = [ring.route(key) for key in keys]
        assert first == [ring.route(key) for key in keys]
        assert set(first) <= {"b0", "b1", "b2"}
        assert len(set(first)) == 3          # every backend owns something

    def test_adding_a_backend_only_pulls_keys_to_it(self):
        """Consistency: a new backend can only *claim* keys — no key may
        move between two pre-existing backends."""
        ring = HashRing(replicas=64)
        for backend in ("b0", "b1", "b2"):
            ring.add(backend)
        keys = [f"scn_{i:08x}" for i in range(2000)]
        before = {key: ring.route(key) for key in keys}
        ring.add("b3")
        moved = {key for key in keys if ring.route(key) != before[key]}
        assert moved, "a new backend must own part of the keyspace"
        assert all(ring.route(key) == "b3" for key in moved)
        # ~1/N of the keyspace moves, not ~all of it (the modulo-hash
        # failure mode this ring exists to avoid).
        assert len(moved) / len(keys) < 0.5

    def test_removing_a_backend_only_moves_its_own_keys(self):
        ring = HashRing(replicas=64)
        for backend in ("b0", "b1", "b2"):
            ring.add(backend)
        keys = [f"scn_{i:08x}" for i in range(2000)]
        before = {key: ring.route(key) for key in keys}
        ring.remove("b1")
        for key in keys:
            if before[key] != "b1":
                assert ring.route(key) == before[key]
            else:
                assert ring.route(key) in ("b0", "b2")

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(replicas=8)
        ring.add("b0")
        ring.add("b0")
        assert len(ring) == 1
        ring.remove("missing")
        ring.remove("b0")
        assert len(ring) == 0
        with pytest.raises(Exception):
            ring.route("anything")

    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


class TestHashRingReplicaOwnership:
    """R-replica ownership invariants for :meth:`HashRing.route_n`."""

    KEYS = [f"scn_{i:08x}" for i in range(1500)]

    @staticmethod
    def _ring(backend_ids, replicas=64):
        ring = HashRing(replicas=replicas)
        for backend_id in backend_ids:
            ring.add(backend_id)
        return ring

    def test_every_key_has_r_distinct_owners(self):
        ring = self._ring(["b0", "b1", "b2", "b3"])
        for key in self.KEYS:
            owners = ring.route_n(key, 2)
            assert len(owners) == 2
            assert len(set(owners)) == 2    # never collapses to duplicates
            assert ring.route(key) == owners[0]

    def test_owner_sets_clamp_to_ring_size(self):
        ring = self._ring(["b0", "b1"])
        for key in self.KEYS[:100]:
            assert len(set(ring.route_n(key, 3))) == 2
        solo = self._ring(["b0"])
        assert solo.route_n("anything", 2) == ["b0"]

    def test_adding_a_backend_only_inserts_itself_into_owner_sets(self):
        """Consistency per replica slot: a new backend may claim a place
        in a key's owner set (pushing at most one old owner out), but can
        never reshuffle keys between pre-existing backends."""
        ring = self._ring(["b0", "b1", "b2"])
        before = {key: ring.route_n(key, 2) for key in self.KEYS}
        ring.add("b3")
        changed = 0
        for key in self.KEYS:
            old, new = set(before[key]), set(ring.route_n(key, 2))
            if new != old:
                changed += 1
                assert new - old == {"b3"}
                assert len(old - new) == 1
        assert changed, "a new backend must claim part of some owner sets"

    def test_add_remove_remaps_a_bounded_fraction_of_replica_pairs(self):
        """~R/N of (key, replica-slot) pairs move on add/remove, not ~all
        — the modulo-hash failure mode, replicated."""
        ring = self._ring(["b0", "b1", "b2", "b3"])
        before = {key: ring.route_n(key, 2) for key in self.KEYS}
        ring.add("b4")
        moved = sum(
            1
            for key in self.KEYS
            for slot, owner in enumerate(ring.route_n(key, 2))
            if owner != before[key][slot])
        assert 0 < moved / (2 * len(self.KEYS)) < 0.5

        before = {key: ring.route_n(key, 2) for key in self.KEYS}
        ring.remove("b1")
        for key in self.KEYS:
            old, new = before[key], ring.route_n(key, 2)
            if "b1" not in old:
                # Keys b1 never owned keep their owner set; the surviving
                # owners' relative order is stable too.
                assert new == old


class TestSceneJournal:
    def test_record_is_content_addressed_and_idempotent(self, tmp_path):
        journal = SceneJournal(str(tmp_path / "journal.jsonl"))
        assert journal.record(digest="d1", scene_id="scn_a", name="demo",
                              text=SCENE)
        assert not journal.record(digest="d1", scene_id="scn_a",
                                  name="demo", text=SCENE)
        assert len(journal) == 1
        assert journal.lookup_digest("d1").scene_id == "scn_a"
        assert journal.lookup_scene("scn_a").text == SCENE

    def test_replay_from_disk_is_idempotent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SceneJournal(path)
        journal.record(digest="d1", scene_id="scn_a", name=None, text="t1")
        journal.record(digest="d2", scene_id="scn_b", name="b", text="t2")

        for _ in range(3):                  # reload repeatedly: same state
            reloaded = SceneJournal(path)
            assert len(reloaded) == 2
            assert {e.scene_id for e in reloaded.entries()} \
                == {"scn_a", "scn_b"}
            assert reloaded.corrupt_lines == 0

    def test_release_tombstones_survive_reload(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SceneJournal(path)
        journal.record(digest="d1", scene_id="scn_a", name=None, text="t1")
        journal.record(digest="d2", scene_id="scn_b", name=None, text="t2")
        assert journal.remove("scn_a")
        assert not journal.remove("scn_a")  # already tombstoned

        reloaded = SceneJournal(path)
        assert reloaded.lookup_scene("scn_a") is None
        assert reloaded.lookup_digest("d1") is None
        assert reloaded.lookup_scene("scn_b") is not None

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SceneJournal(str(path))
        journal.record(digest="d1", scene_id="scn_a", name=None, text="t1")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"op": "register", "digest": "d2"')  # torn append

        reloaded = SceneJournal(str(path))
        assert len(reloaded) == 1
        assert reloaded.corrupt_lines == 1

    def test_churned_journal_compacts_on_reload(self, tmp_path):
        """Register/release churn must not grow the file (and every
        restart's replay) with history instead of the live set."""
        path = tmp_path / "journal.jsonl"
        journal = SceneJournal(str(path))
        for index in range(30):
            journal.record(digest=f"d{index}", scene_id=f"scn_{index}",
                           name=None, text="t")
            journal.remove(f"scn_{index}")
        journal.record(digest="live", scene_id="scn_live", name=None,
                       text="t")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 61

        reloaded = SceneJournal(str(path))
        assert reloaded.compactions == 1
        assert len(reloaded) == 1
        assert reloaded.lookup_scene("scn_live") is not None
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

        # Compaction converges: a clean file is left alone.
        again = SceneJournal(str(path))
        assert again.compactions == 0
        assert len(again) == 1

    def test_check_config_never_rewrites_the_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SceneJournal(str(path))
        for index in range(30):
            journal.record(digest=f"d{index}", scene_id=f"scn_{index}",
                           name=None, text="t")
            journal.remove(f"scn_{index}")
        before = path.read_bytes()
        assert check_config(RouterConfig(backends=2,
                                         journal_path=str(path))) == []
        assert path.read_bytes() == before   # the dry run is read-only

    def test_memory_only_journal_works_without_a_path(self):
        journal = SceneJournal(None)
        journal.record(digest="d1", scene_id="scn_a", name=None, text="t")
        assert len(journal) == 1
        assert journal.remove("scn_a")
        assert len(journal) == 0


class TestCheckConfig:
    def test_valid_spawn_config(self, tmp_path):
        assert check_config(RouterConfig(
            backends=2, journal_path=str(tmp_path / "j.jsonl"),
            snapshot_dir=str(tmp_path / "snaps"))) == []

    def test_valid_attach_config(self):
        assert check_config(RouterConfig(
            attach=("127.0.0.1:8777", "127.0.0.1:8778"))) == []

    def test_rejects_bad_backend_count_and_ring(self):
        problems = check_config(RouterConfig(backends=0, ring_replicas=0))
        assert len(problems) == 2

    def test_rejects_malformed_attach_address(self):
        problems = check_config(RouterConfig(attach=("localhost",)))
        assert any("host:port" in p for p in problems)

    def test_rejects_snapshot_dir_with_attach(self, tmp_path):
        problems = check_config(RouterConfig(
            attach=("127.0.0.1:8777",), snapshot_dir=str(tmp_path)))
        assert any("snapshot-dir" in p for p in problems)

    def test_rejects_missing_journal_directory(self, tmp_path):
        problems = check_config(RouterConfig(
            backends=2, journal_path=str(tmp_path / "absent" / "j.jsonl")))
        assert any("does not exist" in p for p in problems)

    def test_reports_corrupt_journal_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"op": "register", "digest": "d", "scene_id": '
                        '"s", "text": "t"}\nnot json\n', encoding="utf-8")
        problems = check_config(RouterConfig(backends=2,
                                             journal_path=str(path)))
        assert any("unreadable" in p for p in problems)


@contextlib.asynccontextmanager
async def attached_router(n=2, **router_overrides):
    """A router over *n* in-process backends (no subprocesses)."""
    backends = []
    for _ in range(n):
        server = AsyncCompletionServer(config=ServerConfig(port=0))
        await server.start()
        backends.append(server)
    router = CompletionRouter(RouterConfig(
        port=0, attach=tuple(f"{s.host}:{s.port}" for s in backends),
        **router_overrides))
    await router.start()
    client = AsyncCompletionClient(router.host, router.port)
    try:
        yield router, backends, client
    finally:
        await client.close()
        await router.close()
        for server in backends:
            await server.close()


def _backend_for(router, backends, scene_id):
    """The in-process server a scene id's *primary* owner routes to."""
    return _owner_servers(router, backends, scene_id)[0]


def _owner_servers(router, backends, scene_id):
    """The in-process servers of the scene's replica set, ring order."""
    servers = []
    for owner_id in router.ring.route_n(scene_id,
                                        router.config.replication):
        backend = router.backends[owner_id]
        for server in backends:
            if (server.host, server.port) == (backend.host, backend.port):
                servers.append(server)
                break
        else:
            raise AssertionError("ring routed to an unknown backend")
    return servers


class TestRoutedServing:
    def test_register_complete_and_warm_through_router(self):
        async def main():
            # Three backends, R=2: the replica set is a strict subset, so
            # both placement *and* non-placement are observable.
            async with attached_router(3) as (router, backends, client):
                registered = await client.register_scene(SCENE, name="demo")
                scene_id = registered["scene_id"]
                assert registered["declarations"] == 2

                cold = await client.complete(scene_id)
                assert cold["inhabited"] is True
                assert cold["snippets"][0]["code"] == "new File(name)"
                warm = await client.complete(scene_id)
                assert warm["cache_hit"] is True
                assert warm["snippets"] == cold["snippets"]

                # The scene lives on every replica-set owner and nowhere
                # else.
                owners = _owner_servers(router, backends, scene_id)
                assert len(owners) == 2
                assert all(scene_id in server.registry
                           for server in owners)
                others = [s for s in backends if s not in owners]
                assert all(scene_id not in s.registry for s in others)

        asyncio.run(main())

    def test_scenes_spread_over_shards_consistently(self):
        async def main():
            async with attached_router() as (router, backends, client):
                scene_ids = []
                for text in (SCENE, OTHER_SCENE, THIRD_SCENE):
                    scene_ids.append(
                        (await client.register_scene(text))["scene_id"])
                for scene_id in scene_ids:
                    served = await client.complete(scene_id)
                    assert served["scene_id"] == scene_id
                    # Every scene is registered exactly where the ring
                    # says — and re-asking routes identically.
                    owner = _backend_for(router, backends, scene_id)
                    assert scene_id in owner.registry

        asyncio.run(main())

    def test_inline_scene_completes_and_caches_through_router(self):
        async def main():
            async with attached_router() as (router, backends, client):
                cold = await client.complete(scene=SCENE)
                assert cold["snippets"]
                warm = await client.complete(scene=SCENE)
                assert warm["cache_hit"] is True
                override = await client.complete(scene=SCENE, goal="String")
                assert override["snippets"][0]["code"] == "name"

        asyncio.run(main())

    def test_unknown_scene_reregisters_from_journal_transparently(self):
        async def main():
            async with attached_router() as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                cold = await client.complete(scene_id)

                # The backend loses the scene behind the router's back
                # (eviction / unsupervised restart).
                owner = _backend_for(router, backends, scene_id)
                assert owner.registry.release(scene_id)

                served = await client.complete(scene_id)
                assert served["snippets"] == cold["snippets"]
                assert router.reregistrations == 1
                assert scene_id in owner.registry   # re-taught

        asyncio.run(main())

    def test_unjournaled_unknown_scene_stays_not_found(self):
        async def main():
            async with attached_router() as (router, backends, client):
                with pytest.raises(SceneNotFoundError):
                    await client.complete("scn_0000000000000000")
                assert router.reregistrations == 0

        asyncio.run(main())

    def test_release_through_router_tombstones_the_journal(self):
        async def main():
            async with attached_router() as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)

                released = await client.release_scene(scene_id)
                assert released["released"] is True
                assert router.journal.lookup_scene(scene_id) is None
                # Without a journal entry there is nothing to replay: the
                # scene is gone for good, not resurrected.
                with pytest.raises(SceneNotFoundError):
                    await client.complete(scene_id)

                again = await client.release_scene(scene_id)
                assert again["released"] is False   # idempotent

        asyncio.run(main())

    def test_batch_routes_each_query_to_its_shard(self):
        async def main():
            async with attached_router() as (router, backends, client):
                first = (await client.register_scene(SCENE))["scene_id"]
                second = (await client.register_scene(
                    OTHER_SCENE))["scene_id"]
                results = await client.complete_batch([
                    {"scene_id": first},
                    {"scene_id": "scn_missing"},
                    {"scene_id": second, "n": 1},
                ])
                assert results[0]["ok"] is True
                assert results[1]["ok"] is False
                assert results[1]["error"]["code"] == "not_found"
                assert results[2]["ok"] is True
                assert len(results[2]["snippets"]) == 1

        asyncio.run(main())

    def test_fresh_scene_text_reaches_each_owner_once(self):
        async def main():
            # Two backends, R=2: the probe backend is always an owner; it
            # must not be sent the text a second time, which would answer
            # a digest hit (cached: true) for a scene nobody had.
            async with attached_router(2) as (router, backends, client):
                def registrations():
                    return sum(server.metrics.requests[
                        "POST /v1/register-scene"] for server in backends)

                for text in (SCENE, OTHER_SCENE, THIRD_SCENE):
                    before = registrations()
                    fresh = await client.register_scene(text)
                    assert fresh["cached"] is False
                    assert registrations() - before == 2
                    again = await client.register_scene(text)
                    assert again["cached"] is True

        asyncio.run(main())

    def test_backend_errors_pass_through_with_their_codes(self):
        async def main():
            async with attached_router() as (router, backends, client):
                with pytest.raises(ServerError) as excinfo:
                    await client.register_scene("local broken :\n")
                assert excinfo.value.code == "scene_error"
                assert excinfo.value.status == 422

        asyncio.run(main())


class TestAggregatedStats:
    def test_merged_counters_equal_sum_of_shards(self):
        async def main():
            async with attached_router() as (router, backends, client):
                for text in (SCENE, OTHER_SCENE, THIRD_SCENE):
                    scene_id = (await client.register_scene(
                        text))["scene_id"]
                    await client.complete(scene_id)
                    await client.complete(scene_id)      # warm hit

                stats = await client.stats()
                assert len(stats["shards"]) == 2
                shard_stats = [shard["stats"]["server"]
                               for shard in stats["shards"]]
                for counter in ("completions", "cache_hits", "synthesized",
                                "scenes_registered", "coalesced"):
                    assert stats["server"][counter] == sum(
                        shard[counter] for shard in shard_stats), counter
                assert stats["server"]["completions"] == 6
                assert stats["server"]["cache_hits"] == 3

                # Cross-check against the in-process backend truth.
                assert stats["server"]["synthesized"] == sum(
                    server.metrics.synthesized for server in backends)

                router_section = stats["router"]
                assert router_section["backends"] == 2
                assert router_section["healthy"] == 2
                assert router_section["journal"]["scenes"] == 3

        asyncio.run(main())

    def test_merged_latency_windows(self):
        async def main():
            async with attached_router() as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)
                await client.complete(scene_id)
                stats = await client.stats()
                window = stats["server"]["latency"]["complete"]
                assert window["count"] == 2
                assert window["p95_ms"] is not None
                assert window["mean_ms"] is not None
                assert window["max_ms"] >= window["p50_ms"]

        asyncio.run(main())

    def test_healthz_lists_backends(self):
        async def main():
            async with attached_router() as (router, backends, client):
                health = await client.healthz()
                assert health["status"] == "ok"
                assert len(health["backends"]) == 2
                assert all(b["healthy"] for b in health["backends"])

        asyncio.run(main())


class TestJournalReplayIntoBackends:
    def test_router_restart_replays_journal_into_fresh_backends(
            self, tmp_path):
        """A new router over the same journal re-teaches every backend
        its shard — scene ids keep answering after full backend loss."""
        journal_path = str(tmp_path / "journal.jsonl")

        async def first_life():
            async with attached_router(
                    journal_path=journal_path) as (router, backends,
                                                   client):
                scene_id = (await client.register_scene(
                    SCENE, name="demo"))["scene_id"]
                await client.complete(scene_id)
                return scene_id

        async def second_life(scene_id):
            # Brand-new backends, brand-new router, same journal file.
            async with attached_router(
                    journal_path=journal_path) as (router, backends,
                                                   client):
                assert router.replayed >= 1
                served = await client.complete(scene_id)
                assert served["snippets"]
                assert served["scene_id"] == scene_id

        scene_id = asyncio.run(first_life())
        asyncio.run(second_life(scene_id))


class TestRouterEndToEnd:
    def test_two_backends_kill_one_and_recover_warm(self, tmp_path):
        """The acceptance path: two spawned backend processes, consistent
        routing, aggregated stats, then a SIGKILL'd backend — the sibling
        replica serves the very next completion (no stall, no error) while
        the dead owner respawns in the background, journal replay restores
        its scenes and the snapshot restore makes a later query warm."""
        async def main():
            router = CompletionRouter(RouterConfig(
                port=0, backends=2,
                journal_path=str(tmp_path / "journal.jsonl"),
                snapshot_dir=str(tmp_path / "snapshots")))
            await router.start()
            client = AsyncCompletionClient(router.host, router.port,
                                           timeout=120.0)
            try:
                first = (await client.register_scene(
                    SCENE, name="demo"))["scene_id"]
                second = (await client.register_scene(
                    OTHER_SCENE))["scene_id"]

                cold = await client.complete(first)
                assert cold["snippets"][0]["code"] == "new File(name)"
                assert (await client.complete(first))["cache_hit"] is True
                await client.complete(second)

                # Context hints ride the routed path: a hinted repeat of
                # the same query is a cache hit re-ranked per context,
                # never a second synthesis.
                hint = {"receiver_type": "java.io.File"}
                hinted = await client.complete(first, context=hint)
                assert hinted["cache_hit"] is True
                assert hinted["reranked"] is True
                assert [s["code"] for s in hinted["snippets"]] == \
                    [s["code"] for s in cold["snippets"]]

                stats = await client.stats()
                assert len(stats["shards"]) == 2
                assert stats["server"]["completions"] == sum(
                    shard["stats"]["server"]["completions"]
                    for shard in stats["shards"])

                owner = router.backends[router.ring.route(first)]
                # The owner persists its cache after each synthesis; wait
                # for the snapshot file so the kill cannot outrun it.
                snapshot = Path(owner.snapshot_path)
                for _ in range(400):
                    if snapshot.exists():
                        break
                    await asyncio.sleep(0.05)
                assert snapshot.exists(), "backend never snapshotted"

                owner.process.kill()
                owner.process.wait()

                # With R=2 the sibling replica already holds the scene:
                # the very next completion fails over instantly instead
                # of blocking on a respawn.
                served = await client.complete(first)
                assert served["snippets"] == cold["snippets"]
                assert "degraded" not in served
                assert router.failovers >= 1

                # The dead owner respawns in the background; wait for it.
                for _ in range(400):
                    if owner.restarts == 1 and owner.healthy:
                        break
                    await asyncio.sleep(0.05)
                assert owner.restarts == 1
                assert router.restarts == 1

                health = await client.healthz()
                assert all(backend["healthy"]
                           for backend in health["backends"])

                # Journal replay + snapshot restore make the respawned
                # owner serve its scene warm again.
                warm = await client.complete(first)
                assert warm["snippets"] == cold["snippets"]
                assert warm["cache_hit"] is True, (
                    "respawned replica must restore its snapshot and "
                    "serve the journal-replayed scene warm")

                # Rank stability across the respawn: the restored base
                # cache re-ranks to the same hinted order as before the
                # kill — snapshots hold base results, so a replica that
                # accidentally snapshotted re-ranked weights would
                # double-apply adjustments here and diverge.
                hinted_after = await client.complete(first, context=hint)
                assert hinted_after["cache_hit"] is True
                assert hinted_after["snippets"] == hinted["snippets"]
            finally:
                await client.close()
                await router.close()

        asyncio.run(main())
