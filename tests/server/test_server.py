"""End-to-end server behaviour over real sockets.

Each test spins the :class:`AsyncCompletionServer` up on an ephemeral port
inside ``asyncio.run`` and drives it with :class:`AsyncCompletionClient`.
Synthesis is stubbed/delayed via the module-level ``_run_synthesis`` hook
where determinism matters (coalescing, admission control, deadlines).
"""

import asyncio
import contextlib
import threading

import pytest

import repro.server.server as server_module
from repro.core.synthesizer import SynthesisResult
from repro.server.client import (AsyncCompletionClient, ClientConnectionError,
                                 OverloadedError, SceneNotFoundError,
                                 ServerError)
from repro.server.router import CompletionRouter, RouterConfig
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


@contextlib.asynccontextmanager
async def running_server(**config_overrides):
    config = ServerConfig(port=0, **config_overrides)
    server = AsyncCompletionServer(config=config)
    await server.start()
    client = AsyncCompletionClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.close()


@contextlib.asynccontextmanager
async def server_and_router():
    """A server and a router attached to it: both HTTP fronts, started."""
    async with running_server() as (server, _client):
        router = CompletionRouter(RouterConfig(
            port=0, attach=(f"{server.host}:{server.port}",)))
        await router.start()
        try:
            yield {"server": server, "router": router}
        finally:
            await router.close()


class TestServing:
    def test_register_complete_and_stats(self):
        async def main():
            async with running_server() as (server, client):
                health = await client.healthz()
                assert health["status"] == "ok"

                registered = await client.register_scene(SCENE, name="demo")
                assert registered["declarations"] == 2
                assert registered["goal"] == "File"
                assert registered["cached"] is False

                again = await client.register_scene(SCENE)
                assert again["scene_id"] == registered["scene_id"]
                assert again["cached"] is True

                cold = await client.complete(registered["scene_id"])
                assert cold["inhabited"] is True
                assert cold["cache_hit"] is False
                assert cold["snippets"][0]["code"] == "new File(name)"

                warm = await client.complete(registered["scene_id"])
                assert warm["cache_hit"] is True
                assert warm["snippets"] == cold["snippets"]

                stats = await client.stats()
                assert stats["server"]["completions"] == 2
                assert stats["server"]["cache_hits"] == 1
                assert stats["server"]["synthesized"] == 1
                assert stats["server"]["scenes_registered"] == 1
                assert stats["scenes"]["count"] == 1
                assert stats["core"]["interned_types"]["size"] > 0

        asyncio.run(main())

    def test_stats_expose_executor_and_arena_sections(self):
        async def main():
            async with running_server() as (server, client):
                await client.complete(scene=SCENE)
                stats = await client.stats()
                assert stats["executor"] == {"threads": 4}
                arena = stats["core"]["env_arena"]
                # Synthesis runs in-process, so the scene's arena is
                # visible here.
                assert arena["live_arenas"] >= 1
                assert arena["env_count"] >= 1
                assert arena["transition_memo_misses"] >= 0
                assert stats["core"]["interned_types"]["type_ids_assigned"] > 0

        asyncio.run(main())

    def test_stats_count_stored_and_reused_proofs(self):
        """A result-cache miss on an already-proved goal (a new ``n``)
        reconstructs from the scene's stored proof."""
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                first = await client.complete(scene_id, n=2)
                second = await client.complete(scene_id, n=3)
                assert not first["cache_hit"] and not second["cache_hit"]
                assert second["snippets"][:2] == first["snippets"]
                prepared = server.registry.get(scene_id).prepared
                own = prepared.environment.succinct_arena().stats()
                assert (own["proofs"], own["proof_stores"],
                        own["proof_hits"]) == (1, 1, 1)
                arena = (await client.stats())["core"]["env_arena"]
                assert arena["proofs"] >= 1
                assert arena["proof_stores"] >= 1
                assert arena["proof_hits"] >= 1

        asyncio.run(main())

    def test_inline_scene_and_goal_override(self):
        async def main():
            async with running_server() as (server, client):
                served = await client.complete(scene=SCENE, goal="String")
                assert served["goal"] == "String"
                assert served["snippets"][0]["code"] == "name"

        asyncio.run(main())

    def test_uninhabited_goal_is_ok_but_empty(self):
        async def main():
            async with running_server() as (server, client):
                served = await client.complete(scene=SCENE,
                                               goal="Unobtainium")
                assert served["inhabited"] is False
                assert served["snippets"] == []

        asyncio.run(main())

    def test_batch_mixes_successes_and_errors(self):
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                results = await client.complete_batch([
                    {"scene_id": scene_id},
                    {"scene_id": "scn_missing"},
                    {"scene_id": scene_id, "n": 1},
                ])
                assert results[0]["ok"] is True
                assert results[1]["ok"] is False
                assert results[1]["error"]["code"] == "not_found"
                assert results[2]["ok"] is True
                assert len(results[2]["snippets"]) == 1

        asyncio.run(main())


class TestCoalescing:
    def test_concurrent_identical_requests_run_one_synthesis(
            self, monkeypatch):
        real = server_module._run_synthesis
        calls = []

        def slow_synthesis(*args):
            calls.append(args)
            result = real(*args)
            threading.Event().wait(0.15)    # hold the key in flight
            return result

        monkeypatch.setattr(server_module, "_run_synthesis", slow_synthesis)

        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                burst = 25
                results = await asyncio.gather(
                    *(client.complete(scene_id) for _ in range(burst)))
                assert len(calls) == 1
                codes = {tuple(s["code"] for s in r["snippets"])
                         for r in results}
                assert len(codes) == 1
                stats = (await client.stats())["server"]
                assert stats["synthesized"] == 1
                assert (stats["coalesced"] + stats["cache_hits"]
                        == burst - 1)
                assert stats["coalesced"] >= 1

        asyncio.run(main())

    def test_concurrent_identical_registrations_build_once(self,
                                                           monkeypatch):
        import repro.server.registry as registry_module
        real = registry_module.build_scene
        calls = []

        def slow_build(engine, text, name=None):
            calls.append(text)
            scene = real(engine, text, name)
            threading.Event().wait(0.1)     # hold the digest in flight
            return scene

        monkeypatch.setattr(server_module, "build_scene", slow_build)

        async def main():
            async with running_server() as (server, client):
                results = await asyncio.gather(
                    *(client.register_scene(SCENE) for _ in range(20)))
                assert len(calls) == 1
                assert len({r["scene_id"] for r in results}) == 1
                stats = (await client.stats())["server"]
                assert stats["scenes_registered"] == 1
                assert stats["rejected_overload"] == 0

        asyncio.run(main())

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await asyncio.gather(client.complete(scene_id, n=1),
                                     client.complete(scene_id, n=2))
                stats = (await client.stats())["server"]
                assert stats["synthesized"] == 2
                assert stats["coalesced"] == 0

        asyncio.run(main())


class TestAdmissionControl:
    def test_queue_full_rejects_with_overloaded(self, monkeypatch):
        release = threading.Event()
        real = server_module._run_synthesis

        def blocking_synthesis(*args):
            release.wait(10)
            return real(*args)

        monkeypatch.setattr(server_module, "_run_synthesis",
                            blocking_synthesis)

        async def main():
            async with running_server(max_pending=1) as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                first = asyncio.create_task(client.complete(scene_id, n=1))
                # Wait until the first synthesis occupies the queue slot.
                for _ in range(200):
                    if server.metrics.queue_depth >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server.metrics.queue_depth == 1

                with pytest.raises(OverloadedError):
                    await client.complete(scene_id, n=2)

                release.set()
                served = await first
                assert served["snippets"]
                stats = (await client.stats())["server"]
                assert stats["rejected_overload"] == 1
                assert stats["queue"]["depth"] == 0
                assert stats["queue"]["peak"] == 1

        asyncio.run(main())

    def test_cache_hits_bypass_admission(self, monkeypatch):
        async def main():
            async with running_server(max_pending=1) as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)     # populate the cache
                server.metrics.queue_depth = server.config.max_pending  # saturate
                served = await client.complete(scene_id)
                assert served["cache_hit"] is True
                server.metrics.queue_depth = 0

        asyncio.run(main())

    def test_registration_is_admission_controlled(self):
        async def main():
            async with running_server(max_pending=1) as (server, client):
                server.metrics.queue_depth = server.config.max_pending  # saturate
                with pytest.raises(OverloadedError):
                    await client.register_scene(OTHER_SCENE)
                server.metrics.queue_depth = 0
                stats = (await client.stats())["server"]
                assert stats["rejected_overload"] == 1

        asyncio.run(main())

    def test_known_inline_scene_bypasses_registration(self):
        async def main():
            async with running_server(max_pending=1) as (server, client):
                first = await client.complete(scene=SCENE)
                # Same text again while "overloaded": the digest
                # short-circuit answers from the registry + result cache
                # without touching the executor path.
                server.metrics.queue_depth = server.config.max_pending
                second = await client.complete(scene=SCENE)
                server.metrics.queue_depth = 0
                assert second["scene_id"] == first["scene_id"]
                assert second["cache_hit"] is True
                stats = (await client.stats())["server"]
                assert stats["scenes_registered"] == 1

        asyncio.run(main())


class TestDeadlines:
    def test_expired_deadline_returns_partial_anytime_result(
            self, monkeypatch):
        def truncated_synthesis(prepared, goal, policy, config, n,
                                on_snippet=None):
            # The pipeline's anytime behaviour: budget ran out mid-search.
            assert config.prover_time_limit <= 0.5
            return SynthesisResult(inhabited=True,
                                   reconstruction_truncated=True)

        monkeypatch.setattr(server_module, "_run_synthesis",
                            truncated_synthesis)

        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                served = await client.complete(scene_id, deadline_ms=50)
                assert served["ok"] is True
                assert served["partial"] is True
                assert served["deadline_ms"] == 50
                stats = (await client.stats())["server"]
                assert stats["deadline_partial"] == 1

        asyncio.run(main())

    def test_deadlines_partition_the_cache(self):
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                first = await client.complete(scene_id, deadline_ms=5000)
                second = await client.complete(scene_id, deadline_ms=1000)
                third = await client.complete(scene_id, deadline_ms=5000)
                assert first["cache_hit"] is False
                assert second["cache_hit"] is False   # different budgets
                assert third["cache_hit"] is True     # same budgets as first

        asyncio.run(main())

    def test_default_deadline_applies_when_client_sends_none(self):
        async def main():
            async with running_server(default_deadline_ms=2000) as (
                    server, client):
                served = await client.complete(scene=SCENE)
                assert served["deadline_ms"] == 2000

        asyncio.run(main())


class TestSceneEviction:
    def test_evicted_scene_id_is_not_found_and_results_released(self):
        async def main():
            async with running_server(max_scenes=1) as (server, client):
                first = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(first)
                assert len(server.engine.results) == 1

                await client.register_scene(OTHER_SCENE)
                stats = await client.stats()
                assert stats["server"]["scenes_evicted"] == 1
                assert stats["server"]["scenes_released"] == 0
                assert stats["scenes"]["count"] == 1
                assert stats["scenes"]["evictions"] == 1
                assert stats["scenes"]["releases"] == 0
                assert len(server.engine.results) == 0

                with pytest.raises(SceneNotFoundError):
                    await client.complete(first)

        asyncio.run(main())


class TestSceneRelease:
    def test_release_endpoint_drops_scene_and_counts_apart(self):
        """Regression: explicit releases used to inflate the eviction
        counters, making client churn look like capacity pressure."""
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await client.complete(scene_id)
                assert len(server.engine.results) == 1

                released = await client.release_scene(scene_id)
                assert released["released"] is True
                assert len(server.engine.results) == 0

                stats = await client.stats()
                assert stats["server"]["scenes_released"] == 1
                assert stats["server"]["scenes_evicted"] == 0
                assert stats["scenes"]["releases"] == 1
                assert stats["scenes"]["evictions"] == 0

                with pytest.raises(SceneNotFoundError):
                    await client.complete(scene_id)

        asyncio.run(main())

    def test_release_is_idempotent(self):
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                assert (await client.release_scene(
                    scene_id))["released"] is True
                assert (await client.release_scene(
                    scene_id))["released"] is False
                assert (await client.release_scene(
                    "scn_never_existed"))["released"] is False

        asyncio.run(main())

    def test_client_complete_text_survives_release(self):
        """The retry-on-unknown-scene helper re-registers evicted or
        released scenes transparently."""
        async def main():
            async with running_server() as (server, client):
                cold = await client.complete_text(SCENE, name="demo")
                assert cold["snippets"]
                scene_id = cold["scene_id"]
                await client.release_scene(scene_id)

                served = await client.complete_text(SCENE, name="demo")
                assert served["scene_id"] == scene_id
                assert served["snippets"] == cold["snippets"]

        asyncio.run(main())


class TestSnapshotPersistence:
    def test_restart_restores_warm_results(self, tmp_path):
        snapshot = str(tmp_path / "results.snapshot")

        async def first_life():
            async with running_server(
                    snapshot_path=snapshot) as (server, client):
                cold = await client.complete(scene=SCENE)
                assert cold["cache_hit"] is False
                # The save is debounced onto the executor; wait for it.
                for _ in range(200):
                    if server.metrics.snapshots_saved > 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.metrics.snapshots_saved > 0
                return cold

        async def second_life(cold):
            async with running_server(
                    snapshot_path=snapshot) as (server, client):
                assert server.metrics.snapshot_restored == 1
                warm = await client.complete(scene=SCENE)
                assert warm["cache_hit"] is True
                assert warm["snippets"] == cold["snippets"]
                stats = await client.stats()
                assert stats["engine"]["snapshot"]["restored"] == 1

        cold = asyncio.run(first_life())
        asyncio.run(second_life(cold))

    def test_shutdown_flushes_dirty_snapshot(self, tmp_path):
        import os
        snapshot = str(tmp_path / "results.snapshot")

        async def main():
            # A long debounce interval: the post-synthesis save is
            # suppressed, so only the shutdown flush can write the file.
            async with running_server(
                    snapshot_path=snapshot,
                    snapshot_interval=3600.0) as (server, client):
                server._last_snapshot = __import__("time").monotonic()
                await client.complete(scene=SCENE)
                assert not os.path.exists(snapshot)
            assert os.path.exists(snapshot)

        asyncio.run(main())

    def test_adopt_snapshot_merges_a_siblings_results_for_held_scenes(
            self, tmp_path):
        # The router's backend layout: <dir>/<backend id>.snapshot.
        async def sibling_life():
            async with running_server(snapshot_path=str(
                    tmp_path / "b0.snapshot")) as (server, client):
                served = {text: await client.complete(scene=text)
                          for text in (SCENE, OTHER_SCENE)}
            return served

        async def adopter_life(served):
            async with running_server(snapshot_path=str(
                    tmp_path / "b1.snapshot")) as (server, client):
                scene_id = (await client.register_scene(
                    SCENE))["scene_id"]
                adopted = await client.adopt_snapshot("b0")
                # Only the scene this server holds: OTHER_SCENE's entry
                # stays behind.
                assert adopted == {"v": adopted["v"], "ok": True,
                                   "peer": "b0", "restored": 1}
                warm = await client.complete(scene_id)
                assert warm["cache_hit"] is True
                assert warm["snippets"] == served[SCENE]["snippets"]
                assert (await client.adopt_snapshot("b9"))["restored"] == 0
                stats = await client.stats()
                assert stats["engine"]["snapshot"]["adopted"] == 1

        asyncio.run(adopter_life(asyncio.run(sibling_life())))

    def test_adopt_snapshot_refuses_paths_and_snapshotless_servers(
            self, tmp_path):
        async def main():
            async with running_server(snapshot_path=str(
                    tmp_path / "b1.snapshot")) as (server, client):
                for peer in ("../b0", "sub/b0", ".hidden", ""):
                    with pytest.raises(ServerError) as error:
                        await client.adopt_snapshot(peer)
                    assert error.value.code == "bad_request"
            async with running_server() as (server, client):
                with pytest.raises(ServerError) as error:
                    await client.adopt_snapshot("b0")
                assert error.value.code == "bad_request"

        asyncio.run(main())

    def test_corrupt_snapshot_starts_cold_not_dead(self, tmp_path):
        snapshot = tmp_path / "results.snapshot"
        snapshot.write_bytes(b"garbage")

        async def main():
            async with running_server(
                    snapshot_path=str(snapshot)) as (server, client):
                assert server.metrics.snapshot_restored == 0
                served = await client.complete(scene=SCENE)
                assert served["snippets"]

        asyncio.run(main())


#: Two equal-frequency candidates for the same goal: base order is the
#: deterministic emission tie-break, so a receiver hint is what decides
#: which of the two leads — the scene the context e2e tests turn on.
CONTEXT_SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
imported demo.Temp.make : String -> File \
[freq=100] [style=method] [display=Temp.make]
goal File
"""


class TestContextAwareServing:
    def test_hints_rerank_cache_hits_without_fragmenting(self):
        """Same scene + query under different hints: one synthesis, every
        follow-up a cache hit, each re-ranked per its own context."""
        async def main():
            async with running_server() as (server, client):
                cold = await client.complete(scene=CONTEXT_SCENE)
                assert cold["cache_hit"] is False
                assert cold["reranked"] is True   # scope weigher applies
                assert cold["snippets"][0]["code"] == "new File(name)"

                temp = await client.complete(
                    scene=CONTEXT_SCENE,
                    context={"receiver_type": "demo.Temp"})
                assert temp["cache_hit"] is True
                assert temp["reranked"] is True
                assert temp["snippets"][0]["code"] == "name.Temp.make()"

                file_hint = await client.complete(
                    scene=CONTEXT_SCENE,
                    context={"receiver_type": "java.io.File",
                             "position_kind": "after_new"})
                assert file_hint["cache_hit"] is True
                assert file_hint["snippets"][0]["code"] == "new File(name)"

                # Re-ranking renumbers: every response is rank 1..n with
                # non-decreasing weights, whatever the hints did.
                for served in (cold, temp, file_hint):
                    ranks = [s["rank"] for s in served["snippets"]]
                    assert ranks == list(range(1, len(ranks) + 1))
                    weights = [s["weight"] for s in served["snippets"]]
                    assert weights == sorted(weights)

                stats = await client.stats()
                assert stats["server"]["synthesized"] == 1
                assert stats["server"]["completions"] == 3
                ranking = stats["ranking"]
                assert ranking["weighers"] == [
                    "kind", "scope", "receiver", "constructor",
                    "project_freq"]
                assert ranking["reranks"] >= 3
                assert ranking["reordered"] >= 1       # the Temp flip
                assert ranking["adjustments"]["receiver"] >= 2
                assert ranking["adjustments"]["scope"] >= 6

        asyncio.run(main())

    def test_rerank_disabled_serves_base_bytes(self):
        async def main():
            async with running_server(rerank=False) as (server, client):
                served = await client.complete(
                    scene=CONTEXT_SCENE,
                    context={"receiver_type": "demo.Temp"})
                assert served["reranked"] is False
                assert served["snippets"][0]["code"] == "new File(name)"
                stats = await client.stats()
                assert stats["ranking"]["weighers"] == []
                assert stats["ranking"]["reranks"] == 0

        asyncio.run(main())

    def test_typo_hint_key_is_invalid_context_on_the_wire(self):
        async def main():
            async with running_server() as (server, client):
                with pytest.raises(ServerError) as excinfo:
                    # Straight to the wire: the client-side constructor
                    # would reject the typo before sending.
                    await client._request(
                        "POST", "/v1/complete",
                        {"scene": CONTEXT_SCENE,
                         "context": {"reciever_type": "demo.Temp"}})
                assert excinfo.value.code == "invalid_context"

        asyncio.run(main())

    def test_stream_with_context_matches_unary_order(self):
        async def main():
            async with running_server() as (server, client):
                context = {"receiver_type": "demo.Temp"}
                unary = await client.complete(scene=CONTEXT_SCENE,
                                              context=context)
                chunks = []
                async for chunk in client.complete_stream(
                        scene=CONTEXT_SCENE, context=context):
                    chunks.append(chunk)
                done = chunks[-1]
                assert done["chunk"] == "done"
                streamed = [c["code"] for c in chunks
                            if c["chunk"] == "snippet"]
                assert streamed == \
                    [s["code"] for s in unary["snippets"]]
                assert done["reranked"] is True
                assert done["cache_hit"] is True    # unary warmed it

        asyncio.run(main())

    def test_project_weights_config_feeds_the_ranking_stage(self, tmp_path):
        from repro.corpus.mining import ProjectWeightTables
        from repro.corpus.stats import FrequencyTable

        weights = tmp_path / "weights.json"
        ProjectWeightTables(
            projects={"demo": FrequencyTable({"demo.Temp.make": 50})},
            global_table=FrequencyTable({"demo.Temp.make": 50}),
        ).save(str(weights))

        async def main():
            async with running_server(
                    project_weights_path=str(weights)) as (server, client):
                registered = await client.register_scene(CONTEXT_SCENE,
                                                         name="demo/edit")
                served = await client.complete(registered["scene_id"])
                # The mined project calls Temp.make: it now outranks the
                # constructor even without any per-query hint.
                assert served["snippets"][0]["code"] == "name.Temp.make()"
                stats = await client.stats()
                assert stats["ranking"]["adjustments"]["project_freq"] >= 1

        asyncio.run(main())

    def test_hinted_ranks_stable_across_restart(self, tmp_path):
        """The snapshot holds base results; a respawned replica re-ranks
        them to the same hinted order the first life served."""
        snapshot = str(tmp_path / "results.snapshot")
        context = {"receiver_type": "demo.Temp"}

        async def first_life():
            async with running_server(
                    snapshot_path=snapshot) as (server, client):
                served = await client.complete(scene=CONTEXT_SCENE,
                                               context=context)
                for _ in range(200):
                    if server.metrics.snapshots_saved > 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.metrics.snapshots_saved > 0
                return served

        async def second_life(first):
            async with running_server(
                    snapshot_path=snapshot) as (server, client):
                warm = await client.complete(scene=CONTEXT_SCENE,
                                             context=context)
                assert warm["cache_hit"] is True
                assert warm["reranked"] is True
                assert warm["snippets"] == first["snippets"]

        first = asyncio.run(first_life())
        asyncio.run(second_life(first))


class TestClientErrorPaths:
    def test_connection_refused(self):
        async def main():
            client = AsyncCompletionClient("127.0.0.1", 1)   # nothing there
            with pytest.raises(ClientConnectionError):
                await client.healthz()
            await client.close()

        asyncio.run(main())

    def test_stale_pooled_connection_retries_transparently(self):
        async def main():
            async with running_server() as (server, client):
                await client.healthz()      # leaves a pooled connection
                assert client._idle
                for _reader, writer in client._idle:
                    writer.transport.abort()   # simulate a dead socket
                await asyncio.sleep(0.05)
                health = await client.healthz()
                assert health["status"] == "ok"

        asyncio.run(main())

    # Each wire test below runs against both fronts: the server and a
    # router attached to it.

    def test_unknown_path_and_wrong_method(self):
        async def main():
            async with server_and_router() as fronts:
                for front in fronts.values():
                    async with AsyncCompletionClient(front.host,
                                                     front.port) as client:
                        with pytest.raises(ServerError) as excinfo:
                            await client._request("GET", "/v1/nope")
                        assert excinfo.value.code == "not_found"
                        with pytest.raises(ServerError) as excinfo:
                            await client._request("GET", "/v1/complete")
                        assert excinfo.value.code == "bad_request"

        asyncio.run(main())

    def test_unknown_paths_share_one_metrics_bucket(self):
        async def main():
            async with server_and_router() as fronts:
                for section, front in fronts.items():
                    async with AsyncCompletionClient(front.host,
                                                     front.port) as client:
                        for index in range(5):
                            with pytest.raises(ServerError):
                                await client._request("GET", f"/scan/{index}")
                        requests = (await client.stats())[section]["requests"]
                        assert requests["other"] == 5
                        assert not any(key.startswith("GET /scan") for key in
                                       requests)

        asyncio.run(main())

    def test_malformed_json_body_is_bad_request(self):
        async def main():
            async with server_and_router() as fronts:
                for front in fronts.values():
                    reader, writer = await asyncio.open_connection(front.host,
                                                                   front.port)
                    body = b"{not json"
                    writer.write(
                        b"POST /v1/complete HTTP/1.1\r\n"
                        b"Content-Length: " + str(len(body)).encode() +
                        b"\r\n\r\n" + body)
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"400" in status_line
                    writer.close()

        asyncio.run(main())

    def test_oversized_body_gets_413_not_a_reset(self):
        async def main():
            async with server_and_router() as fronts:
                for front in fronts.values():
                    reader, writer = await asyncio.open_connection(front.host,
                                                                   front.port)
                    writer.write(b"POST /v1/complete HTTP/1.1\r\n"
                                 b"Content-Length: 999999999\r\n\r\n")
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"413" in status_line
                    writer.close()

        asyncio.run(main())

    def test_garbled_request_line_gets_400(self):
        async def main():
            async with server_and_router() as fronts:
                for front in fronts.values():
                    reader, writer = await asyncio.open_connection(front.host,
                                                                   front.port)
                    writer.write(b"NONSENSE\r\n\r\n")
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"400" in status_line
                    writer.close()

        asyncio.run(main())

    def test_wrong_method_on_known_path_is_405(self):
        async def main():
            async with server_and_router() as fronts:
                for front in fronts.values():
                    reader, writer = await asyncio.open_connection(front.host,
                                                                   front.port)
                    writer.write(b"GET /v1/complete HTTP/1.1\r\n\r\n")
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"405" in status_line
                    writer.close()

        asyncio.run(main())

    def test_unparsable_scene_is_scene_error(self):
        async def main():
            async with running_server() as (server, client):
                with pytest.raises(ServerError) as excinfo:
                    await client.register_scene("local broken :\n")
                assert excinfo.value.code == "scene_error"
                assert excinfo.value.status == 422

        asyncio.run(main())

    def test_malformed_freq_is_scene_error_not_internal(self):
        async def main():
            async with running_server() as (server, client):
                with pytest.raises(ServerError) as excinfo:
                    await client.register_scene(
                        "local a : A [freq=\u00b2]\ngoal A\n")
                assert excinfo.value.code == "scene_error"
                assert excinfo.value.status == 422
                assert server.metrics.errors["internal"] == 0

        asyncio.run(main())

    def test_bad_goal_type_is_bad_request(self):
        async def main():
            async with running_server() as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                with pytest.raises(ServerError) as excinfo:
                    await client.complete(scene_id, goal="-> ->")
                assert excinfo.value.code == "bad_request"

        asyncio.run(main())

    def test_scene_without_goal_needs_explicit_goal(self):
        async def main():
            async with running_server() as (server, client):
                with pytest.raises(ServerError) as excinfo:
                    await client.complete(scene="local x : A\n")
                assert "goal" in str(excinfo.value)

        asyncio.run(main())


class TestGcTuning:
    def test_stats_expose_gc_section_untuned(self):
        async def main():
            async with running_server() as (server, client):
                before = (await client.stats())["gc"]["settles"]
                await client.register_scene(SCENE)
                stats = await client.stats()
                gc_stats = stats["gc"]
                assert set(gc_stats) == {"settles", "reclaims", "thresholds",
                                         "counts", "collections"}
                # Registering a new scene prepares it, and every new
                # prepare settles the heap: the policy needs no flag.
                assert gc_stats["settles"] >= before + 1
                assert len(gc_stats["thresholds"]) == 3
                assert len(gc_stats["counts"]) == 3
                assert len(gc_stats["collections"]) == 3
                simple = stats["core"]["simple_types"]
                assert simple["ids_assigned"] >= simple["size"] >= 0

        asyncio.run(main())
