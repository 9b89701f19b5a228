"""Protocol v2 over real sockets: NDJSON streaming and /v1/edit-scene.

Reuses the ephemeral-port server pattern from ``test_server``; every
test boots a real :class:`AsyncCompletionServer` and talks through
:class:`AsyncCompletionClient`.
"""

import asyncio
import contextlib
import threading

import pytest

import repro.server.server as server_module
from repro.server.client import (AsyncCompletionClient, SceneNotFoundError,
                                 ServerError)
from repro.server.server import AsyncCompletionServer, ServerConfig

SCENE = """
subtype InputStreamReader <: Reader
subtype BufferedReader <: Reader
local url : URL
imported java.net.URL.openStream : URL -> InputStream \
[freq=96] [style=method] [display=openStream]
imported java.io.InputStreamReader.new : InputStream -> InputStreamReader \
[freq=133] [style=constructor] [display=InputStreamReader]
imported java.io.BufferedReader.new : Reader -> BufferedReader \
[freq=161] [style=constructor] [display=BufferedReader]
goal BufferedReader
"""

ADD_OP = {"op": "add", "decl": "local charset_name : String"}
REMOVE_OP = {"op": "remove", "name": "charset_name"}


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


async def _collect(client, scene_id, **kwargs):
    chunks = []
    async for chunk in client.complete_stream(scene_id, **kwargs):
        chunks.append(chunk)
    return chunks


async def _until(predicate, timeout=5.0):
    """Poll *predicate* on the event loop until it holds (or fail)."""
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition never held")


class TestStreaming:
    def test_chunk_framing_rank_order_and_weight_monotonicity(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE, name="reader")
                chunks = await _collect(client, registered["scene_id"], n=5)

                assert [c["chunk"] for c in chunks[:-1]] == \
                    ["snippet"] * (len(chunks) - 1)
                assert chunks[-1]["chunk"] == "done"
                snippets = chunks[:-1]
                assert [c["rank"] for c in snippets] == \
                    list(range(1, len(snippets) + 1))
                weights = [c["weight"] for c in snippets]
                assert weights == sorted(weights)

                done = chunks[-1]
                assert done["cache_hit"] is False
                assert done["scene_id"] == registered["scene_id"]
                # The done chunk is the self-check: the streamed prefix
                # must be exactly its snippet list.
                assert [{"rank": c["rank"], "code": c["code"],
                         "weight": c["weight"]} for c in snippets] == \
                    [{"rank": s["rank"], "code": s["code"],
                      "weight": s["weight"]} for s in done["snippets"]]
        asyncio.run(main())

    def test_warm_stream_replays_the_cached_result(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                cold = await _collect(client, registered["scene_id"], n=4)
                warm = await _collect(client, registered["scene_id"], n=4)
                assert warm[-1]["cache_hit"] is True
                assert warm[:-1] == cold[:-1]
        asyncio.run(main())

    def test_stream_and_batch_agree(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                chunks = await _collect(client, registered["scene_id"], n=4)
                batch = await client.complete(registered["scene_id"], n=4)
                assert chunks[-1]["snippets"] == batch["snippets"]
        asyncio.run(main())

    def test_unknown_scene_fails_before_the_stream_starts(self):
        async def main():
            async with running_server() as (_, client):
                with pytest.raises(SceneNotFoundError):
                    await _collect(client, "scn_feedfacedeadbeef")
        asyncio.run(main())

    def test_stream_metrics(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                first = await _collect(client, registered["scene_id"], n=3)
                second = await _collect(client, registered["scene_id"], n=3)
                stats = await client.stats()
                assert stats["server"]["streams"] == 2
                assert stats["server"]["stream_chunks"] == \
                    len(first) + len(second)
        asyncio.run(main())


class TestLiveStreaming:
    """With an empty ranking chain (``rerank=False``) base order is the
    served order, so the leader of a cold stream writes each snippet as
    reconstruction emits it instead of replaying the finished result."""

    def test_live_leader_streams_coalesces_and_replays(self, monkeypatch):
        real = server_module._run_synthesis
        publish = threading.Event()

        def held_synthesis(prepared, goal, policy, config, n,
                           on_snippet=None):
            result = real(prepared, goal, policy, config, n, on_snippet)
            publish.wait(10)            # snippets are out, the result not
            return result

        monkeypatch.setattr(server_module, "_run_synthesis", held_synthesis)

        async def main():
            async with running_server(rerank=False) as (server, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                chunks = []

                async def stream():
                    async for chunk in client.complete_stream(scene_id,
                                                              n=5):
                        chunks.append(chunk)

                streaming = asyncio.create_task(stream())
                try:
                    # Chunks arrive while the synthesis has not returned.
                    await _until(lambda: chunks)
                    # A unary request for the same key joins the leader.
                    unary = asyncio.create_task(client.complete(scene_id,
                                                                n=5))
                    await _until(lambda: server.metrics.requests[
                        "POST /v1/complete"] == 2)
                finally:
                    publish.set()
                await streaming
                joined = await unary

                snippets, done = chunks[:-1], chunks[-1]
                assert [c["chunk"] for c in snippets] == \
                    ["snippet"] * len(snippets)
                assert [c["rank"] for c in snippets] == \
                    list(range(1, len(snippets) + 1))
                weights = [c["weight"] for c in snippets]
                assert weights == sorted(weights)
                assert done["chunk"] == "done"
                assert done["cache_hit"] is False
                assert done["reranked"] is False
                assert [{"rank": c["rank"], "code": c["code"],
                         "weight": c["weight"]} for c in snippets] == \
                    done["snippets"]

                assert joined["coalesced"] is True
                assert joined["snippets"] == done["snippets"]
                stats = (await client.stats())["server"]
                assert stats["synthesized"] == 1
                assert stats["coalesced"] == 1

                warm = await _collect(client, scene_id, n=5)
                assert warm[-1]["cache_hit"] is True
                assert warm[:-1] == snippets
        asyncio.run(main())


class TestEditScene:
    def test_add_and_remove_yield_new_content_identity(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE, name="reader")
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                assert edited["scene_id"] != registered["scene_id"]
                assert edited["previous_scene_id"] == registered["scene_id"]
                assert edited["added"] == ["charset_name"]
                assert edited["removed"] == []
                assert edited["reused"] is False
                assert edited["declarations"] == \
                    registered["declarations"] + 1
        asyncio.run(main())

    def test_round_trip_edit_reattaches_the_original_scene(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                baseline = await client.complete(registered["scene_id"], n=4)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                back = await client.edit_scene(edited["scene_id"],
                                               [REMOVE_OP])
                assert back["scene_id"] == registered["scene_id"]
                assert back["reused"] is True
                assert back["cached"] is True
                replay = await client.complete(registered["scene_id"], n=4)
                assert replay["cache_hit"] is True
                assert replay["snippets"] == baseline["snippets"]
        asyncio.run(main())

    def test_edited_text_re_registers_to_the_same_scene(self):
        """The response's canonical text is the journal/replay currency:
        registering it on a fresh server must rebuild the same
        content-derived identity and rankings."""
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                ranked = await client.complete(edited["scene_id"], n=4)
            async with running_server() as (_, fresh_client):
                replayed = await fresh_client.register_scene(edited["text"])
                assert replayed["scene_id"] == edited["scene_id"]
                again = await fresh_client.complete(replayed["scene_id"],
                                                    n=4)
                assert again["snippets"] == ranked["snippets"]
        asyncio.run(main())

    def test_streaming_an_edited_scene(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                chunks = await _collect(client, edited["scene_id"], n=4)
                assert chunks[-1]["scene_id"] == edited["scene_id"]
                assert chunks[-1]["cache_hit"] is False
        asyncio.run(main())

    def test_edit_metrics(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                await client.edit_scene(edited["scene_id"], [REMOVE_OP])
                stats = await client.stats()
                assert stats["server"]["scenes_edited"] == 2
                assert stats["server"]["edits_reused"] == 1
        asyncio.run(main())

    def test_unknown_scene(self):
        async def main():
            async with running_server() as (_, client):
                with pytest.raises(SceneNotFoundError):
                    await client.edit_scene("scn_feedfacedeadbeef",
                                            [ADD_OP])
        asyncio.run(main())

    def test_bad_delta_is_a_scene_error_and_applies_nothing(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                with pytest.raises(ServerError) as excinfo:
                    await client.edit_scene(registered["scene_id"],
                                            [{"op": "remove",
                                              "name": "ghost"}])
                assert excinfo.value.code == "scene_error"
                stats = await client.stats()
                assert stats["server"]["scenes_edited"] == 0
                assert stats["scenes"]["count"] == 1
        asyncio.run(main())


class TestProtocolVersionGate:
    def test_mismatched_version_is_rejected(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                # The client injects the current version unless the
                # payload pins its own — pin v1 to probe the gate.
                with pytest.raises(ServerError) as excinfo:
                    await client._request(
                        "POST", "/v1/complete",
                        {"v": 1, "scene_id": registered["scene_id"]})
                assert excinfo.value.code == "unsupported_version"
                assert excinfo.value.status == 400
        asyncio.run(main())

    def test_versionless_payloads_still_serve(self):
        async def main():
            async with running_server() as (_, client):
                registered = await client.register_scene(SCENE)
                served = await client._request(
                    "POST", "/v1/complete",
                    {"scene_id": registered["scene_id"]})
                assert served["inhabited"] is True
        asyncio.run(main())
