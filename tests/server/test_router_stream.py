"""Edit sessions and streaming through the sharded router.

The attached-backend tests pin the proxy mechanics: NDJSON framing is
preserved end to end, edits run on the backend that holds the warm
prepared state (sticky session homes beat the ring for edited ids), and
every edit lands in the journal as a plain registration of the canonical
text.  The end-to-end test is the durability acceptance path from the
issue: SIGKILL the backend owning a delta-edited scene mid-session and
assert journal replay restores the edited state byte-identically.
"""

import asyncio
import contextlib
import hashlib

from repro.server.client import AsyncCompletionClient
from repro.server.router import (_DIGEST_KEY_PREFIX, CompletionRouter,
                                 RouterConfig)
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
    """The in-process server the router would use for *scene_id*."""
    backend = router._owner(scene_id)
    for server in backends:
        if (server.host, server.port) == (backend.host, backend.port):
            return server
    raise AssertionError("router routed to an unknown backend")


async def _collect(client, scene_id, **kwargs):
    chunks = []
    async for chunk in client.complete_stream(scene_id, **kwargs):
        chunks.append(chunk)
    return chunks


class TestRoutedStreaming:
    def test_stream_framing_survives_the_proxy(self):
        async def main():
            async with attached_router() as (router, backends, client):
                registered = await client.register_scene(SCENE)
                chunks = await _collect(client, registered["scene_id"], n=4)
                assert [c["chunk"] for c in chunks[:-1]] == \
                    ["snippet"] * (len(chunks) - 1)
                assert chunks[-1]["chunk"] == "done"
                assert [c["rank"] for c in chunks[:-1]] == \
                    list(range(1, len(chunks)))
                assert router.streams_proxied == 1

                # Proxied bytes must equal what the owning backend sent.
                owner = _backend_for(router, backends,
                                     registered["scene_id"])
                direct_client = AsyncCompletionClient(owner.host, owner.port)
                try:
                    direct = await _collect(direct_client,
                                            registered["scene_id"], n=4)
                finally:
                    await direct_client.close()
                assert direct[-1]["cache_hit"] is True
                assert direct[:-1] == chunks[:-1]
        asyncio.run(main())

    def test_streams_count_toward_rebalancing(self):
        """Streams share the unary read path, so the skew policy sees
        their traffic too."""
        async def main():
            async with attached_router() as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                await _collect(client, scene_id, n=3)
                await client.complete(scene_id, n=3)
                assert router._scene_traffic[scene_id] == 2
        asyncio.run(main())

    def test_routed_stats_aggregate_stream_counters(self):
        async def main():
            async with attached_router() as (router, backends, client):
                registered = await client.register_scene(SCENE)
                chunks = await _collect(client, registered["scene_id"], n=3)
                stats = await client.stats()
                assert stats["router"]["streams_proxied"] == 1
                assert stats["server"]["streams"] == 1
                assert stats["server"]["stream_chunks"] == len(chunks)
        asyncio.run(main())


class TestRoutedEditSessions:
    def test_edit_journals_the_canonical_text(self):
        async def main():
            async with attached_router() as (router, backends, client):
                registered = await client.register_scene(SCENE)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                assert edited["added"] == ["charset_name"]
                digest = hashlib.sha256(
                    edited["text"].encode("utf-8")).hexdigest()
                entry = router.journal.lookup_digest(digest)
                assert entry is not None
                assert entry.scene_id == edited["scene_id"]
                assert router.edits == 1
                stats = await client.stats()
                assert stats["router"]["edits"] == 1
                assert stats["router"]["session_homes"] == 1
        asyncio.run(main())

    def test_edited_scene_sticks_to_the_editing_backend(self):
        """The ring hashes the *new* content id, which may route away
        from the backend holding the warm incremental state; the sticky
        session home must win so follow-up queries stay warm."""
        async def main():
            async with attached_router() as (router, backends, client):
                registered = await client.register_scene(SCENE)
                origin_owner = _backend_for(router, backends,
                                            registered["scene_id"])
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                home = _backend_for(router, backends, edited["scene_id"])
                assert home is origin_owner

                served = await client.complete(edited["scene_id"], n=4)
                assert served["scene_id"] == edited["scene_id"]
                # The completion ran on the sticky home: its metrics moved.
                assert home.metrics.completions >= 1
        asyncio.run(main())

    def test_round_trip_edit_is_warm_through_the_router(self):
        async def main():
            async with attached_router() as (router, backends, client):
                registered = await client.register_scene(SCENE)
                baseline = await client.complete(registered["scene_id"], n=4)
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                back = await client.edit_scene(
                    edited["scene_id"],
                    [{"op": "remove", "name": "charset_name"}])
                assert back["scene_id"] == registered["scene_id"]
                assert back["reused"] is True
                replay = await client.complete(registered["scene_id"], n=4)
                assert replay["cache_hit"] is True
                assert replay["snippets"] == baseline["snippets"]
        asyncio.run(main())


    def test_same_content_registration_keeps_the_session_home(self):
        """Registering an edited scene's text under a new digest (here:
        extra trailing newlines) probes a backend by that digest.  When
        the probe is the edited id's session home but not a ring owner,
        its copy is the warm one reads go to first, so it must stay."""
        async def main():
            async with attached_router(n=3) as (router, backends, client):
                scene_id = (await client.register_scene(SCENE))["scene_id"]
                for index in range(64):
                    edited = await client.edit_scene(scene_id, [
                        {"op": "add", "decl": f"local extra{index} : URL"}])
                    scene_id = edited["scene_id"]
                    home = router._session_homes[scene_id]
                    owners = router.ring.route_n(scene_id,
                                                 router.config.replication)
                    if home not in owners:
                        break
                else:
                    raise AssertionError("no edit left its ring owners")
                baseline = await client.complete(scene_id, n=4)
                for newlines in range(1, 256):
                    text = edited["text"] + "\n" * newlines
                    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    if router.ring.route(_DIGEST_KEY_PREFIX + digest) == home:
                        break
                else:
                    raise AssertionError("no digest probes the home")
                registered = await client.register_scene(text)
                assert registered["scene_id"] == scene_id
                assert registered["cached"] is True
                reregistrations = router.reregistrations
                again = await client.complete(scene_id, n=4)
                assert again["cache_hit"] is True
                assert again["snippets"] == baseline["snippets"]
                assert router.reregistrations == reregistrations
        asyncio.run(main())


class TestRouterEditSessionEndToEnd:
    def test_killing_the_session_backend_mid_edit_session(self, tmp_path):
        """SIGKILL the backend holding a delta-edited scene: the next
        query fails over to the sibling replica (journal re-teach
        restores the edited state there), the dead backend respawns in
        the background, and the session keeps editing with identical
        rankings."""
        async def main():
            router = CompletionRouter(RouterConfig(
                port=0, backends=2,
                journal_path=str(tmp_path / "journal.jsonl"),
                snapshot_dir=str(tmp_path / "snapshots")))
            await router.start()
            client = AsyncCompletionClient(router.host, router.port,
                                           timeout=120.0)
            try:
                registered = await client.register_scene(SCENE,
                                                         name="session")
                edited = await client.edit_scene(registered["scene_id"],
                                                 [ADD_OP])
                cold = await client.complete(edited["scene_id"], n=5)
                assert cold["scene_id"] == edited["scene_id"]

                owner = router._owner(edited["scene_id"])
                owner.process.kill()
                owner.process.wait()

                served = await client.complete(edited["scene_id"], n=5)
                assert served["snippets"] == cold["snippets"], (
                    "journal replay must restore the delta-edited state")
                assert served["scene_id"] == edited["scene_id"]
                assert "degraded" not in served, (
                    "the sibling replica should serve full-fidelity")

                # The dead owner respawns in the background; wait for it.
                for _ in range(400):
                    if router.restarts >= 1 and all(
                            backend.healthy
                            for backend in router.backends.values()):
                        break
                    await asyncio.sleep(0.05)
                assert router.restarts >= 1

                # The session continues: another edit on the replayed
                # state, and a net-no-op removal lands back on the
                # original registered content.
                back = await client.edit_scene(
                    edited["scene_id"],
                    [{"op": "remove", "name": "charset_name"}])
                assert back["scene_id"] == registered["scene_id"]

                health = await client.healthz()
                assert all(backend["healthy"]
                           for backend in health["backends"])
            finally:
                await client.close()
                await router.close()

        asyncio.run(main())
