"""End-to-end server smoke test: ``python -m repro.server.smoke``.

Boots a real ``repro serve`` subprocess on an ephemeral port, then drives
it with the async client: register every shipped example scene, complete
each one cold and again warm (asserting a cache hit), fire a burst of
concurrent identical requests and assert — via ``/v1/stats`` — that they
coalesced into exactly one synthesis.  Once the scenes are registered,
``/v1/stats`` must also show that the engine's collector policy settled
the heap at least once (``gc.settles``).  Exit code 0 means the serving
path works end-to-end; CI runs this after the unit suite.

With ``--router`` the same drive runs against ``repro route`` over two
supervised backend processes instead — the protocol is identical, so the
very same assertions must hold, plus the aggregated ``/v1/stats`` view
must carry one entry per shard, and every shard must have settled its
heap.  CI runs both forms.

``--stream`` adds the protocol v2 drive on top (composable with
``--router``): every scene is streamed as NDJSON cold and warm —
asserting chunk framing, rank order, weight monotonicity, and that the
terminal ``done`` chunk's batch payload matches the streamed snippets —
then an edit-session round trip adds and removes a declaration over
``/v1/edit-scene`` and asserts the session lands back on the original
content-derived scene id with its cached ranking intact.

``--router --chaos`` adds the supervision check: a short burst of
fresh-``n`` completions is fired across every scene, one supervised
backend is SIGKILLed mid-flight (pid read off ``/healthz``), and the
drive asserts that every retried completion still answers the correct
snippets — full-fidelity, never ``degraded`` (with replication R=2 a
sibling replica owns every scene, so one kill must be invisible) — that
the router respawned the shard in the background (``restarts`` >= 1,
polled), and that the aggregated ``/v1/stats`` still reconciles with
the per-shard sums.  The burst coalescing accounting is skipped in this
mode — a respawned backend restarts its counters, so cross-kill counter
arithmetic is meaningless by design.

``--router --chaos --slow`` swaps the SIGKILL for the gray failure:
one ring owner is SIGSTOPped mid-burst (its sockets stay open, its
in-flight work parks — breakers see nothing), every request carries an
end-to-end deadline, and the drive asserts hedged retries complete the
stalled owner's traffic on the sibling replica with zero client-visible
errors, zero respawns, and zero ``deadline_exceeded`` — then SIGCONTs
the victim and asserts it rejoins full-fidelity serving.

``--router --chaos --kill-majority`` (needs ``--backends 3``) goes one
further: it rebuilds the router's hash ring client-side from the
``/healthz`` backend ids (the ring is deterministic), SIGKILLs *both*
replica-set owners of one scene, and asserts the router answers from
its last-known-good cache with ``degraded: true`` — an honest stale
answer, not a 5xx — then recovers to full-fidelity answers once the
owners respawn.

Every mode ends by checking shutdown: with one idle keep-alive
connection open to the front, SIGTERM must end the process within 10 s.
A front that needs SIGKILL fails the smoke (its backends are killed too).

``--report PATH`` writes a JSON artifact (mode, per-step report lines,
pass/fail) — written on failure too, so CI can always upload it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.loadgen.chaos import await_recovery
from repro.server.client import AsyncCompletionClient, wait_until_healthy
from repro.server.router import HashRing, spawn_cli_server

#: Default scene set: every shipped example scene.
DEFAULT_SCENES_DIR = Path(__file__).resolve().parents[3] / "examples/scenes"


def _spawn_server(extra_args: Sequence[str] = (),
                  command: str = "serve") -> tuple:
    """Start ``repro serve|route --port 0``; returns (process, host, port).

    Thin wrapper over the router's :func:`spawn_cli_server` — the smoke
    harness and the router supervise subprocesses with the exact same
    spawn protocol (PYTHONPATH injection, listen-line scan, pipe drain).
    """
    return spawn_cli_server(command, extra_args, label=f"smoke-{command}")


def _stop(process: subprocess.Popen, host: str, port: int) -> Optional[str]:
    """SIGTERM the front while an idle keep-alive client holds a
    connection to it; returns the failure if it is still running 10 s
    later, after SIGKILLing it and the backends its ``/healthz`` lists."""
    pids = [process.pid]
    idle = http.client.HTTPConnection(host, port, timeout=10)
    try:
        idle.request("GET", "/healthz")
        health = json.loads(idle.getresponse().read())
        pids += [backend["pid"] for backend in health.get("backends", [])
                 if backend.get("pid")]
    except (OSError, http.client.HTTPException, ValueError):
        pass                                # the front is already gone
    process.terminate()
    try:
        process.wait(timeout=10)
        return None
    except subprocess.TimeoutExpired:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        process.wait()
        return "still running 10 s after SIGTERM with an idle client"
    finally:
        idle.close()


async def _await_recovery(client: AsyncCompletionClient, *,
                          min_restarts: int = 0,
                          failure: str = "backends never recovered") -> int:
    """Assert that every backend turns healthy with *min_restarts*
    respawns behind it (:func:`await_recovery`); returns the total
    restart count."""
    recovered, health = await await_recovery(client,
                                             min_restarts=min_restarts)
    backends = (health or {}).get("backends") or []
    restarts = sum(backend.get("restarts", 0) for backend in backends)
    assert recovered, (
        f"{failure}: restarts={restarts}, health="
        f"{[(b['backend_id'], b['healthy']) for b in backends]}")
    return restarts


async def _chaos_burst(client: AsyncCompletionClient,
                       scene_paths: Sequence[Path]) -> list[str]:
    """Kill one supervised backend mid-burst; assert nothing is lost.

    Baseline completions (fresh ``n``) establish the expected snippets,
    then a concurrent burst with another fresh ``n`` forces live
    syntheses on every shard while one backend takes a SIGKILL.  With
    replication R=2 a sibling replica owns every scene, so every
    response — during and after the kill — must carry the same ranked
    snippets as an untouched run, at full fidelity: zero errors and
    zero ``degraded`` answers.  The router respawns the dead shard in
    the background; the drive polls ``/healthz`` until it is back.
    """
    report: list[str] = []
    texts = [path.read_text(encoding="utf-8") for path in scene_paths]
    scene_ids = []
    for path, text in zip(scene_paths, texts):
        scene_ids.append((await client.register_scene(
            text, name=path.name))["scene_id"])
    baseline = {}
    for path, scene_id in zip(scene_paths, scene_ids):
        served = await client.complete(scene_id, n=7)
        baseline[scene_id] = tuple(s["code"] for s in served["snippets"])

    victims = [backend for backend in await client.backends()
               if backend.get("managed") and backend.get("pid")]
    assert victims, "chaos smoke needs router-supervised backends"
    victim = victims[0]

    # Fresh n=8 forces one in-flight synthesis per scene; the kill lands
    # while those are running.
    tasks = [asyncio.ensure_future(
        client.complete(scene_ids[index % len(scene_ids)], n=8))
        for index in range(6 * len(scene_ids))]
    await asyncio.sleep(0.02)
    os.kill(int(victim["pid"]), signal.SIGKILL)
    results = await asyncio.gather(*tasks)
    for index, served in enumerate(results):
        scene_id = scene_ids[index % len(scene_ids)]
        assert served["snippets"], "mid-kill completion lost its snippets"
        assert "degraded" not in served, (
            f"mid-kill completion degraded for {scene_id}: with R=2 a "
            f"sibling replica must serve full-fidelity")
        codes = tuple(s["code"] for s in served["snippets"])
        assert codes[:7] == baseline[scene_id][:len(codes[:7])], (
            f"mid-kill snippets diverged for {scene_id}")

    # A post-kill sweep: every scene must still answer full-fidelity
    # while the dead shard respawns in the background.
    for scene_id in scene_ids:
        served = await client.complete(scene_id, n=8)
        assert served["snippets"], "post-kill completion failed"
        assert "degraded" not in served, "post-kill completion degraded"

    restarts = await _await_recovery(client, min_restarts=1)
    stats = await client.stats()
    router = stats["router"]
    report.append(
        f"chaos: killed {victim['backend_id']} (pid {victim['pid']}) "
        f"mid-burst of {len(tasks)}; {restarts} respawn(s), "
        f"{router['failovers']} failover(s), 0 degraded, all "
        f"completions correct")
    return report


def _sigcont(pid: int) -> None:
    """Resume a stalled pid; idempotent (a resumed or dead pid is fine)."""
    try:
        os.kill(pid, signal.SIGCONT)
    except (ProcessLookupError, OSError):
        pass


async def _slow_burst(client: AsyncCompletionClient,
                      scene_paths: Sequence[Path]) -> list[str]:
    """SIGSTOP one ring owner mid-burst; hedges must save its traffic.

    The gray failure: a SIGSTOPped backend keeps its sockets open and
    simply stops answering — no connection error, so breakers stay
    closed and the router keeps routing to it.  Every request carries a
    generous end-to-end deadline; the requests aimed at the stalled
    owner's scene must be *hedged* onto the sibling replica and answer
    full-fidelity.  Nothing may error, nothing may degrade, nothing may
    respawn (the process never died), and after SIGCONT the victim must
    still be a healthy, serving member of the ring.

    The SIGCONT is scheduled on a timer (belt-and-braces resumed again
    after the burst) so requests that exhaust the hedge retry budget
    simply park until the stall lifts — well inside their deadlines —
    instead of deadlocking the gather.
    """
    report: list[str] = []
    deadline_ms = 30_000
    texts = [path.read_text(encoding="utf-8") for path in scene_paths]
    scene_ids = []
    for path, text in zip(scene_paths, texts):
        scene_ids.append((await client.register_scene(
            text, name=path.name))["scene_id"])
    baseline = {}
    for scene_id in scene_ids:
        served = await client.complete(scene_id, n=7,
                                       deadline_ms=deadline_ms)
        baseline[scene_id] = tuple(s["code"] for s in served["snippets"])

    # The ring is deterministic over backend ids: pick the victim as the
    # *primary owner* of the first scene, so the stalled owner is
    # guaranteed to sit first in that scene's candidate order.
    backends = {backend["backend_id"]: backend
                for backend in await client.backends()}
    roster = await client.admin_backends()
    ring = HashRing(replicas=roster["ring"]["replicas"])
    for backend_id in backends:
        ring.add(backend_id)
    victim = backends[ring.route_n(scene_ids[0], 1)[0]]
    assert victim.get("managed") and victim.get("pid"), (
        "slow chaos needs a router-supervised owner to stall")
    pid = int(victim["pid"])
    restarts_before = sum(backend.get("restarts", 0)
                          for backend in backends.values())

    tasks = [asyncio.ensure_future(
        client.complete(scene_ids[index % len(scene_ids)], n=8,
                        deadline_ms=deadline_ms))
        for index in range(6 * len(scene_ids))]
    await asyncio.sleep(0.02)
    os.kill(pid, signal.SIGSTOP)
    # Post-stall wave aimed straight at the stalled owner's scene: the
    # router still sees the victim as healthy (SIGSTOP breaks nothing),
    # so these dispatch to it, park, and must be hedged to the sibling.
    wave = [asyncio.ensure_future(
        client.complete(scene_ids[0], n=9, deadline_ms=deadline_ms))
        for _ in range(4)]
    asyncio.get_running_loop().call_later(1.0, _sigcont, pid)

    results = await asyncio.gather(*tasks)
    wave_results = await asyncio.gather(*wave)
    _sigcont(pid)                           # idempotent belt-and-braces
    for index, served in enumerate(results):
        scene_id = scene_ids[index % len(scene_ids)]
        assert served["snippets"], "mid-stall completion lost its snippets"
        assert "degraded" not in served, (
            f"mid-stall completion degraded for {scene_id}: the sibling "
            f"replica must serve full-fidelity")
        codes = tuple(s["code"] for s in served["snippets"])
        assert codes[:7] == baseline[scene_id][:len(codes[:7])], (
            f"mid-stall snippets diverged for {scene_id}")
    for served in wave_results:
        assert served["snippets"] and "degraded" not in served, (
            "stalled-owner completion was lost or degraded")
        codes = tuple(s["code"] for s in served["snippets"])
        assert codes[:7] == baseline[scene_ids[0]][:7], (
            "hedged completion diverged from the baseline")

    # Recovery: the victim never died, so zero respawns — it rejoins by
    # simply answering again once SIGCONT lands.
    restarts = await _await_recovery(
        client, failure="stalled backend never rejoined")
    assert restarts == restarts_before, (
        f"slow chaos must not respawn anything (the process never "
        f"died), saw {restarts - restarts_before} restart(s)")

    stats = await client.stats()
    router = stats["router"]
    assert router["hedges"]["fired"] >= 1, (
        "no hedge fired against a stalled ring owner — gray failure "
        "went unhandled")
    assert router["deadline_exceeded"] == 0, (
        f"{router['deadline_exceeded']} completion(s) blew a "
        f"{deadline_ms} ms budget during a ~1 s stall")

    for scene_id in scene_ids:
        served = await client.complete(scene_id, n=8,
                                       deadline_ms=deadline_ms)
        assert served["snippets"], "post-stall completion failed"
        assert "degraded" not in served, "post-stall completion degraded"

    report.append(
        f"slow-chaos: stalled {victim['backend_id']} (pid {pid}) "
        f"mid-burst of {len(tasks) + len(wave)}; "
        f"{router['hedges']['fired']} hedge(s) "
        f"({router['hedges']['won']} won), "
        f"{router['slow_timeouts']} slow timeout(s), "
        f"{router['ejections']} ejection(s), 0 errors, 0 degraded, "
        f"0 respawns, 0 deadline_exceeded; victim rejoined after "
        f"SIGCONT")
    return report


async def _majority_kill(client: AsyncCompletionClient,
                         scene_paths: Sequence[Path]) -> list[str]:
    """Kill *both* replica-set owners of one scene; assert the router
    degrades gracefully (stale-but-honest answers) instead of erroring.

    The hash ring is deterministic over backend ids, so the smoke
    rebuilds it client-side from ``/healthz`` to pick exactly the two
    owners.  With every replica down the completion must come from the
    router's last-known-good cache with ``degraded: true`` — same
    snippets, marked stale — and must return to full fidelity once the
    owners respawn and the journal replays.
    """
    report: list[str] = []
    path = scene_paths[0]
    scene_id = (await client.register_scene(
        path.read_text(encoding="utf-8"), name=path.name))["scene_id"]
    baseline = await client.complete(scene_id, n=7)
    codes = tuple(s["code"] for s in baseline["snippets"])

    backends = {backend["backend_id"]: backend
                for backend in await client.backends()}
    assert len(backends) >= 3, (
        f"--kill-majority needs >= 3 backends so a non-owner survives, "
        f"got {len(backends)}")
    already_restarted = sum(backend.get("restarts", 0)
                            for backend in backends.values())
    roster = await client.admin_backends()
    replication = roster["replication"]
    assert replication >= 2, f"--kill-majority needs R>=2, got {replication}"
    ring = HashRing(replicas=roster["ring"]["replicas"])
    for backend_id in backends:
        ring.add(backend_id)
    owners = ring.route_n(scene_id, replication)

    for owner_id in owners:
        owner = backends[owner_id]
        assert owner.get("managed") and owner.get("pid"), (
            f"owner {owner_id} is not supervised; cannot kill it")
        os.kill(int(owner["pid"]), signal.SIGKILL)

    # Every replica is down: the very next answer must be the cached
    # completion, honestly marked — never a 5xx.  Same query shape as
    # the baseline (the last-known-good cache is keyed by it).
    served = await client.complete(scene_id, n=7)
    assert served.get("degraded") is True, (
        f"all-owners-down completion was not degraded: "
        f"{sorted(served)}")
    assert tuple(s["code"] for s in served["snippets"]) == codes, (
        "degraded answer diverged from the last known good")

    restarts = await _await_recovery(
        client, min_restarts=already_restarted + len(owners))
    deadline = time.monotonic() + 30.0
    while True:
        recovered = await client.complete(scene_id, n=7)
        if "degraded" not in recovered:
            break
        assert time.monotonic() < deadline, (
            "completions still degraded after owners respawned")
        await asyncio.sleep(0.05)
    assert tuple(s["code"] for s in recovered["snippets"]) == codes, (
        "post-recovery snippets diverged from the baseline")

    stats = await client.stats()
    router = stats["router"]
    assert router["degraded_served"] >= 1, router["degraded_served"]
    report.append(
        f"majority-kill: killed owners {owners} of {path.name}; served "
        f"{router['degraded_served']} degraded answer(s) from "
        f"last-known-good, then recovered full-fidelity after "
        f"{restarts} respawn(s)")
    return report


def _assert_stream_shape(chunks: list) -> dict:
    """Assert NDJSON chunk framing; returns the terminal ``done`` chunk.

    Snippet chunks must arrive in rank order with non-decreasing weights,
    and the final ``done`` chunk's batch payload must carry exactly the
    snippets that were streamed — the stream is self-checking.
    """
    assert chunks, "stream produced no chunks"
    assert [c["chunk"] for c in chunks[:-1]] == ["snippet"] * (
        len(chunks) - 1), "non-snippet chunk before the stream ended"
    done = chunks[-1]
    assert done["chunk"] == "done", f"stream ended with {done['chunk']!r}"
    snippets = chunks[:-1]
    assert [c["rank"] for c in snippets] == list(
        range(1, len(snippets) + 1)), "stream ranks not 1..n in order"
    weights = [c["weight"] for c in snippets]
    assert weights == sorted(weights), (
        f"stream weights not non-decreasing: {weights}")
    streamed = [{"rank": c["rank"], "code": c["code"],
                 "weight": c["weight"]} for c in snippets]
    assert streamed == done["snippets"], (
        "streamed snippets differ from the done chunk's batch payload")
    return done


async def _stream_drive(client: AsyncCompletionClient,
                        scene_paths: Sequence[Path]) -> list[str]:
    """Streaming + edit-session assertions (the protocol v2 surface).

    Every scene is streamed cold then warm (byte-identical snippets,
    ``cache_hit`` on the replay), then the first scene runs an
    edit-session round trip: add a declaration (new content-derived
    scene id), stream against the edited scene, remove the declaration
    again, and assert the session lands back on the *original* scene id
    with its warm ranking — the incremental path's parity contract over
    the wire.
    """
    report: list[str] = []
    chunk_total = 0
    for path in scene_paths:
        text = path.read_text(encoding="utf-8")
        scene_id = (await client.register_scene(
            text, name=path.name))["scene_id"]
        cold = [c async for c in client.complete_stream(scene_id, n=6)]
        done = _assert_stream_shape(cold)
        assert done["scene_id"] == scene_id
        warm = [c async for c in client.complete_stream(scene_id, n=6)]
        warm_done = _assert_stream_shape(warm)
        assert warm_done["cache_hit"], f"{path.name}: warm stream missed"
        assert warm_done["snippets"] == done["snippets"], (
            f"{path.name}: warm stream snippets differ from cold")
        chunk_total += len(cold) + len(warm)
        report.append(
            f"{path.name}: streamed {len(cold) - 1} snippets cold, "
            f"replayed warm from cache")

    # Edit-session round trip over the wire, on the first scene.
    path = scene_paths[0]
    origin_id = (await client.register_scene(
        path.read_text(encoding="utf-8"), name=path.name))["scene_id"]
    edited = await client.edit_scene(origin_id, [
        {"op": "add", "decl": "local smoke_probe : String"}])
    assert edited["scene_id"] != origin_id, (
        "edit did not change the content-derived scene id")
    assert edited["added"] == ["smoke_probe"], edited["added"]
    streamed = [c async for c in client.complete_stream(
        edited["scene_id"], n=6)]
    edited_done = _assert_stream_shape(streamed)
    assert edited_done["scene_id"] == edited["scene_id"]
    chunk_total += len(streamed)

    reverted = await client.edit_scene(edited["scene_id"], [
        {"op": "remove", "name": "smoke_probe"}])
    assert reverted["scene_id"] == origin_id, (
        f"net-no-op edit script landed on {reverted['scene_id']}, "
        f"not the original {origin_id}")
    assert reverted["reused"], "reverted scene did not reattach warm state"
    back = [c async for c in client.complete_stream(origin_id, n=6)]
    back_done = _assert_stream_shape(back)
    assert back_done["cache_hit"], (
        "original scene lost its cached ranking across the edit round trip")
    chunk_total += len(back)

    stats = await client.stats()
    server = stats["server"]
    assert server["streams"] >= 2 * len(scene_paths) + 2, (
        f"stats counted only {server['streams']} streams")
    assert server["stream_chunks"] == chunk_total, (
        f"stats counted {server['stream_chunks']} chunks, "
        f"client saw {chunk_total}")
    assert server["scenes_edited"] >= 2, server["scenes_edited"]
    assert server["edits_reused"] >= 1, server["edits_reused"]
    report.append(
        f"edit-session: {origin_id} -> {edited['scene_id']} -> back "
        f"(warm reattach); {server['streams']} streams, "
        f"{server['stream_chunks']} chunks accounted")
    return report


async def _gc_policy_report(client: AsyncCompletionClient,
                            shards: int) -> str:
    """Assert every serving process settled its heap after a prepare.

    The engine freezes what a newly prepared scene keeps alive with no
    flag to turn it on; a ``repro serve`` that stops settling fails here.
    """
    stats = await client.stats()
    if shards:
        missing = [shard["backend_id"] for shard in stats["shards"]
                   if "stats" not in shard]
        assert not missing, f"no stats from shards {missing}"
        sections = [shard["stats"]["gc"] for shard in stats["shards"]]
    else:
        sections = [stats["gc"]]
    settles = [section["settles"] for section in sections]
    assert all(count >= 1 for count in settles), (
        f"scenes were registered but the heap was never settled: "
        f"settles {settles}")
    reclaims = [section["reclaims"] for section in sections]
    gen2 = [section["collections"][2] for section in sections]
    return (f"gc: settles {settles}, reclaims {reclaims}, "
            f"gen-2 collections {gen2}")


async def _drive(host: str, port: int, scene_paths: Sequence[Path],
                 burst: int, shards: int = 0,
                 chaos: bool = False, stream: bool = False,
                 kill_majority: bool = False, slow: bool = False,
                 report: Optional[list] = None) -> list[str]:
    # The caller may share *report* so a failing drive still leaves its
    # partial step log behind for the --report artifact.
    report = report if report is not None else []
    async with AsyncCompletionClient(host, port) as client:
        await wait_until_healthy(client)

        for path in scene_paths:
            text = path.read_text(encoding="utf-8")
            registered = await client.register_scene(text, name=path.name)
            scene_id = registered["scene_id"]

            cold = await client.complete(scene_id)
            assert not cold["cache_hit"], f"{path.name}: cold hit?"
            assert cold["snippets"], f"{path.name}: no snippets"
            warm = await client.complete(scene_id)
            assert warm["cache_hit"], f"{path.name}: warm request missed"
            assert warm["snippets"] == cold["snippets"], (
                f"{path.name}: warm snippets differ from cold")

            # Context hints end-to-end: the hinted repeat must still be a
            # cache hit (hints never fragment the result cache) and come
            # back re-ranked by the standard chain — through the router,
            # this exercises hint propagation across the dispatch hop.
            hinted = await client.complete(
                scene_id, context={"position_kind": "expression"})
            assert hinted["cache_hit"], (
                f"{path.name}: hinted repeat missed the cache — context "
                f"is fragmenting the result cache")
            assert hinted["reranked"], (
                f"{path.name}: hinted completion was not re-ranked")
            hinted_ranks = [s["rank"] for s in hinted["snippets"]]
            assert hinted_ranks == list(range(1, len(hinted_ranks) + 1)), (
                f"{path.name}: hinted ranks not renumbered 1..n")
            report.append(
                f"{path.name}: {len(cold['snippets'])} snippets, "
                f"best {cold['snippets'][0]['code']!r}, "
                f"cold {cold['synthesis_ms']:.0f} ms, "
                f"warm hit {warm['server_ms']:.2f} ms, hinted rerank ok")
        report.append(await _gc_policy_report(client, shards))

        if stream:
            report.extend(await _stream_drive(client, scene_paths))

        if chaos:
            if kill_majority:
                report.extend(await _majority_kill(client, scene_paths))
            elif slow:
                report.extend(await _slow_burst(client, scene_paths))
            else:
                report.extend(await _chaos_burst(client, scene_paths))
        else:
            # Coalescing: a burst of identical *uncached* queries
            # (fresh n) must cost exactly one synthesis.  (Skipped under
            # --chaos: a respawned backend restarts its counters, so
            # cross-kill counter arithmetic would be meaningless.)
            scene_id = (await client.register_scene(
                scene_paths[0].read_text(encoding="utf-8"),
                name=scene_paths[0].name))["scene_id"]
            before = (await client.stats())["server"]
            burst_results = await asyncio.gather(
                *(client.complete(scene_id, n=7) for _ in range(burst)))
            after = (await client.stats())["server"]

            synthesized = after["synthesized"] - before["synthesized"]
            coalesced = after["coalesced"] - before["coalesced"]
            hits = after["cache_hits"] - before["cache_hits"]
            assert synthesized == 1, (
                f"burst of {burst} identical requests ran {synthesized} "
                f"syntheses, expected exactly 1")
            assert coalesced + hits == burst - 1, (
                f"burst accounting off: {coalesced} coalesced + {hits} "
                f"hits != {burst - 1}")
            codes = {tuple(s["code"] for s in r["snippets"])
                     for r in burst_results}
            assert len(codes) == 1, "burst responses disagree"
            report.append(
                f"burst: {burst} identical requests -> 1 synthesis, "
                f"{coalesced} coalesced, {hits} cache hits")

        stats = await client.stats()
        warm_latency = stats["server"]["latency"]["warm"]
        report.append(
            f"stats: {stats['server']['completions']} completions, "
            f"warm p95 {warm_latency['p95_ms']} ms, "
            f"{stats['core']['interned_types']['size']} interned types")

        if shards:
            # Router mode: the merged view must equal the per-shard sum.
            shard_list = stats["shards"]
            assert len(shard_list) == shards, (
                f"expected {shards} shards, stats shows {len(shard_list)}")
            for counter in ("completions", "synthesized", "cache_hits",
                            "scenes_registered"):
                total = sum(shard["stats"]["server"][counter]
                            for shard in shard_list if "stats" in shard)
                assert stats["server"][counter] == total, (
                    f"aggregated {counter} {stats['server'][counter]} != "
                    f"per-shard sum {total}")
            registered = [shard["stats"]["scenes"]["count"]
                          for shard in shard_list if "stats" in shard]
            assert all(count > 0 for count in registered), (
                f"sharding degenerated: per-shard scene counts "
                f"{registered}")
            report.append(
                f"router: {len(shard_list)} shards, scenes per shard "
                f"{registered}, {stats['router']['journal']['scenes']} "
                f"journaled")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.smoke",
        description="end-to-end smoke test of the completion server")
    parser.add_argument("scenes", nargs="*",
                        help="paths to .ins scenes (default: all shipped "
                             "example scenes)")
    parser.add_argument("--burst", type=int, default=50,
                        help="concurrent identical requests (default 50)")
    parser.add_argument("--router", action="store_true",
                        help="drive `repro route` over 2 backend processes "
                             "instead of a single `repro serve`")
    parser.add_argument("--chaos", action="store_true",
                        help="with --router: SIGKILL one backend mid-burst "
                             "and assert respawn, retried completions, and "
                             "stats reconciliation")
    parser.add_argument("--stream", action="store_true",
                        help="also drive the protocol v2 surface: NDJSON "
                             "streaming (cold + warm replay) and an "
                             "edit-session round trip per scene set")
    parser.add_argument("--backends", type=int, default=2,
                        help="router backend processes (default 2)")
    parser.add_argument("--slow", action="store_true",
                        help="with --router --chaos: SIGSTOP one ring "
                             "owner mid-burst (the gray failure) instead "
                             "of SIGKILL; assert hedged completions on "
                             "the sibling, zero errors, zero respawns, "
                             "and rejoin after SIGCONT")
    parser.add_argument("--kill-majority", action="store_true",
                        help="with --router --chaos: SIGKILL *both* "
                             "replica-set owners of one scene and assert "
                             "degraded (not erroring) answers, then "
                             "recovery; needs --backends >= 3")
    parser.add_argument("--report", metavar="PATH",
                        help="write a JSON report artifact to PATH "
                             "(written on failure too)")
    args = parser.parse_args(argv)

    if args.chaos and not args.router:
        print("smoke: --chaos requires --router (only supervised "
              "backends can be killed and respawned)", file=sys.stderr)
        return 2
    if args.kill_majority and not args.chaos:
        print("smoke: --kill-majority requires --chaos", file=sys.stderr)
        return 2
    if args.slow and not args.chaos:
        print("smoke: --slow requires --chaos", file=sys.stderr)
        return 2
    if args.slow and args.kill_majority:
        print("smoke: --slow and --kill-majority are distinct chaos "
              "modes; pick one", file=sys.stderr)
        return 2
    if args.kill_majority and args.backends < 3:
        print("smoke: --kill-majority needs --backends >= 3 so a "
              "non-owner backend survives", file=sys.stderr)
        return 2

    scene_paths = [Path(p) for p in args.scenes]
    if not scene_paths:
        scene_paths = sorted(DEFAULT_SCENES_DIR.glob("*.ins"))
    if not scene_paths:
        print("smoke: no scenes found", file=sys.stderr)
        return 2

    shards = args.backends if args.router else 0
    if args.router:
        process, host, port = _spawn_server(
            ("--backends", str(args.backends)), command="route")
    else:
        process, host, port = _spawn_server()
    front = ("router+chaos" if args.chaos
             else "router" if args.router else "server")
    if args.kill_majority:
        front += "+kill-majority"
    if args.slow:
        front += "+slow"
    if args.stream:
        front += "+stream"
    report: list = []
    failure: Optional[str] = None
    try:
        asyncio.run(_drive(host, port, scene_paths, args.burst,
                           shards=shards, chaos=args.chaos,
                           stream=args.stream,
                           kill_majority=args.kill_majority,
                           slow=args.slow, report=report))
    except BaseException as error:            # noqa: BLE001 — report then re-raise
        failure = f"{type(error).__name__}: {error}"
        raise
    finally:
        # The step lines go out even when the drive failed: they show how
        # far it got.
        for line in report:
            print(f"smoke: {line}")
        stalled = _stop(process, host, port)
        failure = "; ".join(filter(None, (failure, stalled))) or None
        if args.report:
            artifact = {
                "mode": front,
                "scenes": [path.name for path in scene_paths],
                "backends": shards,
                "ok": failure is None,
                "failure": failure,
                "report": list(report),
            }
            Path(args.report).write_text(
                json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    if stalled:
        print(f"smoke: FAILED shutdown: {stalled}", file=sys.stderr)
        return 1
    print(f"smoke: OK ({len(scene_paths)} scenes via {front})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
