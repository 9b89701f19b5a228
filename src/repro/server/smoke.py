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
must carry one entry per shard, its counters and latency windows must
merge the shards' exactly, and every shard must have settled its heap.
CI runs both forms.

``--stream`` adds the protocol v2 drive on top (composable with
``--router``): every scene is streamed as NDJSON cold and warm —
asserting chunk framing, rank order, weight monotonicity, and that the
terminal ``done`` chunk's batch payload matches the streamed snippets —
then an edit-session round trip adds and removes a declaration over
``/v1/edit-scene`` and asserts the session lands back on the original
content-derived scene id with its cached ranking intact.

``--router --chaos`` adds a fault drive (``_chaos_drive``) whose every
fault goes through :class:`repro.loadgen.chaos.ChaosController`, the
fault layer ``repro loadgen --chaos`` strikes with too.  Baseline
completions fix each scene's ranked snippets, then a burst of
fresh-``n`` completions across every scene is in flight when the strike
lands:

* plain ``--chaos`` SIGKILLs one supervised backend.  With replication
  R=2 a sibling replica owns every scene, so every completion during and
  after the kill must answer the baseline's snippets at full fidelity,
  never ``degraded``, and the router must respawn the shard in the
  background.  The burst coalescing accounting is skipped in chaos
  modes: a respawned backend restarts its counters;
* ``--slow`` SIGSTOPs the primary owner of the first scene for 1 s, the
  gray failure (its sockets stay open, breakers see nothing), and sends
  a wave at that scene on top.  Every request carries a 30 s deadline;
  hedges to the sibling must answer all of it with zero errors, zero
  respawns and zero ``deadline_exceeded``, and the victim must rejoin;
* ``--kill-majority`` (needs ``--backends 3``) SIGKILLs *both* ring
  owners of the first scene and sends no burst: the router must answer
  from its last-known-good cache with ``degraded: true`` — an honest
  stale answer, not a 5xx — then recover to full-fidelity answers once
  the owners respawn.

Every mode ends by checking shutdown: with one idle keep-alive
connection open to the front, SIGTERM must end the process within 10 s.
A front that needs SIGKILL fails the smoke (its backends are killed too).

``--report PATH`` writes a JSON artifact (mode, per-step report lines,
pass/fail, and in chaos modes the controller's report, shaped like
``BENCH_serve.json``'s ``chaos`` section) — written on failure too, so
CI can always upload it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.loadgen.chaos import (ChaosController, ChaosPlan, await_recovery,
                                 format_report, restart_count)
from repro.server.client import AsyncCompletionClient, wait_until_healthy
from repro.server.metrics import LatencyWindow
from repro.server.router import spawn_cli_server, stop_cli_server

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


def _codes(served: dict) -> tuple:
    return tuple(snippet["code"] for snippet in served["snippets"])


async def _chaos_drive(client: AsyncCompletionClient,
                       scene_paths: Sequence[Path], mode: str) -> dict:
    """Strike the topology mid-burst in *mode* (``kill``, ``slow`` or
    ``majority``) and assert that nothing is lost; returns the
    controller's report.  See the module docstring for each mode's
    contract.
    """
    deadline_ms = 30_000 if mode == "slow" else None
    scene_ids = [(await client.register_scene(
        path.read_text(encoding="utf-8"), name=path.name))["scene_id"]
        for path in scene_paths]
    baseline = {}
    for scene_id in scene_ids:
        baseline[scene_id] = _codes(await client.complete(
            scene_id, n=7, deadline_ms=deadline_ms))
    target = scene_ids[0]

    healthz = await client.healthz()
    restarts_before = restart_count(healthz)
    roster = await client.admin_backends()
    owners = ChaosController.ring_owners(healthz, roster, target)
    if mode == "majority":
        assert len(healthz["backends"]) >= 3, (
            f"--kill-majority needs >= 3 backends so a non-owner "
            f"survives, got {len(healthz['backends'])}")
        assert roster["replication"] >= 2, (
            f"--kill-majority needs R>=2, got {roster['replication']}")
    controller = ChaosController(ChaosPlan(mode=mode, stall_s=1.0))

    # Fresh n=8 forces one in-flight synthesis per scene; the strike
    # lands while those are running.
    burst = [] if mode == "majority" else [asyncio.ensure_future(
        client.complete(scene_ids[index % len(scene_ids)], n=8,
                        deadline_ms=deadline_ms))
        for index in range(6 * len(scene_ids))]
    await asyncio.sleep(0.02)
    controller.strike(healthz, phase=mode, event_index=0,
                      victims={"slow": owners[:1],
                               "majority": owners}.get(mode))
    # The wave aims at the target scene.  A stalled owner still looks
    # healthy (SIGSTOP breaks nothing), so the router dispatches to it
    # and must hedge to the sibling.  With every owner dead, the same
    # query shape as the baseline (the last-known-good key) must be
    # answered stale.
    wave = []
    if mode == "slow":
        wave = [asyncio.ensure_future(client.complete(
            target, n=9, deadline_ms=deadline_ms)) for _ in range(4)]
    elif mode == "majority":
        wave = [asyncio.ensure_future(client.complete(target, n=7))]
    results = await asyncio.gather(*burst)
    wave_results = await asyncio.gather(*wave)
    controller.resume_all()

    for index, served in enumerate(results):
        scene_id = scene_ids[index % len(scene_ids)]
        assert served["snippets"], (
            f"{mode}: burst completion lost its snippets")
        assert "degraded" not in served, (
            f"{mode}: burst completion degraded for {scene_id}: with R=2 "
            f"a sibling replica must serve full-fidelity")
        codes = _codes(served)[:7]
        assert codes == baseline[scene_id][:len(codes)], (
            f"{mode}: burst snippets diverged for {scene_id}")
    for served in wave_results:
        if mode == "majority":
            assert served.get("degraded") is True, (
                f"all-owners-down completion was not degraded: "
                f"{sorted(served)}")
            assert _codes(served) == baseline[target], (
                "degraded answer diverged from the last known good")
        else:
            assert served["snippets"] and "degraded" not in served, (
                "stalled-owner completion was lost or degraded")
            assert _codes(served)[:7] == baseline[target][:7], (
                "hedged completion diverged from the baseline")
    if mode != "majority":
        # Every scene still answers full-fidelity while the struck
        # backend respawns or rejoins.
        for scene_id in scene_ids:
            served = await client.complete(scene_id, n=8,
                                           deadline_ms=deadline_ms)
            assert served["snippets"] and "degraded" not in served, (
                f"{mode}: post-strike completion failed or degraded")

    recovered, health = await await_recovery(
        client, min_restarts=restarts_before + controller.kills)
    restarts_after = restart_count(health)
    backends = (health or {}).get("backends") or []
    assert recovered, (
        f"{mode}: backends never recovered: restarts={restarts_after}, "
        f"health={[(b['backend_id'], b['healthy']) for b in backends]}")
    if mode == "slow":
        assert restarts_after == restarts_before, (
            f"slow chaos must not respawn anything (the process never "
            f"died), saw {restarts_after - restarts_before} restart(s)")
    if mode == "majority":
        deadline = time.monotonic() + 30.0
        while True:
            served = await client.complete(target, n=7)
            if "degraded" not in served:
                break
            assert time.monotonic() < deadline, (
                "completions still degraded after owners respawned")
            await asyncio.sleep(0.05)
        assert _codes(served) == baseline[target], (
            "post-recovery snippets diverged from the baseline")

    router = (await client.stats())["router"]
    if mode == "slow":
        assert router["hedges"]["fired"] >= 1, (
            "no hedge fired against a stalled ring owner — gray failure "
            "went unhandled")
        assert router["deadline_exceeded"] == 0, (
            f"{router['deadline_exceeded']} completion(s) blew a "
            f"{deadline_ms} ms budget during a ~1 s stall")
    if mode == "majority":
        assert router["degraded_served"] >= 1, router["degraded_served"]
    return controller.report(router, router["journal"]["scenes"])


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
                 chaos: Optional[str] = None, stream: bool = False,
                 report: Optional[list] = None,
                 evidence: Optional[dict] = None) -> list[str]:
    # The caller may share *report* so a failing drive still leaves its
    # partial step log behind for the --report artifact, and *evidence*
    # to receive the chaos report.
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
            doc = await _chaos_drive(client, scene_paths, chaos)
            if evidence is not None:
                evidence["chaos"] = doc
            report.append(format_report(doc))
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
            codes = {_codes(served) for served in burst_results}
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
            # ... and each merged window the shards' windows merged.
            for name in ("complete", "warm", "synthesis"):
                expected = LatencyWindow.from_snapshots(
                    shard["stats"]["server"]["latency"][name]
                    for shard in shard_list if "stats" in shard).snapshot()
                merged = stats["server"]["latency"][name]
                for key in ("count", "p50_ms", "p95_ms", "max_ms"):
                    assert merged[key] == expected[key], (
                        f"aggregated {name} {key} {merged[key]} != "
                        f"{expected[key]} over the shards' windows")
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
    chaos = None
    if args.chaos:
        chaos = ("majority" if args.kill_majority
                 else "slow" if args.slow else "kill")
    report: list = []
    evidence: dict = {"chaos": None}
    failure: Optional[str] = None
    try:
        asyncio.run(_drive(host, port, scene_paths, args.burst,
                           shards=shards, chaos=chaos, stream=args.stream,
                           report=report, evidence=evidence))
    except BaseException as error:            # noqa: BLE001 — report then re-raise
        failure = f"{type(error).__name__}: {error}"
        raise
    finally:
        # The step lines go out even when the drive failed: they show how
        # far it got.
        for line in report:
            print(f"smoke: {line}")
        stalled = stop_cli_server(process, host, port)
        failure = "; ".join(filter(None, (failure, stalled))) or None
        if args.report:
            artifact = {
                "mode": front,
                "scenes": [path.name for path in scene_paths],
                "backends": shards,
                "ok": failure is None,
                "failure": failure,
                "report": list(report),
                "chaos": evidence["chaos"],
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
