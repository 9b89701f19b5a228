"""Sharded-router throughput: two backend processes must beat one.

The router's value proposition is process-level parallelism without wire
changes: each backend is its own interpreter, so cold syntheses on
different shards run on different cores.  A ``repro serve`` process runs
synthesis on one core, so backends are the only way this program uses
more than one.

This load test builds several distinct scenes (distinct content ⇒
distinct scene ids ⇒ spread over the ring), drives one identical batch
of cold queries through a 1-backend router and a 2-backend router, and
asserts the sharded wall clock wins while both serve byte-identical
rankings.  Auto-marked ``slow`` by the benchmarks conftest; skipped on
single-CPU machines and wherever subprocess spawning is unavailable.
"""

import asyncio
import os
import random
import time

import pytest

from repro.server.client import AsyncCompletionClient
from repro.server.router import CompletionRouter, RouterConfig

#: Distinct scenes; each contributes QUERIES_PER_SCENE cold queries.
SCENES = 6

QUERIES_PER_SCENE = 4

#: Snippets per query; scales reconstruction work.
SNIPPETS = 40


def _scene_text(seed: int, declarations: int = 1200,
                bases: int = 120) -> str:
    """A deterministic mid-size scene; different seeds give different
    content and therefore different scene ids (the sharding keys)."""
    rng = random.Random(seed)
    types = [f"T{i}" for i in range(bases)]
    lines = ["local seed0 : T0", "local seed1 : T1"]
    for i in range(declarations):
        arity = rng.choice([1, 1, 2, 2, 3, 3, 4])
        signature = " -> ".join([rng.choice(types) for _ in range(arity)]
                                + [rng.choice(types)])
        lines.append(f"imported gen.m{i} : {signature} "
                     f"[freq={rng.randint(0, 200)}] [style=function] "
                     f"[display=m{i}]")
    lines.append("goal T2")
    return "\n".join(lines) + "\n"


async def _timed_round(router: CompletionRouter, texts: list,
                       n_offset: int) -> tuple[float, list]:
    """Register every scene, warm the executors, then time cold misses."""
    client = AsyncCompletionClient(router.host, router.port, timeout=300.0)
    try:
        scene_ids = []
        for index, text in enumerate(texts):
            registered = await client.register_scene(text,
                                                     name=f"load{index}")
            scene_ids.append(registered["scene_id"])
        # Warm-up: one small query per scene readies every backend's
        # synthesizer without touching the timed keys.  No declaration
        # returns its goal, so its graph is one node and holds none of
        # the timed goals: those still prove, not reconstruct from it.
        await asyncio.gather(
            *(client.complete(scene_id, goal="Unreturned", n=2)
              for scene_id in scene_ids))
        start = time.perf_counter()
        results = await asyncio.gather(
            *(client.complete(scene_id, goal=f"T{4 + query}", n=n_offset)
              for scene_id in scene_ids
              for query in range(QUERIES_PER_SCENE)))
        elapsed = time.perf_counter() - start
        assert all(not r["cache_hit"] and not r["coalesced"]
                   for r in results), "timed round must be all cold misses"
        return elapsed, results
    finally:
        await client.close()


async def _run_comparison(tmp_path) -> dict:
    texts = [_scene_text(seed) for seed in range(SCENES)]
    report = {}
    results_by_backends = {}
    for backends in (1, 2):
        router = CompletionRouter(RouterConfig(
            port=0, backends=backends,
            journal_path=str(tmp_path / f"journal-{backends}.jsonl")))
        await router.start()
        try:
            elapsed, results = await _timed_round(router, texts, SNIPPETS)
            report[backends] = elapsed
            results_by_backends[backends] = results
            if backends == 2:
                counts = [0, 0]
                for entry in router.journal.entries():
                    shard = router.ring.route(entry.scene_id)
                    counts[int(shard == "b1")] += 1
                if 0 in counts:
                    pytest.skip(f"degenerate shard split {counts} for "
                                f"this scene set")
        finally:
            await router.close()

    # Sharding must never change results: byte-identical rankings.
    for single, sharded in zip(results_by_backends[1],
                               results_by_backends[2]):
        assert single["snippets"] == sharded["snippets"]
        assert single["goal"] == sharded["goal"]
    return report


def test_sharded_router_beats_single_backend(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("sharded throughput needs more than one CPU")
    report = asyncio.run(_run_comparison(tmp_path))
    speedup = report[1] / report[2]
    total = SCENES * QUERIES_PER_SCENE
    print(f"\n{total} cold queries: 1-backend router "
          f"{report[1] * 1000:.0f} ms, 2-backend router "
          f"{report[2] * 1000:.0f} ms ({speedup:.2f}x)")
    assert report[2] < report[1], (
        f"2-backend round ({report[2]:.2f}s) should beat the 1-backend "
        f"round ({report[1]:.2f}s)")
