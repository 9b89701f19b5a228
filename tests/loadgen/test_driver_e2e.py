"""End-to-end chaos-kill plumbing against a tiny local topology.

The blocking CI self-test: boots a real 2-backend ``repro route``
topology, replays a miniature trace with one chaos kill, and asserts the
*plumbing* — events executed, a backend actually died and was respawned,
recovery went warm, report structure sound.  Every assertion is
timing-free (counts, flags, structure); wall-clock latencies are only
collected, never compared, so the test is load-agnostic and safe for
shared CI runners.
"""

import asyncio
import dataclasses

import pytest

from repro.loadgen.chaos import ChaosPlan
from repro.loadgen.driver import DriverConfig, replay_trace
from repro.loadgen.slo import SLO, build_report, evaluate_slos
from repro.loadgen.traces import (PHASE_BURST, PHASE_RECOVERY, PROFILES,
                                  generate_trace, trace_digest)
from repro.server.router import spawn_cli_server, stop_cli_server

#: A miniature workload: the smoke profile's scene population (the
#: deterministic victim pick owns a hot scene there, so the dead shard
#: is guaranteed post-kill traffic and an on-demand respawn) with the
#: time axis shrunk — scene ownership depends only on scene texts, not
#: on rates or durations.
TINY_SPEC = dataclasses.replace(
    PROFILES["smoke"], steady_rate_hz=10.0, steady_duration_s=0.8,
    burst_rate_hz=25.0, burst_base_hz=8.0, burst_duration_s=0.8,
    burst_period_s=0.4)


@pytest.fixture(scope="module")
def router_topology(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("loadgen-e2e")
    process, host, port = spawn_cli_server(
        "route",
        ("--backends", "2",
         "--journal", str(workdir / "journal.jsonl"),
         "--snapshot-dir", str(workdir / "snapshots")),
        label="loadgen-e2e")
    try:
        yield host, port
    finally:
        stop_cli_server(process, host, port)


class TestChaosPlumbingE2E:
    def test_replay_with_one_kill_recovers_warm(self, router_topology):
        host, port = router_topology
        trace = generate_trace(TINY_SPEC)
        plan = ChaosPlan(kills=1, seed=TINY_SPEC.seed)
        config = DriverConfig(host=host, port=port, time_scale=0.5,
                              chaos=plan)
        result = asyncio.run(replay_trace(trace, config))

        # Every trace event was executed and accounted for somewhere.
        merged = result.accountant.merged()
        assert merged.requests == len(trace.events)

        # The kill was delivered inside the chaos-eligible phase...
        assert result.chaos is not None
        chaos_doc = result.chaos.to_doc()
        assert chaos_doc["kills"] == 1
        assert chaos_doc["records"][0]["phase"] == PHASE_BURST
        # ...and the router noticed and respawned (restart counters are
        # cumulative on the supervisor, so a kill can't hide).
        assert chaos_doc["observed_restarts"] >= 1
        assert chaos_doc["recovered"] is True
        assert chaos_doc["reregistration_storm_bounded"] is True

        # The topology ended healthy with both shards present.
        assert result.healthz is not None
        backends = result.healthz["backends"]
        assert len(backends) == 2
        assert all(backend["healthy"] for backend in backends)
        assert result.topology_doc["router"] is True
        assert result.topology_doc["restarts"] >= 1

        # Post-kill recovery sweep was warm: snapshot restore + journal
        # replay means the hot set answers from cache even after a
        # SIGKILL mid-burst.
        recovery = result.accountant.phase(PHASE_RECOVERY)
        assert recovery.errors == 0
        assert recovery.completions > 0
        assert recovery.cache_hit_rate == 1.0

        # The warm-recovery SLO — the declared form of the assertion
        # above — agrees.
        verdicts = evaluate_slos(result.accountant, [
            SLO("warm-recovery", phases=(PHASE_RECOVERY,),
                error_budget=0.0, min_hit_rate=0.99)])
        assert verdicts[0].ok, verdicts[0].failures

        # And the report built from this replay is a complete
        # bench-serve document.
        report = build_report(
            result.accountant, trace_doc=trace.to_doc(),
            trace_digest=trace_digest(trace),
            topology=result.topology_doc, chaos=chaos_doc)
        assert report["schema"] == "bench-serve/v1"
        assert report["protocol"]["trace_digest"] == trace_digest(trace)
        assert set(report["phases"]) >= {PHASE_BURST, PHASE_RECOVERY}
        assert report["chaos"]["kills"] == 1
        assert report["summary"]["p95_ms_sum"] is not None
