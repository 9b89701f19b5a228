"""Chaos controller: kill planning, victim selection, recovery arithmetic."""

import subprocess
import sys
import time

import pytest

from repro.loadgen.chaos import (ChaosController, ChaosError, ChaosOutcome,
                                 ChaosPlan, KillRecord, StallRecord,
                                 format_report)
from repro.server.router import Backend, CompletionRouter, RouterConfig


class TestKillIndices:
    def test_single_kill_lands_at_fraction(self):
        plan = ChaosPlan(kills=1)
        assert plan.AT_FRACTION == 0.5
        assert plan.kill_indices(100) == [50]
        assert plan.kill_indices(1) == [0]

    def test_no_events_no_kills(self):
        assert ChaosPlan(kills=1).kill_indices(0) == []
        assert ChaosPlan(kills=0).kill_indices(100) == []

    def test_multiple_kills_spread_over_remaining_events(self, monkeypatch):
        monkeypatch.setattr(ChaosPlan, "AT_FRACTION", 0.25)
        indices = ChaosPlan(kills=3).kill_indices(100)
        assert len(indices) == 3
        assert indices == sorted(indices)
        assert all(0 <= index < 100 for index in indices)
        assert indices[0] == 25

    def test_kills_never_exceed_event_range(self, monkeypatch):
        monkeypatch.setattr(ChaosPlan, "AT_FRACTION", 0.9)
        indices = ChaosPlan(kills=5).kill_indices(10)
        assert all(0 <= index < 10 for index in indices)

    def test_fraction_one_clamps_to_last_event(self, monkeypatch):
        monkeypatch.setattr(ChaosPlan, "AT_FRACTION", 1.0)
        assert ChaosPlan(kills=1).kill_indices(10) == [9]


class TestVictimSelection:
    def test_killable_filters_unmanaged_and_pidless(self):
        healthz = {"backends": [
            {"backend_id": "b0", "managed": True, "pid": 1234},
            {"backend_id": "b1", "managed": False, "pid": 5678},
            {"backend_id": "b2", "managed": True, "pid": None},
        ]}
        killable = ChaosController.killable_backends(healthz)
        assert [backend["backend_id"] for backend in killable] == ["b0"]

    def test_empty_health_view(self):
        assert ChaosController.killable_backends({}) == []

    def test_strike_without_victims_raises(self):
        controller = ChaosController(ChaosPlan())
        with pytest.raises(ChaosError, match="no managed backend"):
            controller.strike({"backends": []}, phase="burst",
                              event_index=0)

    def test_victim_choice_is_deterministic_per_seed(self):
        healthz = {"backends": [
            {"backend_id": f"b{i}", "managed": True, "pid": 10_000 + i}
            for i in range(8)]}

        def choices(seed):
            controller = ChaosController(ChaosPlan(kills=4, seed=seed))
            picked = []
            for index in range(4):
                victims = controller.killable_backends(healthz)
                victim = victims[controller._rng.randrange(len(victims))]
                picked.append(victim["backend_id"])
            return picked

        assert choices(7) == choices(7)


class TestRingOwners:
    @pytest.mark.parametrize("backends", [2, 3, 4])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_owners_are_the_routers_replica_set(self, backends,
                                                replication):
        router = CompletionRouter(RouterConfig(
            port=0, ring_replicas=16, replication=replication))
        for index in range(backends):
            router._adopt_backend(Backend(
                backend_id=f"b{index}", host="127.0.0.1", port=9000 + index,
                client=router._client("127.0.0.1", 9000 + index)))
        healthz = router._healthz_payload()
        roster = router._admin_list_payload()
        for scene in (f"scn_{index:04x}" for index in range(40)):
            owners = ChaosController.ring_owners(healthz, roster, scene)
            assert [owner["backend_id"] for owner in owners] == \
                router.ring.route_n(scene, replication)


class TestStrike:
    def test_strike_kills_a_real_process(self):
        """SIGKILL an expendable child and verify the record."""
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            controller = ChaosController(ChaosPlan(seed=1))
            healthz = {"backends": [
                {"backend_id": "b0", "managed": True, "pid": child.pid}]}
            record = controller.strike(healthz, phase="burst",
                                       event_index=3)
            assert record.pid == child.pid
            assert record.phase == "burst"
            assert record.event_index == 3
            assert controller.kills == 1
            # The child really died from SIGKILL.
            assert child.wait(timeout=10) == -9
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_strike_tolerates_already_dead_pid(self):
        child = subprocess.Popen(
            [sys.executable, "-c", "pass"])
        child.wait(timeout=10)
        # Give the kernel a beat; the pid is now free-or-dead.  A reused
        # pid is theoretically possible but astronomically unlikely in
        # the lifetime of this test.
        time.sleep(0.05)
        controller = ChaosController(ChaosPlan(seed=1))
        healthz = {"backends": [
            {"backend_id": "b0", "managed": True, "pid": child.pid}]}
        record = controller.strike(healthz, phase="burst", event_index=0)
        assert record.pid == child.pid
        assert controller.kills == 1


    def test_majority_kills_every_owner_and_only_the_owners(self):
        children = [subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
            for _ in range(3)]
        try:
            healthz = {"backends": [
                {"backend_id": f"b{index}", "managed": True,
                 "pid": child.pid} for index, child in enumerate(children)]}
            owners = healthz["backends"][1:]
            controller = ChaosController(ChaosPlan(mode="majority"))
            records = controller.strike(healthz, phase="burst",
                                        event_index=0, victims=owners)
            assert [record.backend_id for record in records] == ["b1", "b2"]
            assert controller.kills == 2
            assert [child.wait(timeout=10) for child in children[1:]] == \
                [-9, -9]
            assert children[0].poll() is None
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()

    def test_unmanaged_victims_are_refused(self):
        controller = ChaosController(ChaosPlan(mode="majority"))
        victims = [{"backend_id": "b0", "managed": True, "pid": 10_000},
                   {"backend_id": "b1", "managed": False, "pid": None}]
        with pytest.raises(ChaosError, match="router-supervised"):
            controller.strike({"backends": victims}, phase="burst",
                              event_index=0, victims=victims)
        assert controller.kills == 0


class TestRecoveryReport:
    def test_report_without_router_stats_is_inconclusive(self):
        controller = ChaosController(ChaosPlan())
        section = controller.report(None, journal_scenes=5)
        assert section["kills"] == 0
        assert section["recovered"] is None
        assert section["reregistration_storm_bounded"] is None

    def test_recovered_requires_restart_per_kill(self):
        controller = ChaosController(ChaosPlan(kills=2))
        for index in range(2):
            controller.records.append(KillRecord(
                backend_id=f"b{index}", pid=100 + index, phase="burst",
                event_index=index, at_monotonic=0.0))
        ok = controller.report({"restarts": 2, "reregistrations": 3},
                               journal_scenes=5)
        assert ok["recovered"] is True
        short = controller.report({"restarts": 1, "reregistrations": 3},
                                  journal_scenes=5)
        assert short["recovered"] is False

    def test_reregistration_storm_bound(self):
        controller = ChaosController(ChaosPlan(kills=1))
        controller.records.append(KillRecord(
            backend_id="b0", pid=1, phase="burst", event_index=0,
            at_monotonic=0.0))
        # Bound is kills * journal_scenes: 1 * 6 = 6.
        bounded = controller.report({"restarts": 1, "reregistrations": 6},
                                    journal_scenes=6)
        assert bounded["reregistration_storm_bounded"] is True
        storm = controller.report({"restarts": 1, "reregistrations": 7},
                                  journal_scenes=6)
        assert storm["reregistration_storm_bounded"] is False

    def test_zero_kills_is_vacuously_recovered(self):
        controller = ChaosController(ChaosPlan())
        section = controller.report({"restarts": 0, "reregistrations": 0},
                                    journal_scenes=0)
        assert section["recovered"] is True
        assert section["reregistration_storm_bounded"] is True

    def test_outcome_merges_extra_fields(self):
        controller = ChaosController(ChaosPlan())
        outcome = ChaosOutcome(plan=controller.plan, controller=controller,
                               router_stats={"restarts": 0,
                                             "reregistrations": 0},
                               journal_scenes=3,
                               extra={"note": "quiet run"})
        doc = outcome.to_doc()
        assert doc["note"] == "quiet run"
        assert doc["kills"] == 0


class TestStall:
    @staticmethod
    def _proc_state(pid):
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]

    def test_stall_stops_and_resume_continues_a_real_process(self):
        """SIGSTOP parks the child (state ``T``); SIGCONT revives it —
        and the child never dies, the defining gray-failure property."""
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            controller = ChaosController(ChaosPlan(mode="slow", seed=1))
            healthz = {"backends": [
                {"backend_id": "b0", "managed": True, "pid": child.pid}]}
            record = controller.strike(healthz, phase="burst",
                                       event_index=2)
            assert record.backend_id == "b0"
            assert record.resumed is False
            assert controller.stalls == 1
            assert controller.kills == 0, (
                "slow mode must not be recorded as a kill")
            deadline = time.monotonic() + 5.0
            while self._proc_state(child.pid) != "T":
                assert time.monotonic() < deadline, "child never stopped"
                time.sleep(0.01)

            assert controller.resume_all() == 1
            assert record.resumed is True
            assert controller.resume_all() == 0     # idempotent
            deadline = time.monotonic() + 5.0
            while self._proc_state(child.pid) == "T":
                assert time.monotonic() < deadline, "child never resumed"
                time.sleep(0.01)
            assert child.poll() is None, "the stalled child must survive"
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_a_stall_resumes_by_itself_after_its_hold(self):
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            controller = ChaosController(ChaosPlan(mode="slow", stall_s=1.0),
                                         time_scale=0.5)
            assert controller.hold_s == 0.5
            healthz = {"backends": [
                {"backend_id": "b0", "managed": True, "pid": child.pid}]}
            record = controller.strike(healthz, phase="burst",
                                       event_index=0)
            deadline = time.monotonic() + 5.0
            while self._proc_state(child.pid) != "T":
                assert time.monotonic() < deadline, "child never stopped"
                time.sleep(0.01)
            deadline = time.monotonic() + 10.0
            while self._proc_state(child.pid) == "T":
                assert time.monotonic() < deadline, "child never resumed"
                time.sleep(0.01)
            assert record.resumed is True
            assert controller.resume_all() == 0
            assert child.poll() is None, "the stalled child must survive"
        finally:
            controller.resume_all()
            child.kill()
            child.wait()

    def test_stall_skips_already_stalled_victims(self):
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            controller = ChaosController(ChaosPlan(mode="slow", seed=1))
            healthz = {"backends": [
                {"backend_id": "b0", "managed": True, "pid": child.pid}]}
            controller.stall(healthz, phase="burst", event_index=0)
            with pytest.raises(ChaosError, match="un-stalled"):
                controller.stall(healthz, phase="burst", event_index=1)
        finally:
            controller.resume_all()
            child.kill()
            child.wait()

    def test_stall_tolerates_a_dead_pid(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=10)
        time.sleep(0.05)
        controller = ChaosController(ChaosPlan(mode="slow"))
        healthz = {"backends": [
            {"backend_id": "b0", "managed": True, "pid": child.pid}]}
        record = controller.stall(healthz, phase="burst", event_index=0)
        assert record.pid == child.pid
        assert controller.resume_all() == 1     # nothing to continue; noted


class TestSlowModeReport:
    @staticmethod
    def _stalled_controller(resumed):
        controller = ChaosController(ChaosPlan(mode="slow"))
        controller.stall_records.append(StallRecord(
            backend_id="b0", pid=100, phase="burst", event_index=3,
            at_monotonic=0.0, resumed=resumed))
        return controller

    def test_recovered_means_every_stall_was_resumed(self):
        ok = self._stalled_controller(resumed=True).report(
            {"restarts": 0, "reregistrations": 0}, journal_scenes=3)
        assert ok["mode"] == "slow"
        assert ok["recovered"] is True
        stuck = self._stalled_controller(resumed=False).report(
            {"restarts": 0, "reregistrations": 0}, journal_scenes=3)
        assert stuck["recovered"] is False
        assert stuck["stalls"] == 1
        assert stuck["stall_records"][0]["resumed"] is False

    def test_slow_recovery_needs_no_restarts(self):
        """A stall recovers by rejoining, not respawning — zero
        restarts must still read as recovered."""
        section = self._stalled_controller(resumed=True).report(
            {"restarts": 0, "reregistrations": 2}, journal_scenes=2)
        assert section["recovered"] is True
        assert section["observed_restarts"] == 0

    def test_zero_stalls_is_vacuously_recovered(self):
        controller = ChaosController(ChaosPlan(mode="slow"))
        section = controller.report({"restarts": 0, "reregistrations": 0},
                                    journal_scenes=0)
        assert section["recovered"] is True

    def test_stalls_feed_the_storm_bound(self):
        controller = self._stalled_controller(resumed=True)
        # Bound is (kills + stalls) * journal_scenes: 1 * 4 = 4.
        bounded = controller.report({"restarts": 0, "reregistrations": 4},
                                    journal_scenes=4)
        assert bounded["reregistration_storm_bounded"] is True
        storm = controller.report({"restarts": 0, "reregistrations": 5},
                                  journal_scenes=4)
        assert storm["reregistration_storm_bounded"] is False

    def test_gray_counters_are_plumbed_through(self):
        section = self._stalled_controller(resumed=True).report(
            {"restarts": 0, "reregistrations": 0, "hedges": {"fired": 4,
             "won": 3}, "deadline_exceeded": 1, "slow_timeouts": 2,
             "ejections": 1, "rebalances": 0}, journal_scenes=1)
        assert section["observed_hedges"] == {"fired": 4, "won": 3}
        assert section["observed_deadline_exceeded"] == 1
        assert section["observed_slow_timeouts"] == 2
        assert section["observed_ejections"] == 1
        assert section["observed_rebalances"] == 0


class TestFormatReport:
    STATS = {"restarts": 2, "reregistrations": 1, "failovers": 3,
             "degraded_served": 1, "hedges": {"fired": 4, "won": 3},
             "deadline_exceeded": 0, "slow_timeouts": 1, "ejections": 0}

    def _doc(self, mode, kills=(), stalls=()):
        controller = ChaosController(ChaosPlan(mode=mode))
        controller.records += [KillRecord(
            backend_id=backend_id, pid=pid, phase="burst", event_index=0,
            at_monotonic=0.0) for backend_id, pid in kills]
        controller.stall_records += [StallRecord(
            backend_id=backend_id, pid=pid, phase="burst", event_index=0,
            at_monotonic=0.0, resumed=True) for backend_id, pid in stalls]
        return controller.report(self.STATS, journal_scenes=3)

    def test_kill(self):
        assert format_report(self._doc("kill", kills=[("b1", 11)])) == (
            "chaos(kill): 1 kill(s) [b1 (pid 11)], 2 respawn(s), "
            "3 failover(s), 1 degraded, reregistration storm bounded: "
            "True")

    def test_slow(self):
        assert format_report(self._doc("slow", stalls=[("b0", 10)])) == (
            "chaos(slow): 1 stall(s) [b0 (pid 10)], resumed: True, "
            "hedges 4 (won 3), deadline_exceeded 0, slow timeouts 1, "
            "ejections 0, respawns 2")

    def test_majority(self):
        doc = self._doc("majority", kills=[("b0", 10), ("b2", 12)])
        assert format_report(doc) == (
            "chaos(majority): 2 kill(s) [b0 (pid 10), b2 (pid 12)], "
            "2 respawn(s), 3 failover(s), 1 degraded, reregistration "
            "storm bounded: True")
