"""cluster-sim sessions: traffic determinism, digest stability, drills."""

import dataclasses

import pytest

from repro.cluster.promotion import seed_checkpoint
from repro.cluster.router import ClusterRouter
import repro.cluster.sim as sim
from repro.cluster.sim import (
    ClusterSimConfig,
    ClusterTraffic,
    drive_round,
    run_cluster_drill,
    run_cluster_sim,
    run_session,
)
from repro.cluster.worker import WorkerSpec
from repro.harness.experiments import get_scenario
from repro.serve.scenario import build_world, scenario_digest
from repro.serve.server import DONE
from repro.store.store import ArtifactStore
from repro.utils.clock import ManualClock, use_clock
from repro.utils.errors import ReproError

#: A small clean-traffic scenario shared by the session tests.
CLEAN = ClusterSimConfig(
    workers=2,
    tenants=3,
    rounds=1,
    requests_per_round=16,
    poison_fraction=0.0,
    attack_method="clean",
)


@pytest.fixture(scope="module")
def clean_world():
    return build_world(CLEAN)


class TestTraffic:
    # The arrival process only *selects* from the pools, so sentinel
    # strings stand in for queries here.
    def test_empty_benign_pool_rejected(self):
        with pytest.raises(ReproError, match="non-empty benign pool"):
            ClusterTraffic([], [], ["t"], qps=1.0, poison_fraction=0.0, seed=0)

    def test_no_tenants_rejected(self):
        with pytest.raises(ReproError, match="at least one tenant"):
            ClusterTraffic(["q"], [], [], qps=1.0, poison_fraction=0.0, seed=0)

    def test_poison_without_pool_rejected(self):
        with pytest.raises(ReproError, match="non-empty poison pool"):
            ClusterTraffic(["q"], [], ["t"], qps=1.0, poison_fraction=0.5, seed=0)

    def test_arrivals_are_seeded_and_monotonic(self):
        def build():
            return ClusterTraffic(
                ["a", "b"], ["p"], ["t0", "t1"],
                qps=100.0, poison_fraction=0.5, seed=3,
            )

        first, second = build().arrivals(50), build().arrivals(50)
        assert first == second
        times = [a.at for a in first]
        assert times == sorted(times) and times[0] > 0.0
        assert {a.client for a in first} == {"benign", "attacker"}
        assert all(a.query == "p" for a in first if a.client == "attacker")

    def test_successive_calls_continue_the_stream(self):
        traffic = ClusterTraffic(
            ["a"], [], ["t"], qps=100.0, poison_fraction=0.0, seed=3
        )
        head = traffic.arrivals(5)
        tail = traffic.arrivals(5, start=head[-1].at)
        assert tail[0].at > head[-1].at


class TestScenarioDigest:
    def test_key_order_invariant(self):
        assert scenario_digest({"a": 1, "b": [2.5]}) == scenario_digest(
            {"b": [2.5], "a": 1}
        )
        assert scenario_digest({"a": 1}) != scenario_digest({"a": 2})


class TestSession:
    def test_digest_is_independent_of_store_location(self, clean_world, tmp_path):
        arms = [
            run_session(
                clean_world, CLEAN,
                ArtifactStore(tmp_path / name), guarded=False, run_id="probe",
            )
            for name in ("a", "b")
        ]
        assert arms[0]["digest"] == arms[1]["digest"]
        assert arms[0]["respawns"] == 0
        snapshot = arms[0]["stats"]
        total = snapshot["completed"] + snapshot["shed"] + snapshot["rejected"]
        assert total == CLEAN.rounds * CLEAN.requests_per_round

    def test_guarded_arm_digests_differently_and_reports_guard(
        self, clean_world, tmp_path
    ):
        unguarded = run_session(
            clean_world, CLEAN,
            ArtifactStore(tmp_path / "u"), guarded=False, run_id="probe",
        )
        guarded = run_session(
            clean_world, CLEAN,
            ArtifactStore(tmp_path / "g"), guarded=True, run_id="probe",
        )
        assert guarded["digest"] != unguarded["digest"]
        assert "guard" in guarded and "guard" not in unguarded


class TestSimReport:
    def test_report_shape(self, tmp_path):
        config = dataclasses.replace(CLEAN, store_root=str(tmp_path / "store"))
        report = run_cluster_sim(config)
        assert report["tool"] == "pace-repro cluster-sim"
        assert set(report["arms"]) == {"unguarded", "guarded"}
        for arm in report["arms"].values():
            assert len(arm["digest"]) == 64
            assert arm["rounds"][0]["arrivals"] == config.requests_per_round
        effect = report["guard_effect"]
        assert effect["guard_wins"] in (True, False)


class TestDrill:
    def test_drill_round_bounds_validated(self):
        with pytest.raises(ReproError, match=r"drill_round must be in \[1, 2\]"):
            run_cluster_drill(dataclasses.replace(CLEAN, rounds=2, drill_round=3))

    @pytest.mark.parametrize("worker", [-1, 2, 5])
    def test_drill_worker_outside_the_cluster_is_refused(self, worker, monkeypatch):
        # Refused before any world is built or session served.
        monkeypatch.setattr(sim, "build_world", None)
        with pytest.raises(ReproError, match=r"drill_worker must be in \[0, 2\)"):
            run_cluster_drill(dataclasses.replace(CLEAN, rounds=2, drill_worker=worker))

    def test_drill_runs_one_reference_and_two_kills(self, monkeypatch):
        sessions = []

        def fake_session(world, config, store, guarded, run_id, faults=None,
                         respawn=True):
            sessions.append((run_id, guarded, faults, respawn))
            killed = faults is not None
            return {
                "digest": "d" * 64,
                "rounds": [{"worker_frames": {"0": 7, "1": 9}}],
                "respawns": int(killed and respawn),
                "reroutes": int(killed and not respawn),
                "workers_after": 1 if killed and not respawn else 2,
                "stats": {"submitted": 4, "completed": 3, "shed": 1, "rejected": 0},
            }

        class FakeWorld:
            scenario = type("Scenario", (), {"reset": lambda self: None})()

        monkeypatch.setattr(sim, "build_world", lambda config: FakeWorld())
        monkeypatch.setattr(sim, "run_session", fake_session)
        report = run_cluster_drill(dataclasses.replace(CLEAN, rounds=2))
        kill = (("cluster:worker:0:estimate", "crash", 8),)
        assert sessions == [
            ("cluster-drill-ref-seed0", False, None, True),
            ("cluster-drill-kill-seed0", False, {0: kill}, True),
            ("cluster-reroute-kill-seed0", False, {0: kill}, False),
        ]
        assert report["identical"] and report["drill"]["fired"]
        assert report["reroute_drill"]["drill"]["ok"]
        assert "reference" not in report["reroute_drill"]

    def test_kill_drill_digest_is_byte_identical(self, tmp_path):
        config = ClusterSimConfig(
            workers=2,
            tenants=4,
            rounds=2,
            requests_per_round=24,
            poison_fraction=0.0,
            attack_method="clean",
            store_root=str(tmp_path / "store"),
            drill_worker=0,
            drill_round=2,
        )
        report = run_cluster_drill(config)
        assert report["drill"]["fired"]
        assert report["drilled"]["respawns"] == 1
        assert report["reference"]["respawns"] == 0
        # The kill lands after round 1's promotion, so the replacement
        # warm-restarted from replicated lineage — and the trace held.
        assert len(report["reference"]["promotions"]) >= 1
        assert report["identical"]
        assert report["reference"]["digest"] == report["drilled"]["digest"]


class TestModelledScaling:
    """Modelled wave-count scaling from 1 to 8 shard workers.

    Under the router's :class:`~repro.utils.clock.ManualClock` every worker
    serves up to ``max_batch`` requests per ``1/service_hz`` service
    instant, so the simulated makespan of a fixed trace is set by the
    most-loaded shard. Completed requests per simulated second therefore
    measure how evenly the ring spreads the load across workers, in
    waves; no wall clock is involved and the ratio is *not* a speedup.
    """

    TENANTS = tuple(f"tenant-{i:02d}" for i in range(64))

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        scenario = get_scenario("dmv", "fcn", scale="smoke", seed=0)
        scenario.reset()
        store = ArtifactStore(tmp_path_factory.mktemp("scaling-store"))
        digest = seed_checkpoint(store, scenario.model)
        return store, digest, scenario.train_workload.queries

    def _completed_per_modelled_second(self, world, workers):
        store, digest, pool = world
        specs = [
            WorkerSpec(
                worker_id=wid, dataset="dmv", model_type="fcn", scale="smoke",
                seed=0, store_root=str(store.root), initial_digest=digest,
                tenants=self.TENANTS, cache_capacity=512,
            )
            for wid in range(workers)
        ]
        clock = ManualClock(domain="router")
        with use_clock(clock):
            router = ClusterRouter(
                specs, transport="inline", vnodes=128, max_queue=4096,
                max_batch=16, clock=clock,
            )
            router.start()
            # Offered load far above any arm's capacity, so the makespan
            # measures the drain rate rather than the arrival window.
            traffic = ClusterTraffic(
                benign_pool=pool, poison_pool=[], tenants=list(self.TENANTS),
                qps=65536.0, poison_fraction=0.0, seed=0,
            )
            try:
                submitted, _ = drive_round(
                    router, traffic, clock, requests=512, service_hz=64.0,
                    timeout=None,
                )
                makespan = clock()
            finally:
                router.shutdown()
        completed = sum(1 for r in submitted if r.status == DONE)
        assert completed == 512
        return completed / makespan

    def test_eight_workers_drain_at_least_five_times_the_waves(self, world):
        one = self._completed_per_modelled_second(world, 1)
        eight = self._completed_per_modelled_second(world, 8)
        assert eight >= 5.0 * one
