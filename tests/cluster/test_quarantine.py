"""Planned shard removal: router.quarantine and the re-route drill."""

import pytest

from repro.cluster.router import ClusterError, ClusterRouter, node_label
from repro.cluster.sim import ClusterSimConfig, run_cluster_drill
from repro.serve.server import DONE
from repro.utils.clock import ManualClock
from repro.utils.errors import ReproError
from tests.cluster.conftest import TENANTS, make_specs


def make_router(world, n=2, **kwargs):
    kwargs.setdefault("clock", ManualClock(domain="router"))
    router = ClusterRouter(make_specs(world, n), transport="inline", **kwargs)
    router.start()
    return router


class TestQuarantine:
    def test_drains_the_worker_and_rekeys_its_queue(self, cluster_world):
        router = make_router(cluster_world, n=3)
        try:
            submitted = [
                router.submit(TENANTS[i % len(TENANTS)], query)
                for i, query in enumerate(cluster_world.queries[:12])
            ]
            victim = submitted[0].worker_id
            report = router.quarantine(victim)
            assert router.quarantines == 1
            assert victim not in router.worker_ids
            assert node_label(victim) not in router.ring
            assert report["worker_id"] == victim
            assert report["acked"]
            # Nothing was lost: every request still completes on the
            # survivors.
            done = router.dispatch(1.0)
            while router.pending():
                done += router.dispatch(2.0)
            assert len(done) == len(submitted)
            assert all(r.status == DONE for r in done)
            assert all(r.worker_id != victim for r in done)
        finally:
            router.shutdown()

    def test_unknown_worker_is_refused(self, cluster_world):
        router = make_router(cluster_world, n=2)
        try:
            with pytest.raises(ClusterError, match="unknown worker"):
                router.quarantine(99)
        finally:
            router.shutdown()

    def test_the_last_worker_cannot_be_quarantined(self, cluster_world):
        router = make_router(cluster_world, n=1)
        try:
            with pytest.raises(ClusterError, match="last worker"):
                router.quarantine(0)
        finally:
            router.shutdown()


class TestRerouteDrill:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ReproError, match=">= 2 workers"):
            run_cluster_drill(ClusterSimConfig(
                workers=1, store_root=str(tmp_path)
            ))
        with pytest.raises(ReproError, match="drill_round"):
            run_cluster_drill(ClusterSimConfig(
                rounds=2, drill_round=3, store_root=str(tmp_path)
            ))

    def test_degraded_mode_survives_the_kill(self, tmp_path):
        full = run_cluster_drill(ClusterSimConfig(
            workers=2,
            rounds=2,
            requests_per_round=32,
            attack_method="random",
            store_root=str(tmp_path / "cluster-store"),
        ))
        report = full["reroute_drill"]
        drill = report["drill"]
        assert drill["fired"], "the re-route branch never triggered"
        assert drill["all_finalized"]
        assert drill["survivors_ok"]
        assert drill["ok"]
        # Reference keeps both workers; the drilled arm lost exactly one.
        assert full["reference"]["workers_after"] == 2
        assert report["drilled"]["workers_after"] == 1
        assert report["drilled"]["reroutes"] >= 1
        assert full["reference"]["reroutes"] == 0
