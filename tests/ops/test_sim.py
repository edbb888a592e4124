"""ops-sim end to end: report shape, digest stability, shared traffic."""

import pytest

from repro.ops.sim import OpsSimConfig, format_ops_report, run_ops_sim

#: dmv/fcn shares the process-wide scenario cache with the attack tests;
#: "random" poison skips generator training. This config exercises the
#: machinery (two arms + stability replay), not the chaos acceptance
#: thresholds — those run at the tuned mscn defaults in CI's
#: ``ops-sim --chaos`` gate.
FAST_KWARGS = dict(
    dataset="dmv",
    model_type="fcn",
    rounds=2,
    chaos_round=1,
    requests_per_round=32,
    attack_method="random",
)


@pytest.fixture(scope="session")
def fast_report(tmp_path_factory):
    config = OpsSimConfig(
        **FAST_KWARGS,
        store_root=str(tmp_path_factory.mktemp("ops-store")),
    )
    return run_ops_sim(config)


class TestReportShape:
    def test_arms_and_trajectories(self, fast_report):
        assert fast_report["schema_version"] == 1
        assert set(fast_report["arms"]) == {"no_ops", "ops"}
        for arm in fast_report["arms"].values():
            assert len(arm["qerror_trajectory"]) == 2
            assert len(arm["canary_trajectory"]) == 2
            assert arm["baseline_qerror"] > 0
            assert arm["stats"]["schema_version"] == 1
        assert fast_report["arms"]["no_ops"]["controller"] is None
        assert fast_report["arms"]["ops"]["controller"] is not None

    def test_chaos_starts_exactly_at_the_chaos_round(self, fast_report):
        for arm in fast_report["arms"].values():
            flags = [r["chaos_active"] for r in arm["rounds"]]
            assert flags == [False, True]
            assert arm["rounds"][0]["attacker"] == 0
            assert arm["rounds"][1]["attacker"] > 0

    def test_both_arms_see_identical_traffic(self, fast_report):
        no_ops = fast_report["arms"]["no_ops"]["rounds"]
        ops = fast_report["arms"]["ops"]["rounds"]
        for a, b in zip(no_ops, ops):
            assert (a["benign"], a["attacker"]) == (b["benign"], b["attacker"])

    def test_verdict_block_is_complete(self, fast_report):
        verdict = fast_report["verdict"]
        assert set(verdict) >= {
            "detected", "lineage_recorded", "recovery_ratio", "recovered",
            "noops_ratio", "noops_degraded", "digest_stable", "ok",
        }

    def test_lineage_counters_are_reported_per_arm(self, fast_report):
        ops = fast_report["arms"]["ops"]["lineage"]
        assert set(ops) == {"ops_alarm", "ops_action", "promotion", "rollback"}
        # The blind arm runs no controller, so no ops events can exist.
        blind = fast_report["arms"]["no_ops"]["lineage"]
        assert blind["ops_alarm"] == 0 and blind["ops_action"] == 0

    def test_format_renders_both_arms_and_the_verdict(self, fast_report):
        text = format_ops_report(fast_report)
        assert "no_ops" in text and "chaos verdict" in text
        assert "ops-sim" in text


class TestDeterminism:
    def test_ops_arm_digest_is_stable_across_replays(self, fast_report):
        assert fast_report["repeat_digest"] is not None
        assert (
            fast_report["repeat_digest"]
            == fast_report["arms"]["ops"]["digest"]
        )
        assert fast_report["verdict"]["digest_stable"]

    def test_the_two_arms_digest_differently(self, fast_report):
        assert (
            fast_report["arms"]["no_ops"]["digest"]
            != fast_report["arms"]["ops"]["digest"]
        )
