"""``pace-repro ops-sim``: unannounced poisoning vs the autonomic loop.

One seeded world (dataset + trained model + crafted poison pool) is
served twice over the identical chaos traffic trace — benign arrivals
that silently turn 50% poisoned at ``chaos_round``:

* **no_ops** — the plain serving stack: unguarded retrain promotes
  whatever the update stream produces, exactly the paper's threat model;
* **ops** — the same stack watched by an :class:`~repro.ops.loop.
  OpsController` that is *not told about the attack*: it only sees the
  TSDB streams (ServeStats snapshots + a held-out canary probe). It must
  detect the quality regression, diagnose poisoning, roll back bitwise
  to the last known-good promoted digest, and arm a promotion guard so
  later poisoned updates stay out.

Everything runs under a :class:`~repro.utils.clock.ManualClock`, so each
arm collapses into one *scenario digest* (SHA-256 over the canonical
JSON of its deterministic core: config coordinates, Q-error/canary
trajectories, the full alarm and action log, retrain events, final
checkpoint digest). ``run_ops_sim`` replays the ops arm a second time at
the same seed and embeds the digest equality — detection *and* recovery,
byte-reproducible, in one report. The ``verdict`` block is the CI gate:
detection fired, lineage recorded, ops arm within ``recovery_factor`` of
clean baseline, no-ops arm degraded past ``degrade_factor``, digests
stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ops.chaos import CanaryProbe, ChaosTraffic
from repro.ops.loop import OpsController
from repro.ops.actions import ServePlant
from repro.serve.scenario import (
    World,
    arm_summary,
    build_world,
    digest_config,
    format_arms,
    fresh_run,
    report_header,
    round_record,
    scenario_digest,
    serving_stack,
)
from repro.store.store import ArtifactStore
from repro.utils.clock import ManualClock, use_clock

#: Default on-disk location of the ops-sim lineage store.
DEFAULT_OPS_STORE = "ops-store"


@dataclass(frozen=True)
class OpsSimConfig:
    """Everything one ops-sim run depends on (and nothing else)."""

    dataset: str = "dmv"
    model_type: str = "mscn"
    scale: str = "smoke"
    seed: int = 0
    rounds: int = 5
    #: First round whose arrivals include the attacker (unannounced).
    chaos_round: int = 2
    #: Large enough that *clean* incremental updates stay representative
    #: (small rounds overfit the observed queries and the clean canary
    #: gets as noisy as the attack signal it must be separated from).
    requests_per_round: int = 192
    qps: float = 256.0
    service_hz: float = 32.0
    poison_fraction: float = 0.5
    attack_method: str = "pace"
    timeout: float = 0.5
    max_queue: int = 128
    max_batch: int = 16
    #: Envelope the controller's installed guard enforces post-recovery.
    guard_factor: float = 1.1
    cache_capacity: int = 512
    cooldown_ticks: int = 1
    #: Acceptance: ops arm's final held-out Q-error vs clean baseline.
    recovery_factor: float = 1.1
    #: Acceptance: no-ops arm must degrade at least this far.
    degrade_factor: float = 1.5
    store_root: str = DEFAULT_OPS_STORE


def _run_ops_arm(
    world: World,
    config: OpsSimConfig,
    store: ArtifactStore,
    ops_enabled: bool,
    run_id: str,
) -> dict:
    """Serve the full chaos session from clean parameters; one arm."""
    deployed = world.deploy()
    model = world.scenario.model
    run = fresh_run(store, "ops-sim", run_id, config)
    # Both arms start UNGUARDED: installing the guard is the controller's
    # job, and only after it has diagnosed why quality regressed.
    server = serving_stack(deployed, config, run=run)
    cache, retrain, stats = server.cache, server.retrain, server.stats
    plant = ServePlant(
        deployed,
        retrain,
        cache=cache,
        run=run,
        validation=world.validation,
        guard_factor=config.guard_factor,
    )
    controller = (
        OpsController(plant, cooldown_ticks=config.cooldown_ticks) if ops_enabled else None
    )
    traffic = ChaosTraffic(
        world.scenario.train_workload.queries,
        list(world.poison),
        world.replay_config(config),
        start_round=config.chaos_round,
    )
    probe = CanaryProbe(world.canary)
    rounds: list[dict] = []
    with use_clock(ManualClock()) as clock:
        baseline = world.mean_qerror()
        canary_value = probe.sample(model)
        if controller is not None:
            # Tick 0 baselines the detectors and marks the clean model
            # known-good before any traffic arrives.
            controller.ingest(stats.to_json(), at=clock())
            controller.observe_canary(canary_value, at=clock())
            controller.tick(at=clock())
        for index in range(config.rounds):
            traffic.set_round(index)
            result = traffic.drive(server, config.requests_per_round, clock=clock)
            event = retrain.flush()
            canary_value = probe.sample(model)
            tick = None
            if controller is not None:
                controller.ingest(stats.to_json(), at=clock())
                controller.observe_canary(canary_value, at=clock())
                tick = controller.tick(at=clock())
                if any(r.ok and r.action in ("rollback", "guarded_retrain")
                       for r in tick.results):
                    # Re-probe after a repair so the trajectory records
                    # what the *recovered* model serves.
                    canary_value = probe.sample(model)
            rounds.append(round_record(
                index, event, world.mean_qerror(),
                chaos_active=traffic.chaos_active,
                arrivals=result.arrivals,
                benign=result.benign,
                attacker=result.attacker,
                canary_qerror=canary_value,
                tick=None if tick is None else tick.as_dict(),
            ))
        session_seconds = clock()
        final_checkpoint = store.put_checkpoint(model.full_state_dict()).digest
        run.set_status("done")
        run.commit()
    alarms, actions = [], []
    if controller is not None:
        alarms = [a.as_dict() for a in controller.bank.alarms]
        actions = [r.as_dict() for step in controller.state.ticks for r in step.results]
    arm = arm_summary(
        baseline, rounds, stats, retrain.events,
        ops_enabled=ops_enabled,
        run_id=run_id,
        canary_trajectory=[r["canary_qerror"] for r in rounds],
        session_seconds=session_seconds,
        final_checkpoint=final_checkpoint,
        controller=None if controller is None else controller.as_dict(),
        lineage={
            kind: len(run.events(kind))
            for kind in ("ops_alarm", "ops_action", "promotion", "rollback")
        },
    )
    arm["digest"] = scenario_digest({
        "config": digest_config(config),
        "ops_enabled": ops_enabled,
        "baseline_qerror": baseline,
        "qerror_trajectory": arm["qerror_trajectory"],
        "canary_trajectory": arm["canary_trajectory"],
        "alarms": alarms,
        "actions": actions,
        "retrain_events": arm["retrain_events"],
        "final_checkpoint": final_checkpoint,
    })
    return arm


def run_ops_sim(config: OpsSimConfig | None = None) -> dict:
    """Run the chaos scenario: no-ops vs ops arms + a digest-stability replay."""
    config = config or OpsSimConfig()
    world = build_world(config, canary=True)
    store = ArtifactStore(config.store_root)
    no_ops = _run_ops_arm(
        world, config, store, ops_enabled=False, run_id=f"ops-noops-seed{config.seed}",
    )
    ops = _run_ops_arm(
        world, config, store, ops_enabled=True, run_id=f"ops-ctrl-seed{config.seed}",
    )
    repeat = _run_ops_arm(
        world, config, store,
        ops_enabled=True, run_id=f"ops-ctrl-repeat-seed{config.seed}",
    )
    world.scenario.reset()
    recovery_ratio = ops["degradation"]
    detected = ops["lineage"]["ops_alarm"] > 0
    acted = ops["lineage"]["ops_action"] > 0
    recovered = recovery_ratio is not None and recovery_ratio <= config.recovery_factor
    noops_ratio = no_ops["degradation"]
    degraded = noops_ratio is not None and noops_ratio >= config.degrade_factor
    digest_stable = ops["digest"] == repeat["digest"]
    return {
        **report_header("pace-repro ops-sim", config, world),
        "arms": {"no_ops": no_ops, "ops": ops},
        "repeat_digest": repeat["digest"],
        "verdict": {
            "detected": detected,
            "lineage_recorded": acted,
            "recovery_ratio": recovery_ratio,
            "recovered": recovered,
            "noops_ratio": noops_ratio,
            "noops_degraded": degraded,
            "digest_stable": digest_stable,
            "ok": bool(
                detected and acted and recovered and degraded and digest_stable
            ),
        },
    }


def format_ops_report(report: dict) -> str:
    """Console summary for ``pace-repro ops-sim``."""
    config = report["config"]
    verdict = report["verdict"]
    lines = format_arms(report, {
        "alarms": lambda arm: _controller_count(arm, "alarms_total"),
        "actions": lambda arm: _controller_count(arm, "actions_taken"),
        "digest": lambda arm: arm["digest"][:12],
    }, onset=f" from round {config['chaos_round']}")
    ratio = verdict["recovery_ratio"]
    noops = verdict["noops_ratio"]
    lines.append(
        f"\nchaos verdict: detected={verdict['detected']} "
        f"lineage={verdict['lineage_recorded']} "
        f"recovery={ratio:.3f}x (<= {config['recovery_factor']:g}x: "
        f"{verdict['recovered']}) "
        f"no-ops={noops:.3f}x (>= {config['degrade_factor']:g}x: "
        f"{verdict['noops_degraded']}) "
        f"digest_stable={verdict['digest_stable']}"
    )
    lines.append(f"ops-sim: {'ok' if verdict['ok'] else 'FAIL'}")
    return "\n".join(lines)


def _controller_count(arm: dict, key: str) -> str:
    controller = arm["controller"]
    return "-" if controller is None else str(controller[key])
