"""The ``pace-repro serve-sim`` scenario, and the harness every sim shares.

One simulation builds an attack scenario (dataset + trained model), crafts
a poison pool with the configured attack method, then serves the same
seeded traffic trace twice from the same clean parameters:

* **unguarded** — the DBMS retrains on everything the server executed,
  exactly the paper's threat model;
* **guarded** — a :class:`~repro.serve.retrain.PromotionGuard` reviews
  every incremental update against held-out validation Q-error and rolls
  back updates that degrade past its envelope.

Both arms run under a :class:`~repro.utils.clock.ManualClock`, so the
entire report — latency percentiles included — is a deterministic
function of the config; the same seed yields a byte-identical JSON
document.

``cluster-sim`` (:mod:`repro.cluster.sim`) and ``ops-sim``
(:mod:`repro.ops.sim`) replay the same experiment through a sharded
router and an ops controller. What the three share lives here: the seeded
:class:`World` (scenario, poison pool, held-out splits), the scenario
digest and its run bookkeeping, and the per-round record, arm summary,
guard-effect block and arm table of their reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from repro.ce.deployment import DeployedEstimator
from repro.ce.trainer import evaluate_q_errors
from repro.db.query import Query
from repro.harness.experiments import (
    AttackScenario,
    craft_poison,
    get_scenario,
    get_surrogate,
)
from repro.serve.cache import EstimateCache
from repro.serve.replay import ReplayConfig, TrafficReplay
from repro.serve.retrain import PromotionGuard, RetrainEvent, RetrainLoop
from repro.serve.server import EstimatorServer
from repro.serve.stats import ServeStats
from repro.store.io import canonical_json_bytes
from repro.store.store import ArtifactStore
from repro.utils.clock import ManualClock, use_clock
from repro.workload.workload import Workload

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ServeSimConfig:
    """Everything one serve-sim run depends on (and nothing else)."""

    dataset: str = "dmv"
    model_type: str = "mscn"
    scale: str = "smoke"
    seed: int = 0
    rounds: int = 3
    requests_per_round: int = 64
    qps: float = 256.0
    service_hz: float = 32.0
    poison_fraction: float = 0.5
    attack_method: str = "pace"
    timeout: float = 0.5
    max_queue: int = 128
    max_batch: int = 16
    guard_factor: float = 1.5
    cache_capacity: int = 512
    #: ``None`` inherits the process-wide compile toggle; ``True``/``False``
    #: force compiled execution on/off for the whole simulation (both arms).
    compile_enabled: bool | None = None


@dataclass(frozen=True)
class World:
    """One seeded world: trained scenario, crafted poison, held-out splits."""

    scenario: AttackScenario
    poison: list[Query]
    validation: Workload
    evaluation: Workload
    #: ops-sim's canary probe set, carved out of the evaluation half.
    canary: Workload | None = None

    def deploy(self) -> DeployedEstimator:
        """A deployment of the clean parameters: the start of every arm."""
        self.scenario.reset()
        return DeployedEstimator(
            self.scenario.model,
            self.scenario.executor,
            update_steps=self.scenario.scale.update_steps,
        )

    def mean_qerror(self) -> float:
        """Mean held-out Q-error of the live model on the evaluation split."""
        return float(evaluate_q_errors(self.scenario.model, self.evaluation).mean())

    def replay_config(self, config) -> ReplayConfig:
        """The sim's open-loop traffic; no attacker share without a pool."""
        return ReplayConfig(
            qps=config.qps,
            poison_fraction=config.poison_fraction if self.poison else 0.0,
            timeout=config.timeout,
            service_hz=config.service_hz,
            seed=config.seed,
        )


def build_world(config, canary: bool = False) -> World:
    """Build the world a sim config names (dataset, model, attack, seed).

    ``canary=True`` splits the held-out half once more for ops-sim's
    canary probe.
    """
    scenario = get_scenario(
        config.dataset, config.model_type, scale=config.scale, seed=config.seed
    )
    poison: list[Query] = []
    if config.poison_fraction > 0.0 and config.attack_method != "clean":
        # Pre-seat the true-family surrogate so the crafting path never
        # gambles the simulation on smoke-scale type speculation.
        get_surrogate(scenario, model_type=scenario.model_type)
        poison, *_ = craft_poison(scenario, config.attack_method, use_detector=False)
    validation, evaluation = scenario.test_workload.split(0.5, seed=config.seed + 23)
    if not canary:
        return World(scenario, poison, validation, evaluation)
    probe, evaluation = evaluation.split(0.5, seed=config.seed + 29)
    return World(scenario, poison, validation, evaluation, canary=probe)


def report_header(tool: str, config, world: World | None = None) -> dict:
    """What every sim report opens with; with a world, its pool and splits."""
    header = {"schema_version": SCHEMA_VERSION, "tool": tool, "config": asdict(config)}
    if world is not None:
        header["poison_pool"] = len(world.poison)
        header["validation_queries"] = len(world.validation)
        header["evaluation_queries"] = len(world.evaluation)
        if world.canary is not None:
            header["canary_queries"] = len(world.canary)
    return header


def scenario_digest(core: dict) -> str:
    """SHA-256 over the canonical JSON of a session's deterministic core."""
    return hashlib.sha256(canonical_json_bytes(core)).hexdigest()


def digest_config(config) -> dict:
    """The config coordinates that belong in a scenario digest.

    ``store_root`` is a filesystem location, not behavior, and the two
    cluster transports are bitwise-equivalent by design — both stay out so
    the same scenario digests identically wherever (and however) it runs.
    """
    core = asdict(config)
    core.pop("store_root", None)
    core.pop("transport", None)
    return core


def fresh_run(store: ArtifactStore, kind: str, run_id: str, config):
    """Create run ``run_id`` in ``store``, replacing any earlier one."""
    if store.has_run(run_id):
        store.delete_run(run_id)
    return store.create_run(kind, run_id, params=digest_config(config), seed=config.seed)


def round_record(index: int, event: RetrainEvent | None, mean_qerror: float, **traffic) -> dict:
    """One round of an arm: its traffic, retrain outcome and Q-error."""
    return {
        "round": index,
        **traffic,
        "mean_qerror": mean_qerror,
        "promoted": bool(event.promoted) if event else False,
        "rolled_back": bool(event.rolled_back) if event else False,
        "update_rejected": event.rejected if event else 0,
    }


def arm_summary(
    baseline: float,
    rounds: list[dict],
    stats: ServeStats,
    events: list[RetrainEvent],
    guard: PromotionGuard | None = None,
    **extra,
) -> dict:
    """One arm's report: Q-error before/after, rounds, stats, guard block."""
    final = rounds[-1]["mean_qerror"] if rounds else baseline
    arm = {
        "baseline_qerror": baseline,
        "final_qerror": final,
        "degradation": final / baseline if baseline > 0.0 else None,
        "qerror_trajectory": [r["mean_qerror"] for r in rounds],
        "rounds": rounds,
        "stats": stats.to_json(),
        "retrain_events": [e.as_dict() for e in events],
        **extra,
    }
    if guard is not None:
        arm["guard"] = {
            "factor": guard.factor,
            "baseline_qerror": guard.baseline_qerror,
            "admissions": guard.admissions,
            "vetoes": guard.vetoes,
        }
    return arm


def guard_effect(unguarded: dict, guarded: dict) -> dict:
    """How far the guarded arm's final Q-error sits below the unguarded's."""
    unguarded_final = unguarded["final_qerror"]
    guarded_final = guarded["final_qerror"]
    return {
        "unguarded_final_qerror": unguarded_final,
        "guarded_final_qerror": guarded_final,
        "qerror_ratio": (
            unguarded_final / guarded_final if guarded_final > 0.0 else None
        ),
        "guard_wins": guarded_final <= unguarded_final,
    }


def format_arms(report: dict, columns: dict, scope: str = "", onset: str = "") -> list[str]:
    """Console table of a sim's arms, plus the guard-effect line if any.

    ``columns`` maps each sim-specific header to a function of one arm's
    report; it follows the Q-error and promotion columns every sim shows.
    ``scope`` and ``onset`` add to the title before and after the attack.
    """
    from repro.metrics import render_table

    config = report["config"]
    title = (
        f"{report['tool']} · {config['dataset']}/{config['model_type']} · {scope}"
        f"{config['attack_method']} @ poison={config['poison_fraction']:.0%}{onset} · "
        f"seed={config['seed']}"
    )

    rows = []
    for name, arm in report["arms"].items():
        stats = arm["stats"]
        rows.append([
            name,
            f"{arm['baseline_qerror']:.3f}",
            f"{arm['final_qerror']:.3f}",
            f"{arm['degradation']:.2f}x" if arm["degradation"] is not None else "-",
            f"{stats['promotions']}/{stats['rollbacks']}",
            *(cell(arm) for cell in columns.values()),
        ])
    lines = [render_table(
        ["arm", "clean q-err", "final q-err", "degradation", "promote/rollback",
         *columns],
        rows,
        title=title,
    )]
    effect = report.get("guard_effect")
    if effect is not None and effect["qerror_ratio"] is not None:
        lines.append(
            f"\nguard effect: final q-error {effect['unguarded_final_qerror']:.3f} "
            f"(unguarded) vs {effect['guarded_final_qerror']:.3f} (guarded) — "
            f"{effect['qerror_ratio']:.2f}x better with the guard"
        )
    return lines


def serving_stack(
    deployed: DeployedEstimator, config, guard: PromotionGuard | None = None, run=None
) -> EstimatorServer:
    """One process's serving stack: cache, stats, retrain loop, server.

    The server carries the rest as ``.cache``, ``.stats`` and ``.retrain``.
    ``retrain_every`` is irrelevant to the sims: their round loops flush
    explicitly, so every round maps to exactly one retrain event.
    """
    cache = EstimateCache(capacity=config.cache_capacity)
    stats = ServeStats()
    retrain = RetrainLoop(
        deployed,
        retrain_every=config.requests_per_round,
        guard=guard,
        on_promote=cache.invalidate,
        stats=stats,
        run=run,
    )
    return EstimatorServer(
        deployed,
        max_queue=config.max_queue,
        max_batch=config.max_batch,
        cache=cache,
        retrain=retrain,
        stats=stats,
        default_timeout=config.timeout,
    )


def _run_arm(world: World, config: ServeSimConfig, guarded: bool) -> dict:
    """Serve one full traffic session from clean parameters; one arm."""
    deployed = world.deploy()
    guard = PromotionGuard(world.validation, factor=config.guard_factor) if guarded else None
    server = serving_stack(deployed, config, guard)
    retrain, stats = server.retrain, server.stats
    replay = TrafficReplay(
        benign_pool=world.scenario.train_workload.queries,
        poison_pool=list(world.poison),
        config=world.replay_config(config),
    )
    with use_clock(ManualClock()) as clock:
        baseline = world.mean_qerror()
        rounds = []
        for index in range(config.rounds):
            result = replay.drive(server, config.requests_per_round, clock=clock)
            event = retrain.flush()
            rounds.append(round_record(
                index, event, world.mean_qerror(),
                arrivals=result.arrivals,
                benign=result.benign,
                attacker=result.attacker,
                elapsed=result.elapsed,
            ))
        session_seconds = clock()
    return arm_summary(
        baseline, rounds, stats, retrain.events, guard,
        guarded=guarded,
        session_seconds=session_seconds,
        throughput_qps=stats.throughput(session_seconds),
        cache_invalidations=server.cache.invalidations,
    )


def run_serve_sim(config: ServeSimConfig | None = None) -> dict:
    """Run the full guarded-vs-unguarded serving simulation.

    Returns a JSON-ready report with both arms' Q-error and latency
    trajectories. Everything in it is seed-deterministic — serialize with
    ``sort_keys=True`` and identical configs produce identical bytes.
    """
    config = config or ServeSimConfig()
    world = build_world(config)
    from contextlib import nullcontext

    from repro.nn.compile import compiled_execution, is_enabled

    forced = config.compile_enabled
    with nullcontext() if forced is None else compiled_execution(forced):
        compile_on = is_enabled()
        unguarded = _run_arm(world, config, guarded=False)
        guarded = _run_arm(world, config, guarded=True)
    world.scenario.reset()
    return {
        **report_header("pace-repro serve-sim", config, world),
        "compile": {"enabled": compile_on},
        "arms": {"unguarded": unguarded, "guarded": guarded},
        "guard_effect": guard_effect(unguarded, guarded),
    }


def format_serve_report(report: dict) -> str:
    """Console summary for ``pace-repro serve-sim``."""
    return "\n".join(format_arms(report, {
        "done/shed/rej": outcome_counts,
        "p99": lambda arm: f"{arm['stats']['latency']['p99'] * 1e3:.1f}ms",
    }))


def outcome_counts(arm: dict) -> str:
    """An arm's completed/shed/rejected request counts, as one table cell."""
    stats = arm["stats"]
    return f"{stats['completed']}/{stats['shed']}/{stats['rejected']}"
