"""``pace-repro cluster-sim``: sharded serving under attack + drills.

The cluster twin of :mod:`repro.serve.scenario`: one seeded multi-tenant
traffic trace (benign clients mixed with a PACE attacker) is served by a
router sharding over N workers, twice — unguarded and guarded promotion —
under a router :class:`~repro.utils.clock.ManualClock`, so every latency,
shed, promotion, and Q-error in the report is a pure function of the
config.

Determinism is summarized in one *scenario digest*: the SHA-256 of the
canonical JSON of the session's deterministic core (config coordinates,
the full per-request completion trace, promotion lineage digests, the
Q-error trajectory, and the primary's final checkpoint digest).
Wall-clock-ish extras (worker telemetry, compile-cache stats) stay out of
the core. :func:`run_cluster_drill` is built on that digest: it runs the
same guarded session twice — once undisturbed, once with a
``faults.py``-driven kill of one worker mid-traffic — and checks the two
digests are byte-identical, which is the whole failure-handling story
(router re-dispatch + respawn + lineage warm-restart) in one equality.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from repro.ce.deployment import DeployedEstimator
from repro.ce.trainer import evaluate_q_errors
from repro.cluster.promotion import ClusterPromotion, seed_checkpoint
from repro.cluster.router import ClusterRequest, ClusterRouter
from repro.cluster.worker import ESTIMATE_SITE, WorkerSpec
from repro.db.query import Query
from repro.harness.experiments import (
    AttackScenario,
    craft_poison,
    get_scenario,
    get_surrogate,
)
from repro.serve.stats import ServeStats
from repro.store.io import canonical_json_bytes
from repro.store.store import ArtifactStore
from repro.utils.clock import ManualClock, use_clock
from repro.utils.errors import ReproError
from repro.utils.rng import derive_rng
from repro.workload.workload import Workload

SCHEMA_VERSION = 1

#: Default on-disk location of the cluster's shared promotion store.
DEFAULT_CLUSTER_STORE = "cluster-store"


@dataclass(frozen=True)
class ClusterSimConfig:
    """Everything one cluster-sim run depends on (and nothing else)."""

    dataset: str = "dmv"
    model_type: str = "fcn"
    scale: str = "smoke"
    seed: int = 0
    workers: int = 2
    tenants: int = 4
    vnodes: int = 64
    rounds: int = 2
    requests_per_round: int = 48
    qps: float = 512.0
    service_hz: float = 64.0
    poison_fraction: float = 0.5
    attack_method: str = "pace"
    timeout: float = 0.5
    max_queue: int = 256
    max_batch: int = 16
    guard_factor: float = 1.5
    cache_capacity: int = 512
    heartbeat_every: int = 4
    transport: str = "inline"
    store_root: str = DEFAULT_CLUSTER_STORE
    drill_worker: int = 0
    drill_round: int = 2


@dataclass(frozen=True)
class TenantArrival:
    """One scheduled request: when, which tenant, what, and who sent it."""

    at: float
    tenant: str
    query: Query
    client: str


class ClusterTraffic:
    """Seeded open-loop multi-tenant arrival process (one RNG stream)."""

    def __init__(
        self,
        benign_pool: list[Query],
        poison_pool: list[Query],
        tenants: list[str],
        qps: float,
        poison_fraction: float,
        seed: int,
    ) -> None:
        if not benign_pool:
            raise ReproError("cluster traffic needs a non-empty benign pool")
        if not tenants:
            raise ReproError("cluster traffic needs at least one tenant")
        if poison_fraction > 0.0 and not poison_pool:
            raise ReproError("poison_fraction > 0 requires a non-empty poison pool")
        self.benign_pool = list(benign_pool)
        self.poison_pool = list(poison_pool)
        self.tenants = list(tenants)
        self.qps = float(qps)
        self.poison_fraction = float(poison_fraction)
        self._rng = derive_rng(seed + 101)

    def arrivals(self, n: int, start: float = 0.0) -> list[TenantArrival]:
        """The next ``n`` arrivals; successive calls continue the stream."""
        out: list[TenantArrival] = []
        now = float(start)
        for _ in range(n):
            now += float(self._rng.exponential(1.0 / self.qps))
            tenant = self.tenants[int(self._rng.integers(len(self.tenants)))]
            attacker = (
                self.poison_pool
                and float(self._rng.random()) < self.poison_fraction
            )
            pool = self.poison_pool if attacker else self.benign_pool
            query = pool[int(self._rng.integers(len(pool)))]
            out.append(TenantArrival(
                at=now, tenant=tenant, query=query,
                client="attacker" if attacker else "benign",
            ))
        return out


def scenario_digest(core: dict) -> str:
    """SHA-256 over the canonical JSON of a session's deterministic core."""
    return hashlib.sha256(canonical_json_bytes(core)).hexdigest()


def drive_round(
    router: ClusterRouter,
    traffic: ClusterTraffic,
    clock: ManualClock,
    requests: int,
    service_hz: float,
    timeout: float | None,
    heartbeat_every: int = 0,
) -> tuple[list[ClusterRequest], int]:
    """Replay ``requests`` arrivals through the router, then drain.

    Advances the router's clock through every arrival instant and every
    ``1/service_hz`` service instant, dispatching one wave per instant
    (and a heartbeat sweep every ``heartbeat_every`` waves). Returns the
    submitted requests (in submission order, all finalized) and the wave
    count.
    """
    period = 1.0 / service_hz
    next_service = clock() + period
    waves = 0
    submitted: list[ClusterRequest] = []

    def wave(now: float) -> None:
        nonlocal waves, next_service
        clock.set(now)
        router.dispatch(now)
        waves += 1
        if heartbeat_every and waves % heartbeat_every == 0:
            router.heartbeat(now)
        next_service += period

    for arrival in traffic.arrivals(requests, start=clock()):
        while next_service <= arrival.at:
            wave(next_service)
        clock.set(arrival.at)
        submitted.append(router.submit(
            arrival.tenant, arrival.query, timeout=timeout, client=arrival.client
        ))
    while router.pending() > 0:
        wave(next_service)
    return submitted, waves


def _fresh_run(store: ArtifactStore, run_id: str, params: dict, seed: int):
    if store.has_run(run_id):
        store.delete_run(run_id)
    return store.create_run("cluster-sim", run_id, params=params, seed=seed)


def _worker_specs(
    config: ClusterSimConfig,
    store: ArtifactStore,
    initial_digest: str,
    tenants: list[str],
    faults: dict[int, tuple[tuple[str, str, int], ...]] | None = None,
) -> list[WorkerSpec]:
    faults = faults or {}
    return [
        WorkerSpec(
            worker_id=wid,
            dataset=config.dataset,
            model_type=config.model_type,
            scale=config.scale,
            seed=config.seed,
            store_root=str(store.root),
            initial_digest=initial_digest,
            tenants=tuple(tenants),
            cache_capacity=config.cache_capacity,
            faults=faults.get(wid, ()),
        )
        for wid in range(config.workers)
    ]


def _digest_config(config: ClusterSimConfig) -> dict:
    """The config coordinates that belong in the scenario digest.

    ``store_root`` is a filesystem location, not behavior, and the two
    transports are bitwise-equivalent by design — both stay out so the
    same scenario digests identically wherever (and however) it runs.
    """
    core = asdict(config)
    core.pop("store_root")
    core.pop("transport")
    return core


def run_session(
    scenario: AttackScenario,
    poison: list[Query],
    validation: Workload,
    evaluation: Workload,
    config: ClusterSimConfig,
    store: ArtifactStore,
    guarded: bool,
    run_id: str,
    faults: dict[int, tuple[tuple[str, str, int], ...]] | None = None,
    respawn: bool = True,
) -> dict:
    """Serve one full cluster session from clean parameters; one arm.

    ``respawn=False`` runs the router in degraded mode: a failed worker is
    dropped from the ring and its work re-keyed to the survivors instead
    of being replaced (:func:`run_reroute_drill` exercises this).
    """
    scenario.reset()
    model = scenario.model
    deployed = DeployedEstimator(
        model, scenario.executor, update_steps=scenario.scale.update_steps
    )
    tenants = [f"tenant-{i:02d}" for i in range(config.tenants)]
    stats = ServeStats()
    clock = ManualClock(domain="router")
    with use_clock(clock):
        baseline = float(evaluate_q_errors(model, evaluation).mean())
        initial_digest = seed_checkpoint(store, model)
        router = ClusterRouter(
            _worker_specs(config, store, initial_digest, tenants, faults),
            transport=config.transport,
            vnodes=config.vnodes,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            stats=stats,
            respawn=respawn,
            clock=clock,
        )
        router.start()
        run = _fresh_run(store, run_id, params=_digest_config(config), seed=config.seed)
        promotion = ClusterPromotion(
            deployed,
            router,
            run,
            validation=validation,
            guard_factor=config.guard_factor if guarded else None,
            retrain_every=config.requests_per_round,
            stats=stats,
        )
        traffic = ClusterTraffic(
            benign_pool=scenario.train_workload.queries,
            poison_pool=list(poison),
            tenants=tenants,
            qps=config.qps,
            poison_fraction=config.poison_fraction if poison else 0.0,
            seed=config.seed,
        )
        trace: list[list] = []
        rounds = []
        try:
            for index in range(config.rounds):
                submitted, waves = drive_round(
                    router, traffic, clock,
                    requests=config.requests_per_round,
                    service_hz=config.service_hz,
                    timeout=config.timeout,
                    heartbeat_every=config.heartbeat_every,
                )
                for request in submitted:
                    trace.append([
                        index, request.tenant, request.client,
                        request.submitted_at, request.completed_at,
                        request.status, request.estimate,
                    ])
                event = promotion.flush()
                mean_qerror = float(evaluate_q_errors(model, evaluation).mean())
                frames = {
                    str(wid): int(snapshot.get("frames", 0))
                    for wid, snapshot in router.worker_stats().items()
                }
                rounds.append({
                    "round": index,
                    "arrivals": len(submitted),
                    "benign": sum(1 for r in submitted if r.client == "benign"),
                    "attacker": sum(1 for r in submitted if r.client == "attacker"),
                    "waves": waves,
                    "mean_qerror": mean_qerror,
                    "promoted": bool(event.promoted) if event else False,
                    "rolled_back": bool(event.rolled_back) if event else False,
                    "update_rejected": event.rejected if event else 0,
                    "worker_frames": frames,
                })
            final_checkpoint = seed_checkpoint(store, model)
            run.set_status("done")
            run.commit()
            session_seconds = clock()
            worker_stats = {
                str(wid): snapshot
                for wid, snapshot in router.worker_stats().items()
            }
        finally:
            router.shutdown()
    final = rounds[-1]["mean_qerror"] if rounds else baseline
    promotions = [b["digest"] for b in promotion.broadcasts]
    core = {
        "config": _digest_config(config),
        "guarded": guarded,
        "initial_checkpoint": initial_digest,
        "requests": trace,
        "promotions": promotions,
        "qerror_trajectory": [r["mean_qerror"] for r in rounds],
        "final_checkpoint": final_checkpoint,
    }
    arm = {
        "guarded": guarded,
        "digest": scenario_digest(core),
        "baseline_qerror": baseline,
        "final_qerror": final,
        "degradation": final / baseline if baseline > 0.0 else None,
        "qerror_trajectory": core["qerror_trajectory"],
        "rounds": rounds,
        "session_seconds": session_seconds,
        "throughput_qps": stats.throughput(session_seconds),
        "initial_checkpoint": initial_digest,
        "final_checkpoint": final_checkpoint,
        "promotions": promotions,
        "respawns": router.respawns,
        "reroutes": router.reroutes,
        "quarantines": router.quarantines,
        "workers_after": len(worker_stats),
        "run_id": run_id,
        "workers": worker_stats,
        "ring_spans": router.ring.spans(),
        "stats": stats.to_json(),
        "retrain_events": [e.as_dict() for e in promotion.retrain.events],
    }
    if promotion.guard is not None:
        arm["guard"] = {
            "factor": promotion.guard.factor,
            "baseline_qerror": promotion.guard.baseline_qerror,
            "admissions": promotion.guard.admissions,
            "vetoes": promotion.guard.vetoes,
        }
    return arm


def _build_world(config: ClusterSimConfig):
    scenario = get_scenario(
        config.dataset, config.model_type, scale=config.scale, seed=config.seed
    )
    poison: list[Query] = []
    if config.poison_fraction > 0.0 and config.attack_method != "clean":
        # Pre-seat the true-family surrogate so crafting never gambles the
        # simulation on smoke-scale type speculation (as serve-sim does).
        get_surrogate(scenario, model_type=scenario.model_type)
        poison, *_ = craft_poison(scenario, config.attack_method, use_detector=False)
    validation, evaluation = scenario.test_workload.split(0.5, seed=config.seed + 23)
    return scenario, poison, validation, evaluation


def run_cluster_sim(config: ClusterSimConfig | None = None) -> dict:
    """Run the guarded-vs-unguarded sharded serving simulation."""
    config = config or ClusterSimConfig()
    scenario, poison, validation, evaluation = _build_world(config)
    store = ArtifactStore(config.store_root)
    unguarded = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=False, run_id=f"cluster-unguarded-seed{config.seed}",
    )
    guarded = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=True, run_id=f"cluster-guarded-seed{config.seed}",
    )
    scenario.reset()
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "pace-repro cluster-sim",
        "config": asdict(config),
        "poison_pool": len(poison),
        "validation_queries": len(validation),
        "evaluation_queries": len(evaluation),
        "arms": {"unguarded": unguarded, "guarded": guarded},
        "guard_effect": {
            "unguarded_final_qerror": unguarded["final_qerror"],
            "guarded_final_qerror": guarded["final_qerror"],
            "qerror_ratio": (
                unguarded["final_qerror"] / guarded["final_qerror"]
                if guarded["final_qerror"] > 0.0 else None
            ),
            "guard_wins": guarded["final_qerror"] <= unguarded["final_qerror"],
        },
    }


def run_cluster_drill(config: ClusterSimConfig | None = None) -> dict:
    """Kill one worker mid-traffic; prove the digest does not move.

    Two guarded sessions over the identical seeded trace:

    1. **reference** — undisturbed; per-round worker telemetry records how
       many estimate frames the drill target served through round
       ``drill_round - 1``;
    2. **drilled** — the target's spec carries a
       :class:`~repro.store.faults.FaultSpec` firing a CrashPoint on its
       next estimate frame after that, i.e. mid-traffic in
       ``drill_round``, *after* the previous round's promotion — so the
       respawned replacement must warm-restart from the *promoted*
       lineage digest, not the boot checkpoint, to keep the trace equal.

    Both sessions run the *unguarded* arm: every round's retrain
    promotes, so the drill provably crosses a promotion boundary and the
    replacement restores replicated lineage, not its birth checkpoint.
    The two scenario digests must match byte for byte.
    """
    config = config or ClusterSimConfig()
    if not 1 <= config.drill_round <= config.rounds:
        raise ReproError(
            f"drill_round must be in [1, {config.rounds}], got {config.drill_round}"
        )
    scenario, poison, validation, evaluation = _build_world(config)
    store = ArtifactStore(config.store_root)
    reference = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=False, run_id=f"cluster-drill-ref-seed{config.seed}",
    )
    # Frames the target served in rounds *before* the drill round; the
    # fault fires on the frame after that — mid-traffic, post-promotion.
    target = str(config.drill_worker)
    prior = config.drill_round - 2  # index of the last pre-drill round
    frames_before = (
        reference["rounds"][prior]["worker_frames"].get(target, 0)
        if prior >= 0 else 0
    )
    site = ESTIMATE_SITE.format(worker_id=config.drill_worker)
    faults = {
        config.drill_worker: ((site, "crash", int(frames_before) + 1),),
    }
    drilled = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=False, run_id=f"cluster-drill-kill-seed{config.seed}",
        faults=faults,
    )
    scenario.reset()
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "pace-repro cluster-sim --drill",
        "config": asdict(config),
        "drill": {
            "worker": config.drill_worker,
            "round": config.drill_round,
            "site": site,
            "ordinal": int(frames_before) + 1,
            "fired": drilled["respawns"] > 0,
        },
        "reference": reference,
        "drilled": drilled,
        "identical": reference["digest"] == drilled["digest"],
    }


def run_reroute_drill(config: ClusterSimConfig | None = None) -> dict:
    """Kill one worker mid-traffic with respawn *disabled*; prove service.

    The degraded-mode counterpart of :func:`run_cluster_drill`: the same
    fault kills the same worker at the same estimate frame, but the router
    runs with ``respawn=False``, so recovery is a ring removal plus
    re-keying the stranded work to the survivors. A digest equality is
    impossible here by construction — the surviving topology serves
    different shards — so the verdict is liveness instead:

    * the re-route branch actually fired (``reroutes >= 1``);
    * every submitted request was still finalized (nothing lost);
    * exactly one worker is gone at session end.
    """
    config = config or ClusterSimConfig()
    if config.workers < 2:
        raise ReproError(
            f"the re-route drill needs >= 2 workers, got {config.workers}"
        )
    if not 1 <= config.drill_round <= config.rounds:
        raise ReproError(
            f"drill_round must be in [1, {config.rounds}], got {config.drill_round}"
        )
    scenario, poison, validation, evaluation = _build_world(config)
    store = ArtifactStore(config.store_root)
    reference = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=False, run_id=f"cluster-reroute-ref-seed{config.seed}",
    )
    target = str(config.drill_worker)
    prior = config.drill_round - 2  # index of the last pre-drill round
    frames_before = (
        reference["rounds"][prior]["worker_frames"].get(target, 0)
        if prior >= 0 else 0
    )
    site = ESTIMATE_SITE.format(worker_id=config.drill_worker)
    faults = {
        config.drill_worker: ((site, "crash", int(frames_before) + 1),),
    }
    drilled = run_session(
        scenario, poison, validation, evaluation, config, store,
        guarded=False, run_id=f"cluster-reroute-kill-seed{config.seed}",
        faults=faults, respawn=False,
    )
    scenario.reset()
    stats = drilled["stats"]
    finalized = stats["completed"] + stats["shed"] + stats["rejected"]
    fired = drilled["reroutes"] > 0
    all_finalized = finalized == stats["submitted"]
    survivors_ok = drilled["workers_after"] == config.workers - 1
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "pace-repro cluster-sim --drill",
        "config": asdict(config),
        "drill": {
            "worker": config.drill_worker,
            "round": config.drill_round,
            "site": site,
            "ordinal": int(frames_before) + 1,
            "fired": fired,
            "all_finalized": all_finalized,
            "workers_after": drilled["workers_after"],
            "survivors_ok": survivors_ok,
            "ok": bool(fired and all_finalized and survivors_ok),
        },
        "reference": reference,
        "drilled": drilled,
    }


def format_cluster_report(report: dict) -> str:
    """Console summary for ``pace-repro cluster-sim``."""
    from repro.metrics import render_table

    config = report["config"]
    rows = []
    for arm_name in ("unguarded", "guarded"):
        arm = report["arms"][arm_name]
        stats = arm["stats"]
        rows.append([
            arm_name,
            f"{arm['baseline_qerror']:.3f}",
            f"{arm['final_qerror']:.3f}",
            f"{arm['degradation']:.2f}x" if arm["degradation"] is not None else "-",
            f"{stats['promotions']}/{stats['rollbacks']}",
            f"{stats['completed']}/{stats['shed']}/{stats['rejected']}",
            arm["digest"][:12],
        ])
    lines = [render_table(
        ["arm", "clean q-err", "final q-err", "degradation",
         "promote/rollback", "done/shed/rej", "digest"],
        rows,
        title=(
            f"pace-repro cluster-sim · {config['dataset']}/{config['model_type']} · "
            f"{config['workers']} workers x {config['tenants']} tenants · "
            f"{config['attack_method']} @ poison={config['poison_fraction']:.0%} · "
            f"seed={config['seed']}"
        ),
    )]
    effect = report["guard_effect"]
    if effect["qerror_ratio"] is not None:
        lines.append(
            f"\nguard effect: final q-error {effect['unguarded_final_qerror']:.3f} "
            f"(unguarded) vs {effect['guarded_final_qerror']:.3f} (guarded) — "
            f"{effect['qerror_ratio']:.2f}x better with the guard"
        )
    return "\n".join(lines)


def format_drill_report(report: dict) -> str:
    """Console summary for ``pace-repro cluster-sim --drill``.

    ``report`` is a :func:`run_cluster_drill` report carrying the
    :func:`run_reroute_drill` report under ``reroute_drill``.
    """
    drill = report["drill"]
    ref, hit = report["reference"], report["drilled"]
    verdict = "IDENTICAL" if report["identical"] else "DIVERGED"
    reroute = report["reroute_drill"]["drill"]
    return "\n".join([
        f"pace-repro cluster-sim --drill · kill worker {drill['worker']} at "
        f"estimate frame {drill['ordinal']} (round {drill['round']})",
        f"  drill fired:    {drill['fired']} "
        f"(respawns: reference {ref['respawns']}, drilled {hit['respawns']})",
        f"  reference:      {ref['digest']}",
        f"  drilled:        {hit['digest']}",
        f"  scenario digest: {verdict}",
        f"  reroute drill:  killed worker {reroute['worker']} with respawn "
        f"off (fired={reroute['fired']}) — {reroute['workers_after']} "
        f"survivor(s), all requests finalized={reroute['all_finalized']} — "
        f"{'ok' if reroute['ok'] else 'FAIL'}",
    ])
