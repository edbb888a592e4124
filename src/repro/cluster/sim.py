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
the core. :func:`run_cluster_drill` is built on that digest: it runs one
undisturbed reference session, then the same session with a
``faults.py``-driven kill of one worker mid-traffic, and checks the two
digests are byte-identical, which is the whole failure-handling story
(router re-dispatch + respawn + lineage warm-restart) in one equality. A
third session repeats the kill with respawn off and checks that the
survivors still finalize every request.

The world, digest and report pieces are shared with serve-sim and ops-sim
(:mod:`repro.serve.scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.promotion import ClusterPromotion, seed_checkpoint
from repro.cluster.router import ClusterRequest, ClusterRouter
from repro.cluster.worker import ESTIMATE_SITE, WorkerSpec
from repro.db.query import Query
from repro.serve.scenario import (
    World,
    arm_summary,
    build_world,
    digest_config,
    format_arms,
    fresh_run,
    guard_effect,
    outcome_counts,
    report_header,
    round_record,
    scenario_digest,
)
from repro.serve.stats import ServeStats
from repro.store.store import ArtifactStore
from repro.utils.clock import ManualClock, use_clock
from repro.utils.errors import ReproError
from repro.utils.rng import derive_rng

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


def run_session(
    world: World,
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
    of being replaced (the re-route leg of :func:`run_cluster_drill`).
    """
    deployed = world.deploy()
    model = world.scenario.model
    tenants = [f"tenant-{i:02d}" for i in range(config.tenants)]
    stats = ServeStats()
    clock = ManualClock(domain="router")
    with use_clock(clock):
        baseline = world.mean_qerror()
        initial_digest = seed_checkpoint(store, model)
        specs = [
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
                faults=(faults or {}).get(wid, ()),
            )
            for wid in range(config.workers)
        ]
        router = ClusterRouter(
            specs,
            transport=config.transport,
            vnodes=config.vnodes,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            stats=stats,
            respawn=respawn,
            clock=clock,
        )
        router.start()
        run = fresh_run(store, "cluster-sim", run_id, config)
        promotion = ClusterPromotion(
            deployed,
            router,
            run,
            validation=world.validation,
            guard_factor=config.guard_factor if guarded else None,
            retrain_every=config.requests_per_round,
            stats=stats,
        )
        traffic = ClusterTraffic(
            benign_pool=world.scenario.train_workload.queries,
            poison_pool=list(world.poison),
            tenants=tenants,
            qps=config.qps,
            poison_fraction=config.poison_fraction if world.poison else 0.0,
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
                rounds.append(round_record(
                    index, event, world.mean_qerror(),
                    arrivals=len(submitted),
                    benign=sum(1 for r in submitted if r.client == "benign"),
                    attacker=sum(1 for r in submitted if r.client == "attacker"),
                    waves=waves,
                    worker_frames={
                        str(wid): int(snapshot.get("frames", 0))
                        for wid, snapshot in router.worker_stats().items()
                    },
                ))
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
    promotions = [b["digest"] for b in promotion.broadcasts]
    core = {
        "config": digest_config(config),
        "guarded": guarded,
        "initial_checkpoint": initial_digest,
        "requests": trace,
        "promotions": promotions,
        "qerror_trajectory": [r["mean_qerror"] for r in rounds],
        "final_checkpoint": final_checkpoint,
    }
    return arm_summary(
        baseline, rounds, stats, promotion.retrain.events, promotion.guard,
        guarded=guarded,
        digest=scenario_digest(core),
        session_seconds=session_seconds,
        throughput_qps=stats.throughput(session_seconds),
        initial_checkpoint=initial_digest,
        final_checkpoint=final_checkpoint,
        promotions=promotions,
        respawns=router.respawns,
        reroutes=router.reroutes,
        quarantines=router.quarantines,
        workers_after=len(worker_stats),
        run_id=run_id,
        workers=worker_stats,
        ring_spans=router.ring.spans(),
    )


def run_cluster_sim(config: ClusterSimConfig | None = None) -> dict:
    """Run the guarded-vs-unguarded sharded serving simulation."""
    config = config or ClusterSimConfig()
    world = build_world(config)
    store = ArtifactStore(config.store_root)
    unguarded = run_session(
        world, config, store,
        guarded=False, run_id=f"cluster-unguarded-seed{config.seed}",
    )
    guarded = run_session(
        world, config, store,
        guarded=True, run_id=f"cluster-guarded-seed{config.seed}",
    )
    world.scenario.reset()
    return {
        **report_header("pace-repro cluster-sim", config, world),
        "arms": {"unguarded": unguarded, "guarded": guarded},
        "guard_effect": guard_effect(unguarded, guarded),
    }


def run_cluster_drill(config: ClusterSimConfig | None = None) -> dict:
    """Kill one worker mid-traffic, with and without respawn.

    Three unguarded sessions over the identical seeded trace:

    1. **reference** — undisturbed; per-round worker telemetry records how
       many estimate frames the drill target served through round
       ``drill_round - 1``;
    2. **drilled** — the target's spec carries a
       :class:`~repro.store.faults.FaultSpec` firing a CrashPoint on its
       next estimate frame after that, i.e. mid-traffic in
       ``drill_round``, *after* the previous round's promotion — so the
       respawned replacement must warm-restart from the *promoted*
       lineage digest, not the boot checkpoint, to keep the trace equal.
       Its scenario digest must match the reference's byte for byte;
    3. **re-route** (under ``reroute_drill``) — the same kill with the
       router's respawn off, so recovery is a ring removal plus re-keying
       the stranded work to the survivors. The surviving topology serves
       different shards, so no digest can match; the verdict is liveness:
       the re-route branch fired, every submitted request was finalized,
       and exactly one worker is gone at session end.

    The sessions run the *unguarded* arm: every round's retrain promotes,
    so the kill provably crosses a promotion boundary.
    """
    config = config or ClusterSimConfig()
    workers, rounds = config.workers, config.rounds
    if workers < 2:
        raise ReproError(f"the re-route drill needs >= 2 workers, got {workers}")
    if not 0 <= config.drill_worker < workers:
        raise ReproError(f"drill_worker must be in [0, {workers}), got {config.drill_worker}")
    if not 1 <= config.drill_round <= rounds:
        raise ReproError(f"drill_round must be in [1, {rounds}], got {config.drill_round}")
    world = build_world(config)
    store = ArtifactStore(config.store_root)
    reference = run_session(
        world, config, store,
        guarded=False, run_id=f"cluster-drill-ref-seed{config.seed}",
    )
    # Frames the target served in rounds *before* the drill round; the
    # fault fires on the frame after that — mid-traffic, post-promotion.
    prior = config.drill_round - 2  # index of the last pre-drill round
    frames = reference["rounds"][prior]["worker_frames"] if prior >= 0 else {}
    ordinal = int(frames.get(str(config.drill_worker), 0)) + 1
    site = ESTIMATE_SITE.format(worker_id=config.drill_worker)
    faults = {config.drill_worker: ((site, "crash", ordinal),)}
    drilled = run_session(
        world, config, store,
        guarded=False, run_id=f"cluster-drill-kill-seed{config.seed}",
        faults=faults,
    )
    rerouted = run_session(
        world, config, store,
        guarded=False, run_id=f"cluster-reroute-kill-seed{config.seed}",
        faults=faults, respawn=False,
    )
    world.scenario.reset()
    stats = rerouted["stats"]
    fired = rerouted["reroutes"] > 0
    all_finalized = (
        stats["completed"] + stats["shed"] + stats["rejected"] == stats["submitted"]
    )
    survivors_ok = rerouted["workers_after"] == workers - 1
    drill = dict(worker=config.drill_worker, round=config.drill_round, site=site,
                 ordinal=ordinal)
    header = report_header("pace-repro cluster-sim --drill", config)
    return {
        **header,
        "drill": {**drill, "fired": drilled["respawns"] > 0},
        "reference": reference,
        "drilled": drilled,
        "identical": reference["digest"] == drilled["digest"],
        "reroute_drill": {
            **header,
            "drill": {
                **drill,
                "fired": fired,
                "all_finalized": all_finalized,
                "workers_after": rerouted["workers_after"],
                "survivors_ok": survivors_ok,
                "ok": bool(fired and all_finalized and survivors_ok),
            },
            "drilled": rerouted,
        },
    }


def format_cluster_report(report: dict) -> str:
    """Console summary for ``pace-repro cluster-sim``."""
    config = report["config"]
    return "\n".join(format_arms(report, {
        "done/shed/rej": outcome_counts,
        "digest": lambda arm: arm["digest"][:12],
    }, scope=f"{config['workers']} workers x {config['tenants']} tenants · "))


def format_drill_report(report: dict) -> str:
    """Console summary for ``pace-repro cluster-sim --drill``."""
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
