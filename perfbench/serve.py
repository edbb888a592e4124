"""The cluster-serving workloads: an open loop and a closed loop.

One workload process builds a dmv/fcn scenario, stores its checkpoint,
starts a :class:`~repro.cluster.ClusterRouter` over two workers on the
inline transport and then serves two phases, both on the router's real
(``perf_counter``) clock:

* **open loop** — ``OPEN_REQUESTS`` requests at ``OPEN_RATE`` per second
  on a seeded Poisson schedule, each timed from its *due* time to the end
  of the wave that answered it, so a stall also counts against the
  requests that arrive during it; the generator spins between arrivals;
* **closed loop** — batches of ``BLOCK`` requests served saturated, back
  to back, the router's queue topped up to ``max_batch × workers`` before
  every wave; each batch's CPU time is the workload's ``task_cpu_s``.

The inline transport runs the workers in this process behind the same
framed RPC (every frame is encoded, checked and decoded as over a pipe) and
is bitwise-equivalent to the process transport. The process transport is
not used: router and two workers are three processes on a host that gives
the benchmark two virtual CPUs, and their CPU time per batch then measured
mostly the host's scheduler (2.2× the inline figure on a busy host, about
1.5× on a quiet one).

``serve-cold-promote`` also runs an unguarded
:meth:`~repro.cluster.ClusterPromotion.flush` each time another
``flush_every`` requests have completed, in submission order. The flush
blocks the service loop, as it does in the library.

The gate re-computes every completed estimate in this process, as a
single-row ``estimate_encoded`` of the checkpoint that request's shard
served, and requires bitwise equality.
"""

from __future__ import annotations

import shutil
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.serve.server import DONE, PENDING as PENDING_STATUS

DATASET = "dmv"
MODEL = "fcn"
SCALE = "smoke"
WORKERS = 2
TRANSPORT = "inline"
MAX_BATCH = 16
#: Large enough that nothing is rejected while a flush blocks the loop.
MAX_QUEUE = 1 << 16
OPEN_RATE = 400.0
OPEN_REQUESTS = 800


@dataclass(frozen=True)
class ServeSpec:
    """What distinguishes the two serve workloads."""

    tenants: int
    pool: int  # distinct queries; 0 uses the scenario's 64-query train prefix
    blocks: int  # closed-loop batches of BLOCK requests
    flush_every: int  # 0 disables promotions


#: Requests in one closed-loop batch; ``task_cpu_s`` is the CPU time to
#: serve one. On serve-cold-promote every batch holds exactly one flush.
BLOCK = 1024
SPECS = {
    "serve-hot": ServeSpec(tenants=2, pool=0, blocks=64, flush_every=0),
    "serve-cold-promote": ServeSpec(tenants=64, pool=4096, blocks=16, flush_every=1024),
}
HOT_POOL = 64


def import_pipeline() -> None:
    """Import everything a serve session runs, so set-up pays for it."""
    import repro.cluster  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.serve.retrain  # noqa: F401
    import repro.store.store  # noqa: F401


def build_inputs(spec: ServeSpec, seed: int, scenario):
    """Seeded query pool, per-request (tenant, query) picks, open-loop offsets."""
    import numpy as np

    from repro.workload.generator import WorkloadGenerator

    if spec.pool:
        generator = WorkloadGenerator(scenario.database, scenario.executor, seed=seed + 4242)
        pool = [generator.random_query() for _ in range(spec.pool)]
    else:
        pool = list(scenario.train_workload.queries[:HOT_POOL])
    rng = np.random.default_rng([seed, 7])
    total = OPEN_REQUESTS + spec.blocks * BLOCK
    tenants = rng.integers(spec.tenants, size=total).tolist()
    picks = rng.integers(len(pool), size=total).tolist()
    offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=OPEN_REQUESTS)).tolist()
    return pool, tenants, picks, offsets


class Session:
    """One serve session: set-up, the two timed phases, the gate."""

    def __init__(self, workload: str, seed: int, workdir) -> None:
        self.spec = SPECS[workload]
        self.seed = seed
        self.workdir = workdir
        # A traced run sets this to Tracer.span, so time spent waiting for
        # the next arrival shows as ``bench.idle`` instead of as residual.
        self.span = lambda name: nullcontext()
        self.router = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.ce.deployment import DeployedEstimator
        from repro.cluster import ClusterPromotion, ClusterRouter, WorkerSpec, seed_checkpoint
        from repro.harness.experiments import get_scenario
        from repro.store.store import ArtifactStore

        spec = self.spec
        scenario = get_scenario(DATASET, MODEL, scale=SCALE, seed=self.seed)
        self.scenario = scenario
        self.pool, self.tenant_picks, self.query_picks, self.offsets = build_inputs(
            spec, self.seed, scenario
        )
        self.tenant_names = [f"tenant-{i:02d}" for i in range(spec.tenants)]
        self.store = ArtifactStore(self.workdir / "store")
        self.digests = [seed_checkpoint(self.store, scenario.model)]
        specs = [
            WorkerSpec(
                worker_id=wid, dataset=DATASET, model_type=MODEL, scale=SCALE,
                seed=self.seed, store_root=str(self.store.root),
                initial_digest=self.digests[0], tenants=tuple(self.tenant_names),
            )
            for wid in range(WORKERS)
        ]
        self.router = ClusterRouter(
            specs, transport=TRANSPORT, max_queue=MAX_QUEUE, max_batch=MAX_BATCH
        )
        self.router.start()
        self.promotion = None
        if spec.flush_every:
            run = self.store.create_run("perfbench", f"cold-seed{self.seed}", seed=self.seed)
            deployed = DeployedEstimator(
                scenario.model, scenario.executor, update_steps=scenario.scale.update_steps
            )
            self.promotion = ClusterPromotion(
                deployed, self.router, run, retrain_every=spec.flush_every
            )
            # Completions reach the retrain buffer in submission order (see
            # _observe), not wave order, so every process retrains on the
            # same sequence and the promotion digests repeat.
            self.router.on_complete = None
        # Per-request outcomes in flat lists indexed by submission order: the
        # session keeps no request object once it completes, so the garbage
        # collector's work does not grow with the length of the run.
        total = OPEN_REQUESTS + spec.blocks * BLOCK
        self.submitted = 0
        self.status = [PENDING_STATUS] * total
        self.estimates: list[float | None] = [None] * total
        self.epochs = [0] * total
        self.done_at = [0.0] * total
        self._in_flight: dict[int, int] = {}  # id(request) -> index
        self._completed: dict[int, object] = {}  # index -> request, until observed
        self.observed = 0
        self.promote_s: list[float] = []

    # ------------------------------------------------------------------
    # the service loop
    # ------------------------------------------------------------------
    def _submit(self, index: int) -> None:
        request = self.router.submit(
            self.tenant_names[self.tenant_picks[index]], self.pool[self.query_picks[index]]
        )
        self.submitted = index + 1
        if request.completed_at is None:
            self._in_flight[id(request)] = index
        else:  # rejected at the router: final already
            self.status[index] = request.status

    def _wave(self) -> None:
        finished = self.router.dispatch(time.perf_counter())
        stamp = time.perf_counter()
        epoch = len(self.digests) - 1
        for request in finished:
            index = self._in_flight.pop(id(request))
            self.status[index] = request.status
            self.estimates[index] = request.estimate
            self.epochs[index] = epoch
            self.done_at[index] = stamp
            if self.promotion is not None:
                self._completed[index] = request
        if self.promotion is not None:
            self._observe()

    def _observe(self) -> None:
        """Feed completions in submission order; flush every ``flush_every``."""
        while self.observed in self._completed:
            self.promotion.observe(self._completed.pop(self.observed))
            self.observed += 1
            if self.observed % self.spec.flush_every == 0:
                start = time.perf_counter()
                event = self.promotion.flush()
                self.promote_s.append(time.perf_counter() - start)
                if event is not None and event.promoted:
                    self.digests.append(self.promotion.lineage_digest())

    def open_loop(self) -> dict:
        """Fixed-rate arrivals; latency from each request's due time."""
        start = time.perf_counter()
        due = [start + offset for offset in self.offsets]
        lateness: list[float] = []
        index = 0
        router = self.router
        while index < OPEN_REQUESTS or router.pending():
            now = time.perf_counter()
            while index < OPEN_REQUESTS and due[index] <= now:
                self._submit(index)
                lateness.append(now - due[index])
                index += 1
            if router.pending():
                self._wave()
            elif index < OPEN_REQUESTS:
                # Spin rather than sleep: on a shared virtual machine a
                # sleeping generator wakes late by a varying amount, which
                # moved the median latency by a third between runs.
                with self.span("bench.idle"):
                    while time.perf_counter() < due[index]:
                        pass
        latencies = [
            (self.done_at[i] - due[i]) * 1e3
            for i in range(OPEN_REQUESTS)
            if self.status[i] == DONE
        ]
        return {
            "latencies_ms": latencies,
            "lateness_max_ms": max(lateness) * 1e3,
            "seconds": time.perf_counter() - start,
        }

    def closed_loop(self) -> dict:
        """``blocks`` batches of ``BLOCK`` requests served saturated, back to
        back; returns each batch's wall time and CPU time."""
        target = MAX_BATCH * WORKERS
        router = self.router
        index = self.submitted
        seconds, cpu_seconds = [], []
        for _ in range(self.spec.blocks):
            end = index + BLOCK
            cpu = time.process_time()
            start = time.perf_counter()
            while index < end or router.pending():
                while index < end and router.pending() < target:
                    self._submit(index)
                    index += 1
                self._wave()
            seconds.append(time.perf_counter() - start)
            cpu_seconds.append(time.process_time() - cpu)
        return {
            "block_s": seconds,
            "block_cpu_s": cpu_seconds,
            "qps": BLOCK * len(seconds) / sum(seconds),
        }

    # ------------------------------------------------------------------
    # teardown and the gate
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (also after a set-up that failed part way)."""
        if self.router is not None:
            self.router.shutdown()

    def cleanup(self) -> None:
        """Remove the session's store (after the gate has read it)."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def failures(self) -> dict:
        """Rejected, shed or unanswered requests and worker respawns."""
        not_done = sum(1 for status in self.status[: self.submitted] if status != DONE)
        return {"not_done": not_done, "respawns": self.router.respawns}

    def check_estimates(self) -> list[str]:
        """Bitwise comparison of every completed estimate with a fresh
        single-row forward of the checkpoint its shard was serving."""
        from repro.ce.registry import create_model
        from repro.workload.encoding import QueryEncoder

        encoder = QueryEncoder(self.scenario.database.schema)
        models: dict[int, object] = {}
        expected: dict[tuple[int, int], float] = {}
        problems = []
        for index in range(self.submitted):
            if self.status[index] != DONE:
                continue
            epoch = self.epochs[index]
            key = (epoch, self.query_picks[index])
            if key not in expected:
                model = models.get(epoch)
                if model is None:
                    model = create_model(
                        MODEL, encoder, hidden_dim=self.scenario.scale.hidden_dim, seed=self.seed
                    )
                    model.load_full_state_dict(self.store.get_checkpoint(self.digests[epoch]))
                    models[epoch] = model
                row = encoder.encode_many([self.pool[self.query_picks[index]]])
                expected[key] = float(model.estimate_encoded(row)[0])
            estimate = self.estimates[index]
            if not same_bits(estimate, expected[key]):
                problems.append(
                    f"request {index}: estimate {estimate!r} != "
                    f"reference {expected[key]!r} (checkpoint {self.digests[epoch][:12]})"
                )
        return problems


def same_bits(a: float | None, b: float) -> bool:
    """Bitwise float equality (distinguishes -0.0 and compares NaN payloads)."""
    return a is not None and struct.pack("<d", a) == struct.pack("<d", b)
