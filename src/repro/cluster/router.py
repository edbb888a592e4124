"""The cluster router: ring-sharded dispatch, health, failure recovery.

The router owns all client-visible state: per-worker FIFO queues (bounded
— backpressure is a router decision), the consistent-hash ring mapping
``(tenant, join-template)`` keys to workers, and the aggregate
:class:`~repro.serve.stats.ServeStats`. Workers are pure replicas, so a
worker dying loses *nothing the router still holds*: in-flight batches
are re-dispatched after recovery, queued requests never left the router.

Recovery has two modes:

* **respawn** (default) — the dead worker's identity is re-created from
  its spec (drill faults stripped — a drill fires once), the replacement
  ``warm_restart``s from the promotion lineage digest, and the failed
  batch is re-sent. Because recovery happens *within the same simulated
  service instant*, a drilled run's completion record is byte-identical
  to an undisturbed run's — the property `cluster-sim --drill` verifies.
* **re-route** (``respawn=False``) — the dead node's ring spans fall to
  its successors and its queue is re-keyed through the ring; a degraded
  mode that keeps serving with N-1 workers.

Like ``serve/server.py``, this module is a latency-critical loop: flow
rule R011 bans ground-truth (``count``/``execute``) and trainer calls
here. Retraining and promotion live in :mod:`repro.cluster.promotion`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.cluster.ring import HashRing, shard_key
from repro.cluster.rpc import (
    EndpointClosed,
    InlineEndpoint,
    PipeEndpoint,
    RpcChannel,
    RpcError,
    RpcTimeout,
)
from repro.cluster.worker import ShardWorker, WorkerSpec, serialize_query, worker_main
from repro.db.query import Query
from repro.serve.server import DONE, PENDING, REJECTED, SHED
from repro.serve.stats import ServeStats
from repro.utils.clock import ManualClock
from repro.utils.errors import ReproError

TRANSPORTS = ("inline", "process")


class ClusterError(ReproError):
    """The cluster cannot make progress (no live workers, bad config)."""


@dataclass
class ClusterRequest:
    """One in-flight request as the router tracks it."""

    tenant: str
    query: Query
    wire: list
    submitted_at: float
    deadline: float | None
    client: str
    key: str
    status: str = PENDING
    estimate: float | None = None
    completed_at: float | None = None
    from_cache: bool = False
    worker_id: int | None = None

    @property
    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


def node_label(worker_id: int) -> str:
    """The ring-node name of one worker identity."""
    return f"worker-{worker_id}"


class WorkerHandle:
    """One worker's transport endpoint + RPC channel, by either transport."""

    def __init__(self, spec: WorkerSpec, channel: RpcChannel) -> None:
        self.spec = spec
        self.channel = channel

    @property
    def alive(self) -> bool:
        return not self.channel.endpoint.closed

    def kill(self) -> None:
        """Forcibly end the worker (drill/test helper)."""
        self.channel.endpoint.close()

    def stop(self) -> None:
        """Graceful shutdown; closes the endpoint regardless."""
        try:
            self.channel.call("shutdown", {}, retries=0)
        except (RpcError, EndpointClosed):
            pass
        self.channel.endpoint.close()


class InlineWorkerHandle(WorkerHandle):
    """Deterministic in-process worker behind the same framed transport."""

    def __init__(self, spec: WorkerSpec, timeout: float, retries: int) -> None:
        self.worker = ShardWorker(spec)
        endpoint = InlineEndpoint(self.worker.handle_bytes)
        super().__init__(spec, RpcChannel(endpoint, timeout=timeout, retries=retries))


class ProcessWorkerHandle(WorkerHandle):
    """A real spawned worker process over a multiprocessing pipe."""

    def __init__(self, spec: WorkerSpec, timeout: float, retries: int) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main, args=(child_conn, spec), daemon=True
        )
        self.process.start()
        child_conn.close()
        endpoint = PipeEndpoint(parent_conn)
        super().__init__(spec, RpcChannel(endpoint, timeout=timeout, retries=retries))

    @property
    def alive(self) -> bool:
        return self.process.is_alive() and not self.channel.endpoint.closed

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=10.0)
        self.channel.endpoint.close()

    def stop(self) -> None:
        super().stop()
        self.process.join(timeout=10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)


def make_handle(
    spec: WorkerSpec, transport: str, timeout: float, retries: int
) -> WorkerHandle:
    if transport == "inline":
        return InlineWorkerHandle(spec, timeout, retries)
    if transport == "process":
        return ProcessWorkerHandle(spec, timeout, retries)
    raise ClusterError(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")


class ClusterRouter:
    """Shards traffic across N workers through a consistent-hash ring."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        transport: str = "inline",
        vnodes: int = 64,
        max_queue: int = 128,
        max_batch: int = 16,
        timeout: float = 10.0,
        retries: int = 1,
        stats: ServeStats | None = None,
        respawn: bool = True,
        lineage_digest: Callable[[], str | None] | None = None,
        clock: ManualClock | None = None,
    ) -> None:
        if not specs:
            raise ClusterError("a cluster needs at least one worker spec")
        if len({s.worker_id for s in specs}) != len(specs):
            raise ClusterError("worker ids must be unique")
        self.transport = transport
        self.max_queue = int(max_queue)
        self.max_batch = int(max_batch)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.stats = stats or ServeStats()
        self.respawn = respawn
        self.lineage_digest = lineage_digest
        self.clock = clock
        self.on_complete: Callable[[ClusterRequest], None] | None = None
        self._specs: dict[int, WorkerSpec] = {s.worker_id: s for s in specs}
        self.ring = HashRing(
            [node_label(wid) for wid in sorted(self._specs)], vnodes=vnodes
        )
        self._handles: dict[int, WorkerHandle] = {}
        self._queues: dict[int, deque[ClusterRequest]] = {
            wid: deque() for wid in sorted(self._specs)
        }
        self.respawns = 0
        self.reroutes = 0
        self.heartbeats = 0
        self.quarantines = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and verify liveness with one ping each."""
        now = self._now()
        for wid in sorted(self._specs):
            self._handles[wid] = make_handle(
                self._specs[wid], self.transport, self.timeout, self.retries
            )
            reply = self._handles[wid].channel.call("ping", {"now": now})
            if reply.get("worker_id") != wid:
                raise ClusterError(
                    f"worker {wid} answered its ping as {reply.get('worker_id')!r}"
                )

    def shutdown(self) -> None:
        for handle in self._handles.values():
            handle.stop()
        self._handles.clear()

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock()
        from repro.utils.clock import get_clock

        return get_clock()()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._queues))

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def worker_for(self, tenant: str, query: Query) -> int:
        """Which worker the ring currently assigns this request to."""
        node = self.ring.node_for(shard_key(tenant, query.tables))
        return int(node.rsplit("-", 1)[1])

    def submit(
        self,
        tenant: str,
        query: Query,
        timeout: float | None = None,
        client: str = "benign",
    ) -> ClusterRequest:
        """Route one request to its shard's queue (bounded: may reject)."""
        now = self._now()
        key = shard_key(tenant, query.tables)
        wid = int(self.ring.node_for(key).rsplit("-", 1)[1])
        request = ClusterRequest(
            tenant=tenant,
            query=query,
            wire=serialize_query(query),
            submitted_at=now,
            deadline=None if timeout is None else now + timeout,
            client=client,
            key=key,
            worker_id=wid,
        )
        self.stats.record_submitted()
        queue = self._queues[wid]
        if len(queue) >= self.max_queue:
            request.status = REJECTED
            request.completed_at = now
            self.stats.record_rejected()
            return request
        queue.append(request)
        self.stats.observe_queue_depth(self.pending())
        return request

    # ------------------------------------------------------------------
    # the service wave
    # ------------------------------------------------------------------
    def dispatch(self, now: float) -> list[ClusterRequest]:
        """Serve one wave: up to ``max_batch`` per worker, in parallel.

        Sends every worker its batch first, then collects replies in
        worker-id order — with the process transport the workers genuinely
        overlap; with the inline transport the ordering (and therefore
        every downstream observation) is identical by construction.
        """
        batches: dict[int, list[ClusterRequest]] = {}
        for wid in sorted(self._queues):
            queue = self._queues[wid]
            batch: list[ClusterRequest] = []
            while queue and len(batch) < self.max_batch:
                batch.append(queue.popleft())
            if batch:
                batches[wid] = batch
        finalized: list[ClusterRequest] = []
        sent: dict[int, int] = {}
        for wid in sorted(batches):
            try:
                sent[wid] = self._handles[wid].channel.begin(
                    "estimate", self._estimate_payload(batches[wid], now)
                )
            except EndpointClosed:
                pass  # collected (and recovered) below
        for wid in sorted(batches):
            batch = batches[wid]
            reply = None
            if wid in sent:
                try:
                    reply = self._handles[wid].channel.finish(sent[wid])
                except (EndpointClosed, RpcTimeout, RpcError):
                    reply = None
            if reply is None:
                reply = self._recover(wid, batch, now)
            if reply is None:
                continue  # re-route mode: the batch went back to queues
            self._finalize(batch, reply["results"], now)
            finalized.extend(batch)
        return finalized

    def _estimate_payload(self, batch: list[ClusterRequest], now: float) -> dict:
        return {
            "now": now,
            "requests": [[r.tenant, r.wire, r.deadline] for r in batch],
        }

    def _finalize(self, batch: list[ClusterRequest], results: list, now: float) -> None:
        for request, (estimate, status, from_cache) in zip(batch, results):
            request.status = status
            request.completed_at = now
            request.from_cache = bool(from_cache)
            if status == DONE:
                request.estimate = float(estimate)
                self.stats.record_completed(request.latency)
            elif status == SHED:
                self.stats.record_shed()
            if self.on_complete is not None:
                self.on_complete(request)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _recover(
        self, wid: int, batch: list[ClusterRequest], now: float
    ) -> dict | None:
        """A worker failed mid-wave: respawn (and retry) or re-route."""
        self._handles[wid].kill()
        if self.respawn:
            self._respawn(wid, now)
            if not batch:
                return {"results": []}
            return self._handles[wid].channel.call(
                "estimate", self._estimate_payload(batch, now)
            )
        # Degraded mode: drop the node, re-key its work through the ring.
        self.ring.remove(node_label(wid))
        if not len(self.ring):
            raise ClusterError("every worker is dead and respawn is disabled")
        self.reroutes += 1
        stranded = batch + list(self._queues.pop(wid))
        del self._handles[wid]
        del self._specs[wid]
        for request in stranded:
            new_wid = int(self.ring.node_for(request.key).rsplit("-", 1)[1])
            request.worker_id = new_wid
            self._queues[new_wid].append(request)
        return None

    def _respawn(self, wid: int, now: float) -> None:
        """Replace a dead worker: same identity, lineage-restored state."""
        # A drill fires once: the replacement must not inherit the fault
        # schedule that killed its predecessor.
        spec = dataclasses.replace(self._specs[wid], faults=())
        self._specs[wid] = spec
        handle = make_handle(spec, self.transport, self.timeout, self.retries)
        handle.channel.call("ping", {"now": now})
        digest = self.lineage_digest() if self.lineage_digest is not None else None
        handle.channel.call(
            "warm_restart", {"digest": digest or spec.initial_digest}
        )
        self._handles[wid] = handle
        self.respawns += 1

    def heartbeat(self, now: float | None = None) -> dict[int, bool]:
        """Ping every worker; recover any that miss their heartbeat."""
        now = self._now() if now is None else now
        self.heartbeats += 1
        health: dict[int, bool] = {}
        for wid in sorted(self._handles):
            handle = self._handles[wid]
            ok = handle.alive
            if ok:
                try:
                    handle.channel.call("ping", {"now": now})
                except (EndpointClosed, RpcTimeout, RpcError):
                    ok = False
            if not ok:
                self._recover(wid, [], now)
            health[wid] = ok
        return health

    # ------------------------------------------------------------------
    # cluster-wide operations
    # ------------------------------------------------------------------
    def warm_restart_all(self, digest: str) -> dict[int, int]:
        """Reseat every shard's replicas from one checkpoint digest."""
        replicas: dict[int, int] = {}
        for wid in sorted(self._handles):
            try:
                reply = self._handles[wid].channel.call(
                    "warm_restart", {"digest": digest}
                )
            except (EndpointClosed, RpcTimeout, RpcError):
                self._recover(wid, [], self._now())
                reply = self._handles[wid].channel.call(
                    "warm_restart", {"digest": digest}
                )
            if reply["digest"] != digest:
                raise ClusterError(
                    f"worker {wid} restarted onto {reply['digest'][:12]}…, "
                    f"expected {digest[:12]}…"
                )
            replicas[wid] = int(reply["replicas"])
        return replicas

    def worker_stats(self) -> dict[int, dict]:
        """Each live worker's telemetry snapshot (stats frames)."""
        out: dict[int, dict] = {}
        for wid in sorted(self._handles):
            try:
                out[wid] = self._handles[wid].channel.call("stats", {})
            except (EndpointClosed, RpcTimeout, RpcError):
                out[wid] = {"unreachable": True}
        return out

    def quarantine(self, wid: int) -> dict:
        """Drain one worker out of the ring (the ops plane's planned removal).

        Unlike :meth:`_recover`'s re-route branch — which reacts to a
        worker that already died — quarantine is deliberate: the worker
        gets a ``quarantine`` frame (so it stops accepting estimate work
        and acks with final telemetry), its ring spans fall to its
        successors, its queued requests are re-keyed through the ring
        (nothing is lost), and the handle is stopped.
        """
        if wid not in self._handles:
            raise ClusterError(f"unknown worker {wid}")
        if len(self._queues) <= 1:
            raise ClusterError("cannot quarantine the last worker")
        handle = self._handles[wid]
        acked = False
        final_telemetry: dict | None = None
        try:
            reply = handle.channel.call("quarantine", {}, retries=0)
            acked = bool(reply.get("quarantined"))
            final_telemetry = reply.get("telemetry")
        except (EndpointClosed, RpcTimeout, RpcError):
            acked = False  # already dead: proceed with the removal anyway
        self.ring.remove(node_label(wid))
        if not len(self.ring):
            raise ClusterError("quarantine would leave an empty ring")
        stranded = list(self._queues.pop(wid))
        handle.stop()
        del self._handles[wid]
        del self._specs[wid]
        for request in stranded:
            new_wid = int(self.ring.node_for(request.key).rsplit("-", 1)[1])
            request.worker_id = new_wid
            self._queues[new_wid].append(request)
        self.quarantines += 1
        return {
            "worker_id": wid,
            "acked": acked,
            "requeued": len(stranded),
            "telemetry": final_telemetry,
        }

    def kill_worker(self, wid: int) -> None:
        """Drill helper: forcibly end one worker mid-traffic."""
        if wid not in self._handles:
            raise ClusterError(f"unknown worker {wid}")
        self._handles[wid].kill()
