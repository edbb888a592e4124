"""Sharded multi-process serve cluster with replicated promotion.

One router process shards requests across N shard workers through a
consistent-hash ring keyed by ``(tenant, join-template)``; workers are
pure replicas that only change parameters by ``warm_restart``-ing from
checkpoint digests in the shared :class:`~repro.store.ArtifactStore`.
See :mod:`repro.cluster.router` for the failure-recovery story and
:mod:`repro.cluster.sim` for the deterministic drill harness.
"""

from repro.cluster.promotion import ClusterPromotion, seed_checkpoint
from repro.cluster.ring import HashRing, ring_position, shard_key
from repro.cluster.router import ClusterError, ClusterRequest, ClusterRouter
from repro.cluster.rpc import (
    EndpointClosed,
    RpcChannel,
    RpcError,
    RpcTimeout,
    decode_frame,
    encode_frame,
)
from repro.cluster.sim import (
    ClusterSimConfig,
    ClusterTraffic,
    format_cluster_report,
    format_drill_report,
    run_cluster_drill,
    run_cluster_sim,
)
from repro.cluster.worker import ShardWorker, WorkerSpec, worker_main

__all__ = [
    "ClusterError",
    "ClusterPromotion",
    "ClusterRequest",
    "ClusterRouter",
    "ClusterSimConfig",
    "ClusterTraffic",
    "EndpointClosed",
    "HashRing",
    "RpcChannel",
    "RpcError",
    "RpcTimeout",
    "ShardWorker",
    "WorkerSpec",
    "decode_frame",
    "encode_frame",
    "format_cluster_report",
    "format_drill_report",
    "ring_position",
    "run_cluster_drill",
    "run_cluster_sim",
    "seed_checkpoint",
    "shard_key",
    "worker_main",
]
