"""Which library functions the traced run wraps, and the per-layer metrics.

Each :class:`~trace.Target` names one public boundary of a ``repro.*``
layer. :func:`layer_metrics` folds a traced run's spans (plus the
program's own counters) into the flat ``per_layer`` metric map that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

from tracer import Target, self_times, summarize, under


def _len_result(args, result) -> int:
    return len(result)


def _rows_result(args, result) -> int:
    return int(result.shape[0]) if result.ndim > 1 else 1


def _one(args, result) -> int:
    return 1


def _len_first_arg(args, result) -> int:
    return len(args[0])


def _len_second_arg(args, result) -> int:
    return len(args[1])


TARGETS: list[Target] = [
    Target("repro.datasets.registry", "load_dataset", "datasets.load"),
    Target("repro.db.executor:Executor", "count", "db.count"),
    Target("repro.workload.encoding:QueryEncoder", "encode_many", "workload.encode",
           rows=_rows_result, flat=True),
    Target("repro.workload.encoding:QueryEncoder", "encode", "workload.encode",
           rows=_one, flat=True),
    Target("repro.workload.encoding:QueryEncoder", "decode_many", "workload.decode",
           rows=_len_result, flat=True),
    Target("repro.workload.encoding:QueryEncoder", "decode", "workload.decode",
           rows=_one, flat=True),
    Target("repro.workload.generator:WorkloadGenerator", "generate", "workload.generate",
           flat=True),
    Target("repro.workload.generator:WorkloadGenerator", "random_query", "workload.generate",
           flat=True),
    Target("repro.ce.base:CardinalityEstimator", "estimate_encoded", "nn.forward",
           rows=_rows_result, flat=True),
    Target("repro.nn.module:Module", "__call__", "nn.forward", flat=True),
    Target("repro.nn.tensor:Tensor", "backward", "nn.backward", flat=True),
    Target("repro.nn.tensor", "grad", "nn.backward", flat=True),
    Target("repro.nn.compile.api", "_compile_miss", "compile.build"),
    Target("repro.ce.trainer", "train_model", "ce.train"),
    Target("repro.ce.trainer", "incremental_update", "ce.update"),
    Target("repro.ce.trainer", "unrolled_update", "ce.update"),
    Target("repro.harness.experiments", "get_surrogate", "attack.speculate"),
    Target("repro.attack.detector:VAEAnomalyDetector", "fit", "attack.detector_fit"),
    Target("repro.attack.algorithms", "train_generator_accelerated", "attack.generator_train"),
    Target("repro.attack.algorithms:_Session", "simulate_attack_value", "attack.rehearsal"),
    Target("repro.attack.generator:PoisonQueryGenerator", "generate_usable_queries",
           "attack.generate", rows=_len_result),
    Target("repro.cluster.router:ClusterRouter", "start", "cluster.start"),
    Target("repro.cluster.router:ClusterRouter", "submit", "cluster.submit"),
    Target("repro.cluster.router:ClusterRouter", "dispatch", "cluster.dispatch",
           rows=_len_result),
    Target("repro.cluster.router:ClusterRouter", "warm_restart_all", "cluster.warm_restart"),
    Target("repro.cluster.rpc", "encode_frame", "cluster.rpc.encode_frame", rows=_len_result),
    Target("repro.cluster.rpc", "decode_frame", "cluster.rpc.decode_frame",
           rows=_len_first_arg),
    Target("repro.cluster.rpc:RpcChannel", "call", "cluster.rpc.call"),
    Target("repro.cluster.rpc:RpcChannel", "finish", "cluster.rpc.finish"),
    Target("repro.cluster.worker:ShardWorker", "handle_bytes", "cluster.worker.handle"),
    Target("repro.serve.retrain:RetrainLoop", "flush", "serve.retrain.flush"),
    Target("repro.store.store:ArtifactStore", "put_bytes", "store.put", rows=_len_second_arg),
    Target("repro.store.store:ArtifactStore", "get_bytes", "store.get"),
    Target("repro.store.store:RunHandle", "commit", "store.commit"),
]

#: Root span every traced run opens around its measured region; its self
#: time is the share no wrapped layer accounts for.
ROOT = "bench.run"
#: Time the open loop sleeps until the next request is due.
IDLE = "bench.idle"

def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``counters`` carries what the program counts itself: ``perf`` (the
    ``PERF`` registry's counters), ``compile`` (a ``compile_stats`` delta),
    ``worker_stats`` (``router.worker_stats()``), ``workers``,
    ``respawns`` and ``promotions``.
    """
    summary = summarize(spans)

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    perf = counters.get("perf", {})
    compile_delta = counters.get("compile", {})
    workers = counters.get("worker_stats", {})
    hits = sum(int(w.get("cache_hits", 0)) for w in workers.values())
    misses = sum(int(w.get("cache_misses", 0)) for w in workers.values())
    frames = sum(int(w.get("frames", 0)) for w in workers.values())
    served = sum(int(w.get("served", 0)) for w in workers.values())
    worker_spans = [s for s in spans if s[0] == "cluster.worker.handle"]
    own = dict(zip(map(id, spans), self_times(spans)))
    worker_forward = under(spans, "nn.forward", "cluster.worker.handle")
    generate_rows = under(spans, "workload.decode", "attack.generate")
    retries = [
        s for s in under(spans, "cluster.rpc.finish", "cluster.rpc.call") if s[4]
    ]
    compile_hits = int(compile_delta.get("plan_hits", 0))
    compile_misses = int(compile_delta.get("plan_misses", 0))
    db_hits = int(perf.get("db.cache_hits", 0))
    db_misses = int(perf.get("db.cache_misses", 0))
    return {
        "datasets.load_s": get("datasets.load", "self_s"),
        "db.count.queries": get("db.count", "calls"),
        "db.count.self_s": get("db.count", "self_s"),
        "db.result_cache_hit_ratio": _ratio(db_hits, db_hits + db_misses),
        "workload.encode.rows": get("workload.encode", "rows"),
        "workload.encode.self_s": get("workload.encode", "self_s"),
        "workload.decode.rows": get("workload.decode", "rows"),
        "workload.decode.self_s": get("workload.decode", "self_s"),
        "workload.generate.self_s": get("workload.generate", "self_s"),
        "nn.forward.self_s": get("nn.forward", "self_s"),
        "nn.backward.calls": get("nn.backward", "calls"),
        "nn.backward.self_s": get("nn.backward", "self_s"),
        "nn.backward_nodes": int(perf.get("nn.backward_nodes", 0)),
        "compile.plans_compiled": int(compile_delta.get("plans_compiled", 0)),
        "compile.plan_hits": compile_hits,
        "compile.plan_misses": compile_misses,
        "compile.fallback_calls": int(compile_delta.get("fallback_calls", 0)),
        "compile.hit_ratio": _ratio(compile_hits, compile_hits + compile_misses),
        "compile.build.self_s": get("compile.build", "self_s"),
        "ce.train.self_s": get("ce.train", "self_s"),
        "ce.update.self_s": get("ce.update", "self_s"),
        "attack.speculate.self_s": get("attack.speculate", "self_s"),
        "attack.detector_fit.self_s": get("attack.detector_fit", "self_s"),
        "attack.generator_train.self_s": get("attack.generator_train", "self_s"),
        "attack.rehearsal.self_s": get("attack.rehearsal", "self_s"),
        "attack.generate.self_s": get("attack.generate", "self_s"),
        "attack.usable_ratio": _ratio(
            get("attack.generate", "rows"), sum(s[5] for s in generate_rows)
        ),
        "cluster.start.self_s": get("cluster.start", "self_s"),
        "cluster.spawn_s_per_worker": _ratio(
            get("cluster.start", "wall_s"), counters.get("workers", 0)
        ),
        "cluster.submit.self_s": get("cluster.submit", "self_s"),
        "cluster.dispatch.waves": get("cluster.dispatch", "calls"),
        "cluster.dispatch.self_s": get("cluster.dispatch", "self_s"),
        "cluster.frame_rows": _ratio(served, frames),
        "cluster.rpc.encode_frame.self_s": get("cluster.rpc.encode_frame", "self_s"),
        "cluster.rpc.decode_frame.self_s": get("cluster.rpc.decode_frame", "self_s"),
        "cluster.rpc.frame_bytes": get("cluster.rpc.encode_frame", "rows"),
        "cluster.rpc.wait_s": get("cluster.rpc.finish", "self_s"),
        "cluster.rpc.retries": len(retries),
        "cluster.respawns": int(counters.get("respawns", 0)),
        "cluster.worker.cache_hit_ratio": _ratio(hits, hits + misses),
        "cluster.worker.frames": frames,
        "cluster.worker.handle.self_s": sum(own[id(s)] for s in worker_spans),
        "cluster.worker.forward.rows": sum(s[5] for s in worker_forward),
        "cluster.worker.forward.self_s": sum(own[id(s)] for s in worker_forward),
        "serve.retrain.flush.self_s": get("serve.retrain.flush", "self_s"),
        "serve.retrain.promotions": int(counters.get("promotions", 0)),
        "cluster.warm_restart.self_s": get("cluster.warm_restart", "self_s"),
        "store.put.calls": get("store.put", "calls"),
        "store.put.bytes": get("store.put", "rows"),
        "store.put.self_s": get("store.put", "self_s"),
        "store.get.self_s": get("store.get", "self_s"),
        "store.commit.self_s": get("store.commit", "self_s"),
    }


def attribution(spans: list[list]) -> dict[str, float]:
    """Wall time of the root spans, the layers' share, and the residual."""
    summary = summarize(spans)
    wall = summary.get(ROOT, {}).get("wall_s", 0.0)
    residual = summary.get(ROOT, {}).get("self_s", 0.0)
    idle = summary.get(IDLE, {}).get("self_s", 0.0)
    layers = sum(v["self_s"] for k, v in summary.items() if k not in (ROOT, IDLE))
    return {
        "wall_s": wall,
        "layers_self_s": layers,
        "idle_s": idle,
        "unattributed_s": residual,
        "unattributed_share": _ratio(residual, wall),
    }
