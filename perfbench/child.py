"""One workload process: set up, run the timed phases, check, report.

The runner (``run.py``) starts this file in a fresh interpreter for every
sample, so imports, dataset builds and cluster start-up are paid as a
user pays them. Usage::

    python3 perfbench/child.py WORKLOAD SEED MODE TRACE

``MODE`` is ``full`` (set up and run the workload) or ``setup`` (set up,
then stop: a cheap extra set-up sample). ``TRACE`` 1 wraps the library's
layer boundaries (see ``layers.py``) and adds per-layer numbers. The last
line of standard output is one JSON object; ``t_first`` is the
``perf_counter`` reading at the first timed operation, which the runner
subtracts from its own reading taken just before it started this process
(both are the system-wide monotonic clock).
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import WORK_DIR, peak_rss_mb  # noqa: E402


def run_attack(workload: str, seed: int, mode: str, trace: bool) -> dict:
    import attack

    attack.import_pipeline()
    result = {"t_first": time.perf_counter()}
    if mode == "setup":
        result["rss_mb"] = peak_rss_mb([os.getpid()])
        return result
    tracer = _tracer() if trace else None
    cpu = time.process_time()
    if tracer is None:
        grid = attack.run_grid(compiled=True)
    else:
        with tracer, tracer.span("bench.run"):
            grid = attack.run_grid(compiled=True)
    cpu = time.process_time() - cpu
    problems = attack.check_grid(grid, attack.load_reference())
    result.update(
        # The unit a researcher waits for is the grid. Per-cell times stay in
        # the detail: a median over three unlike cells flips between them.
        task_s=[grid["grid_s"]],
        task_cpu_s=[cpu],
        attempted=len(grid["cells"]),
        failed=len({p.split(":")[0] for p in problems}),
        problems=problems,
        detail={"cells": grid["cells"]},
        rss_mb=peak_rss_mb([os.getpid()]),
    )
    if tracer is not None:
        result["trace"] = _trace_result(
            tracer, workload, seed,
            perf=_sum_counters(cell["perf"] for cell in grid["cells"]),
            compile=_sum_counters(
                {k: v for k, v in cell["compile"].items() if k != "fallback_reasons"}
                for cell in grid["cells"]
            ),
        )
    return result


def run_serve(workload: str, seed: int, mode: str, trace: bool) -> dict:
    import serve

    serve.import_pipeline()
    from repro.perf import PERF

    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    session = serve.Session(workload, seed, workdir)
    tracer = _tracer() if trace else None
    with ExitStack() as stack:
        if tracer is not None:
            session.span = tracer.span
            PERF.reset()
            PERF.enable()
            stack.enter_context(tracer)
            stack.enter_context(tracer.span("bench.run"))
        stack.callback(session.close)
        session.setup()
        result = {"t_first": time.perf_counter()}
        if mode == "full":
            open_phase = session.open_loop()
            closed_phase = session.closed_loop()
        worker_stats = session.router.worker_stats()
        result["rss_mb"] = peak_rss_mb([os.getpid()])
    if mode == "setup":
        session.cleanup()
        return result
    failures = session.failures()
    try:
        problems = session.check_estimates()
    finally:
        session.cleanup()
    latencies = open_phase["latencies_ms"]
    hits = sum(w.get("cache_hits", 0) for w in worker_stats.values())
    misses = sum(w.get("cache_misses", 0) for w in worker_stats.values())
    result.update(
        task_s=closed_phase["block_s"],
        task_cpu_s=closed_phase["block_cpu_s"],
        op_ms=latencies,
        attempted=session.submitted,
        failed=failures["not_done"] + failures["respawns"] + len(problems),
        problems=problems[:20],
        detail={
            "serve_qps": closed_phase["qps"],
            "open_rate": serve.OPEN_RATE,
            "open_samples": len(latencies),
            "lateness_max_ms": open_phase["lateness_max_ms"],
            "promote_s": session.promote_s,
            "promotion_digests": session.digests[1:],
            "worker_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "worker_frames": sum(w.get("frames", 0) for w in worker_stats.values()),
            "respawns": failures["respawns"],
            "not_done": failures["not_done"],
        },
    )
    if tracer is not None:
        result["trace"] = _trace_result(
            tracer, workload, seed,
            perf=dict(PERF.snapshot()["counters"]),
            worker_stats=worker_stats,
            workers=serve.WORKERS,
            respawns=failures["respawns"],
            promotions=len(session.digests) - 1,
        )
        PERF.disable()
    return result


def _tracer():
    import layers
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(layers.TARGETS)
    return tracer


def _trace_result(tracer, workload: str, seed: int, **counters) -> dict:
    import layers

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write_chrome_trace(path)
    return {
        "layers": layers.layer_metrics(tracer.spans, counters),
        "attribution": layers.attribution(tracer.spans),
        "spans": len(tracer.spans),
        "chrome_trace": str(path.relative_to(WORK_DIR.parent)),
    }


def _sum_counters(dicts) -> dict:
    total: dict = {}
    for counters in dicts:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total


def main(argv: list[str]) -> int:
    workload, seed, mode, trace = argv
    seed, trace = int(seed), trace == "1"
    if workload == "attack-compiled":
        result = run_attack(workload, seed, mode, trace)
    else:
        result = run_serve(workload, seed, mode, trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
