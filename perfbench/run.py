"""Benchmark runner: one workload, several fresh processes, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack-compiled --seed 0 --seconds 42 --trace 0

Every sample runs ``child.py`` in a fresh interpreter, so imports, dataset
builds and cluster start-up are paid as a user pays them. With ``--trace 0``
the runner makes ``MIN_FULL`` full runs of the workload and one set-up-only
run, then starts more full runs, and after those more set-up-only runs, only
while the next is expected to end within ``--seconds``; it reports medians of
the end-to-end metrics. With ``--trace 1`` it makes a traced run between
two untraced ones (their difference is the tracing overhead) and reports the
per-layer metrics. A traced run is not bounded by ``--seconds``.

The exit status is 0 when every correctness gate passed, 1 when one failed
(after the result line) or a workload process failed (without one), and 2
outside a full checkout.

The last line of standard output is the result object; the lines above it
and ``.perfbench/report-*.json`` hold the details (host fingerprint, every
sample, tail latency, throughput, promotion times, compile counters).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK_DIR, cpu_times, host_fingerprint, percentile  # noqa: E402

CHILD = HERE / "child.py"
WORKLOADS = ("attack-compiled", "serve-hot", "serve-cold-promote")
MIN_FULL = 2
#: A set-up-only run is expected to last this much longer than the longest
#: set-up seen, for tearing the session down and exiting.
TEARDOWN_MARGIN = 1.25
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or printed no result."""


def spawn(workload: str, seed: int, mode: str, trace: bool) -> dict:
    """Run one workload process and return its result with ``setup_s``."""
    env = dict(os.environ, REPRO_LOG_LEVEL="WARNING")
    command = [sys.executable, str(CHILD), workload, str(seed), mode, "1" if trace else "0"]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:  # a timeout, or the runner itself being stopped
            proc.kill()
            proc.wait()
            raise
    elapsed = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{' '.join(command[1:])} exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("t_first") - start
    result["elapsed_s"] = elapsed
    return result


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[float]]:
    """``MIN_FULL`` full runs and one set-up-only run, then more full runs
    and after them more set-up-only runs, each only while it is expected to
    end within ``seconds``."""
    start = time.perf_counter()
    full = [spawn(workload, seed, "full", False) for _ in range(MIN_FULL)]
    sample = spawn(workload, seed, "setup", False)
    setups = [r["setup_s"] for r in full] + [sample["setup_s"]]
    setup_run = max(TEARDOWN_MARGIN * max(setups), sample["elapsed_s"])

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    while left() >= max(r["elapsed_s"] for r in full):
        full.append(spawn(workload, seed, "full", False))
        setups.append(full[-1]["setup_s"])
        setup_run = max(setup_run, TEARDOWN_MARGIN * setups[-1])
    while left() >= setup_run:
        sample = spawn(workload, seed, "setup", False)
        setups.append(sample["setup_s"])
        setup_run = max(setup_run, sample["elapsed_s"])
    return full, setups


def digest_problems(full: list[dict]) -> list[str]:
    """Promotion digests must repeat in every process of a run."""
    lists = [r.get("detail", {}).get("promotion_digests") for r in full]
    if not lists or lists[0] is None:
        return []
    return [
        f"process {i}: promotion digests differ from process 0"
        for i, digests in enumerate(lists[1:], start=1)
        if digests != lists[0]
    ]


def end_to_end(full: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": median(setups),
        "task_cpu_s": median(t for r in full for t in r["task_cpu_s"]),
        "peak_rss_mb": median(r["rss_mb"] for r in full),
    }


def details(workload: str, full: list[dict]) -> dict:
    """Numbers reported beside the metrics: tails, throughput, counters."""
    out = {
        "processes": len(full),
        "task_samples": sum(len(r["task_cpu_s"]) for r in full),
        "task_s": median(t for r in full for t in r["task_s"]),
        "task_cpu_s_samples": [r["task_cpu_s"] for r in full],
        "task_s_samples": [r["task_s"] for r in full],
    }
    if workload.startswith("serve"):
        ops = [value for r in full for value in r["op_ms"]]
        promote = [s for r in full for s in r["detail"]["promote_s"]]
        out.update(
            serve_qps=median(r["detail"]["serve_qps"] for r in full),
            open_samples=len(ops),
            serve_p50_ms=median(ops),
            serve_p99_ms=percentile(ops, 99),
            open_rate=full[0]["detail"]["open_rate"],
            lateness_max_ms=max(r["detail"]["lateness_max_ms"] for r in full),
            promote_s=median(promote) if promote else None,
            promotions=len(promote),
            worker_cache_hit_ratio=median(r["detail"]["worker_cache_hit_ratio"] for r in full),
            worker_frames=[r["detail"]["worker_frames"] for r in full],
        )
    else:
        out["cells"] = [
            [
                {k: c[k] for k in ("cell", "wall_s", "degradation", "compile")}
                for c in r["detail"]["cells"]
            ]
            for r in full
        ]
    return out


def traced(workload: str, seed: int) -> tuple[list[dict], dict[str, float], dict]:
    """A traced run between two untraced ones."""
    runs = [spawn(workload, seed, "full", trace) for trace in (False, True, False)]
    plain = median(t for r in (runs[0], runs[2]) for t in r["task_cpu_s"])
    trace = runs[1]["trace"]
    metrics = dict(trace["layers"])
    metrics["trace.overhead_ratio"] = median(runs[1]["task_cpu_s"]) / plain - 1.0
    metrics["trace.unattributed_share"] = trace["attribution"]["unattributed_share"]
    info = {
        "attribution": trace["attribution"],
        "traced_task_cpu_s": median(runs[1]["task_cpu_s"]),
        "untraced_task_cpu_s": plain,
        "chrome_trace": trace["chrome_trace"],
    }
    return runs, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cpu_before = cpu_times()
    started = time.perf_counter()
    try:
        if args.trace:
            runs, values, info = traced(args.workload, args.seed)
            declared = spec["per_layer"]
        else:
            runs, setups = measure(args.workload, args.seed, args.seconds)
            values = end_to_end(runs, setups)
            info = details(args.workload, runs)
            info["setup_samples"] = setups
            declared = spec["end_to_end"]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    run_s = time.perf_counter() - started
    cpu_after = cpu_times()
    busy = {k: cpu_after[k] - cpu_before[k] for k in cpu_after}
    info["steal_share"] = busy["steal"] / busy["total"] if busy["total"] else 0.0
    info["run_s"] = run_s
    digests = digest_problems(runs)
    problems = [p for r in runs for p in r["problems"]] + digests
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(digests)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "metrics": metrics,
        "info": info,
    }
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    report_path = WORK_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    host = report["host"]
    print(f"host: {host['cpus']} cpus, python {host['python']}, numpy {host['numpy']}, "
          f"git {host['git_sha'] or 'unknown'}; cpu time stolen during the run: "
          f"{info['steal_share']:.1%}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in info.items():
        if isinstance(value, (int, float)):
            print(f"  {key} = {value:.6g}")
    for process in info.get("cells", []):
        print("  compile stats per cell: " + "; ".join(
            f"{c['cell']} {c['compile']['plans_compiled']} compiled, "
            f"{c['compile']['plan_hits']} hits, {c['compile']['plan_misses']} misses"
            for c in process
        ))
    print(f"error_rate = {report['error_rate']:.6g} ({failed}/{attempted}); "
          f"details in {report_path.relative_to(ROOT)}")
    for problem in problems[:20]:
        print(f"gate: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the running workload process is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
