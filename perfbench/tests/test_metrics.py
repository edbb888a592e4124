"""Every metric BENCHMARK.json names is emitted, with the declared unit."""

import json

import pytest

import layers
import run
from common import ROOT, percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fake_process(task_cpu_s, rss_mb=100.0):
    return {"task_cpu_s": task_cpu_s, "rss_mb": rss_mb}


def test_end_to_end_metrics_match_benchmark_json():
    values = run.end_to_end([fake_process([2.0, 2.5]), fake_process([4.0])], [1.0, 2.0, 9.0])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values == {"setup_s": 2.0, "task_cpu_s": 2.5, "peak_rss_mb": 100.0}


def test_per_layer_metrics_match_benchmark_json():
    emitted = set(layers.layer_metrics([], {})) | {
        "trace.overhead_ratio", "trace.unattributed_share"
    }
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_layer_metrics_from_spans_and_counters():
    spans = [
        ["bench.run", 0.0, 10.0, -1, False, 0],
        ["attack.generate", 1.0, 3.0, 0, False, 4],
        ["workload.decode", 1.5, 2.0, 1, False, 8],
        ["cluster.rpc.call", 4.0, 6.0, 0, False, 0],
        ["cluster.rpc.finish", 4.0, 5.0, 3, True, 0],
        ["cluster.rpc.finish", 5.0, 6.0, 3, False, 0],
    ]
    counters = {
        "compile": {"plan_hits": 3, "plan_misses": 1},
        "worker_stats": {0: {"cache_hits": 1, "cache_misses": 3, "frames": 2, "served": 4}},
    }
    metrics = layers.layer_metrics(spans, counters)
    assert metrics["attack.usable_ratio"] == 0.5
    assert metrics["attack.generate.self_s"] == 1.5
    assert metrics["cluster.rpc.retries"] == 1
    assert metrics["compile.hit_ratio"] == 0.75
    assert metrics["cluster.worker.cache_hit_ratio"] == 0.25
    assert metrics["cluster.frame_rows"] == 2.0
    attribution = layers.attribution(spans)
    assert attribution["wall_s"] == 10.0
    assert attribution["unattributed_s"] + attribution["layers_self_s"] == 10.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 99) == 99.0
    assert percentile(values, 50) == 50.0
    assert percentile([7.0], 99) == 7.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.mark.parametrize("seconds, full_runs, setup_runs", [(25, 2, 1), (35, 3, 1), (42, 3, 3)])
def test_measure_starts_no_optional_run_that_would_overrun(
    seconds, full_runs, setup_runs, monkeypatch
):
    clock = FakeClock()
    started = {"full": 0, "setup": 0}

    def spawn(workload, seed, mode, trace):
        elapsed = 10.0 if mode == "full" else 3.5
        clock.now += elapsed
        started[mode] += 1
        return {"setup_s": 3.0, "elapsed_s": elapsed}

    monkeypatch.setattr(run, "time", clock)
    monkeypatch.setattr(run, "spawn", spawn)
    full, setups = run.measure("serve-hot", 0, seconds)
    assert started == {"full": full_runs, "setup": setup_runs}
    assert len(full) == full_runs and len(setups) == full_runs + setup_runs
    assert clock.now <= seconds
