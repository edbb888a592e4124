"""The correctness gates catch a perturbed estimate or attack result."""

import json
import math
import shutil

import pytest

import attack
import run
import serve


def test_same_bits_is_bitwise():
    assert serve.same_bits(1.5, 1.5)
    assert not serve.same_bits(1.5, math.nextafter(1.5, 2.0))
    assert not serve.same_bits(0.0, -0.0)
    assert not serve.same_bits(None, 1.0)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small hot session with a few completed waves."""
    session = serve.Session("serve-hot", 0, tmp_path_factory.mktemp("serve"))
    session.setup()
    for index in range(48):
        session._submit(index)
    while session.router.pending():
        session._wave()
    session.close()
    yield session
    session.cleanup()


def test_serve_gate_passes_untouched_estimates(served):
    assert served.failures() == {"not_done": 0, "respawns": 0}
    assert served.check_estimates() == []


def test_serve_gate_catches_a_one_ulp_perturbation(served):
    original = served.estimates[5]
    served.estimates[5] = math.nextafter(original, math.inf)
    try:
        problems = served.check_estimates()
    finally:
        served.estimates[5] = original
    assert len(problems) == 1 and problems[0].startswith("request 5:")


def test_attack_gate_catches_degradation_and_poison_changes():
    reference = attack.load_reference()
    grid = {
        "cells": [
            {"cell": cell, "degradation": want["degradation"],
             "poison_sha256": want["poison_sha256"]}
            for cell, want in reference.items()
        ]
    }
    assert attack.check_grid(grid, reference) == []
    grid["cells"][0]["degradation"] = math.nextafter(grid["cells"][0]["degradation"], 0.0)
    grid["cells"][2]["poison_sha256"] = "0" * 64
    problems = attack.check_grid(grid, reference)
    assert len(problems) == 2


def test_reference_covers_every_cell():
    assert set(attack.load_reference()) == {f"{d}/{m}" for d, m in attack.CELLS}


def test_promotion_digests_must_repeat_across_processes():
    same = [{"detail": {"promotion_digests": ["a", "b"]}}] * 2
    assert run.digest_problems(same) == []
    differ = same + [{"detail": {"promotion_digests": ["a", "c"]}}]
    assert run.digest_problems(differ) == ["process 2: promotion digests differ from process 0"]
    assert run.digest_problems([{"detail": {}}]) == []


def grid_process(problems):
    """A workload process's result for an attack-compiled run."""
    cell = {"cell": "dmv/fcn", "wall_s": 3.0, "degradation": 16.4,
            "compile": {"plans_compiled": 0, "plan_hits": 0, "plan_misses": 0}}
    return {"task_s": [3.0], "task_cpu_s": [2.9], "rss_mb": 100.0, "attempted": 3,
            "failed": len(problems), "problems": problems, "detail": {"cells": [cell]}}


@pytest.mark.parametrize("problems", [[], ["dmv/fcn: degradation 16.5 != reference 16.4"]])
def test_run_exits_non_zero_when_a_gate_fails(problems, tmp_path, monkeypatch, capsys):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / ".perfbench")
    processes = [grid_process(problems)] * 2
    monkeypatch.setattr(run, "measure", lambda *args: (processes, [1.0, 1.1, 1.2]))
    status = run.main(["--workload", "attack-compiled", "--seed", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == (1 if problems else 0)
    assert result["correct"] is not problems
    assert result["failed"] == 2 * len(problems)
