"""The attack-grid workloads: a fixed three-cell PACE grid per child process.

Each cell is one :func:`repro.perf.profile_scenario` run (setup → encode →
train → speculate → attack → update → evaluate) at smoke scale, with the
speculation latency probes driven by a ``FakeClock`` so the speculated
type, and with it the work done, repeats. That clock pins *modelled*
probe timing only; every number reported here is wall clock.

The grid is fixed: the cells run in ``CELLS`` order on the scenario of
``SCENARIO_SEED`` whatever the benchmark seed. The amount of work a PACE
cell does depends on its scenario (the speculated surrogate type, how many
generated queries are usable), so a seed that changed the scenario would
make runs incomparable; and the first cell in a process pays the warm-up,
so a seed that changed the order would move the per-cell numbers.

The correctness gate compares each cell's degradation factor and the
SHA-256 of its poison-query list with ``reference.json``, which holds one
entry per cell. Write it with ``python3 perfbench/attack.py --write-reference``;
the writer runs the grid with compiled execution off and on and refuses to
write unless both agree.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

CELLS: tuple[tuple[str, str], ...] = (("dmv", "fcn"), ("dmv", "mscn"), ("tpch", "fcn"))
SCENARIO_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def import_pipeline() -> None:
    """Import everything the grid runs, so set-up pays the import cost."""
    import repro.harness.experiments  # noqa: F401
    import repro.nn.compile  # noqa: F401
    import repro.perf  # noqa: F401


def poison_digest(queries) -> str:
    """SHA-256 of the poison queries in their canonical wire form."""
    from repro.cluster.worker import serialize_query

    wire = [serialize_query(query) for query in queries]
    return hashlib.sha256(json.dumps(wire).encode("utf-8")).hexdigest()


def run_cell(dataset: str, model_type: str, compiled: bool) -> dict:
    """One timed cell; the poison list is captured on its way out of
    ``craft_poison`` so the gate can hash it."""
    import repro.harness.experiments as experiments
    from repro.perf import profile_scenario

    original = experiments.craft_poison
    captured: list = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result[0])
        return result

    experiments.craft_poison = capture
    try:
        start = time.perf_counter()
        profile = profile_scenario(
            dataset, model_type, "pace", "smoke", SCENARIO_SEED,
            deterministic_timing=True, compile_enabled=compiled,
        )
        wall = time.perf_counter() - start
    finally:
        experiments.craft_poison = original
    return {
        "cell": f"{dataset}/{model_type}",
        "wall_s": wall,
        "degradation": profile.degradation,
        "poison_sha256": poison_digest(captured[-1]) if captured else None,
        "phases": profile.phases,
        "perf": profile.counters,
        "compile": profile.compile["stats"],
    }


def run_grid(compiled: bool) -> dict:
    """The three cells in order; per-cell records and grid wall time."""
    start = time.perf_counter()
    cells = [run_cell(d, m, compiled) for d, m in CELLS]
    return {"grid_s": time.perf_counter() - start, "cells": cells}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_grid(grid: dict, reference: dict) -> list[str]:
    """Mismatches against the committed reference (empty when correct)."""
    problems = []
    for cell in grid["cells"]:
        want = reference[cell["cell"]]
        if cell["degradation"] != want["degradation"]:
            problems.append(
                f"{cell['cell']}: degradation {cell['degradation']!r} != {want['degradation']!r}"
            )
        if cell["poison_sha256"] != want["poison_sha256"]:
            problems.append(f"{cell['cell']}: poison-query digest differs from the reference")
    return problems


def write_reference() -> dict:
    """Run the grid with compiled execution off and on; both must agree."""
    reference: dict = {}
    for compiled in (False, True):
        for cell in run_grid(compiled)["cells"]:
            record = {"degradation": cell["degradation"], "poison_sha256": cell["poison_sha256"]}
            if reference.setdefault(cell["cell"], record) != record:
                raise SystemExit(f"{cell['cell']}: compiled and interpreted runs disagree")
    REFERENCE_PATH.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return reference


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 perfbench/attack.py --write-reference")
    write_reference()
