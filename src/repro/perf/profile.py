"""Per-phase profiling of one attack scenario end to end.

``profile_scenario`` runs the same pipeline as the harness —
setup → encode → train → speculate → attack → update → evaluate — but
drives each phase explicitly under a :data:`~repro.perf.registry.PERF`
span, so the breakdown is exclusive (no phase double-counts another).
``pace-repro profile`` renders the result as a table, and
``perfbench/`` times it as one attack cell.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.perf.registry import PERF
from repro.utils.clock import FakeClock, use_clock
from repro.utils.config import ScaleConfig, get_scale

#: Phase names in execution order (also the JSON key order).
PHASES: tuple[str, ...] = (
    "setup", "encode", "train", "speculate", "attack", "update", "evaluate"
)

#: Methods that require surrogate acquisition before crafting poison.
_SURROGATE_METHODS = ("lbs", "greedy", "lbg", "pace")


@dataclass
class PhaseProfile:
    """Wall-clock breakdown of one (dataset, model, method) scenario run."""

    dataset: str
    model_type: str
    method: str
    scale: str
    seed: int
    phases: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: dict[str, float] = field(default_factory=dict)
    degradation: float = 0.0
    poison_queries: int = 0
    compile: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phases.values()))

    def to_json(self) -> dict:
        return {
            "dataset": self.dataset,
            "model": self.model_type,
            "method": self.method,
            "scale": self.scale,
            "seed": self.seed,
            "phases": {name: self.phases.get(name, 0.0) for name in PHASES},
            "total_seconds": self.total_seconds,
            "degradation": self.degradation,
            "poison_queries": self.poison_queries,
            "counters": dict(self.counters),
            "compile": dict(self.compile),
        }


def profile_scenario(
    dataset: str = "dmv",
    model_type: str = "fcn",
    method: str = "pace",
    scale: ScaleConfig | str | None = None,
    seed: int = 0,
    deterministic_timing: bool = False,
    compile_enabled: bool | None = None,
) -> PhaseProfile:
    """Build a fresh scenario and run one attack, timing each phase.

    Unlike :func:`repro.harness.get_scenario` this never reuses a cached
    scenario — the point is to measure the full pipeline. With
    ``deterministic_timing`` a :class:`FakeClock` drives the speculation
    latency probes, pinning the speculated type across runs so successive
    benchmark reports measure the same workload. ``compile_enabled``
    forces compiled execution on (or off) for the run; ``None`` keeps the
    process-wide ``REPRO_COMPILE`` setting. The resulting plan-cache
    activity lands in ``PhaseProfile.compile``.
    """
    # Imported here so the perf layer stays importable even when heavier
    # subsystems are broken — `pace-repro profile` then fails loudly.
    from repro.ce.deployment import DeployedEstimator
    from repro.ce.registry import create_model
    from repro.ce.trainer import TrainConfig, evaluate_q_errors, train_model
    from repro.datasets.registry import load_dataset
    from repro.db.executor import Executor
    from repro.harness.experiments import (
        AttackScenario,
        craft_poison,
        get_detector,
        get_surrogate,
        make_workloads,
    )
    from repro.metrics.divergence import workload_divergence
    from repro.metrics.qerror import degradation_factor
    from repro.nn.compile import compile_stats, compiled_execution, is_enabled, stats_delta
    from repro.workload.encoding import QueryEncoder

    if isinstance(scale, str) or scale is None:
        scale = get_scale(scale)

    was_enabled = PERF.enabled
    PERF.reset()
    PERF.enable()
    clock_scope = use_clock(FakeClock()) if deterministic_timing else nullcontext()
    compile_scope = (
        nullcontext() if compile_enabled is None else compiled_execution(compile_enabled)
    )
    compile_before = compile_stats()
    try:
        with clock_scope, compile_scope:
            compile_active = is_enabled()
            with PERF.span("phase.setup"):
                database = load_dataset(dataset, scale=scale, seed=seed)
                executor = Executor(database)
                train_wl, test_wl = make_workloads(database, executor, scale, seed)
                encoder = QueryEncoder(database.schema)

            with PERF.span("phase.encode"):
                train_wl.encode(encoder)
                test_wl.encode(encoder)

            with PERF.span("phase.train"):
                model = create_model(
                    model_type, encoder, hidden_dim=scale.hidden_dim, seed=seed
                )
                train_model(model, train_wl, TrainConfig(epochs=scale.train_epochs, seed=seed))
                deployed = DeployedEstimator(model, executor, update_steps=scale.update_steps)

            scenario = AttackScenario(
                dataset=dataset,
                model_type=model_type,
                scale=scale,
                seed=seed,
                database=database,
                executor=executor,
                encoder=encoder,
                train_workload=train_wl,
                test_workload=test_wl,
                deployed=deployed,
                clean_state=model.state_dict(),
            )

            with PERF.span("phase.evaluate"):
                before = evaluate_q_errors(model, test_wl)

            with PERF.span("phase.speculate"):
                if method in _SURROGATE_METHODS:
                    get_surrogate(scenario)
                if method == "pace":
                    get_detector(scenario)

            with PERF.span("phase.attack"):
                queries, *_ = craft_poison(scenario, method)

            with PERF.span("phase.update"):
                if queries:
                    history = train_wl.encode(encoder)
                    poison_enc = encoder.encode_many(queries)
                    workload_divergence(poison_enc, history)
                    deployed.execute(queries)

            with PERF.span("phase.evaluate"):
                after = evaluate_q_errors(model, test_wl)
            scenario.reset()

        snapshot = PERF.snapshot()
    finally:
        if not was_enabled:
            PERF.disable()

    phases = {
        name: snapshot["spans"].get(f"phase.{name}", 0.0) for name in PHASES
    }
    other_spans = {
        name: seconds
        for name, seconds in snapshot["spans"].items()
        if not name.startswith("phase.")
    }
    return PhaseProfile(
        dataset=dataset,
        model_type=model_type,
        method=method,
        scale=scale.name,
        seed=seed,
        phases=phases,
        counters=snapshot["counters"],
        spans=other_spans,
        degradation=float(degradation_factor(before, after)),
        poison_queries=len(queries),
        compile={
            "enabled": compile_active,
            "stats": stats_delta(compile_stats(), compile_before),
        },
    )


def format_profile(profile: PhaseProfile) -> str:
    """Human-readable per-phase table for ``pace-repro profile``."""
    from repro.metrics import render_table

    total = profile.total_seconds or 1.0
    rows = [
        [name, f"{profile.phases.get(name, 0.0):.3f}",
         f"{100.0 * profile.phases.get(name, 0.0) / total:.1f}%"]
        for name in PHASES
    ]
    rows.append(["total", f"{profile.total_seconds:.3f}", "100.0%"])
    lines = [
        render_table(
            ["phase", "seconds", "share"],
            rows,
            title=(
                f"{profile.dataset}/{profile.model_type} · {profile.method} "
                f"(scale={profile.scale}, seed={profile.seed})"
            ),
        ),
        "",
        f"degradation: {profile.degradation:.2f}x · "
        f"poison queries: {profile.poison_queries}",
    ]
    if profile.counters:
        counter_rows = [[k, str(v)] for k, v in sorted(profile.counters.items())]
        lines += ["", render_table(["counter", "value"], counter_rows)]
    if profile.compile:
        stats = profile.compile.get("stats", {})
        rows = [
            ["enabled", str(profile.compile.get("enabled", False)).lower()],
            *[
                [name, str(stats.get(name, 0))]
                for name in ("plans_compiled", "plan_hits", "plan_misses", "fallback_calls")
            ],
        ]
        for reason, count in sorted(stats.get("fallback_reasons", {}).items()):
            rows.append([f"fallback: {reason}", str(count)])
        lines += ["", render_table(["plan cache", "value"], rows)]
    return "\n".join(lines)
