"""Compiled-vs-interpreted equivalence sweep: the JIT's numerics gate.

``repro.nn.compile`` promises that a compiled region returns *exactly*
what the interpreter would have returned — the fallback path is bitwise
identical by construction, so the compiled path must be too. This module
checks that promise end to end for every estimator family by running the
**real** call-site wiring helpers (not re-derived equivalents) twice —
once interpreted, once force-compiled — and comparing every produced
array:

- ``compiled_forward`` — batched inference (``estimate_encoded``/serve);
- ``ce.trainer._compiled_batch_loss`` — training loss + parameter grads;
- ``ce.trainer._compiled_update_run`` via ``incremental_update`` — the
  DBMS's K-step update (per-step losses and final parameters);
- ``attack.algorithms._Session._compiled_poisoning_objective`` — the
  second-order path: Eq. 10's unrolled-update objective and its gradient
  w.r.t. the poison encodings;
- ``attack.algorithms._Session._compiled_detached_steps`` — Eq. 9's
  detached K-step simulation (the attack loop's snapshot-selection path).

``pace-repro analyze`` runs the sweep by default (``--fast`` skips it)
and reports its verdict under ``equivalence`` in the JSON output.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

#: Families under test; mirrors ``repro.ce.MODEL_TYPES`` but pinned here
#: so a drift between the two is caught by the sweep's own coverage check
#: instead of silently shrinking the gate.
FAMILIES: tuple[str, ...] = ("fcn", "fcn_pool", "mscn", "rnn", "lstm", "linear")

#: Allowed |compiled - interpreted| per element. The design target is
#: exact (0.0); the tolerance only exists so the gate degrades into a
#: loud-but-diagnosable failure mode instead of a hard boolean.
DEFAULT_TOLERANCE = 1e-9

#: Unrolled-update depth for the second-order case (kept small: the
#: sweep runs inside ``pace-repro analyze``).
_UPDATE_STEPS = 3


@dataclass
class EquivalenceCase:
    """One compiled-vs-interpreted comparison."""

    name: str
    max_abs_diff: float
    byte_identical: bool
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_diff": self.max_abs_diff,
            "byte_identical": self.byte_identical,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class EquivalenceResult:
    """Sweep verdict across all families and compiled paths."""

    cases: list[EquivalenceCase] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(c.passed for c in self.cases)

    @property
    def byte_identical(self) -> bool:
        return bool(self.cases) and all(c.byte_identical for c in self.cases)

    @property
    def max_abs_diff(self) -> float:
        return max((c.max_abs_diff for c in self.cases), default=float("inf"))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "byte_identical": self.byte_identical,
            "max_abs_diff": self.max_abs_diff,
            "cases": [c.as_dict() for c in self.cases],
        }

    def __getitem__(self, key: str):
        return self.as_dict()[key]


@contextlib.contextmanager
def _force_compiled():
    """Compiled execution on, threshold 1 (compile immediately)."""
    from repro.nn.compile import (
        compile_threshold,
        compiled_execution,
        set_compile_threshold,
    )

    previous = compile_threshold()
    set_compile_threshold(1)
    try:
        with compiled_execution(True):
            yield
    finally:
        set_compile_threshold(previous)


def _compare(name: str, pairs: list[tuple[np.ndarray, np.ndarray]],
             tolerance: float) -> EquivalenceCase:
    worst = 0.0
    for interpreted, compiled in pairs:
        interpreted = np.asarray(interpreted)
        compiled = np.asarray(compiled)
        if interpreted.shape != compiled.shape:
            return EquivalenceCase(
                name=name, max_abs_diff=float("inf"), byte_identical=False,
                passed=False,
                detail=f"shape mismatch {interpreted.shape} vs {compiled.shape}",
            )
        diff = float(np.max(np.abs(interpreted - compiled))) if interpreted.size else 0.0
        worst = max(worst, diff)
    return EquivalenceCase(
        # Exactness is the point: "byte identical" means a diff of exactly
        # zero, not merely within tolerance.
        name=name, max_abs_diff=worst, byte_identical=worst == 0.0,  # noqa: R005
        passed=worst <= tolerance,
    )


def _declined(name: str, helper: str) -> EquivalenceCase:
    return EquivalenceCase(
        name=name, max_abs_diff=float("inf"), byte_identical=False, passed=False,
        detail=f"{helper} declined compilation under force mode",
    )


def run_equivalence(seed: int = 0, tolerance: float = DEFAULT_TOLERANCE) -> EquivalenceResult:
    """Run the sweep; resets the plan cache so every path truly compiles.

    A stale negative-cache entry (e.g. a site declined as unprofitable by
    an earlier benchmark in the same process) would silently turn the
    compiled side into the interpreted one and make the sweep vacuous, so
    the cache is cleared up front.
    """
    from repro.attack.algorithms import _Session
    from repro.ce.registry import create_model
    from repro.ce.trainer import _compiled_batch_loss, incremental_update
    from repro.datasets.registry import load_dataset
    from repro.db.executor import Executor
    from repro.nn.compile import compiled_execution, compiled_forward, reset_compile_state
    from repro.nn.losses import mse_loss
    from repro.nn.tensor import Tensor, grad, no_grad
    from repro.workload.encoding import QueryEncoder
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.workload import Workload

    class _ObjectiveHarness:
        """Carries exactly the ``_Session`` attributes the Eq. 9/Eq. 10
        helpers read, so the sweep runs the *real* unbound methods."""

        poisoning_objective = _Session.poisoning_objective
        _compiled_poisoning_objective = _Session._compiled_poisoning_objective
        _detached_steps = _Session._detached_steps
        _compiled_detached_steps = _Session._compiled_detached_steps
        fresh_view = _Session.fresh_view

        def __init__(self, surrogate, test_x, test_y, update_lr):
            self.surrogate = surrogate
            self.clean_state = surrogate.state_dict()
            self.test_x = test_x
            self.test_y = test_y
            self.config = type("Cfg", (), {"update_lr": update_lr})()

    reset_compile_state()
    database = load_dataset("tpch", scale="smoke", seed=seed)
    executor = Executor(database)
    encoder = QueryEncoder(database.schema)
    gen = WorkloadGenerator(database, seed=seed)
    workload = Workload.from_queries(
        [gen.random_query(max_tables=3) for _ in range(16)], executor
    )
    encodings = np.array(workload.encode(encoder), copy=True)
    cards = workload.cardinalities

    result = EquivalenceResult()
    for family in FAMILIES:
        def fresh():
            model = create_model(family, encoder, hidden_dim=8, seed=seed)
            model.calibrate_normalization(cards)
            return model

        model = fresh()
        y_norm = model.normalize_log(cards)
        x = Tensor(encodings)
        y = Tensor(y_norm)

        # -- forward (inference wiring: estimate_encoded / serve) -------
        with compiled_execution(False), no_grad():
            interp_out = fresh()(x).data.copy()
        with _force_compiled():
            compiled_out = compiled_forward(fresh(), x)
        if compiled_out is None:
            result.cases.append(_declined(f"{family}.forward", "compiled_forward"))
        else:
            result.cases.append(_compare(
                f"{family}.forward", [(interp_out, compiled_out.data)], tolerance
            ))

        # -- training step (loss value + every parameter gradient) ------
        interp_model = fresh()
        with compiled_execution(False):
            loss = mse_loss(interp_model(x), y)
            interp_model.zero_grad()
            loss.backward()
        interp_grads = [
            (p.grad.data.copy() if p.grad is not None else np.zeros_like(p.data))
            for p in interp_model.parameters()
        ]
        compiled_model = fresh()
        with _force_compiled():
            closs = _compiled_batch_loss(compiled_model, x, y)
            if closs is None:
                result.cases.append(_declined(f"{family}.train_step", "_compiled_batch_loss"))
            else:
                compiled_model.zero_grad()
                closs.backward()
                compiled_grads = [
                    (p.grad.data.copy() if p.grad is not None else np.zeros_like(p.data))
                    for p in compiled_model.parameters()
                ]
                result.cases.append(_compare(
                    f"{family}.train_step",
                    [(loss.data, closs.data), *zip(interp_grads, compiled_grads)],
                    tolerance,
                ))

        # -- incremental update (per-step losses + final parameters) ----
        interp_model = fresh()
        with compiled_execution(False):
            interp_losses = incremental_update(interp_model, workload)
        compiled_model = fresh()
        with _force_compiled():
            compiled_losses = incremental_update(compiled_model, workload)
        result.cases.append(_compare(
            f"{family}.incremental_update",
            [
                (np.asarray(interp_losses), np.asarray(compiled_losses)),
                *zip(
                    (p.data for p in interp_model.parameters()),
                    (p.data for p in compiled_model.parameters()),
                ),
            ],
            tolerance,
        ))

        # -- detached update steps (Eq. 9 simulation path) --------------
        harness = _ObjectiveHarness(model, x, y, update_lr=2.0)
        state = model.state_dict()
        with compiled_execution(False):
            interp_state = harness._detached_steps(x, y, state, _UPDATE_STEPS)
        with _force_compiled():
            compiled_state = harness._compiled_detached_steps(x, y, state, _UPDATE_STEPS)
        if compiled_state is None:
            result.cases.append(_declined(
                f"{family}.detached_steps", "_compiled_detached_steps"
            ))
        else:
            result.cases.append(_compare(
                f"{family}.detached_steps",
                [(interp_state[name], compiled_state[name]) for name in state],
                tolerance,
            ))

        # -- second order (Eq. 10 objective + d/d-encodings) ------------
        poison_i = Tensor(encodings.copy(), requires_grad=True)
        with compiled_execution(False):
            obj_i = harness.poisoning_objective(fresh(), poison_i, y_norm, _UPDATE_STEPS)
            (grad_i,) = grad(obj_i, [poison_i])
        poison_c = Tensor(encodings.copy(), requires_grad=True)
        with _force_compiled():
            obj_c = harness._compiled_poisoning_objective(
                fresh(), poison_c, y_norm, _UPDATE_STEPS
            )
            if obj_c is None:
                result.cases.append(_declined(
                    f"{family}.second_order", "_compiled_poisoning_objective"
                ))
                continue
            (grad_c,) = grad(obj_c, [poison_c])
        result.cases.append(_compare(
            f"{family}.second_order",
            [(obj_i.data, obj_c.data), (grad_i.data, grad_c.data)],
            tolerance,
        ))
    return result
