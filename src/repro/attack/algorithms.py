"""Generator training: the bivariate optimization of Eq. 10 (Section 5.3).

The objective couples two variables — the generator parameters ``phi`` and
the surrogate parameters ``theta_P``, where ``theta_P`` is itself the
result of ``K`` gradient-descent steps on the generated queries (Eq. 9).
Both algorithms below optimize it by differentiating *through* the update
(second-order gradients, provided by ``repro.nn``):

* :func:`train_generator_basic` — Fig. 5(a): alternate long phases; the
  generator trains for ``m`` steps against the surrogate committed at the
  previous phase (stale by the time it converges), then the surrogate is
  re-poisoned, ``q`` times. Complexity O(q * (m + n)) surrogate/generator
  updates.
* :func:`train_generator_accelerated` — Fig. 5(b) / Algorithm 1: interleave
  one-step surrogate updates with one-step generator updates so the two
  variables "interact in time". The virtual surrogate walks the K-step
  poisoned trajectory and is reset to the clean parameters every ``K``
  steps, mirroring the single K-step update the real DBMS will perform.

Both also run the detector confrontation (Section 6.2, Algorithm 1 lines
13-15) when a detector is supplied: flagged queries' reconstruction loss is
backpropagated into the generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.attack.detector import VAEAnomalyDetector
from repro.attack.generator import GeneratedBatch, PoisonQueryGenerator
from repro.ce.base import CardinalityEstimator
from repro.ce.trainer import training_loss, unrolled_update
from repro.db.executor import Executor
from repro.nn.compile import CompiledInput, compiled_call, compiled_forward
from repro.nn.losses import bce_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, grad, sanitize_scope
from repro.utils.errors import ExecutionBudgetError, TrainingError
from repro.utils.rng import derive_rng
from repro.workload.workload import Workload


#: Predicate-span target used to push empty queries back toward
#: satisfiable ranges, and the weight of that hinge penalty in the loss.
_EMPTY_TARGET_WIDTH = 0.6
_EMPTY_PENALTY_WEIGHT = 10.0


def _shrink_join_pattern(schema, pattern: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Remove the weakest non-articulation table from a join pattern.

    Used to retarget ``G_join`` when a pattern's join blows the execution
    budget; the result stays a valid (connected, non-empty) pattern.
    """
    names = schema.table_names
    tables = {names[i] for i in np.nonzero(pattern > 0.5)[0]}
    if len(tables) <= 2:
        return pattern
    # In a connected pattern, a table is an articulation point iff the
    # pattern falls apart without it.
    articulation = {t for t in tables if not schema.is_valid_join_set(tables - {t})}
    # Iterate in sorted order so score ties break the same way regardless
    # of set hash order.
    removable = sorted(
        (t for t in sorted(tables) if t not in articulation),
        key=lambda t: scores[schema.table_index(t)],
    )
    if not removable:
        return pattern
    shrunk = pattern.copy()
    shrunk[schema.table_index(removable[0])] = 0.0
    return shrunk


@dataclass
class GeneratorTrainConfig:
    """Hyper-parameters shared by both training algorithms.

    Attributes:
        poison_batch: queries generated per step (also the attack size).
        update_steps: the DBMS's incremental-update iterations ``K``.
        update_lr: learning rate of the incremental update (Eq. 9's eta).
        generator_lr: Adam rate for ``G_low``/``G_rng``.
        join_lr: Adam rate for ``G_join`` (Eq. 8 loss).
        iterations: generator updates for the accelerated algorithm (``n``).
        outer_loops/inner_steps: the basic algorithm's ``q`` and ``m``.
        detector: optional VAE adversary (Section 6).
        detector_weight: weight of the reconstruction loss term.
        escape_threshold/escape_boost: when the generator gradient norm
            falls below the threshold, boost the step to escape flat
            regions / local optima (Section 5.3's convergence remark).
    """

    poison_batch: int = 24
    update_steps: int = 5
    update_lr: float = 2.0
    generator_lr: float = 2e-2
    join_lr: float = 1e-2
    iterations: int = 40
    outer_loops: int = 8
    inner_steps: int = 8
    detector: VAEAnomalyDetector | None = None
    detector_weight: float = 1.0
    escape_threshold: float = 1e-5
    escape_boost: float = 10.0
    seed: int = 0


@dataclass
class GeneratorTrainResult:
    """Training artifacts and diagnostics."""

    generator: PoisonQueryGenerator
    objective_curve: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    flagged_counts: list[int] = field(default_factory=list)
    label_executions: int = 0


class _Session:
    """Shared state for one generator-training run."""

    def __init__(
        self,
        generator: PoisonQueryGenerator,
        surrogate: CardinalityEstimator,
        executor: Executor,
        test_workload: Workload,
        config: GeneratorTrainConfig,
    ) -> None:
        if len(test_workload) == 0:
            raise TrainingError("generator training needs a non-empty test workload")
        self.generator = generator
        self.surrogate = surrogate
        self.executor = executor
        self.config = config
        self.rng = derive_rng(config.seed)
        self.test_x = Tensor(test_workload.encode(surrogate.encoder))
        self.test_y = Tensor(surrogate.normalize_log(test_workload.cardinalities))
        bound_params = list(generator.g_low.parameters()) + list(generator.g_rng.parameters())
        self.bound_optimizer = Adam(bound_params, lr=config.generator_lr)
        self.bound_params = bound_params
        self.join_params = list(generator.g_join.parameters())
        self.join_optimizer = Adam(self.join_params, lr=config.join_lr)
        self.result = GeneratorTrainResult(generator=generator)
        # Clean surrogate parameters (the theta_0 of Eq. 9).
        self.clean_state = surrogate.state_dict()

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------
    def fresh_view(self, state: dict[str, np.ndarray] | None = None):
        """A functional surrogate clone with fresh leaf parameters."""
        state = state or self.clean_state
        mapping = {name: Tensor(value.copy(), requires_grad=True) for name, value in state.items()}
        return self.surrogate.clone_with_parameters(mapping), mapping

    def label_batch(
        self, batch: GeneratedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Labels via COUNT(*) on the decoded queries.

        Returns ``(labels_norm, nonempty_mask, oversized_mask)``.

        Empty queries matter: the DBMS eliminates zero-cardinality queries
        from its update, so the training loop must exclude them too —
        otherwise the generator converges to empty queries that poison the
        surrogate in simulation but do nothing to the real model. Oversized
        queries (COUNT(*) killed by the statement-timeout budget) are also
        unusable, but must *not* receive the emptiness penalty that widens
        predicates — they are already too wide.
        """
        queries = self.generator.to_queries(batch.encodings)
        cards = np.zeros(len(queries))
        oversized = np.zeros(len(queries), dtype=bool)
        for i, query in enumerate(queries):
            try:
                cards[i] = self.executor.count(query)
            except ExecutionBudgetError:
                oversized[i] = True
        self.result.label_executions += len(queries)
        nonempty = cards > 0
        labels = self.surrogate.normalize_log(np.maximum(cards, 1.0))
        return labels, nonempty, oversized

    def emptiness_penalty(self, batch: GeneratedBatch, empty_rows: np.ndarray) -> Tensor:
        """Pressure empty queries back toward fully open predicates.

        Pushes lows toward 0 and highs toward 1 on the empty rows. Unlike a
        width target, this has a guaranteed satisfiable fixed point: with
        all predicates open, a connected FK join always returns rows, so an
        empty query can always escape emptiness along this gradient.
        Masked attributes already encode as exactly [0, 1] and contribute
        nothing.
        """
        rows = batch.encodings[empty_rows]
        num_tables = self.generator.encoder.num_tables
        bounds = rows[:, num_tables:]
        batch_size, width = bounds.shape
        pairs = bounds.reshape((batch_size, width // 2, 2))
        lows = pairs[:, :, 0]
        highs = pairs[:, :, 1]
        return (lows * lows + (1.0 - highs) * (1.0 - highs)).mean()

    def join_step(self, batch: GeneratedBatch, oversized: np.ndarray | None = None) -> None:
        """Train G_join toward the accepted valid patterns (Eq. 8).

        When ``oversized`` marks rows whose COUNT(*) hit the execution
        budget, their targets are shrunk by one removable table (a
        non-articulation vertex with the lowest membership score) so the
        join generator is steered away from un-executable mega-joins.
        """
        if self.generator.encoder.num_tables == 1:
            return
        targets = batch.join_targets
        if oversized is not None and oversized.any():
            targets = targets.copy()
            for row in np.nonzero(oversized)[0]:
                targets[row] = _shrink_join_pattern(
                    self.generator.schema, targets[row], batch.join_probs.data[row]
                )
        loss = bce_loss(batch.join_probs, Tensor(targets))
        self.join_optimizer.zero_grad()
        loss.backward()
        self.join_optimizer.step()

    def _compiled_poisoning_objective(self, view, encodings: Tensor,
                                      labels_norm: np.ndarray, steps: int):
        """Eq. 10 through the JIT plan cache; ``None`` -> interpreted path.

        The returned objective is a super node whose only graph parent is
        ``encodings``, so the generator's interpreted graph picks up exactly
        where the compiled region ends.
        """
        named = list(view.named_parameters())
        names = [name for name, _ in named]
        params = [param for _, param in named]
        lr = self.config.update_lr

        def build(enc, lab, tx, ty, *param_tensors):
            inner = view.clone_with_parameters(dict(zip(names, param_tensors)))
            poisoned = unrolled_update(inner, enc, lab, steps=steps, lr=lr)
            return (poisoned(tx) - ty).abs().mean()

        outputs = compiled_call(
            ("attack.poisoning_objective", type(self.surrogate).__name__),
            build,
            [
                CompiledInput(encodings, diff=True, want_grad=True),
                CompiledInput(Tensor(labels_norm)),
                CompiledInput(self.test_x),
                CompiledInput(self.test_y),
                *[CompiledInput(p, diff=True) for p in params],
            ],
            static=(steps, repr(float(lr))),
        )
        return None if outputs is None else outputs[0]

    def poisoning_objective(self, view, encodings: Tensor, labels_norm: np.ndarray,
                            steps: int) -> Tensor:
        """Eq. 10's inner value: post-update test error (to be maximized)."""
        compiled = self._compiled_poisoning_objective(view, encodings, labels_norm, steps)
        if compiled is not None:
            return compiled
        poisoned = unrolled_update(
            view, encodings, Tensor(labels_norm),
            steps=steps, lr=self.config.update_lr,
        )
        prediction = poisoned(self.test_x)
        return (prediction - self.test_y).abs().mean()

    def generator_step(self, view, steps: int) -> float:
        """One generator update; returns the objective value."""
        config = self.config
        batch = self.generator.generate(config.poison_batch, self.rng)
        labels_norm, nonempty, oversized = self.label_batch(batch)
        self.join_step(batch, oversized=oversized)
        if nonempty.any():
            rows = np.nonzero(nonempty)[0]
            with sanitize_scope("attack.generator_step"):
                objective = self.poisoning_objective(
                    view, batch.encodings[rows], labels_norm[rows], steps
                )
        else:
            objective = Tensor(np.zeros(()))
        loss = objective * -1.0
        empty_rows = np.nonzero(~nonempty & ~oversized)[0]
        if empty_rows.size:
            loss = loss + self.emptiness_penalty(batch, empty_rows) * _EMPTY_PENALTY_WEIGHT

        flagged = 0
        if config.detector is not None:
            errors = config.detector.reconstruction_errors(batch.encodings.data)
            abnormal = np.nonzero(errors > config.detector.threshold)[0]
            flagged = int(abnormal.size)
            if flagged:
                abnormal_rows = batch.encodings[abnormal]
                recon = config.detector.reconstruction_loss(abnormal_rows)
                loss = loss + recon * config.detector_weight
        self.result.flagged_counts.append(flagged)

        if not loss.requires_grad:
            # Entire batch was unusable (e.g. every query hit the execution
            # budget): nothing to learn from this step.
            self.result.objective_curve.append(-float(objective.item()))
            return float(objective.item())

        grads = grad(loss, self.bound_params)
        norm = float(np.sqrt(sum(float((g.data**2).sum()) for g in grads)))
        boost = config.escape_boost if norm < config.escape_threshold else 1.0
        for p, g in zip(self.bound_params, grads):
            p.grad = Tensor(g.data * boost)
        self.bound_optimizer.step()
        self.bound_optimizer.zero_grad()

        self.result.objective_curve.append(-float(objective.item()))
        return float(objective.item())

    def simulate_attack_value(self, count: int, seed: int = 1234) -> float:
        """The attacker's own dress rehearsal of the final attack.

        Generates ``count`` queries with the *current* generator, labels
        them, applies the K-step update to a fresh clean surrogate
        (detached, empties dropped — exactly what the DBMS will do), and
        returns the resulting test error. Everything here is white-box on
        the surrogate, so a real attacker can compute it; it is the
        criterion used to select among generator snapshots.
        """
        rng = derive_rng(seed)
        batch = self.generator.generate(count, rng)
        labels_norm, nonempty, _oversized = self.label_batch(batch)
        if not nonempty.any():
            return 0.0
        rows = np.nonzero(nonempty)[0]
        x = batch.encodings[rows].detach()
        y = Tensor(labels_norm[rows])
        final = self._detached_steps(x, y, self.clean_state, self.config.update_steps)
        view, _ = self.fresh_view(final)
        from repro.nn.tensor import no_grad

        prediction = compiled_forward(view, self.test_x)
        if prediction is None:
            with no_grad():
                prediction = view(self.test_x)
        return float(np.abs(prediction.data - self.test_y.data).mean())

    def _detached_steps(
        self, x: Tensor, y: Tensor, state: dict[str, np.ndarray], steps: int
    ) -> dict[str, np.ndarray]:
        """Eq. 9's K GD steps from ``state``, detached (no taped unroll).

        Numerically identical to :func:`unrolled_update` followed by
        ``state_dict`` — ``create_graph`` only controls whether the backward
        pass is taped, never the gradient values — but never materializes
        the K-step graph, which is the attack loop's dominant cost.
        """
        compiled = self._compiled_detached_steps(x, y, state, steps)
        if compiled is not None:
            return compiled
        current = dict(state)
        for _ in range(steps):
            view, mapping = self.fresh_view(current)
            loss = training_loss(view, x, y)
            params = [mapping[name] for name in mapping]
            grads = grad(loss, params)
            current = {
                name: mapping[name].data - self.config.update_lr * g.data
                for name, g in zip(mapping, grads)
            }
        return current

    def _compiled_detached_steps(
        self, x: Tensor, y: Tensor, state: dict[str, np.ndarray], steps: int
    ) -> dict[str, np.ndarray] | None:
        """:meth:`_detached_steps` as one compiled plan; ``None`` -> interpreted.

        The traced update ``p - lr * g`` evaluates the same NumPy expression
        as the interpreted ``mapping[name].data - lr * g.data`` (IEEE
        multiplication and subtraction, same operand order), so the final
        state is bit-identical.
        """
        names = list(state)
        lr = self.config.update_lr

        def build(xi, yi, *values):
            current = list(values)
            for _ in range(steps):
                view = self.surrogate.clone_with_parameters(dict(zip(names, current)))
                loss = training_loss(view, xi, yi)
                grads = grad(loss, current)
                current = [p - lr * g for p, g in zip(current, grads)]
            return tuple(current)

        outputs = compiled_call(
            ("attack.detached_steps", type(self.surrogate).__name__),
            build,
            [
                CompiledInput(x),
                CompiledInput(y),
                *[CompiledInput(Tensor(state[name]), diff=True) for name in names],
            ],
            static=(steps, repr(float(lr))),
            # Compiled detached steps save well under a millisecond per
            # call against a trace costing tens of milliseconds; only
            # long-running sessions that reuse one shape across dozens of
            # snapshots come out ahead.
            min_uses=32,
        )
        if outputs is None:
            return None
        return {name: out.data for name, out in zip(names, outputs)}

    def commit_update(self, state: dict[str, np.ndarray], steps: int) -> dict[str, np.ndarray]:
        """Advance surrogate parameters ``steps`` detached GD steps (Eq. 9).

        Mirrors the DBMS: zero-cardinality queries are excluded; if the
        whole batch is empty the parameters stay put.
        """
        batch = self.generator.generate(self.config.poison_batch, self.rng)
        labels_norm, nonempty, _oversized = self.label_batch(batch)
        if not nonempty.any():
            return dict(state)
        rows = np.nonzero(nonempty)[0]
        x = batch.encodings[rows].detach()
        y = Tensor(labels_norm[rows])
        with sanitize_scope("attack.commit_update"):
            return self._detached_steps(x, y, state, steps)


def train_generator_accelerated(
    generator: PoisonQueryGenerator,
    surrogate: CardinalityEstimator,
    executor: Executor,
    test_workload: Workload,
    config: GeneratorTrainConfig | None = None,
) -> GeneratorTrainResult:
    """Fig. 5(b) / Algorithm 1: generator and surrogate interact every step.

    Each iteration performs exactly one generator update against the fully
    unrolled K-step surrogate update *from the clean parameters* — the
    scenario the real attack will face (Eq. 10 with Eq. 9's K-step update).
    Because the surrogate trajectory is re-derived from the current
    generator every iteration, the two variables stay synchronized; no
    update is spent against a stale counterpart. Total work: ``iterations``
    generator updates, each with one K-step unroll.

    Because the per-step objective holds labels fixed while the true labels
    move with the queries, the training trajectory passes through several
    qualitatively different attack modes (saturating wide queries, then
    capacity-conflict slivers, then — if pushed too far — collapse into
    unsatisfiable queries). The algorithm therefore snapshots the generator
    periodically and finally keeps the snapshot whose *simulated full
    attack* (K detached update steps on a clean surrogate, empties dropped,
    labels recomputed — everything the attacker can compute white-box) does
    the most damage.
    """
    config = config or GeneratorTrainConfig()
    session = _Session(generator, surrogate, executor, test_workload, config)
    start = time.perf_counter()
    snapshot_every = max(config.iterations // 6, 1)
    snapshots: list[dict[str, np.ndarray]] = []
    for iteration in range(config.iterations):
        view, _ = session.fresh_view()
        session.generator_step(view, steps=config.update_steps)
        if (iteration + 1) % snapshot_every == 0 or iteration == config.iterations - 1:
            snapshots.append(generator.state_dict())
    best_value, best_state = -np.inf, None
    for state in snapshots:
        generator.load_state_dict(state)
        # Average two rehearsal batches to de-noise the criterion, and
        # prefer later snapshots on (near-)ties: training sharpens queries
        # monotonically once it finds an attack mode.
        value = 0.5 * (
            session.simulate_attack_value(config.poison_batch, seed=config.seed + 9999)
            + session.simulate_attack_value(config.poison_batch, seed=config.seed + 5555)
        )
        if value >= best_value * 0.98:
            best_value, best_state = max(value, best_value), state
    if best_state is not None:
        generator.load_state_dict(best_state)
    session.result.wall_seconds = time.perf_counter() - start
    return session.result


def rehearsal_value(
    generator: PoisonQueryGenerator,
    surrogate: CardinalityEstimator,
    executor: Executor,
    test_workload: Workload,
    config: GeneratorTrainConfig,
    seed: int = 777,
) -> float:
    """Attacker-side value of a trained generator (see
    :meth:`_Session.simulate_attack_value`); used to compare restarts."""
    session = _Session(generator, surrogate, executor, test_workload, config)
    return session.simulate_attack_value(config.poison_batch, seed=seed)


def train_generator_basic(
    generator: PoisonQueryGenerator,
    surrogate: CardinalityEstimator,
    executor: Executor,
    test_workload: Workload,
    config: GeneratorTrainConfig | None = None,
) -> GeneratorTrainResult:
    """Fig. 5(a): alternate long phases (the ablation baseline).

    Each outer loop (``q`` = ``outer_loops``) first commits a full K-step
    poisoning of the surrogate with the *current* generator, starting from
    the clean parameters (the paper's step 3), then trains the generator
    for ``m`` = ``inner_steps`` steps treating that committed, now
    increasingly stale state as the unroll's starting point (the paper's
    step 2, "treat theta_P as constants"). The two variables synchronize
    only once per outer loop, so most generator updates chase a surrogate
    the current generator would no longer produce — the wasted work and
    misalignment the accelerated algorithm removes (Lemma 2).
    """
    config = config or GeneratorTrainConfig()
    session = _Session(generator, surrogate, executor, test_workload, config)
    start = time.perf_counter()
    for _outer in range(config.outer_loops):
        stale = session.commit_update(dict(session.clean_state), steps=config.update_steps)
        for _inner in range(config.inner_steps):
            view, _ = session.fresh_view(stale)
            session.generator_step(view, steps=config.update_steps)
    session.result.wall_seconds = time.perf_counter() - start
    return session.result
