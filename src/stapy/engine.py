"""The greedy optimization loop built on top of the four samplers.

Each outer iteration runs an expansion, a rotation, and an axesion phase, in
that order.  A phase samples ``se`` candidates around the incumbent, clamps
them into the box, keeps the best one on strict improvement, and only then
chases the improvement with a translation batch along the old-to-new
direction.  The rotation radius ``alpha`` decays geometrically by ``fc`` each
iteration and resets to ``alpha_max`` once it drops below ``alpha_min``.

Conceptually every sampler is one instance of the linear update
``x_next = A @ x + B @ u`` with random transition matrices; the umbrella form
never appears at runtime, only its four concrete instances from
:mod:`stapy.operators`.

Raw out-of-box samples are never evaluated: projection clamps them in place
before every fitness call, a NaN coordinate to its lower bound.  The
incumbent's fitness is cached in its :class:`~stapy.core.Solution`, so a
phase costs exactly ``se`` evaluations, plus ``se`` more if its translation
fires.  Non-finite values follow one rule: they count as +inf, and +inf
never wins a strict comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional, Union

import numpy as np

from .core import (
    Array,
    CallCounter,
    ObjectiveFn,
    RandomSource,
    RunResult,
    SearchSpace,
    Solution,
    StaParams,
    evaluate_batch,
)
from .operators import op_axes, op_expand, op_rotate, op_translate

__all__ = [
    "PhaseKind",
    "RunState",
    "EvaluationError",
    "RunAborted",
    "initialize",
    "project",
    "select_best",
    "greedy_update",
    "phase",
    "sta_run",
]

PhaseKind = Literal["expansion", "rotation", "axesion"]

#: Phase execution order within one outer iteration.
PHASE_ORDER: tuple[PhaseKind, ...] = ("expansion", "rotation", "axesion")


class EvaluationError(RuntimeError):
    """No initial point has a finite value; raised only at initialization."""


class RunAborted(RuntimeError):
    """An objective error stopped a run; ``partial`` holds what completed.

    ``partial`` is a :class:`~stapy.core.RunResult` covering the iterations
    that finished before the failure, or ``None`` if initialization itself
    failed.
    """

    def __init__(self, message: str, partial: Optional[RunResult] = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RunState:
    """Per-iteration snapshot passed to the observer hook of :func:`sta_run`.

    ``alpha`` is the rotation radius in effect during this iteration (after
    any reset, before the decay step); ``iteration`` is 1-based.
    """

    best: Solution
    alpha: float
    iteration: int
    evaluations: int


def initialize(
    space: SearchSpace, se: int, rng: RandomSource, objective: ObjectiveFn
) -> Solution:
    """Best of ``se`` points drawn coordinate-wise uniformly over the box.

    Selection follows :func:`select_best`.  The only place the engine raises
    :class:`EvaluationError`: when no initial point has a finite value.
    """
    u = rng.uniform(0.0, 1.0, (se, space.dim))
    best = select_best(objective, space.lower + u * (space.upper - space.lower))
    if best.fitness == np.inf:
        raise EvaluationError("objective is non-finite at every initial point")
    return best


def project(batch: Array, space: SearchSpace) -> Array:
    """Clamp every sample into the box in place (a non-float input is copied first).

    A NaN coordinate goes to its lower bound, so no sample leaves the box.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.shape[-1] != space.dim:
        raise ValueError(f"batch rows have length {batch.shape[-1]}, space has dim {space.dim}")
    np.fmax(batch, space.lower, out=batch)
    return np.fmin(batch, space.upper, out=batch)


def select_best(objective: ObjectiveFn, batch: Array) -> Solution:
    """Row with the smallest objective value; ties go to the lowest index.

    This is the one selection rule of the engine, used by :func:`initialize`
    and by every phase.  A non-finite value counts as +inf, which never wins,
    so a batch with no finite value gives row 0 at fitness ``inf``.  Raises
    :class:`ValueError` on an empty or non-2-D batch.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.size == 0:
        raise ValueError(f"batch must be a non-empty 2-D array, got shape {batch.shape}")
    values = evaluate_batch(objective, batch)
    values = np.where(np.isfinite(values), values, np.inf)
    g = int(np.argmin(values))
    return Solution(batch[g], float(values[g]))


def greedy_update(incumbent: Solution, candidate: Solution) -> Solution:
    """Keep the candidate only on strict fitness improvement."""
    return candidate if candidate.fitness < incumbent.fitness else incumbent


def phase(
    kind: PhaseKind,
    objective: ObjectiveFn,
    space: SearchSpace,
    incumbent: Solution,
    params: StaParams,
    rng: RandomSource,
    alpha: Optional[float] = None,
) -> Solution:
    """One sampler application plus the conditional translation chase.

    Samples ``se`` candidates with the operator for ``kind``, clamps them into
    the box, and greedily updates the incumbent.  If and only if that
    strictly improved the incumbent, a translation batch from the old to the
    new incumbent is sampled, clamped, and greedily applied as well.

    ``alpha`` is the current annealed rotation radius and defaults to
    ``params.alpha_max``; it is ignored unless ``kind == "rotation"``.  A
    batch with no finite value has fitness ``inf`` and never improves.
    Returned fitness never exceeds the input fitness and the returned
    coordinates are always feasible.
    """
    if kind == "expansion":
        batch = op_expand(incumbent.coords, params.se, params.gamma, rng)
    elif kind == "rotation":
        radius = params.alpha_max if alpha is None else float(alpha)
        batch = op_rotate(incumbent.coords, params.se, radius, rng)
    elif kind == "axesion":
        batch = op_axes(incumbent.coords, params.se, params.delta, rng)
    else:
        raise ValueError(f"unknown phase kind {kind!r}")

    candidate = select_best(objective, project(batch, space))
    if not candidate.fitness < incumbent.fitness:
        return incumbent

    chase = op_translate(
        incumbent.coords, candidate.coords, params.se, params.beta, rng
    )
    chased = select_best(objective, project(chase, space))
    return greedy_update(candidate, chased)


def sta_run(
    objective: ObjectiveFn,
    space: SearchSpace,
    params: Optional[StaParams] = None,
    rng: Union[RandomSource, int, None] = None,
    target_fitness: Optional[float] = None,
    observer: Optional[Callable[[RunState], None]] = None,
) -> RunResult:
    """Run the full optimization loop and return its result.

    Parameters
    ----------
    objective : callable
        Scalar objective; may advertise ``supports_batch`` (see
        :mod:`stapy.core`).
    space : SearchSpace
        Feasible box.
    params : StaParams, optional
        Algorithm constants; defaults to ``StaParams()``.
    rng : RandomSource or int, optional
        Random source, or a seed (any integer, numpy integers included) for
        a fresh one; default seed 0.  Pass a fresh source (or just the seed)
        to make runs reproducible.
    target_fitness : float, optional
        Convenience early stop, off by default: the loop ends after the first
        iteration whose incumbent fitness is <= this value, truncating the
        history accordingly.
    observer : callable, optional
        Instrumentation hook called once per completed iteration with a
        :class:`RunState` snapshot.

    Raises
    ------
    RunAborted
        When the objective raises or returns an unusable batch, or when no
        initial point has a finite value.  The exception carries the partial
        result; the original error is chained as ``__cause__``.
    """
    if params is None:
        params = StaParams()
    if not isinstance(rng, RandomSource):
        rng = RandomSource(0 if rng is None else rng)
    counting = CallCounter(objective)

    def partial_result(best: Optional[Solution], history: list) -> Optional[RunResult]:
        if best is None:
            return None
        return RunResult(
            best=best.coords,
            fbest=best.fitness,
            history=np.asarray(history, dtype=float),
            evaluations=counting.count,
            seed=rng.seed,
        )

    best: Optional[Solution] = None
    history: list[float] = []
    try:
        best = initialize(space, params.se, rng, counting)
        alpha = params.alpha_max
        for iteration in range(1, params.iterations + 1):
            if alpha < params.alpha_min:
                alpha = params.alpha_max
            incumbent = best  # ``best`` moves once per iteration, in step with history
            for kind in PHASE_ORDER:
                incumbent = phase(kind, counting, space, incumbent, params, rng, alpha=alpha)
            best = incumbent
            history.append(best.fitness)
            if observer is not None:
                observer(RunState(best, alpha, iteration, counting.count))
            alpha = alpha / params.fc
            if target_fitness is not None and best.fitness <= target_fitness:
                break
    except Exception as err:
        raise RunAborted(
            f"run aborted after {len(history)} completed iteration(s): {err}",
            partial=partial_result(best, history),
        ) from err
    return partial_result(best, history)
