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
incumbent's fitness is kept with its coordinates, so a phase costs exactly
``se`` evaluations, plus ``se`` more if its translation fires.  Non-finite
values follow one rule: they count as +inf, and +inf never wins a strict
comparison.

:func:`sta_run` drives one seed's loop, the private generator ``_walk``, which
yields each clamped batch, is sent its best ``(y, fy)`` and never scores.  The
run answers every batch, ``_start``'s initial one included, with one call,
``_best``, through the ``_score`` of its one :class:`~stapy.core.CallCounter`,
which counts every point.  Its kernels check nothing and run on plain arrays
under one ``np.errstate(all="ignore")``.  Only :func:`initialize` and
:func:`select_best` wrap a kernel in public: they validate their arguments
once, then call it under their own guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    _count,
    _instance,
    _quietly,
    _quoted,
    _readonly,
    _real,
)
from .operators import _axes, _expand, _rotate, _translate

__all__ = ["RunState", "EvaluationError", "RunAborted", "initialize", "select_best", "sta_run"]


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
    """Best of ``se`` points (an integer >= 1) drawn coordinate-wise uniformly over the box.

    Draws: one ``rng.uniform(space.lower, space.upper, (se, space.dim))`` block.

    Selection follows :func:`select_best`, and :class:`EvaluationError` is raised
    when no initial point has a finite value, as in :func:`sta_run`.  Before any
    draw, a ``space`` that is not a :class:`SearchSpace`, an ``rng`` that is not a
    :class:`RandomSource` or a non-callable ``objective`` raises TypeError.
    """
    space, se = _instance(space, SearchSpace, "space"), _count(se, "se")
    rng, evals = _instance(rng, RandomSource, "rng"), CallCounter(objective)
    return Solution(*_quietly(_start, evals, space, se, rng))


def _start(evals: CallCounter, space: SearchSpace, se: int, rng: RandomSource) -> tuple[Array, float]:
    x, fx = _best(evals, rng.uniform(space.lower, space.upper, (se, space.dim)))
    if fx == np.inf:
        raise EvaluationError("objective is non-finite at every initial point")
    return x, fx


def _clamp(batch: Array, space: SearchSpace) -> Array:
    np.fmax(batch, space.lower, out=batch)
    return np.fmin(batch, space.upper, out=batch)


def select_best(objective: ObjectiveFn, batch: Array) -> Solution:
    """Row with the smallest objective value; ties go to the lowest index.

    This is the one selection rule of the engine (``_best``), used by
    :func:`initialize` and by every phase.  A non-finite value counts as
    +inf, which never wins, so a batch with no finite value gives row 0 at
    fitness ``inf``.  Raises :class:`ValueError` on an empty or non-2-D batch,
    and TypeError on a non-callable objective or a batch not of integers or floats.
    """
    batch = _readonly(batch, "batch", 2)
    return Solution(*_quietly(_best, CallCounter(objective), batch))


def _best(evals: CallCounter, batch: Array) -> tuple[Array, float]:
    values = evals._score(batch)
    g = int(values.argmin())  # the first NaN if any, else the first -inf, else the minimum
    if not math.isfinite(values[g]):
        values = np.where(np.isfinite(values), values, np.inf)
        g = int(values.argmin())
    return batch[g], float(values[g])


def _walk(space: SearchSpace, x: Array, fx: float, params: StaParams, rng: RandomSource):
    # Yields each clamped batch for its best (y, fy); ends each iteration with (x, fx, alpha).
    alpha = params.alpha_max
    while True:
        if alpha < params.alpha_min:
            alpha = params.alpha_max
        for sample, factor in ((_expand, params.gamma), (_rotate, alpha), (_axes, params.delta)):
            y, fy = yield _clamp(sample(x, params.se, factor, rng), space)
            if fy < fx:  # strict improvement, then chase it with a translation
                z, fz = yield _clamp(_translate(x, y, params.se, params.beta, rng), space)
                x, fx = (z, fz) if fz < fy else (y, fy)
        yield x, fx, alpha  # the marker: the run records the incumbent once per iteration
        alpha = alpha / params.fc


def sta_run(
    objective: ObjectiveFn,
    space: SearchSpace,
    params: Optional[StaParams] = None,
    rng: RandomSource | int | None = None,
    target_fitness: Optional[float] = None,
    observer: Optional[Callable[[RunState], None]] = None,
) -> RunResult:
    """Run the full optimization loop and return its result.

    A run counts its evaluations in a ``CallCounter`` of its own.  Its
    objective and observer run under its ``np.errstate(all="ignore")``: their
    warnings are silenced, and a non-finite value follows the +inf rule.

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
        Random source, or a seed for a fresh one (default 0, see
        :class:`RandomSource`); a fresh source or a seed makes runs reproducible.
    target_fitness : float, optional
        Convenience early stop, off by default: the loop ends after the first
        iteration whose incumbent fitness is <= this value, truncating the
        history accordingly.  NaN or +-inf raises ValueError before any evaluation.
    observer : callable, optional
        Instrumentation hook called once per completed iteration with a
        :class:`RunState` snapshot.

    Raises
    ------
    TypeError
        Before any draw or evaluation, when ``objective`` or a given
        ``observer`` is not callable, ``space`` is not a :class:`SearchSpace`,
        or ``params`` is neither ``None`` nor a :class:`StaParams`.
    RunAborted
        When the objective raises, its values break the rule of :mod:`stapy.core`
        (TypeError), or no initial point has a finite value.  The exception carries
        the partial result (its count runs through the row or batch that raised, or
        a rejected value's whole batch); the original error is chained as ``__cause__``.
    """
    evals = CallCounter(objective)  # a non-callable objective raises here
    if observer is not None and not callable(observer):
        raise TypeError(f"observer must be callable or None, got {_quoted(observer)}")
    _instance(space, SearchSpace, "space")
    params = StaParams() if params is None else _instance(params, StaParams, "params")
    if target_fitness is not None:
        target_fitness = _real(target_fitness, "target_fitness")
    if not isinstance(rng, RandomSource):
        rng = RandomSource(0 if rng is None else rng)

    def result() -> RunResult:  # best, fbest, history, evaluations, seed
        return RunResult(x, fx, history, evals.count, rng.seed)

    x: Optional[Array] = None
    history: list[float] = []
    try:
        with np.errstate(all="ignore"):  # one guard per run, around the objective too
            x, fx = _start(evals, space, params.se, rng)
            walk = _walk(space, x, fx, params, rng)
            for iteration in range(1, params.iterations + 1):
                step = next(walk)
                while not isinstance(step, tuple):  # a batch: the run's one scoring call
                    step = walk.send(_best(evals, step))
                x, fx, alpha = step
                history.append(fx)
                if observer is not None:
                    observer(RunState(Solution(x, fx), alpha, iteration, evals.count))
                if target_fitness is not None and fx <= target_fitness:
                    break
    except Exception as err:
        raise RunAborted(
            f"run aborted after {len(history)} completed iteration(s): {err}",
            partial=None if x is None else result(),
        ) from err
    return result()
