"""Shared domain types: search space, solutions, parameters, random source.

Conventions used throughout the package:

* Fitness is always "lower is better"; there is no maximization mode.
* A sample batch is a plain ``(se, n)`` float array, one candidate per row.
* Objectives are callables mapping a length-``n`` float vector to a scalar.
  An objective may additionally advertise ``supports_batch = True``, meaning
  it also accepts an ``(m, n)`` array and returns ``m`` values; this is pure
  sugar with semantics identical to mapping the scalar form over the rows.
  Objectives are expected to be deterministic and finite inside the box.
* Types that hold arrays compare and hash by identity; compare the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
ObjectiveFn = Callable[[Array], float]

#: Guard added to Euclidean norms before division, so zero-norm states do
#: not divide by zero (they become multiplicative fixed points instead).
EPS = float(np.finfo(np.float64).eps)


def _readonly(values, dtype=float) -> Array:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box of feasible solutions.

    Parameters
    ----------
    lower, upper : array_like, shape (n,)
        Finite per-coordinate bounds with ``lower[i] < upper[i]`` strictly
        and a finite width ``upper[i] - lower[i]``, so uniform initialization
        over the box is well defined.
    """

    lower: Array
    upper: Array

    def __post_init__(self):
        lower = _readonly(self.lower)
        upper = _readonly(self.upper)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ValueError("search space needs at least one dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            bad = int(np.argmin(upper - lower))
            raise ValueError(
                f"lower bound must be strictly below upper bound "
                f"(coordinate {bad}: [{lower[bad]}, {upper[bad]}])"
            )
        with np.errstate(over="ignore"):
            if not np.isfinite(upper - lower).all():
                raise ValueError("box width upper - lower overflows to inf")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def uniform(cls, dim: int, lo: float, hi: float) -> "SearchSpace":
        """Box with the same ``[lo, hi]`` interval on every coordinate."""
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    def contains(self, x: Array) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lower).all() and (x <= self.upper).all())


@dataclass(frozen=True, eq=False)
class Solution:
    """An evaluated state: read-only coordinates and their objective value."""

    coords: Array
    fitness: float

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords))
        object.__setattr__(self, "fitness", float(self.fitness))


@dataclass(frozen=True)
class StaParams:
    """Algorithm constants, all finite.

    ``alpha_max``/``alpha_min`` bracket the annealed rotation radius, ``beta``
    is the translation step cap, ``gamma`` and ``delta`` scale the expansion
    and single-axis perturbations, ``se`` is the number of samples drawn per
    operator application (degree of search enforcement), ``fc`` the geometric
    decay base of the rotation radius, and ``iterations`` the outer-loop
    budget.  Use :func:`dataclasses.replace` to override single fields.
    """

    alpha_max: float = 1.0
    alpha_min: float = 1e-4
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    se: int = 30
    fc: float = 2.0
    iterations: int = 1000

    def __post_init__(self):
        for name in ("alpha_max", "alpha_min", "beta", "gamma", "delta", "fc"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("se", "iterations"):
            value = getattr(self, name)
            if not (abs(value) < np.inf and int(value) == value):
                raise ValueError(f"{name} must be a finite integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.alpha_min <= self.alpha_max:
            raise ValueError(
                f"need 0 < alpha_min <= alpha_max, got "
                f"alpha_min={self.alpha_min}, alpha_max={self.alpha_max}"
            )
        for name in ("beta", "gamma", "delta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.se < 1:
            raise ValueError(f"se must be >= 1, got {self.se}")
        if not self.fc > 1.0:
            raise ValueError(f"fc must be > 1, got {self.fc}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


class RandomSource:
    """Seedable stream of the three draw kinds the samplers consume.

    Backed by numpy's PCG64 generator.  Identical seeds and identical call
    sequences reproduce identical streams within this implementation;
    bit-compatibility with other generators is not a goal.  Instances are
    single-owner mutable state: share between threads only with external
    synchronization.
    """

    def __init__(self, seed: int = 0):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, low: float, high: float, size=None, out=None):
        """Uniform reals on [low, high], written into the float64 array ``out`` if given."""
        if out is None or not abs(high - low) < np.inf:  # a non-finite range raises OverflowError
            return self._gen.uniform(low, high, size)
        self._gen.random(out=out)
        out *= high - low
        out += low
        return out

    def normal(self, size=None):
        """Standard normal reals (mean 0, variance 1)."""
        return self._gen.standard_normal(size)

    def integers(self, n: int, size=None):
        """Uniform integers on {1, ..., n}."""
        return self._gen.integers(1, int(n) + 1, size=size)

    def __repr__(self):
        return f"{type(self).__name__}(seed={self.seed})"


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one optimization run.

    ``history`` holds the incumbent fitness recorded once per completed outer
    iteration and is always non-increasing with ``history[-1] == fbest``.  It
    has one entry per completed iteration, which equals the configured budget
    unless an early stop fired.  ``evaluations`` counts objective evaluations
    (points, not batch calls).  ``seed`` is the construction seed of the
    random source that produced the run.
    """

    best: Array
    fbest: float
    history: Array
    evaluations: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "best", _readonly(self.best))
        object.__setattr__(self, "history", _readonly(self.history))
        object.__setattr__(self, "fbest", float(self.fbest))


def evaluate_batch(objective: ObjectiveFn, rows: Array) -> Array:
    """Objective values for every row of an ``(m, n)`` sample array.

    Uses the objective's vectorized form when it advertises
    ``supports_batch``, otherwise maps the scalar form over rows.  The
    objective sees a read-only view, so it cannot change the points it is
    scored on; the caller's array keeps its own flags.
    """
    rows = np.asarray(rows, dtype=float).view()
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
    rows.setflags(write=False)
    if getattr(objective, "supports_batch", False):
        values = np.asarray(objective(rows), dtype=float)
        if values.shape != (rows.shape[0],):
            raise TypeError(
                f"batch objective returned shape {values.shape}, "
                f"expected ({rows.shape[0]},)"
            )
        return values
    return np.array([float(objective(row)) for row in rows], dtype=float)


class CallCounter:
    """Wrap an objective and count how many points it evaluates.

    Batch calls count one evaluation per row.  The wrapper advertises the
    same ``supports_batch`` capability as the wrapped objective.
    """

    def __init__(self, objective: ObjectiveFn):
        self.objective = objective
        self.count = 0
        self.supports_batch = bool(getattr(objective, "supports_batch", False))

    def __call__(self, x: Array):
        x = np.asarray(x)
        self.count += 1 if x.ndim == 1 else x.shape[0]
        return self.objective(x)

