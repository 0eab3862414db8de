"""Shared domain types: search space, solutions, parameters, random source.

Conventions used throughout the package:

* Fitness is always "lower is better"; there is no maximization mode.
* A sample batch is a plain ``(se, n)`` float array, one candidate per row.
* Objectives map a length-``n`` float vector to a number.  One advertising
  ``supports_batch = True`` also maps an ``(m, n)`` array to ``m`` numbers:
  pure sugar, scored as the scalar form mapped over the rows.  Either way the
  values must make an ``(m,)`` array of integers or floats, else TypeError.
  Objectives are expected to be deterministic and finite inside the box.
* :class:`CallCounter` counts evaluations, a caller's and the engine's own;
  its private ``_score`` is the one scoring kernel, and every entry point
  builds one, so a non-callable objective raises TypeError there.
* An argument of the wrong type (a ``space`` that is no :class:`SearchSpace`,
  an ``rng`` that is no :class:`RandomSource`) raises TypeError naming it,
  before any draw; ``_quoted`` shows a text or a real number in a message, cut
  short, and names any other value by its type, so a message costs bounded work.
* Types that hold arrays compare and hash by identity; compare the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "EPS", "CallCounter", "RandomSource", "RunResult", "SearchSpace", "Solution", "StaParams"
]

Array = np.ndarray
ObjectiveFn = Callable[[Array], float]

#: Guard added to Euclidean norms before division, so zero-norm states do
#: not divide by zero (they become multiplicative fixed points instead).
EPS = float(np.finfo(np.float64).eps)


def _quoted(value) -> str:
    """``value`` for a message, never through its own class's ``__repr__``: a text quoted and cut
    to 20 characters with ``...``; a real number (a numpy scalar as its ``item()``) by its base
    type's repr, which fits in 40, or an int past 128 bits by its size; anything else by its type."""
    if issubclass(type(value), str):  # isinstance would trust a __class__ property
        head = str.__getitem__(value, slice(21))
        return repr(head if len(head) <= 20 else head[:20] + "...")
    if issubclass(type(value), (np.integer, np.floating)):
        value = np.generic.item(value)
    if issubclass(type(value), float):
        return float.__repr__(value)
    if issubclass(type(value), int):  # bool included, which has no subclass
        bits = int.bit_length(value)  # repr raises past 4,300 digits
        if bits > 128:
            return f"{'a negative' if int.__lt__(value, 0) else 'an'} integer of {bits} bits"
        return repr(value) if type(value) is bool else int.__repr__(value)
    return type(value).__name__


def _count(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as an int in ``[low, high)``; a float counts only if integral, never truncated."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be an integer, got {_quoted(value)}")
    count = int(value) if isinstance(value, (int, np.integer)) or value.is_integer() else None
    if count is None or not low <= count < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {_quoted(value)}")
    return count


def _real(value, name: str, above: float = -math.inf) -> float:
    """``value`` (an int, a float or a numpy number) as a finite float greater than ``above``."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {_quoted(value)}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not above < real < math.inf:
        raise ValueError(f"{name} must be finite and > {above}, got {_quoted(value)}")
    return real


def _instance(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else TypeError naming ``name``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {_quoted(value)}")
    return value


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
        dim = _count(dim, "dim")
        return cls(np.full(dim, lo, dtype=float), np.full(dim, hi, dtype=float))

    def contains(self, x: Array) -> bool:
        """Whether a point of shape ``(n,)``, or every row of a batch of shape
        ``(m, n)``, lies in the box; another last axis raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points of length {self.dim}, got shape {x.shape}")
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
    """Algorithm constants.

    ``alpha_max``/``alpha_min`` bracket the annealed rotation radius, ``beta``
    is the translation step cap, ``gamma`` and ``delta`` scale the expansion
    and single-axis perturbations, ``se`` is the number of samples drawn per
    operator application (degree of search enforcement), ``fc`` the geometric
    decay base of the rotation radius, and ``iterations`` the outer-loop
    budget.  Use :func:`dataclasses.replace` to override single fields.
    ``se`` and ``iterations`` are integers >= 1 (``30.0`` counts, ``2.5``
    raises ValueError); the other fields are finite and > 0, ``fc`` > 1.
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
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                value = _count(value, field.name)
            else:
                value = _real(value, field.name, 1.0 if field.name == "fc" else 0.0)
            object.__setattr__(self, field.name, value)
        if not self.alpha_min <= self.alpha_max:
            raise ValueError(
                f"need alpha_min <= alpha_max, got "
                f"alpha_min={self.alpha_min}, alpha_max={self.alpha_max}"
            )


class RandomSource:
    """Seedable stream of the draw kinds the samplers consume.

    Backed by numpy's PCG64 generator; rotation entries are int32 halves of its raw
    outputs.  Identical seeds and identical call sequences reproduce identical
    streams within this implementation; bit-compatibility with other generators
    is not a goal.  Instances are single-owner mutable state: share between
    threads only with external synchronization.  ``seed`` is an integer in
    [0, 2**64) (``3.0`` counts, ``1.5`` raises ValueError, a string TypeError).
    """

    def __init__(self, seed: int = 0):
        self.seed = _count(seed, "seed", 0, 2**64)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size=None):
        """Uniform reals on [low, high].

        The bits of ``Generator.uniform(low, high, size)``; a range ``high - low``
        that is not finite raises OverflowError, as there, before any draw.
        """
        if not abs(high - low) < math.inf:
            raise OverflowError("high - low range exceeds valid bounds")  # numpy's own message
        return self._gen.random(size) * (high - low) + low

    def normal(self, size=None):
        """Standard normal reals (mean 0, variance 1)."""
        return self._gen.standard_normal(size)

    def integers(self, n: int, size=None):
        """Uniform integers on {1, ..., n}."""
        return self._gen.integers(1, int(n) + 1, size=size)

    def _int32(self, rows: int, width: int) -> Array:  # two per raw output, low half first
        words = self._gen.bit_generator.random_raw(rows * ((width + 1) // 2))  # per row, so chunks agree
        return words.astype("<u8", copy=False).view("<i4").reshape(rows, -1)[:, :width]

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


class CallCounter:
    """Wrap an objective and count how many points it evaluates.

    A point or a 0-d value counts one; a stack counts every point along its
    leading axes, so an ``(m, n)`` batch counts m and an ``(m, k, n)`` stack
    m * k.  The wrapper advertises the same ``supports_batch`` capability as
    the wrapped objective.  A non-callable ``objective`` raises TypeError
    here, before any call.
    """

    def __init__(self, objective: ObjectiveFn):
        if not callable(objective):
            raise TypeError(f"objective must be callable, got {_quoted(objective)}")
        self.objective = objective
        self.count = 0
        self.supports_batch = bool(getattr(objective, "supports_batch", False))

    def __call__(self, x: Array):
        x = np.asarray(x)
        self.count += math.prod(x.shape[:-1])
        return self.objective(x)

    def _score(self, rows: Array) -> Array:
        # The engine's evaluation kernel: each point counted before the objective sees it
        # read-only, aborts included.  A scalar objective is scored as its batch form, its
        # values listed over the rows, and one rule judges both before any cast can warn.
        rows = rows.view()
        rows.setflags(write=False)
        if self.supports_batch:
            self.count += len(rows)
            values = self.objective(rows)
        else:
            objective, values = self.objective, []
            for row in rows:
                self.count += 1
                values.append(objective(row))
        try:
            values = np.asarray(values)
        except ValueError as err:  # values of different shapes
            raise TypeError(f"objective returned ragged values: {err}") from None
        if values.shape != (len(rows),):
            raise TypeError(f"objective returned shape {values.shape}, expected ({len(rows)},)")
        if values.dtype.kind not in "iuf":
            raise TypeError(f"objective returned {values.dtype} values, expected integers or floats")
        return values.astype(float, copy=False)


def _quietly(kernel, *args):  # the public entry points' guard, as sta_run guards its loop
    with np.errstate(all="ignore"):
        return kernel(*args)

