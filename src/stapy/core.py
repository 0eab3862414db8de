"""Shared domain types: search space, solutions, parameters, random source.

Conventions used throughout the package:

* Fitness is always "lower is better"; there is no maximization mode.
* Objectives map a length-``n`` float vector to a number.  One advertising
  ``supports_batch = True`` also maps an ``(m, n)`` array to ``m`` numbers:
  pure sugar, scored as the scalar form mapped over the rows.  Either way the
  values must make an ``(m,)`` array of integers or floats, else TypeError.
  Objectives are expected to be deterministic and finite inside the box.
* :class:`CallCounter` counts evaluations, a caller's and the engine's own;
  its private ``_score`` is the one scoring kernel, and every entry point
  builds one, so a non-callable objective raises TypeError there.
* An argument of the wrong type (a ``space`` that is no :class:`SearchSpace`, an
  ``rng`` that is no :class:`RandomSource`, an array of other than integers or
  floats, judged by its dtype before any cast) raises TypeError naming it, before any
  draw; ``_quoted`` shows a text or a number cut short, and any other value by type.
* A sample batch is a plain ``(se, n)`` float array, one candidate per row; a
  sampler's state or a bound is a finite, non-empty 1-D vector.  Types that hold
  arrays keep read-only float64 copies and compare and hash by identity.
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
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be an integer, got {_quoted(value)}")
    count = int(value) if isinstance(value, (int, np.integer)) or value.is_integer() else None
    if count is None or not low <= count < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {_quoted(value)}")
    return count


def _real(value, name: str, above: float = -math.inf, finite: bool = True) -> float:
    """``value`` (an int, a float or a numpy number, never a bool) as a float; unless
    ``finite`` is false, a finite one greater than ``above``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {_quoted(value)}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf if value > 0 else -math.inf
    if finite and not above < real < math.inf:
        raise ValueError(f"{name} must be finite and > {above}, got {_quoted(value)}")
    return real


def _instance(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else TypeError naming ``name``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {_quoted(value)}")
    return value


def _readonly(values, name: str, ndim: int | None = None) -> Array:  # as a read-only float64 copy
    try:
        array = np.asarray(values)
    except ValueError:  # ragged: numpy's own message runs past 150 characters
        raise ValueError(f"{name} must be a regular array, got a ragged sequence") from None
    if array.dtype.kind not in "iuf":  # before any cast, as _score judges values
        raise TypeError(f"{name} must hold integers or floats, got {array.dtype.name} values")
    if ndim is not None and (array.ndim != ndim or array.size == 0):
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {array.shape}")
    array = array.astype(float)
    array.setflags(write=False)
    return array


def _vector(values, name: str) -> Array:  # _readonly as a finite, non-empty 1-D vector
    vector = _readonly(values, name, 1)
    if not np.isfinite(vector).all():
        raise ValueError(f"{name} must be finite")
    return vector


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box of feasible solutions.

    Parameters
    ----------
    lower, upper : array_like of integers or floats, shape (n,)
        Finite per-coordinate bounds with ``lower[i] < upper[i]`` strictly
        and a finite width ``upper[i] - lower[i]``, so uniform initialization
        over the box is well defined.
    """

    lower: Array
    upper: Array

    def __post_init__(self):
        lower, upper = _vector(self.lower, "bounds"), _vector(self.upper, "bounds")
        if lower.shape != upper.shape:
            raise ValueError(f"lower and upper differ in length: {lower.size} and {upper.size}")
        if not (lower < upper).all():
            bad = int(np.argmin(lower < upper))  # the first; a width could overflow and warn
            raise ValueError(
                f"lower bound must be strictly below upper bound "
                f"(coordinate {bad}: [{lower[bad]}, {upper[bad]}])"
            )
        if not np.isfinite(_quietly(np.subtract, upper, lower)).all():
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
        return cls(np.full(dim, _real(lo, "lo")), np.full(dim, _real(hi, "hi")))

    def contains(self, x: Array) -> bool:
        """Whether a point of shape ``(n,)``, or every row of a batch of shape
        ``(m, n)``, lies in the box; another last axis raises ValueError."""
        x = _readonly(x, "x")
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points of length {self.dim}, got shape {x.shape}")
        return bool((x >= self.lower).all() and (x <= self.upper).all())


@dataclass(frozen=True, eq=False)
class Solution:
    """An evaluated state: read-only coordinates and their objective value."""

    coords: Array
    fitness: float

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords, "coords"))
        object.__setattr__(self, "fitness", _real(self.fitness, "fitness", finite=False))


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

    Backed by numpy's PCG64 generator; a rotation draw reads 16 int8 bytes from
    two raw outputs, low byte first.  Identical seeds and identical call
    sequences reproduce identical streams within this implementation;
    bit-compatibility with other generators is not a goal.  Instances are
    single-owner mutable state: share between threads only with external
    synchronization.  ``seed`` is an integer in [0, 2**64) (``3.0`` counts,
    ``1.5`` raises ValueError, a string TypeError).
    """

    def __init__(self, seed: int = 0):
        self.seed = _count(seed, "seed", 0, 2**64)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, size=None):
        """Uniform reals on [low, high): ``Generator.uniform(low, high, size)``.

        Array bounds broadcast with ``size``.  A range ``high - low`` that numpy
        rejects (not finite, or negative) raises numpy's error before any draw.
        """
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        """Standard normal reals (mean 0, variance 1)."""
        return self._gen.standard_normal(size)

    def integers(self, n: int, size=None):
        """Uniform integers on {0, ..., n - 1}: ``Generator.integers(n, size=size)``."""
        return self._gen.integers(n, size=size)

    def _int8(self, rows: int, width: int) -> Array:  # eight per raw output, low byte first
        words = self._gen.bit_generator.random_raw(rows * -(-width // 8))  # whole outputs per row
        return words.astype("<u8", copy=False).view(np.int8).reshape(rows, -1)[:, :width]

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
        object.__setattr__(self, "best", _readonly(self.best, "best"))
        object.__setattr__(self, "history", _readonly(self.history, "history"))
        object.__setattr__(self, "fbest", _real(self.fbest, "fbest", finite=False))
        object.__setattr__(self, "evaluations", _count(self.evaluations, "evaluations", 0))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0, 2**64))


class CallCounter:
    """Wrap an objective and count how many points it evaluates.

    A point or a 0-d value counts one; a stack counts every point along its
    leading axes, so an ``(m, n)`` batch counts m and an ``(m, k, n)`` stack
    m * k.  ``__call__`` counts every batch, the engine's included; only
    ``_score``'s per-row loop counts a scalar objective's rows inline.  The
    wrapper advertises the same ``supports_batch`` capability as the wrapped
    objective.  A non-callable ``objective`` raises TypeError here, before any call.
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
        # read-only, aborts included: a batch by __call__, a scalar objective's rows inline,
        # its values listed over the rows; one rule judges both before any cast can warn.
        rows = rows.view()
        rows.setflags(write=False)
        if self.supports_batch:
            values = self(rows)
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


def _quietly(kernel, *args):  # every float guard but sta_run's, which guards its whole loop
    with np.errstate(all="ignore"):
        return kernel(*args)

