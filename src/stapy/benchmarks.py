"""Standard test objectives with their customary boxes and known optima.

All functions accept a single point of shape ``(n,)``, giving an
``np.float64``, or a batch of shape ``(..., n)``, giving an array over the
leading axes, so they plug directly into the engine's vectorized evaluation
path (``supports_batch``).  Per-dimension constants (griewank's ``sqrt(i)``)
are computed once per ``n`` and the sums and products call the ufunc's
``reduce`` directly; griewank multiplies a point of at most 32 coordinates
in order in Python floats (``math.prod``), as numpy multiplies in order too.
The values are bit-identical to the textbook formulas written with ``np.sum``
and ``np.prod``.  Each :class:`BenchmarkSpec` states its box and argmin as
plain values, which :meth:`~BenchmarkSpec.default_box` and
:meth:`~BenchmarkSpec.reference_argmin` spread over the requested dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .core import Array, SearchSpace, _count, _quoted, _readonly

__all__ = [
    "sphere",
    "rosenbrock",
    "rastrigin",
    "griewank",
    "paper_quadratic",
    "BenchmarkSpec",
    "get_benchmark",
    "list_benchmarks",
]


def sphere(x) -> Union[np.float64, Array]:
    """Sum of squares; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)


def rosenbrock(x) -> Union[np.float64, Array]:
    """Banana-valley function; minimum 0 at (1, ..., 1)."""
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head * head) ** 2 + (1.0 - head) ** 2, axis=-1)


_TWO_PI = 2.0 * np.pi


def rastrigin(x) -> Union[np.float64, Array]:
    """10n + sum(x_i^2 - 10 cos(2 pi x_i)); highly multimodal, minimum 0 at 0."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return 10.0 * n + np.add.reduce(x * x - 10.0 * np.cos(_TWO_PI * x), axis=-1)


@lru_cache(maxsize=32)
def _sqrt_index(n: int) -> Array:
    """Read-only ``sqrt(1), ..., sqrt(n)``, griewank's divisors."""
    return _readonly(np.sqrt(np.arange(1, n + 1, dtype=float)), "divisors")


def griewank(x) -> Union[np.float64, Array]:
    """1 + sum(x_i^2)/4000 - prod(cos(x_i / sqrt(i))); minimum 0 at 0."""
    x = np.asarray(x, dtype=float)
    c = np.cos(x / _sqrt_index(x.shape[-1]))
    # In order like multiply.reduce, so the same bits; faster up to 32 coordinates.
    short = c.ndim == 1 and c.size <= 32
    product = math.prod(c.tolist()) if short else np.multiply.reduce(c, axis=-1)
    return 1.0 + np.add.reduce(x * x, axis=-1) / 4000.0 - product


def paper_quadratic(x) -> Union[np.float64, Array]:
    """(x1-1)^2 + (x2-2*x1)^2 + (x3-3*x2)^2 on exactly 3 coordinates.

    Unconstrained minimum 0 at (1, 2, 6); on the customary box
    [-3,3] x [-2,2] x [-1,1] the constrained minimum is 1150/2116 at
    (8/23, 17/46, 1), with the third coordinate pinned to its bound.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError(f"paper_quadratic needs 3 coordinates, got {x.shape[-1]}")
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return (x1 - 1.0) ** 2 + (x2 - 2.0 * x1) ** 2 + (x3 - 3.0 * x2) ** 2


for _f in (sphere, rosenbrock, rastrigin, griewank, paper_quadratic):
    _f.supports_batch = True
del _f


_Bound = Union[float, tuple[float, ...]]


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named objective, its customary box, and its known global optimum.

    ``lower``, ``upper`` and ``argmin`` are each a scalar, repeated over any
    dimension, or a tuple with one value per coordinate, whose length fixes
    the dimension (:attr:`fixed_dim`).
    """

    name: str
    objective: Callable[[Array], float]
    lower: _Bound
    upper: _Bound
    reference_optimum: float
    argmin: _Bound

    @property
    def fixed_dim(self) -> Optional[int]:
        """The only dimension the box allows, or None if it fits any."""
        return len(self.lower) if isinstance(self.lower, tuple) else None

    def default_box(self, dim: int) -> SearchSpace:
        """The customary box; ``dim`` is an integer (``3.0`` counts, ``2.7`` raises ValueError)."""
        return SearchSpace(self._values(self.lower, dim), self._values(self.upper, dim))

    def reference_argmin(self, dim: int) -> Array:
        """Known global argmin on the default box."""
        return self._values(self.argmin, dim)

    def _values(self, value: _Bound, dim: int) -> Array:
        dim = _count(dim, "dim")
        if self.fixed_dim not in (None, dim):
            raise ValueError(
                f"benchmark {self.name!r} is fixed to dim {self.fixed_dim}, got {dim}"
            )
        return np.full(dim, value, dtype=float)


_REGISTRY: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        # name, objective, lower, upper, reference_optimum, argmin
        BenchmarkSpec("sphere", sphere, -100.0, 100.0, 0.0, 0.0),
        BenchmarkSpec("rosenbrock", rosenbrock, -5.0, 10.0, 0.0, 1.0),
        BenchmarkSpec("rastrigin", rastrigin, -5.12, 5.12, 0.0, 0.0),
        BenchmarkSpec("griewank", griewank, -600.0, 600.0, 0.0, 0.0),
        BenchmarkSpec(
            "paper_quadratic",
            paper_quadratic,
            (-3.0, -2.0, -1.0),
            (3.0, 2.0, 1.0),
            1150.0 / 2116.0,
            (8.0 / 23.0, 17.0 / 46.0, 1.0),
        ),
    )
}


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark by name (a ``str``), case-insensitively."""
    spec = _REGISTRY.get(name.strip().lower()) if isinstance(name, str) else None
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown benchmark {_quoted(name)} (known: {known})")
    return spec


def list_benchmarks() -> list[str]:
    return sorted(_REGISTRY)
