"""The four neighborhood samplers around an incumbent best solution.

Each sampler returns a fresh ``(se, n)`` batch of candidate states and leaves
its inputs untouched.  The random draws consumed per call are fixed and
documented on each function, so a seeded :class:`~stapy.core.RandomSource`
reproduces batches exactly.

All four transformations scale with the incumbent state, so the all-zero
state is a fixed point of the whole family.  Expansion and axesion also keep
any zero coordinate at zero; rotation and translation mix coordinates and move
it.  Rotation and translation divide by a norm plus :data:`~stapy.core.EPS`,
so zero-norm states never divide by zero; the norm is ``sqrt(v . v)`` while
``v . v`` is finite, and the norm of ``v`` divided by its largest ``|v_i|`` once
it overflows, so any finite state, even one whose norm passes the float range,
still gives a direction.  Translation takes its direction from the halves of
its two states when their difference overflows.

Before any draw, each sampler judges its state, a finite, non-empty 1-D vector
of integers or floats, ``se``, an integer >= 1 (``3.0`` counts, ``3.9`` raises
ValueError), its step factor, a finite real > 0, and ``rng``, a
:class:`~stapy.core.RandomSource`.  It then calls its private kernel (``_rotate``
and so on) under ``np.errstate(all="ignore")``, as the engine's loop does.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EPS, Array, RandomSource, _count, _instance, _quietly, _real, _vector

__all__ = ["op_rotate", "op_translate", "op_expand", "op_axes"]

def _unit(v: Array) -> Array:
    # v / (||v|| + eps). The norm has np.linalg.norm's bits while v . v is finite; past about
    # 1.3e154, v . v overflows, and v is first divided by its largest |v_i|, so its direction
    # survives even a norm past the float range. A v with an inf entry has none: OverflowError.
    vv = v.dot(v)
    if vv < math.inf:
        return v / (math.sqrt(vv) + EPS)
    scale = np.abs(v).max()
    if not scale < math.inf:
        raise OverflowError("a vector with an infinite entry has no direction")
    w = v / scale
    return w / (math.sqrt(w.dot(w)) + EPS / scale)


def op_rotate(best, se: int, alpha: float, rng: RandomSource) -> Array:
    """Sample a hypersphere of radius at most ``alpha`` around ``best``.

    Each row is ``best + alpha / n * S``, its n components independent draws of
    one of ``R @ u``: ``u = best / (||best|| + eps)``, ``R`` uniform on the 256 odd
    multiples of 1/256 in [-255/256, 255/256].  A draw is ``2**-7 * (K @ w +
    sum(w) / 2)``, 16 int8s ``K`` on 16 weights ``w``: up to n = 16, ``u`` padded
    with zeros, so the distribution is exact; past it, the 8 largest ``|u_j|``,
    then the rest's norm spread evenly over 8, which keeps the mean 0 and the
    variance.  A component's Kolmogorov distance to the paper's (``R`` continuous
    on [-1, 1]) measured at most 0.0061 from n = 2 to 100 (2e5 samples; noise
    floor about 0.005).  ``w`` is rounded to 2**-37 times the power of two above
    ``max |w_l|``, so the sum is exact whatever the BLAS's order or thread count.
    ``|S_i| <= 255/256 * sum |w_l| <= sqrt(n)``, so the step norm is at most ``alpha``.

    Draws: ``2 * se * n`` raw 64-bit outputs, two per component, read as its 16
    int8 bytes, low first.
    """
    rng = _instance(rng, RandomSource, "rng")
    return _quietly(_rotate, _vector(best, "best"), _count(se, "se"), _real(alpha, "alpha", 0.0), rng)


def _weights(u: Array) -> Array:
    # 16 weights: u padded with zeros, or its 8 largest |u_j|, then 8 times ||rest|| / sqrt(8).
    w = np.zeros(16)
    if u.size <= 16:
        w[: u.size] = u
    else:
        a = np.abs(u)
        top = np.argpartition(a, -8)[-8:]
        a[top] = 0.0
        w[:8], w[8:] = u[top], math.sqrt(a.dot(a) / 8)
    return w


def _rotate(best: Array, se: int, alpha: float, rng: RandomSource) -> Array:
    n = best.size
    w = _weights(_unit(best))
    # Round w, ties to even, to multiples of q = 2**(e - 37), where max|w_l| < 2**e, by adding and
    # removing 1.5 * 2**(e + 15), whose ulp is q. Each K_l * w_l and partial sum is exact: < 2**53 q.
    c = math.ldexp(1.5, math.frexp(np.abs(w).max())[1] + 15)
    w += c
    w -= c
    s = np.dot(rng._int8(se * n, 16), w)
    s += 0.5 * math.fsum(w.tolist())
    s *= alpha / n * 2.0**-7
    return best + s.reshape(se, n)


def op_translate(old_best, new_best, se: int, beta: float, rng: RandomSource) -> Array:
    """Sample along the ray from ``old_best`` through ``new_best``.

    Each row is ``new_best + beta * u_i * (new_best - old_best) / (||new_best
    - old_best|| + eps)`` with ``u_i`` uniform on [0, 1) per row: a line search
    beyond the most recent improvement, capped at step length ``beta``.  A
    degenerate segment (``old_best == new_best``) yields rows equal to
    ``new_best``.

    Draws: one uniform vector on [0, beta) of shape ``(se,)``.
    """
    old_best, new_best = _vector(old_best, "old_best"), _vector(new_best, "new_best")
    if old_best.shape != new_best.shape:
        raise ValueError("old_best and new_best must have the same length")
    rng = _instance(rng, RandomSource, "rng")
    return _quietly(_translate, old_best, new_best, _count(se, "se"), _real(beta, "beta", 0.0), rng)


def _translate(old_best: Array, new_best: Array, se: int, beta: float, rng: RandomSource) -> Array:
    try:
        u = _unit(new_best - old_best)
    except OverflowError:  # the difference of two finite states overflows; that of their halves cannot
        u = _unit(new_best / 2 - old_best / 2)
    return new_best + rng.uniform(0.0, beta, se)[:, None] * u


def op_expand(best, se: int, gamma: float, rng: RandomSource) -> Array:
    """Scale every coordinate by an independent Gaussian factor.

    Each row is ``best + gamma * g * best`` with ``g`` a length-n vector of
    independent standard normals per row (a random diagonal Gaussian map),
    capable of reaching the whole space regardless of the current scale.

    Draws: one standard-normal block of shape ``(se, n)``.
    """
    rng = _instance(rng, RandomSource, "rng")
    return _quietly(_expand, _vector(best, "best"), _count(se, "se"), _real(gamma, "gamma", 0.0), rng)


def _expand(best: Array, se: int, gamma: float, rng: RandomSource) -> Array:
    return best + gamma * rng.normal((se, best.size)) * best


def op_axes(best, se: int, delta: float, rng: RandomSource) -> Array:
    """Perturb a single, uniformly chosen coordinate per sample.

    Row ``i`` equals ``best`` except at one axis ``j_i`` drawn uniformly from
    {0..n-1}, where it is ``best[j_i] + delta * g_i * best[j_i]`` with ``g_i``
    standard normal.  Strengthens search along coordinate directions.

    Draws: one uniform-integer vector on {0..n-1} of shape ``(se,)``, then one
    standard-normal vector of shape ``(se,)``.
    """
    rng = _instance(rng, RandomSource, "rng")
    return _quietly(_axes, _vector(best, "best"), _count(se, "se"), _real(delta, "delta", 0.0), rng)


def _axes(best: Array, se: int, delta: float, rng: RandomSource) -> Array:
    axes = rng.integers(best.size, size=se)
    gains = rng.normal(se)
    rows = np.repeat(best[None, :], se, axis=0)
    rows[np.arange(se), axes] += delta * gains * best[axes]
    return rows
