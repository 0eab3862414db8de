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

# Bytes of float32 rotation entries drawn at once: the bound on the kernel's memory, and one whole
# matrix up to n = 362 (see ROADMAP, "Not worth pursuing").
_CHUNK_BYTES = 512 * 1024


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

    Each row is ``best + alpha / n * R @ u`` with ``u = best / (||best|| +
    eps)`` and ``R = (K + 1/2) * 2**-7`` redrawn for every row, ``K`` an n-by-n
    matrix of independent uniform int8s: ``R`` is uniform on the 256-point grid
    of odd multiples of 1/256 in [-255/256, 255/256], with mean 0, and ``||R @
    u|| <= n * 255/256`` (Frobenius bound), so the step norm never exceeds
    ``alpha``: the 1/256 slack is far above float32 rounding.  ``K @ u`` is a
    float32 product, which ``|u_i| <= 1`` keeps finite on any box; the scaling
    and the sum with ``best`` are float64.

    Draws: per row, ``ceil(n * n / 8)`` raw 64-bit outputs read as int8 bytes,
    low first (an n * n that is not a multiple of 8 drops the last 1-7 bytes),
    in chunks of about 512 KiB of float32: whole matrices, or once one matrix is
    larger, blocks of a multiple of eight of its rows (at least eight), so
    memory stays about one chunk.
    """
    rng = _instance(rng, RandomSource, "rng")
    return _quietly(_rotate, _vector(best, "best"), _count(se, "se"), _real(alpha, "alpha", 0.0), rng)


def _rotate(best: Array, se: int, alpha: float, rng: RandomSource) -> Array:
    n = best.size
    u = _unit(best).astype(np.float32)
    rows = _CHUNK_BYTES // (4 * n)  # matrix rows per chunk
    k = min(se, max(1, rows // n))
    b = n if rows >= n else max(8, rows - rows % 8)  # past one matrix, blocks of whole raw outputs
    steps = np.empty((se, n), np.float32)
    for s in range(0, se, k):
        m = min(k, se - s)
        for r in range(0, n, b):
            h = min(b, n - r)
            np.matmul(rng._int8(m, h * n).reshape(m, h, n), u, out=steps[s : s + m, r : r + h])
    # (K + 1/2) @ u == K @ u + sum(u) / 2, brought to float64 before the scaling. fsum is
    # exact whatever numpy's summation order, and at n = 10 cheaper than u.sum.
    return best + alpha / n * 2.0**-7 * (steps.astype(float) + 0.5 * math.fsum(u.tolist()))


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
