"""The four neighborhood samplers around an incumbent best solution.

Each sampler returns a fresh ``(se, n)`` batch of candidate states and leaves
its inputs untouched.  The random draws consumed per call are fixed and
documented on each function, so a seeded :class:`~stapy.core.RandomSource`
reproduces batches exactly.

All four transformations are multiplicative in the incumbent state, so any
coordinate equal to zero stays zero in every sample; in particular the
all-zero state is a fixed point of the whole family.  This is a deliberate,
documented property of the method, not an oversight; the norm denominators
are guarded with :data:`~stapy.core.EPS` so zero-norm states never divide by
zero.

Each sampler judges ``se``, an integer >= 1 (``3.0`` counts, ``3.9`` raises
ValueError), and its step factor, a finite real > 0, before any draw.
"""

from __future__ import annotations

import numpy as np

from .core import EPS, Array, RandomSource, _count, _real

__all__ = ["op_rotate", "op_translate", "op_expand", "op_axes"]

# Bytes of rotation matrices drawn at once, sized to stay in cache for the product.
_CHUNK_BYTES = 512 * 1024


def _as_state(x, name: str) -> Array:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def op_rotate(best, se: int, alpha: float, rng: RandomSource) -> Array:
    """Sample a hypersphere of radius at most ``alpha`` around ``best``.

    Each row is ``best + alpha / (n * (||best|| + eps)) * R @ best`` with
    ``R`` an n-by-n matrix of independent uniform[-1, 1] entries redrawn for
    every row.  Since ``||R @ best|| <= n * ||best||`` (Frobenius bound), the
    step norm never exceeds ``alpha``.

    Draws: one uniform[-1, 1] block of shape ``(se, n, n)``, in row chunks of
    about 512 KiB (or one matrix), so peak memory is one chunk, not the block.
    """
    best = _as_state(best, "best")
    se, alpha = _count(se, "se"), _real(alpha, "alpha", 0.0)
    n = best.size
    coef = alpha / (n * (np.linalg.norm(best) + EPS))
    k = min(se, max(1, _CHUNK_BYTES // (8 * n * n)))
    buf, steps = np.empty((k, n, n)), np.empty((se, n))
    for s in range(0, se, k):
        rows = steps[s : s + k]
        np.matmul(rng.uniform(-1.0, 1.0, out=buf[: len(rows)]), best, out=rows)
    return best + coef * steps


def op_translate(old_best, new_best, se: int, beta: float, rng: RandomSource) -> Array:
    """Sample along the ray from ``old_best`` through ``new_best``.

    Each row is ``new_best + beta * u_i * (new_best - old_best) / (||new_best
    - old_best|| + eps)`` with ``u_i`` uniform[0, 1] per row: a line search
    beyond the most recent improvement, capped at step length ``beta``.  A
    degenerate segment (``old_best == new_best``) yields rows equal to
    ``new_best``.

    Draws: one uniform[0, 1] vector of shape ``(se,)``.
    """
    old_best = _as_state(old_best, "old_best")
    new_best = _as_state(new_best, "new_best")
    if old_best.shape != new_best.shape:
        raise ValueError("old_best and new_best must have the same length")
    se, beta = _count(se, "se"), _real(beta, "beta", 0.0)
    diff = new_best - old_best
    direction = diff / (np.linalg.norm(diff) + EPS)
    steps = beta * rng.uniform(0.0, 1.0, se)
    return new_best + steps[:, None] * direction


def op_expand(best, se: int, gamma: float, rng: RandomSource) -> Array:
    """Scale every coordinate by an independent Gaussian factor.

    Each row is ``best + gamma * g * best`` with ``g`` a length-n vector of
    independent standard normals per row (a random diagonal Gaussian map),
    capable of reaching the whole space regardless of the current scale.

    Draws: one standard-normal block of shape ``(se, n)``.
    """
    best = _as_state(best, "best")
    se, gamma = _count(se, "se"), _real(gamma, "gamma", 0.0)
    gains = rng.normal((se, best.size))
    return best + gamma * gains * best


def op_axes(best, se: int, delta: float, rng: RandomSource) -> Array:
    """Perturb a single, uniformly chosen coordinate per sample.

    Row ``i`` equals ``best`` except at one axis ``j_i`` drawn uniformly from
    {1..n}, where it is ``best[j_i] + delta * g_i * best[j_i]`` with ``g_i``
    standard normal.  Strengthens search along coordinate directions.

    Draws: one uniform-integer vector on {1..n} of shape ``(se,)``, then one
    standard-normal vector of shape ``(se,)``.
    """
    best = _as_state(best, "best")
    se, delta = _count(se, "se"), _real(delta, "delta", 0.0)
    axes = rng.integers(best.size, size=se) - 1
    gains = rng.normal(se)
    rows = np.repeat(best[None, :], se, axis=0)
    rows[np.arange(se), axes] += delta * gains * best[axes]
    return rows
