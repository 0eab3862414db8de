"""``sta_run`` against a straight-line STA written from the operator docstrings.

The reference below calls only ``numpy.random.Generator``, in the draw order
the docstrings of ``stapy.operators`` and ``stapy.engine`` state, so a change
that moves one draw or reorders one sum fails here bit for bit, even when the
statistical acceptance gates would still pass.  A change that alters the
stream on purpose edits this reference in the same diff.
"""

import math

import numpy as np
import pytest

from stapy import StaParams, get_benchmark, list_benchmarks, sta_run

EPS = np.finfo(np.float64).eps
SE = 30
ITERATIONS = 200


def reference_run(f, batch, lower, upper, seed, target=None):
    """Default parameters: alpha 1 to 1e-4 halving, beta = gamma = delta = 1."""
    gen = np.random.Generator(np.random.PCG64(seed))
    n = lower.size
    evaluations = 0

    def best_of(rows):
        nonlocal evaluations
        values = f(rows) if batch else np.array([float(f(row)) for row in rows])
        evaluations += SE
        values = np.where(np.isfinite(values), values, np.inf)
        g = int(np.argmin(values))
        return rows[g], float(values[g])

    def clamped(rows):
        return np.fmin(np.fmax(rows, lower), upper)

    x, fx = best_of(lower + gen.uniform(0.0, 1.0, (SE, n)) * (upper - lower))
    alpha, history = 1.0, []
    for _ in range(ITERATIONS):
        if alpha < 1e-4:
            alpha = 1.0
        for kind in ("expansion", "rotation", "axesion"):
            if kind == "expansion":
                rows = x + 1.0 * gen.standard_normal((SE, n)) * x
            elif kind == "rotation":
                # Each component is 2**-7 * (K @ w + sum(w) / 2), K the 16 int8
                # bytes of two raw 64-bit outputs, low first. w is u = x / (||x||
                # + eps) padded with zeros up to n = 16, and past it the 8
                # largest |u_j| and then the rest's norm over sqrt(8), 8 times;
                # it is rounded to 2**-37 times the power of two above max |w|.
                u = x / (np.linalg.norm(x) + EPS)
                if n <= 16:
                    w = np.concatenate([u, np.zeros(16 - n)])
                else:
                    a = np.abs(u)
                    top = np.argpartition(a, -8)[-8:]
                    a[top] = 0.0
                    w = np.concatenate([u[top], np.full(8, math.sqrt(a.dot(a) / 8))])
                e = math.frexp(np.abs(w).max())[1]
                w = np.ldexp(np.rint(np.ldexp(w, 37 - e)), e - 37)
                k = gen.bit_generator.random_raw(2 * SE * n).astype("<u8").view(np.int8)
                s = k.reshape(SE * n, 16).astype(float) @ w + 0.5 * w.sum()
                rows = x + alpha / n * 2.0**-7 * s.reshape(SE, n)
            else:
                axes = gen.integers(1, n + 1, size=SE) - 1
                rows = np.repeat(x[None, :], SE, axis=0)
                rows[np.arange(SE), axes] += 1.0 * gen.standard_normal(SE) * x[axes]
            y, fy = best_of(clamped(rows))
            if fy < fx:
                step = (y - x) / (np.linalg.norm(y - x) + EPS)
                z, fz = best_of(clamped(y + (1.0 * gen.uniform(0.0, 1.0, SE))[:, None] * step))
                x, fx = (z, fz) if fz < fy else (y, fy)
        history.append(fx)
        alpha /= 2.0
        if target is not None and fx <= target:
            break
    return x, fx, np.array(history), evaluations


def assert_same_run(f, batch, space, seed, target=None):
    result = sta_run(f, space, StaParams(iterations=ITERATIONS), rng=seed, target_fitness=target)
    best, fbest, history, evaluations = reference_run(
        f, batch, space.lower, space.upper, seed, target
    )
    assert np.array_equal(result.best, best)
    assert np.array_equal(result.history, history)
    assert result.fbest == fbest
    assert result.evaluations == evaluations
    return result


def scalar(f):
    return lambda x: f(x)  # no ``supports_batch``: sta_run maps it over rows


@pytest.mark.parametrize("name", list_benchmarks())
def test_sta_run_equals_reference_bit_for_bit(name):
    spec = get_benchmark(name)
    dims = (1, 2, 10, 100) if spec.fixed_dim is None else (spec.fixed_dim,)
    for n in dims:
        # Five seeds, but one at n = 100, where the run and its reference take
        # about 0.2 s, so that the whole file runs in about 5 s.
        for seed in range(5 if n <= 10 else 1):
            assert_same_run(spec.objective, True, spec.default_box(n), seed)
    # The scalar form (one Python call per row) at one dimension, one seed.
    assert_same_run(scalar(spec.objective), False, spec.default_box(spec.fixed_dim or 2), 0)


def test_early_stop_equals_reference():
    spec = get_benchmark("sphere")
    result = assert_same_run(spec.objective, True, spec.default_box(2), 3, target=1e-3)
    assert 1 <= len(result.history) < ITERATIONS
