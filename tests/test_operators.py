"""Geometry and distribution checks for the four neighborhood samplers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stapy import operators
from stapy.core import EPS, RandomSource
from stapy.operators import op_axes, op_expand, op_rotate, op_translate


def rng(seed=0):
    return RandomSource(seed)


# ---------------------------------------------------------------- shapes


def test_shapes():
    best = np.arange(1.0, 11.0)
    assert op_rotate(best, 30, 1.0, rng()).shape == (30, 10)
    assert op_expand(best, 30, 1.0, rng()).shape == (30, 10)
    assert op_axes(best, 30, 1.0, rng()).shape == (30, 10)
    assert op_translate(np.zeros(3), np.ones(3), 30, 1.0, rng()).shape == (30, 3)


def test_inputs_left_unmodified():
    best = np.arange(1.0, 6.0)
    old = np.zeros(5)
    snapshot = best.copy()
    op_rotate(best, 10, 1.0, rng())
    op_expand(best, 10, 1.0, rng())
    op_axes(best, 10, 1.0, rng())
    op_translate(old, best, 10, 1.0, rng())
    assert np.array_equal(best, snapshot)
    assert np.array_equal(old, np.zeros(5))


def test_validation():
    with pytest.raises(ValueError):
        op_rotate(np.ones((2, 2)), 10, 1.0, rng())  # not 1-D
    with pytest.raises(ValueError):
        op_rotate(np.array([1.0, np.nan]), 10, 1.0, rng())
    with pytest.raises(ValueError):
        op_rotate(np.ones(2), 0, 1.0, rng())  # se < 1
    with pytest.raises(ValueError):
        op_expand(np.ones(2), 10, 0.0, rng())  # factor <= 0
    with pytest.raises(ValueError):
        op_translate(np.ones(2), np.ones(3), 10, 1.0, rng())  # length mismatch


def test_determinism_same_seed_same_batch():
    best = np.arange(1.0, 8.0)
    for op in (
        lambda r: op_rotate(best, 20, 0.7, r),
        lambda r: op_expand(best, 20, 1.3, r),
        lambda r: op_axes(best, 20, 0.5, r),
        lambda r: op_translate(np.zeros(7), best, 20, 1.0, r),
    ):
        assert np.array_equal(op(rng(99)), op(rng(99)))


# --------------------------------------------------------------- rotation


def test_rotate_zero_vector_is_fixed_point():
    batch = op_rotate(np.zeros(4), 30, 1.0, rng())
    assert np.array_equal(batch, np.zeros((30, 4)))


def test_rotate_step_norm_bounded_by_alpha():
    """max ||row - best|| <= alpha over 1e4 rows, several alphas and states."""
    source = rng(3)
    for alpha in (1e-4, 0.1, 1.0, 7.5):
        for scale in (1e-6, 1.0, 1e6):
            best = scale * np.linspace(-1.0, 2.0, 8)
            batch = op_rotate(best, 10_000, alpha, source)
            steps = np.linalg.norm(batch - best, axis=1)
            assert steps.max() <= alpha, (alpha, scale, steps.max())


def test_rotate_actually_moves():
    batch = op_rotate(np.ones(5), 100, 1.0, rng(1))
    assert np.linalg.norm(batch - np.ones(5), axis=1).max() > 0.0


def test_rotate_step_norm_bounded_by_alpha_up_to_1e300():
    """max ||row - best|| <= alpha over 1e4 rows, and at alpha = 1e300 every row
    is finite: the exact float64 product is scaled by alpha / n only after the sum."""
    best = np.linspace(-1.0, 2.0, 8)
    for alpha in (1e-4, 1.0, 1e300):
        batch = op_rotate(best, 10_000, alpha, rng(4))
        assert np.isfinite(batch).all(), alpha
        steps = np.linalg.norm((batch - best) / alpha, axis=1)
        assert steps.max() <= 1.0, (alpha, steps.max())


def signed_bytes(seed, count):
    """The signed bytes of ``PCG64(seed)``'s first ``count`` raw words, low first."""
    words = [int(w) for w in np.random.PCG64(seed).random_raw(count)]
    return [(w >> shift & 0xFF) - (w >> shift & 0x80) * 2 for w in words for shift in range(0, 64, 8)]


def reference_rotate(best, se, alpha, gen):
    """``op_rotate`` from its docstring, with the sum in integers: each component
    is ``2**-7 * (K @ w + sum(w) / 2)``, K the 16 int8 bytes of two raw words,
    low first, and w the weights rounded to 2**-37 times the power of two above
    their largest magnitude."""
    n = best.size
    u = best / (np.linalg.norm(best) + EPS)
    if n <= 16:
        w = np.concatenate([u, np.zeros(16 - n)])
    else:
        a = np.abs(u)
        top = np.argpartition(a, -8)[-8:]
        a[top] = 0.0
        w = np.concatenate([u[top], np.full(8, math.sqrt(a.dot(a) / 8))])
    e = math.frexp(np.abs(w).max())[1]
    m = np.rint(np.ldexp(w, 37 - e)).astype(np.int64)  # w in quanta
    k = gen.bit_generator.random_raw(2 * se * n).astype("<u8").view(np.int8).reshape(se * n, 16)
    halves = k.astype(np.int64) @ (2 * m) + m.sum()  # K @ w + sum(w) / 2, in half quanta
    assert np.abs(halves).max() < 2**53
    return best + alpha / n * 2.0**-7 * np.ldexp(halves.astype(float), e - 38).reshape(se, n)


@pytest.mark.parametrize("se", [1, 7, 30, 31])
@pytest.mark.parametrize("n", [1, 2, 10, 16, 17, 100, 101])
def test_rotate_equals_its_reference_draw_bit_for_bit(n, se):
    """n = 16 is the last n whose weights are u itself, and n = 17 the first
    past it; n = 1 pads u with 15 zeros."""
    best = np.random.default_rng(n).uniform(-5.0, 5.0, n)
    got_rng, ref_gen = rng(se), np.random.Generator(np.random.PCG64(se))
    got = op_rotate(best, se, 0.5, got_rng)
    assert np.array_equal(got, reference_rotate(best, se, 0.5, ref_gen))
    assert np.array_equal(got_rng.uniform(-1.0, 1.0, 5), ref_gen.uniform(-1.0, 1.0, 5)), (
        "stream position after the call"
    )


@pytest.mark.parametrize("n", range(1, 17))
def test_rotate_weights_are_u_itself_up_to_n_16(n):
    u = operators._unit(np.random.default_rng(n).standard_normal(n))
    w = operators._weights(u)
    assert np.array_equal(w, np.concatenate([u, np.zeros(16 - n)]))


@pytest.mark.parametrize("n", [17, 100, 1001])
def test_rotate_weights_past_n_16_keep_the_top_eight_and_the_rests_norm(n):
    """The 8 largest |u_j| as they are, then the rest's norm over sqrt(8) eight
    times: sum(w**2) is sum(u**2), so a component keeps its variance."""
    u = operators._unit(np.random.default_rng(n).standard_normal(n))
    w = operators._weights(u)
    order = np.argsort(-np.abs(u))
    assert sorted(w[:8].tolist()) == sorted(u[order[:8]].tolist())
    rest = np.linalg.norm(u[order[8:]]) / math.sqrt(8)
    assert np.allclose(w[8:], rest, rtol=1e-14, atol=0.0)
    assert math.isclose(w.dot(w), u.dot(u), rel_tol=1e-14)


def ks_distance(a, b):
    """The two-sample Kolmogorov distance: the largest gap between the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, x, "right") / a.size - np.searchsorted(b, x, "right") / b.size).max()


def incumbents(n):
    """Directions with one coordinate, even ones, random ones, ones shaped like a
    workload shift (magnitudes 0.2 to 0.8 of the box's half-width, random
    signs), and past n = 16 one whose rest is a single coordinate as large as
    the top eight."""
    g = np.random.default_rng(n)
    out = {"axis": np.eye(n)[0], "even": np.ones(n), "random": g.standard_normal(n),
           "shift": g.choice((-1.0, 1.0), n) * g.uniform(0.2, 0.8, n)}
    if n > 16:
        out["rest-one"] = np.concatenate([np.ones(9), np.full(n - 9, 1e-3)])
    return [pytest.param(n, v, id=f"{n}-{name}") for name, v in out.items()]


@pytest.mark.parametrize("n,v", [p for n in (2, 10, 17, 100) for p in incumbents(n)])
def test_rotate_component_is_close_in_distribution_to_the_papers(n, v):
    """2e5 components of op_rotate against 2e5 of the paper's R @ u, R uniform on
    [-1, 1]: every component of every row is an independent draw of S, so one
    call gives them all.  The noise floor of the distance is about 0.005; the
    256-point grid adds at most 1/512."""
    samples = 200_000
    u = v / np.linalg.norm(v)
    got = (op_rotate(u, -(-samples // n), n, rng(n)) - u).ravel()[:samples]  # alpha = n: S itself
    g = np.random.default_rng(n + 1)
    want = np.concatenate([g.uniform(-1.0, 1.0, (10_000, n)) @ u for _ in range(samples // 10_000)])
    assert ks_distance(got, want) < 0.015


def test_rotate_moves_a_tiny_state():
    """u = best / (||best|| + eps) is about 4.5e-85 here; every row moves, and
    the step stays at most alpha."""
    best = 1e-100 * np.ones(5)
    batch = op_rotate(best, 30, 1.0, rng())
    assert (batch != best).any(axis=1).all(), "every row moves"
    assert np.linalg.norm(batch - best, axis=1).max() <= 1.0


@pytest.mark.parametrize("n", [100, 1000, 3000])
def test_rotate_memory_is_linear_in_se_n(n):
    """The peak is about 19 times the (se, n) batch: the int8 draw (2 bytes per
    batch byte), its float64 cast (16) and the sum (1)."""
    best, se = np.linspace(-1.0, 1.0, n), 30
    tracemalloc.start()
    try:
        op_rotate(best, se, 1.0, rng())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 8 * se * n, f"peak {peak / 2**20:.2f} MiB"


def test_rotation_entries_are_the_signed_bytes_of_raw_words_low_first():
    b = signed_bytes(5, 4)
    source = RandomSource(5)
    entries = source._int8(2)
    assert entries.dtype == np.int8
    assert entries.tolist() == [b[:16], b[16:]]
    after = np.random.Generator(np.random.PCG64(5)).uniform(0.0, 1.0, 5)[-1]
    assert source.uniform(0.0, 1.0) == after, "4 raw words consumed"


@pytest.mark.parametrize("rows", [0, 1, 3, 4, 7, 9, 16, 33])
def test_rotation_entries_of_any_row_count_take_two_raw_words_per_row(rows):
    b = signed_bytes(6, 2 * rows)
    source = RandomSource(6)
    entries = source._int8(rows)
    assert entries.shape == (rows, 16)
    assert entries.tolist() == [b[16 * i : 16 * i + 16] for i in range(rows)]
    after = np.random.Generator(np.random.PCG64(6)).uniform(0.0, 1.0, 2 * rows + 1)[-1]
    assert source.uniform(0.0, 1.0) == after, f"{2 * rows} raw words consumed"


def test_rotation_entries_scale_onto_a_symmetric_grid_of_256_values():
    r = (RandomSource(8)._int8(62_500) + 0.5) * 2.0**-7
    assert r.min() == -255 / 256 and r.max() == 255 / 256
    assert np.unique(r).size == 256
    assert abs(r.mean()) < 3e-3
    assert abs(r.var() - 1.0 / 3.0) < 3e-3


# ------------------------------------------------------------- translation


def test_translate_degenerate_segment():
    x = np.array([1.5, -2.0])
    batch = op_translate(x, x, 30, 1.0, rng())
    assert np.allclose(batch, x)


def test_translate_collinear_and_step_in_range():
    """Rows = new + t*d with d the unit old->new direction and t in [0, beta]."""
    old = np.zeros(2)
    new = np.array([1.0, 0.0])
    batch = op_translate(old, new, 10_000, 1.0, rng(5))
    assert np.allclose(batch[:, 1], 0.0), "off-axis drift"
    t = batch[:, 0] - 1.0
    assert t.min() >= 0.0 and t.max() <= 1.0
    assert t.max() > 0.9 and t.min() < 0.1, "t should sweep [0, 1]"


def test_translate_beta_caps_distance_general_direction():
    old = np.array([1.0, 2.0, 3.0])
    new = np.array([0.5, 1.0, -1.0])
    beta = 2.5
    batch = op_translate(old, new, 10_000, beta, rng(6))
    offsets = batch - new
    dist = np.linalg.norm(offsets, axis=1)
    assert dist.max() <= beta
    direction = (new - old) / np.linalg.norm(new - old)
    cross = offsets - np.outer(offsets @ direction, direction)
    assert np.abs(cross).max() < 1e-12, "offsets must be collinear with old->new"
    assert (offsets @ direction >= 0.0).all(), "steps never backtrack"


def test_rotate_and_translate_move_a_state_past_1e154():
    """Past about 1.3e154, v . v overflows, and past about 1.8e308 so does the
    norm itself; the direction must not, or it is 0 and every row is a copy of
    the incumbent."""
    b = np.array([1e200, -1e200, 3e199])
    far = np.full(3, -1e307)  # 1.1e308 from np.full(3, 1e308) on every axis
    for batch, origin, step in (
        (op_rotate(b, 30, 1e190, rng(8)), b, 1e190),
        (op_translate(b / 2, b, 30, 1e190, rng(8)), b, 1e190),
        (op_translate(np.full(3, 1e308), far, 30, 1e306, rng(8)), far, 1e306),
    ):
        assert np.isfinite(batch).all()
        assert (batch != origin).any(axis=1).all(), "every row moves"
        assert np.linalg.norm((batch - origin) / step, axis=1).max() <= 1.0


@pytest.mark.parametrize("old,new,beta", [
    ([1.7e308, 0.0], [-1.7e308, 1.0], 1.0),  # a step of at most 1 cannot move -1.7e308
    ([-1.7e308, 0.0], [1e308, 1.0], 1e307),
])
def test_translate_along_an_overflowing_difference_stays_on_its_ray(old, new, beta):
    """new - old overflows on axis 0; the halves' difference gives the ray,
    [-1, 2.9e-309] for the first pair, so every row is finite, lies on it and
    steps at most beta."""
    old, new = np.array(old), np.array(new)
    batch = op_translate(old, new, 30, beta, rng(8))
    assert np.isfinite(batch).all()
    half = new / 2 - old / 2
    direction = half / np.linalg.norm(half / 1e308) / 1e308
    offsets = (batch - new) / beta
    along = offsets @ direction
    assert (along >= 0.0).all() and np.abs(offsets - np.outer(along, direction)).max() < 1e-12
    assert np.linalg.norm(offsets, axis=1).max() <= 1.0
    if beta > 1.0:
        assert (batch[:, 0] != new[0]).all(), "every row moves"


# -------------------------------------------------------------- expansion


def test_expand_zero_vector_and_zero_coordinate_fixed():
    assert np.array_equal(op_expand(np.zeros(3), 30, 1.0, rng()), np.zeros((30, 3)))
    best = np.array([1.0, 0.0, -2.0])
    batch = op_expand(best, 1000, 1.0, rng(2))
    assert np.all(batch[:, 1] == 0.0)


def test_expand_moments_match_diagonal_gaussian():
    """At best=1^n, gamma=1 each coordinate is N(1, 1); check mean/var to 3 SE."""
    n, rows = 4, 100_000
    batch = op_expand(np.ones(n), rows, 1.0, rng(42))
    mean_se = 1.0 / np.sqrt(rows)  # sd/sqrt(rows)
    var_se = np.sqrt(2.0 / (rows - 1))  # sd of sample variance of N(0,1)
    for j in range(n):
        assert abs(batch[:, j].mean() - 1.0) < 3 * mean_se
        assert abs(batch[:, j].var(ddof=1) - 1.0) < 3 * var_se


def test_expand_gamma_scales_spread():
    a = op_expand(np.ones(2), 50_000, 1.0, rng(7))
    b = op_expand(np.ones(2), 50_000, 3.0, rng(7))
    assert np.allclose(b - 1.0, 3.0 * (a - 1.0)), "same draws, scaled by gamma"


# ---------------------------------------------------------------- axesion


def test_axes_changes_at_most_one_coordinate():
    best = np.linspace(1.0, 2.0, 10)
    batch = op_axes(best, 10_000, 1.0, rng(8))
    changed = np.sum(batch != best, axis=1)
    assert changed.max() <= 1


def test_axes_zero_coordinate_fixed_point():
    best = np.array([0.0, 1.0])
    batch = op_axes(best, 5000, 1.0, rng(9))
    assert np.all(batch[:, 0] == 0.0)
    # Rows that picked axis 1 (the zero coordinate) equal best exactly.
    untouched = np.all(batch == best, axis=1)
    assert untouched.any(), "axis on a zero coordinate must leave best unchanged"


def test_axes_axis_choice_uniform_chi_square():
    """Axis frequencies over 1e5 rows pass a 99% chi-square test (n=10)."""
    n, rows = 10, 100_000
    best = np.full(n, 2.0)
    batch = op_axes(best, rows, 1.0, rng(10))
    counts = np.sum(batch != best, axis=0).astype(float)
    # A ~N(0,1) draw lands on 0.0 with probability ~0, so every row differs.
    assert counts.sum() == rows
    expected = rows / n
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # chi-square 99th percentile at 9 degrees of freedom
    assert chi2 < 21.666, f"axis choice not uniform, chi2={chi2:.2f}"


def test_axes_perturbation_is_multiplicative_gaussian():
    best = np.array([3.0])
    batch = op_axes(best, 100_000, 2.0, rng(11))
    gains = (batch[:, 0] - 3.0) / (2.0 * 3.0)
    assert abs(gains.mean()) < 3.0 / np.sqrt(100_000)
    assert abs(gains.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / 99_999)


# ------------------------------------------------------------- properties


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.01, max_value=10.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_rotation_bound_and_shape(n, se, alpha, seed):
    source = RandomSource(seed)
    best = source.normal(n) * 10.0
    batch = op_rotate(best, se, alpha, source)
    assert batch.shape == (se, n)
    assert np.isfinite(batch).all()
    assert np.linalg.norm(batch - best, axis=1).max() <= alpha


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_zero_coordinates_stay_zero(n, se, seed):
    source = RandomSource(seed)
    best = source.normal(n)
    best[source.integers(n)] = 0.0
    zeros = best == 0.0
    # Rotation mixes coordinates, so only expansion/axesion preserve zeros.
    for batch in (
        op_expand(best, se, 1.0, source),
        op_axes(best, se, 1.0, source),
    ):
        assert np.all(batch[:, zeros] == 0.0)
