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
    is finite: the float32 product is scaled in float64."""
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


@pytest.mark.parametrize("se", [1, 7, 30, 31])
@pytest.mark.parametrize("n", [1, 10, 100, 101, 300])
def test_rotate_chunked_draw_equals_whole_block_bits(n, se):
    """Chunked kernel == one whole block of (se, n, n) int8 entries, bit for bit.

    n = 100 and n = 101 split se = 30 and 31 into chunks of 13 and 12 matrices,
    with a partial last one; n = 1, 10 and 101 have an n * n that is not a
    multiple of 8, so each matrix drops its last 7, 4 and 7 bytes.  n = 300
    draws one matrix per chunk.
    """
    best = np.random.default_rng(n).uniform(-5.0, 5.0, n)
    got_rng, ref_gen = rng(se), np.random.Generator(np.random.PCG64(se))
    got = op_rotate(best, se, 0.5, got_rng)
    h = -(-n * n // 8)
    k = ref_gen.bit_generator.random_raw(se * h).astype("<u8").view(np.int8)
    k = k.reshape(se, 8 * h)[:, : n * n].astype(np.float32).reshape(se, n, n)
    u = (best / (np.linalg.norm(best) + EPS)).astype(np.float32)
    want = best + 0.5 / n * 2.0**-7 * ((k @ u).astype(float) + 0.5 * math.fsum(u.tolist()))
    assert np.array_equal(got, want)
    assert np.array_equal(got_rng.uniform(-1.0, 1.0, 5), ref_gen.uniform(-1.0, 1.0, 5)), (
        "stream position after the call"
    )


def test_rotation_entries_are_the_signed_bytes_of_raw_words_low_first():
    b = signed_bytes(5, 4)
    entries = RandomSource(5)._int8(2, 16)
    assert entries.dtype == np.int8
    assert entries.tolist() == [b[:16], b[16:]]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 9])
def test_rotation_entries_of_a_width_not_a_multiple_of_eight_drop_each_rows_last_bytes(width):
    words = -(-width // 8)  # per row
    b = signed_bytes(6, 2 * words)
    source = RandomSource(6)
    assert source._int8(2, width).tolist() == [b[:width], b[8 * words : 8 * words + width]]
    after = np.random.Generator(np.random.PCG64(6)).uniform(0.0, 1.0, 2 * words + 1)[-1]
    assert source.uniform(0.0, 1.0) == after, f"{2 * words} raw words consumed"


def test_rotation_entries_scale_onto_a_symmetric_grid_of_256_values():
    r = (RandomSource(8)._int8(1000, 1000) + 0.5) * 2.0**-7
    assert r.min() == -255 / 256 and r.max() == 255 / 256
    assert np.unique(r).size == 256
    assert abs(r.mean()) < 3e-3
    assert abs(r.var() - 1.0 / 3.0) < 3e-3


def test_rotate_peak_memory_is_one_chunk_not_the_block():
    """At n = 2000 the block of 8 matrices is 256 MB; one matrix is 32 MB."""
    best = np.linspace(-1.0, 1.0, 2000)
    tracemalloc.start()
    try:
        op_rotate(best, 8, 1.0, rng())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_rotate_peak_memory_stays_under_two_chunks_past_one_matrix():
    """At n = 1000 one matrix is 8 MB; the kernel draws it in blocks of rows."""
    best, source = np.linspace(-1.0, 1.0, 1000), rng()
    tracemalloc.start()
    try:
        operators._rotate(best, 2, 1.0, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * operators._CHUNK_BYTES, f"peak {peak / 2**20:.2f} MiB"


def recorded_blocks(source, monkeypatch):
    """The list that each later ``source._int8`` draw is appended to."""
    blocks, draw = [], source._int8

    def recorded(rows, width):
        blocks.append(draw(rows, width))
        return blocks[-1]

    monkeypatch.setattr(source, "_int8", recorded)
    return blocks


@pytest.mark.parametrize("n", [300, 362, 363])
def test_rotate_draws_whole_matrices_up_to_n_362(n, monkeypatch):
    """One matrix of float32 entries fits in a chunk up to n = 362; past it the
    draw comes in blocks of a multiple of eight rows and a remainder."""
    source = rng(3)
    blocks = recorded_blocks(source, monkeypatch)
    operators._rotate(np.ones(n), 2, 1.0, source)
    heights = [b.shape[1] // n for b in blocks]
    assert [b.shape[0] for b in blocks] == [1] * len(blocks)
    if n <= 362:
        assert heights == [n, n]
    else:
        assert heights == [360, 3, 360, 3]


@pytest.mark.parametrize("n", [363, 1000, 1001])
def test_rotate_in_row_blocks_equals_the_whole_matrix_draw(n, monkeypatch):
    """Blocks of rows draw the whole matrix's int8 entries, bit for bit, and
    leave the stream where it leaves it.  The products agree within the bound of
    reordering each row's float32 sum, 4 * sqrt(n) * eps32 * alpha, plus two
    ulps of each entry: a BLAS may split the whole matrix's product over
    threads.  n = 363 and n = 1001 have an n * n that is not a multiple of 8, so
    each matrix drops seven bytes."""
    best, alpha = RandomSource(n).uniform(-1.0, 1.0, n), 0.5
    source = rng(3)
    blocks = recorded_blocks(source, monkeypatch)
    got = operators._rotate(best, 2, alpha, source)
    whole = rng(3)
    assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), whole._int8(2, n * n).ravel())
    assert source.normal() == whole.normal(), "stream position after the call"
    monkeypatch.setattr(operators, "_CHUNK_BYTES", 2 * 4 * n * n)
    want = operators._rotate(best, 2, alpha, rng(3))
    eps32, eps = np.finfo(np.float32).eps, np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * np.sqrt(n) * eps32 * alpha + 2 * eps * np.abs(want))


@pytest.mark.parametrize("chunk_rows", [1, 4, 7])
def test_rotate_draws_blocks_of_eight_rows_when_a_chunk_holds_fewer(chunk_rows, monkeypatch):
    """Blocks of eight rows span whole raw words at an odd n, so they still draw
    the whole matrix's entries; smaller blocks would split a word between two."""
    n, source = 101, rng(3)
    blocks = recorded_blocks(source, monkeypatch)
    monkeypatch.setattr(operators, "_CHUNK_BYTES", chunk_rows * 4 * n)
    operators._rotate(np.ones(n), 1, 1.0, source)
    assert [b.shape for b in blocks] == [(1, 8 * n)] * 12 + [(1, 5 * n)]
    assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), rng(3)._int8(1, n * n).ravel())


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
    """Past about 1.3e154, v . v overflows; the norm must not, or the unit
    direction is 0 and every row is a copy of the incumbent."""
    b = np.array([1e200, -1e200, 3e199])
    step = 1e190
    for batch in (op_rotate(b, 30, step, rng(8)), op_translate(b / 2, b, 30, step, rng(8))):
        assert np.isfinite(batch).all()
        assert (batch != b).any(axis=1).all(), "every row moves"
        assert np.linalg.norm((batch - b) / step, axis=1).max() <= 1.0


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
