"""One rule for the arrays a caller passes.

An array argument must hold integers or floats: its dtype is judged before any
cast, so text, bools, ``None``, ``Fraction``, ``Decimal``, complex values,
other objects and ints past 64 bits raise TypeError, and a ragged list or a
wrong shape raises ValueError, each in one short message.  A sampler raises
before it draws.  Accepted arrays give the bits of ``np.asarray(v, dtype=float)``.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from stapy import (
    RandomSource,
    RunResult,
    SearchSpace,
    Solution,
    op_axes,
    op_expand,
    op_rotate,
    op_translate,
    select_best,
    sphere,
)

HOSTILE = {
    "text": (["1", "2"], TypeError),
    "long-text": (["x" * 100_000], TypeError),
    "bools": ([True, False], TypeError),
    "fraction": ([Fraction(1, 3)], TypeError),
    "decimal": ([Decimal("0.1")], TypeError),
    "complex": ([1j], TypeError),
    "none": ([None], TypeError),
    "int-past-64-bits": ([2**64], TypeError),
    "object": (object(), TypeError),
    "ragged": ([[1.0, 2.0], [3.0]], ValueError),
}

# Each site maps an array argument ``v`` to a call; a sampler draws from ``rng``.
SITES = {
    "SearchSpace.lower": lambda v, rng: SearchSpace(v, [1.0, 1.0]),
    "SearchSpace.upper": lambda v, rng: SearchSpace([0.0, 0.0], v),
    "SearchSpace.contains": lambda v, rng: SearchSpace.uniform(2, 0, 1).contains(v),
    "Solution": lambda v, rng: Solution(v, 1.0),
    "RunResult.best": lambda v, rng: RunResult(v, 1.0, [1.0], 3, 0),
    "RunResult.history": lambda v, rng: RunResult([0.5, 0.5], 1.0, v, 3, 0),
    "select_best": lambda v, rng: select_best(sphere, v),
    "op_rotate": lambda v, rng: op_rotate(v, 4, 1.0, rng),
    "op_translate.old_best": lambda v, rng: op_translate(v, [1.0, 1.0], 4, 1.0, rng),
    "op_translate.new_best": lambda v, rng: op_translate([1.0, 1.0], v, 4, 1.0, rng),
    "op_expand": lambda v, rng: op_expand(v, 4, 1.0, rng),
    "op_axes": lambda v, rng: op_axes(v, 4, 1.0, rng),
}


@pytest.mark.parametrize("hostile", HOSTILE, ids=list(HOSTILE))
@pytest.mark.parametrize("site", SITES, ids=list(SITES))
def test_hostile_arrays_raise_one_short_message_before_any_draw(site, hostile):
    value, error = HOSTILE[hostile]
    rng = RandomSource(7)
    with pytest.raises(error) as caught:
        SITES[site](value, rng)
    assert type(caught.value) is error
    assert len(str(caught.value)) <= 100
    assert np.array_equal(rng.normal(5), RandomSource(7).normal(5))


@pytest.mark.parametrize("site", ["op_rotate", "op_expand", "op_axes", "op_translate.old_best"])
@pytest.mark.parametrize("value", [[[1.0, 2.0]], [], 3.0], ids=["2-D", "empty", "0-D"])
def test_a_sampler_state_of_the_wrong_shape_raises_before_any_draw(site, value):
    rng = RandomSource(7)
    with pytest.raises(ValueError, match="1-D .*, got shape"):
        SITES[site](value, rng)
    assert np.array_equal(rng.normal(5), RandomSource(7).normal(5))


ACCEPTED = {
    "int-list": [1, 2],
    "float-list": [0.1, 2.5],
    "int8": np.array([1, -2], dtype=np.int8),
    "int64": np.array([2**62 + 1, -3], dtype=np.int64),
    "uint64": np.array([2**64 - 1, 2], dtype=np.uint64),
    "float16": np.array([0.1, 2.5], dtype=np.float16),
    "float32": np.array([0.1, -2.5], dtype=np.float32),
    "float64": np.array([0.1, -2.5]),
}


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", ACCEPTED, ids=list(ACCEPTED))
def test_integers_and_floats_give_the_bits_of_a_float_cast(name):
    v = ACCEPTED[name]
    f = np.asarray(v, dtype=float)
    wide = np.abs(f) * 2 + 1
    assert _bits(SearchSpace(v, wide).lower) == _bits(f)
    assert _bits(SearchSpace(-wide, v).upper) == _bits(f)
    box = SearchSpace.uniform(2, -1e20, 1e20)
    assert box.contains(v) and box.contains([v, v])
    assert _bits(Solution(v, 1.0).coords) == _bits(f)
    run = RunResult(v, 1.0, v, 3, 0)
    assert _bits(run.best) == _bits(f) and _bits(run.history) == _bits(f)
    batch = np.stack([v, v]) if isinstance(v, np.ndarray) else [v, v]
    best = select_best(sphere, batch)
    assert _bits(best.coords) == _bits(f) and best.fitness == sphere(f)
    for site in ("op_rotate", "op_translate.old_best", "op_translate.new_best", "op_expand", "op_axes"):
        got = SITES[site](v, RandomSource(3))
        assert _bits(got) == _bits(SITES[site](f, RandomSource(3))), site


def test_uniform_judges_its_interval_by_the_scalar_rule():
    box = SearchSpace.uniform(2, -1, 10**20)
    assert box.lower.tolist() == [-1.0, -1.0] and box.upper.tolist() == [1e20, 1e20]
    with pytest.raises(ValueError, match="^lo must be finite"):
        SearchSpace.uniform(2, -(10**400), 1)
    with pytest.raises(TypeError, match="^hi must be a real number"):
        SearchSpace.uniform(2, 0, "1")


def test_bounds_out_of_order_name_the_first_coordinate_without_a_warning():
    # The other coordinate's width overflows to inf; judging the order takes no width.
    with pytest.raises(ValueError, match=r"\(coordinate 1: \[1\.0, 0\.0\]\)$"):
        SearchSpace([-1e308, 1.0], [1e308, 0.0])
