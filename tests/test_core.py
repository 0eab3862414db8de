"""Domain types: parameter validation, search space, random source, counters."""

from dataclasses import replace

import numpy as np
import pytest

from stapy.core import (
    CallCounter,
    RandomSource,
    RunResult,
    SearchSpace,
    Solution,
    StaParams,
)


def test_default_params_values():
    p = StaParams()
    assert p.alpha_max == 1.0
    assert p.alpha_min == 1e-4
    assert p.beta == 1.0
    assert p.gamma == 1.0
    assert p.delta == 1.0
    assert p.se == 30
    assert p.fc == 2.0
    assert p.iterations == 1000


def test_params_field_override():
    p = replace(StaParams(), se=50)
    assert p.se == 50
    assert p.alpha_max == 1.0 and p.iterations == 1000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_min": 0.0},
        {"alpha_min": -1e-4},
        {"alpha_min": 2.0, "alpha_max": 1.0},
        {"beta": 0.0},
        {"gamma": -1.0},
        {"delta": 0.0},
        {"se": 0},
        {"se": 2.5},
        {"fc": 1.0},
        {"fc": 0.5},
        {"iterations": 0},
        {"gamma": np.inf},
        {"beta": np.inf},
        {"fc": np.inf},
        {"alpha_min": np.inf, "alpha_max": np.inf},
        {"se": np.inf},
        {"iterations": np.nan},
    ],
)
def test_params_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        StaParams(**kwargs)


def test_params_se_one_is_legal():
    assert StaParams(se=1).se == 1


def test_params_accepts_an_integer_beyond_float_range():
    assert StaParams(iterations=10**309).iterations == 10**309


def test_search_space_basic():
    space = SearchSpace(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert space.dim == 2
    assert space.contains(np.array([0.0, 1.0]))
    assert space.contains(np.array([1.0, 2.0])), "boundary is feasible"
    assert not space.contains(np.array([1.5, 1.0]))


def test_search_space_contains_a_point_or_a_batch_of_its_length_only():
    """A point of the wrong length raises, even one that would broadcast."""
    space = SearchSpace.uniform(3, 0.0, 1.0)
    for bad in (np.array([0.5]), np.array([0.5, 0.5]), np.full(4, 0.5), np.zeros((2, 2)), 0.5):
        with pytest.raises(ValueError, match="length 3"):
            space.contains(bad)
    assert space.contains(np.full((5, 3), 0.5)), "every row of a batch is in the box"
    assert not space.contains(np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5]]))


def test_search_space_uniform():
    space = SearchSpace.uniform(10, -5.12, 5.12)
    assert space.dim == 10
    assert np.all(space.lower == -5.12) and np.all(space.upper == 5.12)


@pytest.mark.parametrize(
    "lower,upper",
    [
        ([0.0, 0.0], [0.0, 1.0]),  # degenerate equal bound
        ([1.0], [0.0]),  # inverted
        ([0.0, 0.0], [1.0]),  # length mismatch
        ([], []),  # empty
        ([0.0, -np.inf], [1.0, 1.0]),  # non-finite
        ([0.0, np.nan], [1.0, 1.0]),
        ([-1e308, -1e308], [1e308, 1e308]),  # width overflows to inf
    ],
)
def test_search_space_rejects(lower, upper):
    with pytest.raises(ValueError):
        SearchSpace(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))


def test_search_space_bounds_are_readonly():
    space = SearchSpace.uniform(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        space.lower[0] = -1.0


def test_solution_coords_readonly_and_fitness_float():
    sol = Solution(np.array([1, 2]), fitness=5)
    assert sol.fitness == 5.0 and isinstance(sol.fitness, float)
    with pytest.raises(ValueError):
        sol.coords[0] = 9.0


def test_random_source_seed_validation():
    RandomSource(0)
    RandomSource(2**64 - 1)
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)


def test_random_source_determinism_100k_per_kind():
    """Same seed, same call sequence, identical 1e5-long streams per kind."""
    for kind in ("uniform", "normal", "integers"):
        a, b = RandomSource(12345), RandomSource(12345)
        if kind == "uniform":
            xa, xb = a.uniform(-1.0, 1.0, 100_000), b.uniform(-1.0, 1.0, 100_000)
        elif kind == "normal":
            xa, xb = a.normal(100_000), b.normal(100_000)
        else:
            xa, xb = a.integers(10, size=100_000), b.integers(10, size=100_000)
        assert np.array_equal(xa, xb), f"{kind} stream not reproducible"


def _drawn(draw, source):
    try:
        return draw(source)
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


def _assert_draws_like_numpy(ours, numpys):
    """``ours(RandomSource(21))`` gives ``numpys(Generator(PCG64(21)))``'s values
    bit for bit, or its error, and leaves the stream where numpy leaves it."""
    source, gen = RandomSource(21), np.random.Generator(np.random.PCG64(21))
    got, want = _drawn(ours, source), _drawn(numpys, gen)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    else:
        assert got == want
    assert source.normal() == gen.standard_normal()
    return got


def _assert_uniform_like_numpy(low, high):
    """The outcomes of ``uniform(low, high, size)`` at sizes None, 3, (2, 3) and
    (50, 40), each checked by :func:`_assert_draws_like_numpy`."""
    return [
        _assert_draws_like_numpy(
            lambda source: source.uniform(low, high, size), lambda gen: gen.uniform(low, high, size)
        )
        for size in (None, 3, (2, 3), (50, 40))
    ]


@pytest.mark.parametrize(
    "low,high",
    [(-1.0, 1.0), (0.0, 1.0), (-5.12, 5.12), (0.3, 0.7), (-600.0, 600.0), (1e-3, 3.3),
     (-1e300, 1e300),
     pytest.param(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 600.0]), id="arrays"),
     pytest.param(0.0, np.array([[1.0], [2.0]]), id="column"),
     pytest.param(1.0, 0.0, id="high-below-low"),
     pytest.param(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0]), id="arrays-high-below-low")],
)
def test_random_source_uniform_is_numpys_uniform(low, high):
    """What numpy's ``uniform`` gives: its bits, or its error for a negative range
    or bounds that do not broadcast to the size.  Scalar bounds without a size
    give one float."""
    drawn = _assert_uniform_like_numpy(low, high)
    if np.ndim(low) == np.ndim(high) == 0 and low <= high:
        assert type(drawn[0]) is float


@pytest.mark.parametrize(
    "low,high",
    [(-1.7e308, 1.7e308), (1.0, np.nan), (0.0, np.inf),
     pytest.param(np.nan, 0.0, id="nan-low"),
     pytest.param(np.array([0.0, np.nan, 0.0]), 1.0, id="array-nan")],
)
def test_random_source_uniform_rejects_a_non_finite_range(low, high):
    """OverflowError before any draw, as numpy raises it, at every size."""
    for outcome in _assert_uniform_like_numpy(low, high):
        assert outcome[0] is OverflowError


@pytest.mark.parametrize("size", [None, 3, (2, 3)], ids=["none", "int", "2d"])
@pytest.mark.parametrize("n", [1, 6, 2**40])
def test_random_source_integers_are_numpys(n, size):
    _assert_draws_like_numpy(
        lambda source: source.integers(n, size), lambda gen: gen.integers(0, n, size)
    )


def test_random_source_seeds_differ():
    assert not np.array_equal(
        RandomSource(0).normal(100), RandomSource(1).normal(100)
    )


def test_random_source_ranges():
    rng = RandomSource(7)
    u = rng.uniform(-2.0, 3.0, 10_000)
    assert u.min() >= -2.0 and u.max() <= 3.0
    k = rng.integers(6, size=10_000)
    assert k.min() >= 0 and k.max() <= 5
    assert set(np.unique(k)) == {0, 1, 2, 3, 4, 5}, "all of {0..n-1} reachable"
    assert repr(RandomSource(7)) == "RandomSource(seed=7)"


def test_run_result_readonly_views():
    res = RunResult(
        best=np.array([1.0]), fbest=2.0, history=np.array([3.0, 2.0]),
        evaluations=60, seed=0,
    )
    with pytest.raises(ValueError):
        res.best[0] = 0.0
    with pytest.raises(ValueError):
        res.history[0] = 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: SearchSpace.uniform(2, -1.0, 1.0),
        lambda: Solution(np.array([1.0, 2.0]), 3.0),
        lambda: RunResult(np.array([1.0]), 2.0, np.array([3.0, 2.0]), 60, 0),
    ],
    ids=["SearchSpace", "Solution", "RunResult"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b, "equal arrays, distinct objects"
    assert len({a, a, b}) == 2


def test_call_counter_score_scalar_objective():
    def f(x):
        return float(np.sum(x))

    rows = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(CallCounter(f)._score(rows), [1.0, 5.0, 9.0])


def test_call_counter_score_vectorized_objective():
    def f(x):
        return np.sum(np.asarray(x), axis=-1)

    f.supports_batch = True
    rows = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(CallCounter(f)._score(rows), [1.0, 5.0, 9.0])


@pytest.mark.parametrize("batch", [False, True])
def test_call_counter_score_passes_read_only_view(batch):
    def write(x):
        x[...] = 0.0
        return np.zeros(len(x)) if batch else 0.0

    write.supports_batch = batch
    rows = np.ones((3, 2))
    with pytest.raises(ValueError, match="read-only"):
        CallCounter(write)._score(rows)
    assert rows.flags.writeable and np.all(rows == 1.0)


def test_call_counter_score_rejects_bad_batch_shape():
    def f(x):
        return np.zeros(5)  # wrong length on purpose

    f.supports_batch = True
    with pytest.raises(TypeError):
        CallCounter(f)._score(np.zeros((3, 2)))


def test_call_counter_counts_points_not_calls():
    def f(x):
        x = np.asarray(x)
        return np.sum(x, axis=-1)

    f.supports_batch = True
    counting = CallCounter(f)
    assert counting.supports_batch is True
    counting(np.zeros(4))
    counting(np.zeros((30, 4)))
    assert counting.count == 31
    counting(np.zeros((4, 5, 3)))  # a stack: every point along its leading axes
    assert counting.count == 51
    scalar = CallCounter(float)
    assert scalar(2.5) == 2.5 and scalar.count == 1  # a 0-d value is one point


def test_call_counter_plain_objective():
    counting = CallCounter(lambda x: 0.0)
    assert counting.supports_batch is False
    counting(np.zeros(2))
    assert counting.count == 1
