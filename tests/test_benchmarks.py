"""Benchmark values, reference optima, registry lookup, batch semantics."""

import math
import warnings

import numpy as np
import pytest

from stapy.benchmarks import (
    _sqrt_index,
    get_benchmark,
    griewank,
    list_benchmarks,
    paper_quadratic,
    rastrigin,
    rosenbrock,
    sphere,
)
from stapy.core import RandomSource


# ------------------------------------------------------------ point values


def test_sphere_values():
    assert sphere(np.zeros(7)) == 0.0
    assert sphere(np.array([3.0, 4.0])) == 25.0


def test_rosenbrock_values():
    assert rosenbrock(np.ones(6)) == 0.0
    assert rosenbrock(np.array([0.0, 0.0])) == 1.0


def test_rastrigin_values():
    assert rastrigin(np.zeros(10)) == 0.0
    assert rastrigin(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert (rastrigin(RandomSource(0).uniform(-5.12, 5.12, (100, 4))) >= 0.0).all()


def test_griewank_values():
    assert griewank(np.zeros(15)) == 0.0
    # At (pi, 0, 0): 1 + pi^2/4000 - cos(pi) = 2 + pi^2/4000.
    assert griewank(np.array([np.pi, 0.0, 0.0])) == pytest.approx(
        2.0 + np.pi**2 / 4000.0, abs=1e-12
    )


def test_griewank_differential_against_slow_formula():
    """Vectorized griewank vs a digit-by-digit fsum/math re-evaluation."""

    def slow(x):
        s = math.fsum(v * v for v in x) / 4000.0
        p = 1.0
        for i, v in enumerate(x, start=1):
            p *= math.cos(v / math.sqrt(i))
        return 1.0 + s - p

    rng = RandomSource(3)
    for _ in range(100):
        x = rng.uniform(-600.0, 600.0, 8)
        assert griewank(x) == pytest.approx(slow(x), abs=1e-9, rel=1e-12)


def test_paper_quadratic_values():
    assert paper_quadratic(np.array([1.0, 2.0, 6.0])) == 0.0
    assert paper_quadratic(np.zeros(3)) == 1.0
    with pytest.raises(ValueError):
        paper_quadratic(np.zeros(4))


def test_paper_quadratic_constrained_optimum_is_kkt_point():
    """The registry optimum solves the box-constrained problem.

    With the third coordinate pinned at its upper bound 1, the gradient in
    the two free coordinates must vanish and the multiplier on x3 must push
    outward (toward larger x3, where the unconstrained minimum sits).
    """
    spec = get_benchmark("paper_quadratic")
    argmin = spec.reference_argmin(3)
    assert np.array_equal(argmin, [8.0 / 23.0, 17.0 / 46.0, 1.0])
    x1, x2, x3 = argmin
    g1 = 2.0 * (x1 - 1.0) - 4.0 * (x2 - 2.0 * x1)
    g2 = 2.0 * (x2 - 2.0 * x1) - 6.0 * (x3 - 3.0 * x2)
    g3 = 2.0 * (x3 - 3.0 * x2)
    assert abs(g1) < 1e-12 and abs(g2) < 1e-12
    assert g3 < 0.0, "objective must still decrease past the active bound"
    assert paper_quadratic(argmin) == pytest.approx(spec.reference_optimum, abs=1e-12)
    assert spec.reference_optimum == pytest.approx(1150.0 / 2116.0, abs=0)


def test_paper_quadratic_no_feasible_point_beats_reference():
    spec = get_benchmark("paper_quadratic")
    box = spec.default_box(3)
    rng = RandomSource(17)
    u = rng.uniform(0.0, 1.0, (200_000, 3))
    points = box.lower + u * (box.upper - box.lower)
    values = paper_quadratic(points)
    assert values.min() >= spec.reference_optimum - 1e-12
    # Feasible points near the argmin approach the optimum from above.
    near = spec.reference_argmin(3) + 1e-3 * rng.normal((1000, 3))
    near = np.clip(near, box.lower, box.upper)
    near_values = paper_quadratic(near)
    assert near_values.min() >= spec.reference_optimum - 1e-12
    assert near_values.min() < spec.reference_optimum + 1e-4


# --------------------------------------------------------------- batching


@pytest.mark.parametrize(
    "fn,dim",
    [(sphere, 5), (rosenbrock, 5), (rastrigin, 5), (griewank, 5), (paper_quadratic, 3)],
)
def test_batch_rows_equal_scalar_calls(fn, dim):
    assert fn.supports_batch is True
    rows = RandomSource(1).uniform(-3.0, 3.0, (40, dim))
    batch = fn(rows)
    assert batch.shape == (40,)
    for i in range(40):
        assert batch[i] == fn(rows[i])


# The formulas as first written: np.sum, np.prod and a fresh np.arange per call.
TEXTBOOK = {
    sphere: lambda x: np.sum(x * x, axis=-1),
    rosenbrock: lambda x: np.sum(
        100.0 * (x[..., 1:] - x[..., :-1] * x[..., :-1]) ** 2 + (1.0 - x[..., :-1]) ** 2,
        axis=-1,
    ),
    rastrigin: lambda x: 10.0 * x.shape[-1]
    + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1),
    griewank: lambda x: 1.0
    + np.sum(x * x, axis=-1) / 4000.0
    - np.prod(np.cos(x / np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))), axis=-1),
}

HOSTILE = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]


def test_builtin_objectives_equal_their_textbook_form_bit_for_bit():
    rng = RandomSource(13)
    for n in (1, 2, 3, 10, 100):
        point = rng.uniform(-600.0, 600.0, n)
        batch = rng.uniform(-5.0, 5.0, (7, n))
        nested = rng.uniform(-50.0, 50.0, (2, 3, n))
        hostile = rng.uniform(-1.0, 1.0, (len(HOSTILE), n))
        hostile[np.arange(len(HOSTILE)), rng.integers(n, len(HOSTILE))] = HOSTILE
        hostile_nested = np.where(
            rng.uniform(0.0, 1.0, (4, 5, n)) < 0.3,
            np.array(HOSTILE)[rng.integers(len(HOSTILE), (4, 5, n))],
            rng.uniform(-600.0, 600.0, (4, 5, n)),
        )
        for fn, textbook in TEXTBOOK.items():
            assert type(fn(point)) is np.float64
            assert fn(point) == textbook(point)
            for x in (batch, nested):
                assert np.array_equal(fn(x), textbook(x))
            with np.errstate(all="ignore"):
                for x in (hostile, hostile_nested):
                    got, want = fn(x), textbook(x)
                    assert got.shape == want.shape == x.shape[:-1]
                    assert np.array_equal(got, want, equal_nan=True), (fn.__name__, n)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
    # griewank's divisors: computed once per dimension, read-only, in a bounded table.
    divisors = _sqrt_index(10)
    assert divisors is _sqrt_index(10)
    assert not divisors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        divisors[0] = 2.0
    for n in range(1, 500):
        griewank(np.zeros(n))
    assert _sqrt_index.cache_info().currsize <= _sqrt_index.cache_info().maxsize < 500


# A point of at most 32 coordinates folds griewank's cosines in Python floats;
# a longer point or a batch keeps numpy.  n from 1 to 64 covers both sides.
GRIEWANK_ENTRIES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    600.0, -600.0, np.nextafter(600.0, 0.0), np.nextafter(-600.0, 0.0),
]


def test_griewank_point_equals_its_batch_row_and_textbook_bit_for_bit():
    rng = RandomSource(17)
    entries = np.array(GRIEWANK_ENTRIES)
    textbook = TEXTBOOK[griewank]
    for n in range(1, 65):
        # Near the origin the product's last bits reach the result.
        scales = np.array([[600.0], [60.0], [6.0], [3.0], [1.0], [0.3]])
        finite = rng.uniform(-1.0, 1.0, (6, n)) * scales
        picked = entries[rng.integers(len(entries), (12, n))]
        hostile = np.where(
            rng.uniform(0.0, 1.0, (12, n)) < 0.3, picked, rng.uniform(-600.0, 600.0, (12, n))
        )
        batch = np.concatenate([finite, hostile, picked])
        with np.errstate(all="ignore"):
            rows = griewank(batch)
            for i, x in enumerate(batch):
                got = griewank(x)
                assert type(got) is np.float64
                assert got.tobytes() == rows[i].tobytes() == textbook(x).tobytes(), (n, i)


def test_griewank_finite_point_raises_no_warning():
    rng = RandomSource(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 10, 64, 1000):
            for x in (
                rng.uniform(-600.0, 600.0, n),
                rng.uniform(-1e-300, 1e-300, n),
                np.full(n, 5e-324),
                np.full(n, -0.0),
            ):
                assert np.isfinite(griewank(x))


# --------------------------------------------------------------- registry


def test_registry_names_and_case_insensitive_lookup():
    assert list_benchmarks() == [
        "griewank", "paper_quadratic", "rastrigin", "rosenbrock", "sphere",
    ]
    assert get_benchmark("Rastrigin").name == "rastrigin"
    assert get_benchmark("  SPHERE ").name == "sphere"


def test_registry_unknown_name_lists_alternatives():
    with pytest.raises(ValueError, match="rastrigin"):
        get_benchmark("ackley")


@pytest.mark.parametrize(
    "name",
    ["x" * 100_000, 10**5000, type("Name", (), {"__str__": lambda self: "sphere"})()],
    ids=["long text", "huge integer", "str-like object"],
)
def test_registry_unknown_name_message_is_short(name):
    """Only a str is looked up, and an unknown name, however long, gets a short message."""
    with pytest.raises(ValueError, match="^unknown benchmark ") as err:
        get_benchmark(name)
    assert len(str(err.value)) < 200


def test_registry_default_boxes():
    assert np.all(get_benchmark("rastrigin").default_box(10).upper == 5.12)
    assert np.all(get_benchmark("griewank").default_box(15).upper == 600.0)
    assert np.all(get_benchmark("sphere").default_box(4).upper == 100.0)
    ros = get_benchmark("rosenbrock").default_box(4)
    assert np.all(ros.lower == -5.0) and np.all(ros.upper == 10.0)
    quad = get_benchmark("paper_quadratic").default_box(3)
    assert np.array_equal(quad.lower, [-3.0, -2.0, -1.0])
    assert np.array_equal(quad.upper, [3.0, 2.0, 1.0])


def test_registry_fixed_dim_guard():
    with pytest.raises(ValueError, match="fixed to dim 3"):
        get_benchmark("paper_quadratic").default_box(5)
    with pytest.raises(ValueError, match="fixed to dim 3"):
        get_benchmark("paper_quadratic").reference_argmin(2)
    for dim in (0, -1):
        with pytest.raises(ValueError):
            get_benchmark("sphere").default_box(dim)


def test_reference_argmin_hits_reference_optimum_everywhere():
    for name in list_benchmarks():
        spec = get_benchmark(name)
        dim = spec.fixed_dim or 6
        argmin = spec.reference_argmin(dim)
        assert argmin is not None
        value = float(spec.objective(np.asarray(argmin, dtype=float)))
        assert value == pytest.approx(spec.reference_optimum, abs=1e-12), name
        assert spec.default_box(dim).contains(np.asarray(argmin)), name
