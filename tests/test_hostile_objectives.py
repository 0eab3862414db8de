"""The run contract under hostile objectives and boxes near the float limits.

Objectives return NaN, +inf or -inf on islands keyed deterministically on
the point, and after a drawn share of the run's largest evaluation budget
they raise, return the wrong shape or write into their input.  Whatever
happens, the objective only sees points inside the box, and a returned
result (or the partial result of an aborted run) has a non-increasing
history, a finite and feasible best with ``fbest == history[-1] ==
f(best)``, and, when the run completes, an exact evaluation count.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stapy.core import CallCounter, SearchSpace, StaParams
from stapy.engine import EvaluationError, RunAborted, sta_run

LIMIT = 1.79e308


class BackendError(RuntimeError):
    pass


def islands(space, center, nan_p, pinf_p, minf_p):
    """Max-norm distance to ``center``, replaced by NaN, +inf or -inf on the
    cells of an 8-per-axis grid that a fixed hash assigns to each.

    The distance never overflows inside a box of finite width, and every
    step is elementwise or exact, so a point gets the same value alone as in
    a batch.  Like ``nansum``, the distance skips NaN coordinates, so a point
    with one would score finite and could win.
    """
    digits = 9.0 ** np.arange(space.dim)

    def f(x):
        x = np.asarray(x, dtype=float)
        value = np.fmax.reduce(np.abs(0.5 * x - 0.5 * center), axis=-1)
        cell = np.floor(8.0 * (x - space.lower) / (space.upper - space.lower))
        key = (np.sin(1.0 + np.sum(cell * digits, axis=-1)) * 43758.5453) % 1.0
        value = np.where(key < nan_p, np.nan, value)
        value = np.where((key >= nan_p) & (key < nan_p + pinf_p), np.inf, value)
        lo = nan_p + pinf_p
        return np.where((key >= lo) & (key < lo + minf_p), -np.inf, value)

    return f


@st.composite
def boxes(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        lower = draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim))
        width = draw(st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim))
        return SearchSpace(np.array(lower), np.array(lower) + np.array(width))
    # Finite-width boxes with one bound near +-1e308.
    near = np.array(draw(st.lists(st.floats(1e307, LIMIT), min_size=dim, max_size=dim)))
    ratio = np.array(draw(st.lists(st.floats(0.0, 0.99), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        return SearchSpace(near * ratio, near)
    return SearchSpace(-near, -near * ratio)


HOSTILITY = {
    "raise": BackendError,  # the objective raises
    "shape": TypeError,  # it returns two values per point, which CallCounter._score rejects
    "write": ValueError,  # it writes into the read-only points it is given
}


@settings(deadline=None, max_examples=200)
@given(
    space=boxes(),
    where=st.floats(0.0, 1.0),
    nan_p=st.floats(0.0, 0.4),
    pinf_p=st.floats(0.0, 0.3),
    minf_p=st.floats(0.0, 0.3),
    hostility=st.sampled_from(sorted(HOSTILITY)),
    raise_at=st.floats(0.0, 1.5),
    batch=st.booleans(),
    se=st.integers(min_value=1, max_value=8),
    iterations=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Near +-1e308 the incumbent's norm overflows, and op_rotate's rows get NaN
# coordinates (0 * inf) that projection must still clamp into the box.
@example(
    space=SearchSpace(np.full(2, 1e308), np.full(2, 1.7e308)),
    where=0.0, nan_p=0.0, pinf_p=0.0, minf_p=0.0, hostility="raise",
    raise_at=1.5, batch=True, se=30, iterations=10, seed=0,
)
def test_run_contract_holds_for_hostile_objectives(
    space, where, nan_p, pinf_p, minf_p, hostility, raise_at, batch, se, iterations, seed
):
    # A run costs at most se evaluations to start and 6 * se per iteration,
    # so a share above 1 never turns hostile.
    raise_after = raise_at * se * (1 + 6 * iterations)
    f = islands(space, space.lower + where * (space.upper - space.lower), nan_p, pinf_p, minf_p)
    outside = []

    def objective(x):
        if not space.contains(x):
            outside.append(np.array(x))
        value = f(x) if batch else float(f(x))
        if counting.count > raise_after:
            if hostility == "raise":
                raise BackendError("the objective went away")
            if hostility == "shape":
                return np.stack([value, value], axis=-1)
            x[...] = 0.0
        return value

    objective.supports_batch = batch
    counting = CallCounter(objective)
    try:
        result = sta_run(counting, space, StaParams(se=se, iterations=iterations), rng=seed)
    except RunAborted as err:
        assert isinstance(err.__cause__, (HOSTILITY[hostility], EvaluationError))
        if hostility == "write" and isinstance(err.__cause__, ValueError):
            assert "read-only" in str(err.__cause__)
        result = err.partial
    else:
        assert result.evaluations == counting.count
        assert len(result.history) == iterations
    assert not outside, f"objective saw {outside[0]} outside the box"
    if result is None:
        return
    assert np.all(np.diff(result.history) <= 0.0)
    assert np.isfinite(result.best).all() and space.contains(result.best)
    with np.errstate(all="ignore"):  # the islands' grid arithmetic overflows near 1e308
        expected = float(f(result.best))
    assert np.isfinite(result.fbest) and result.fbest == expected
    if len(result.history):
        assert result.fbest == result.history[-1]


# A plain positive real, or one near the float limit.
FACTORS = st.floats(1e-3, 10.0) | st.floats(1e300, LIMIT)


@st.composite
def limit_boxes(draw):
    """Boxes of finite width with bounds, and so rows, near +-1e308: from about
    0 up to the limit, across 0 with a width near the limit, or at one end."""
    dim = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from(["up", "across", "end"]))
    near = np.array(draw(st.lists(st.floats(1e307, LIMIT), min_size=dim, max_size=dim)))
    if shape == "up":
        return SearchSpace(np.zeros(dim), near)
    if shape == "across":
        return SearchSpace(-near / 2.0, near / 2.0)
    low = near * np.array(draw(st.lists(st.floats(0.0, 0.99), min_size=dim, max_size=dim)))
    return SearchSpace(-near, -low) if draw(st.booleans()) else SearchSpace(low, near)


@st.composite
def limit_params(draw):
    """StaParams whose step factors, radius and decay may sit near 1e308."""
    alpha_max = draw(FACTORS)
    return StaParams(
        alpha_max=alpha_max,
        alpha_min=alpha_max * draw(st.floats(1e-300, 1.0)),
        beta=draw(FACTORS),
        gamma=draw(FACTORS),
        delta=draw(FACTORS),
        fc=draw(st.floats(1.01, 10.0) | st.floats(1e300, LIMIT)),
        se=draw(st.integers(min_value=1, max_value=8)),
        iterations=draw(st.integers(min_value=1, max_value=8)),
    )


@settings(deadline=None, max_examples=150)
@given(
    space=limit_boxes() | boxes(),
    params=limit_params(),
    where=st.floats(0.0, 1.0),
    batch=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    space=SearchSpace.uniform(3, 0.0, 1.7e308), params=StaParams(iterations=20),
    where=0.5, batch=False, seed=0,
)
@example(
    space=SearchSpace.uniform(3, -8e307, 8e307), params=StaParams(iterations=20),
    where=0.5, batch=True, seed=0,
)
@example(
    space=SearchSpace.uniform(3, 1.0, 2.0), params=StaParams(gamma=1e308, iterations=20),
    where=0.5, batch=False, seed=0,
)
def test_no_warning_escapes_a_run_near_the_float_limits(space, params, where, batch, seed):
    """Overflow in the samplers (a norm, a step factor, a radius near 1e308)
    raises no warning, with warnings as errors and no errstate here, and the
    run contract holds: it completes, exactly counted and repeatable."""
    center = space.lower + where * (space.upper - space.lower)

    def f(x):  # max-norm distance to center; halving first keeps it finite
        return np.fmax.reduce(np.abs(0.5 * x - 0.5 * center), axis=-1)

    def objective(x):
        return f(x) if batch else float(f(x))

    objective.supports_batch = batch
    counting = CallCounter(objective)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sta_run(counting, space, params, rng=seed)
        again = sta_run(objective, space, params, rng=seed)
    assert len(result.history) == params.iterations
    assert result.evaluations == counting.count == again.evaluations
    assert np.all(np.diff(result.history) <= 0.0)
    assert np.isfinite(result.best).all() and space.contains(result.best)
    assert result.fbest == result.history[-1] == float(f(result.best))
    assert np.array_equal(result.best, again.best)
    assert np.array_equal(result.history, again.history)
