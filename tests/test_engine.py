"""Loop semantics: initialization, projection, selection, phases, full runs.

Projection and phases are tested on the private kernels that ``sta_run``
runs (``_clamp``, the samplers and the generator ``_walk``), as no public
function wraps them.  ``_phase`` below drives one phase of ``_walk`` as a run
does: it scores each batch with ``_best``, through the private ``_score`` of a
``CallCounter`` whose ``count`` is the run's own count.
"""

from unittest import mock

import numpy as np
import pytest

from stapy import engine
from stapy.benchmarks import rastrigin, sphere
from stapy.core import CallCounter, RandomSource, SearchSpace, StaParams
from stapy.engine import (
    EvaluationError,
    RunAborted,
    _best,
    _clamp,
    _walk,
    initialize,
    select_best,
    sta_run,
)
from stapy.expressions import parse_expression
from stapy.operators import _axes, _expand, _rotate


def rng(seed=0):
    return RandomSource(seed)


def _phase(evals, space, x, fx, batch, params, rng):
    """One phase around ``(x, fx)`` whose sampler drew ``batch``, and its best.

    It replays the first phase of a ``_walk`` iteration with the expansion's
    draw patched to ``batch``, scores that batch and its translation chase, if
    one fires, with ``_best`` as ``sta_run`` does, and answers every later
    batch with +inf, which never wins, so the iteration's marker holds the
    phase's result."""
    walk = _walk(space, x, fx, params, rng)
    with mock.patch.object(engine, "_expand", lambda *args: batch):
        y, fy = _best(evals, next(walk))
    step = walk.send((y, fy))
    if fy < fx:  # strict improvement: the next batch is the translation chase
        step = walk.send(_best(evals, step))
    while not isinstance(step, tuple):
        step = walk.send((step[0], np.inf))
    return step[:2]


# ------------------------------------------------------------ initialize


def test_initialize_singleton():
    space = SearchSpace.uniform(3, -2.0, 2.0)
    counting = CallCounter(sphere)
    sol = initialize(space, 1, rng(), counting)
    assert counting.count == 1
    assert space.contains(sol.coords)
    assert sol.fitness == sphere(sol.coords)


def test_initialize_dense_draw_hits_small_fitness():
    """Best of 1e4 uniform points on sphere over [-1,1]^2 lands below 0.01.

    P(single point has f <= 0.01) = pi*0.01/4 ~ 0.0079, so the chance all
    1e4 points miss is (1-0.0079)^1e4 ~ e^-79: effectively impossible.
    """
    space = SearchSpace.uniform(2, -1.0, 1.0)
    sol = initialize(space, 10_000, rng(123), sphere)
    assert sol.fitness <= 0.01


def test_initialize_rejects_non_finite_objective():
    space = SearchSpace.uniform(2, 0.0, 1.0)

    def bad(x):
        return float("nan")

    with pytest.raises(EvaluationError, match="non-finite"):
        initialize(space, 5, rng(), bad)


def test_initialize_skips_non_finite_points():
    seen = []

    def f(x):
        seen.append(float(x[0]))
        return seen[-1] if seen[-1] >= 0 else float("nan")

    sol = initialize(SearchSpace.uniform(1, -1.0, 1.0), 8, rng(4), f)
    assert min(seen) < 0 <= max(seen), "some but not all points are non-finite"
    assert sol.fitness == min(v for v in seen if v >= 0) == sol.coords[0]


def test_initialize_rejects_bad_se():
    with pytest.raises(ValueError):
        initialize(SearchSpace.uniform(2, 0.0, 1.0), 0, rng(), sphere)


# ------------------------------------------------------------ projection


def test_project_clamps_to_rastrigin_box():
    space = SearchSpace.uniform(2, -5.12, 5.12)
    out = _clamp(np.array([[7.0, -7.0]]), space)
    assert np.array_equal(out, [[5.12, -5.12]])


def test_project_identity_inside_and_on_bounds():
    space = SearchSpace.uniform(2, -1.0, 1.0)
    rows = np.array([[0.3, -0.4], [1.0, -1.0]])
    assert np.array_equal(_clamp(rows, space), [[0.3, -0.4], [1.0, -1.0]])


def test_project_clamps_in_place_and_sends_nan_to_the_lower_bound():
    space = SearchSpace.uniform(2, -1.0, 1.0)
    rows = np.array([[5.0, 5.0], [np.nan, -np.inf]])
    out = _clamp(rows, space)
    assert out is rows and np.array_equal(rows, [[1.0, 1.0], [-1.0, -1.0]])


# ------------------------------------------------------------ select_best


def test_select_best_minimum_and_tie_break():
    values = {0: 2.0, 1: 1.0, 2: 3.0}

    def f(x):
        return values[int(x[0])]

    batch = np.array([[0.0], [1.0], [2.0]])
    assert select_best(f, batch).fitness == 1.0

    def tie(x):
        return 1.0

    sol = select_best(tie, np.array([[10.0], [20.0]]))
    assert sol.coords[0] == 10.0, "ties go to the lowest row index"


def test_select_best_ignores_non_finite():
    def f(x):
        return float("inf") if x[0] < 0 else float(x[0])

    sol = select_best(f, np.array([[-1.0], [5.0], [3.0]]))
    assert sol.fitness == 3.0


def test_select_best_all_non_finite_gives_row_zero_at_inf():
    values = iter([np.nan, np.inf, -np.inf, np.nan])
    batch = np.arange(8.0).reshape(4, 2)
    sol = select_best(lambda x: next(values), batch)
    assert sol.fitness == np.inf
    assert np.array_equal(sol.coords, batch[0])


def test_select_best_equals_exhaustive_scan():
    """Rastrigin batches, then batches with NaN, +inf and -inf planted at drawn
    rows: before, at and after the finite minimum, or in every row."""
    source, draw = rng(77), np.random.default_rng(77)
    for trial in range(250):
        batch = source.uniform(-5.12, 5.12, (30, 10))
        values = np.array([float(rastrigin(row)) for row in batch])
        objective = rastrigin
        if trial >= 50:
            m = int(np.argmin(values))
            rows = [draw.integers(0, m + 1), m, draw.integers(m, 30), *draw.integers(0, 30, 3)]
            if trial % 10 == 0:
                rows = np.arange(30)
            else:
                rows = draw.choice(rows, draw.integers(1, len(rows) + 1), replace=False)
            kinds = [[np.nan], [np.inf], [-np.inf], [np.nan, np.inf, -np.inf]][draw.integers(4)]
            values[rows] = draw.choice(kinds, len(rows))
            objective = lambda x, values=values: values.copy()  # noqa: E731
            objective.supports_batch = True
        sol = select_best(objective, batch)
        masked = np.where(np.isfinite(values), values, np.inf)
        g = int(np.argmin(masked))
        assert np.array_equal(sol.coords, batch[g])
        assert sol.fitness == masked[g]


def test_select_best_rejects_empty_or_1d():
    with pytest.raises(ValueError):
        select_best(sphere, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        select_best(sphere, np.zeros(2))


def test_greedy_update_strictness():
    """A phase keeps its candidate only on strict improvement: against an
    incumbent at 1.0, a candidate at 0.5 wins, one at 1.0 or 2.0 does not."""
    space = SearchSpace.uniform(1, -2.0, 2.0)
    x, candidate, params = np.zeros(1), np.ones(1), StaParams(se=1)
    for value, wins in ((0.5, True), (1.0, False), (2.0, False)):

        def scripted(p):
            return value if np.array_equal(p, candidate) else 3.0

        counter = CallCounter(scripted)
        out, fitness = _phase(counter, space, x, 1.0, candidate[None, :].copy(), params, rng())
        if wins:
            assert fitness == 0.5 and np.array_equal(out, candidate)
        else:
            assert out is x and fitness == 1.0


# ----------------------------------------------------------------- phase


def test_phase_no_improvement_skips_translation():
    """An unbeatable incumbent costs exactly se evaluations (no chase) and
    comes back as the same object.  Every candidate at best ties the global
    optimum, and a tie does not replace the incumbent: improvement is strict."""
    space = SearchSpace.uniform(2, -1.0, 1.0)
    counter = CallCounter(sphere)
    x = np.zeros(2)  # global optimum
    params = StaParams(se=30)
    batch = _expand(x, params.se, params.gamma, rng())
    batch[7] = 0.0  # one candidate equals the incumbent
    out, fitness = _phase(counter, space, x, 0.0, batch, params, rng())
    assert out is x and fitness == 0.0
    assert counter.count == 30


def test_phase_improvement_triggers_translation():
    """A strict improvement costs se (operator) + se (translation chase)."""
    space = SearchSpace.uniform(2, -5.0, 5.0)
    counter = CallCounter(sphere)
    x, params, source = np.array([1.0, 1.0]), StaParams(se=30), rng(4)
    # Rotation with alpha=1 around (1,1) improves with overwhelming probability.
    batch = _rotate(x, params.se, 1.0, source)
    out, fitness = _phase(counter, space, x, 2.0, batch, params, source)
    assert fitness < 2.0 and fitness == sphere(out)
    assert counter.count == 60
    assert space.contains(out)


def test_phase_improves_at_least_once_over_seeds():
    """On sphere from (1,1), rotation phases improve on most seeds."""
    space = SearchSpace.uniform(2, -5.0, 5.0)
    x, params = np.array([1.0, 1.0]), StaParams(se=30)
    wins = 0
    for s in range(100):
        source = rng(s)
        batch = _rotate(x, params.se, params.alpha_max, source)
        wins += _phase(CallCounter(sphere), space, x, 2.0, batch, params, source)[1] < 2.0
    assert wins >= 1


def test_phase_fitness_never_increases_and_stays_feasible():
    space = SearchSpace.uniform(3, -2.0, 2.0)
    params = StaParams(se=10)
    source = rng(21)
    best = initialize(space, 10, source, rastrigin)
    x, fx, counter = best.coords, best.fitness, CallCounter(rastrigin)
    samplers = (
        lambda x: _expand(x, params.se, params.gamma, source),
        lambda x: _rotate(x, params.se, 0.5, source),
        lambda x: _axes(x, params.se, params.delta, source),
    )
    for _ in range(20):
        for sample in samplers:
            y, fy = _phase(counter, space, x, fx, sample(x), params, source)
            assert fy <= fx and fy == rastrigin(y)
            assert space.contains(y)
            x, fx = y, fy


def test_phase_all_non_finite_batch_counts_as_no_improvement():
    space = SearchSpace.uniform(2, -1.0, 1.0)
    home = np.array([0.5, 0.5])

    def nan_away_from_home(x):
        x = np.asarray(x)
        return 0.25 if np.array_equal(x, home) else float("nan")

    params, source = StaParams(se=5), rng(1)
    batch = _expand(home, params.se, params.gamma, source)
    counter = CallCounter(nan_away_from_home)
    out, fitness = _phase(counter, space, home, 0.25, batch, params, source)
    assert out is home and fitness == 0.25, "an all-non-finite batch must not win"


def test_phase_non_finite_translation_batch_keeps_the_candidate():
    """Translation fires, finds no finite value, and the candidate stands."""
    space = SearchSpace.uniform(2, -5.0, 5.0)
    params = StaParams(se=30)
    seen = []

    def finite_then_nan(x):
        seen.append((np.array(x), float(sphere(x))))
        return seen[-1][1] if len(seen) <= params.se else float("nan")

    counter = CallCounter(finite_then_nan)
    x, source = np.array([1.0, 1.0]), rng(4)
    batch = _rotate(x, params.se, 1.0, source)
    out, fitness = _phase(counter, space, x, 2.0, batch, params, source)
    assert counter.count == 2 * params.se
    coords, best = min(seen[: params.se], key=lambda pair: pair[1])
    assert fitness == best < 2.0
    assert np.array_equal(out, coords)


# ---------------------------------------------------------------- sta_run


def test_sta_run_single_iteration():
    space = SearchSpace.uniform(2, -1.0, 1.0)
    init = initialize(space, 30, rng(3), sphere)
    result = sta_run(sphere, space, StaParams(iterations=1), rng=3)
    assert len(result.history) == 1
    assert result.fbest <= init.fitness


def test_sta_run_history_monotone_feasible_consistent():
    space = SearchSpace.uniform(5, -5.12, 5.12)
    result = sta_run(rastrigin, space, StaParams(iterations=120), rng=11)
    assert len(result.history) == 120
    assert np.all(np.diff(result.history) <= 0.0), "history must be non-increasing"
    assert result.fbest == result.history[-1]
    assert space.contains(result.best)
    assert result.fbest == rastrigin(result.best)
    assert result.seed == 11


def test_sta_run_bit_identical_reproducibility():
    space = SearchSpace.uniform(4, -5.0, 5.0)
    params = StaParams(iterations=60)
    a = sta_run(rastrigin, space, params, rng=42)
    b = sta_run(rastrigin, space, params, rng=42)
    assert np.array_equal(a.best, b.best)
    assert a.fbest == b.fbest
    assert np.array_equal(a.history, b.history)
    assert a.evaluations == b.evaluations


def test_sta_run_accepts_random_source_and_defaults_seed_zero():
    space = SearchSpace.uniform(2, -1.0, 1.0)
    params = StaParams(iterations=5)
    via_int = sta_run(sphere, space, params, rng=9)
    via_src = sta_run(sphere, space, params, rng=RandomSource(9))
    via_np = sta_run(sphere, space, params, rng=np.int64(9))
    assert np.array_equal(via_int.best, via_src.best)
    assert np.array_equal(via_int.best, via_np.best) and via_np.seed == 9
    assert sta_run(sphere, space, params).seed == 0


def test_sta_run_without_params_runs_the_default_params_bit_for_bit():
    space = SearchSpace.uniform(2, -5.0, 5.0)
    default = sta_run(sphere, space, None, rng=3)
    explicit = sta_run(sphere, space, StaParams(), rng=3)
    assert default.best.tobytes() == explicit.best.tobytes()
    assert np.float64(default.fbest).tobytes() == np.float64(explicit.fbest).tobytes()
    assert default.history.tobytes() == explicit.history.tobytes()
    assert default.evaluations == explicit.evaluations


def test_sta_run_survives_non_finite_initial_points():
    """sqrt(x1) is NaN on half of [-1, 1]^2; such points are never selected."""
    f = parse_expression("sqrt(x1) + x2^2", 2)
    space = SearchSpace.uniform(2, -1.0, 1.0)
    result = sta_run(f, space, StaParams(iterations=20), rng=0)
    assert np.isfinite(result.fbest) and result.fbest == f(result.best)
    assert result.best[0] >= 0


def test_sta_run_with_division_by_zero_in_expression():
    """1/0 is inf and 1/inf is 0, under the same rule as other non-finite values."""
    f = parse_expression("x1^2 + 1/(1/0)", 1)
    result = sta_run(f, SearchSpace.uniform(1, -1.0, 1.0), StaParams(iterations=20), rng=0)
    assert np.isfinite(result.fbest) and result.fbest == f(result.best)


def test_sta_run_aborts_when_objective_writes_its_input():
    def shrink(x):
        x[...] = 0.9 * x
        return sphere(x)

    shrink.supports_batch = True
    with pytest.raises(RunAborted, match="read-only"):
        sta_run(shrink, SearchSpace.uniform(2, -1.0, 1.0), StaParams(iterations=5))


def test_sta_run_evaluation_accounting_exact():
    """Engine count matches a test-owned wrapper and the phase cost model."""
    space = SearchSpace.uniform(3, -5.12, 5.12)
    params = StaParams(iterations=40)
    seen = CallCounter(rastrigin)
    result = sta_run(seen, space, params, rng=5)
    assert result.evaluations == seen.count
    # se*(1 + 3*iterations) plus se per fired translation.
    base = params.se * (1 + 3 * params.iterations)
    extra = result.evaluations - base
    assert extra % params.se == 0 and 0 <= extra // params.se <= 3 * params.iterations


def test_sta_run_observer_snapshots():
    space = SearchSpace.uniform(2, -5.0, 5.0)
    states = []
    result = sta_run(
        sphere, space, StaParams(iterations=30), rng=1, observer=states.append
    )
    assert [s.iteration for s in states] == list(range(1, 31))
    assert [s.best.fitness for s in states] == list(result.history)
    assert states[-1].evaluations == result.evaluations
    alphas = [s.alpha for s in states]
    assert alphas[0] == 1.0 and alphas[1] == 0.5


def test_sta_run_target_fitness_truncates_history():
    space = SearchSpace.uniform(3, -100.0, 100.0)
    result = sta_run(
        sphere, space, StaParams(iterations=1000), rng=2, target_fitness=1e-6
    )
    assert result.fbest <= 1e-6
    assert len(result.history) < 1000
    assert result.history[-1] == result.fbest


def test_sta_run_abort_carries_partial_history():
    space = SearchSpace.uniform(2, -5.0, 5.0)
    calls = {"n": 0}

    def flaky(x):
        x = np.asarray(x)
        calls["n"] += 1
        # One iteration costs 90-180 scalar calls; die around iteration 12-22.
        if calls["n"] > 2000:
            raise RuntimeError("backend went away")
        return float(np.sum(x * x)) if x.ndim == 1 else np.sum(x * x, axis=-1)

    with pytest.raises(RunAborted) as info:
        sta_run(flaky, space, StaParams(iterations=50), rng=0)
    partial = info.value.partial
    assert partial is not None
    assert 0 < len(partial.history) < 50
    assert np.all(np.diff(partial.history) <= 0.0)
    assert isinstance(info.value.__cause__, RuntimeError)


def test_sta_run_abort_partial_best_belongs_to_its_history():
    """An abort in mid-iteration reports the best of the last whole iteration."""
    space = SearchSpace.uniform(2, -5.0, 5.0)
    for budget in range(100, 400, 7):

        def flaky(x):
            if counting.count > budget:
                raise RuntimeError("backend went away")
            return sphere(x)

        counting = CallCounter(flaky)
        with pytest.raises(RunAborted) as info:
            sta_run(counting, space, StaParams(se=5, iterations=20), rng=1)
        partial = info.value.partial
        assert len(partial.history) >= 1
        assert partial.fbest == partial.history[-1] == sphere(partial.best)


def test_sta_run_abort_during_initialization_has_no_partial():
    space = SearchSpace.uniform(2, -5.0, 5.0)

    def bad(x):
        return float("nan")

    with pytest.raises(RunAborted) as info:
        sta_run(bad, space, StaParams(iterations=3), rng=0)
    assert info.value.partial is None


def test_sta_run_builds_one_call_counter(monkeypatch):
    """The run scores every batch, the initial one included, through its own
    counter; no second counter wraps it for initialization."""
    built = []
    init = CallCounter.__init__

    def counted(self, objective):
        built.append(objective)
        init(self, objective)

    monkeypatch.setattr(CallCounter, "__init__", counted)
    result = sta_run(sphere, SearchSpace.uniform(2, -1.0, 1.0), StaParams(se=4, iterations=3))
    assert built == [sphere] and result.evaluations >= 4 * 10


def test_walk_yields_each_phase_then_its_marker_and_never_scores(monkeypatch):
    """Driven by hand: an expansion, a rotation and an axesion batch, then the
    marker ``(x, fx, alpha)``; an improving reply makes the next batch a
    translation.  Every scorer raises, so the walk scores nothing itself."""

    def never(*args):
        raise AssertionError("the walk scored a batch")

    monkeypatch.setattr(engine, "_best", never)
    monkeypatch.setattr(CallCounter, "_score", never)
    monkeypatch.setattr(CallCounter, "__call__", never)
    drawn = []
    for name in ("_expand", "_rotate", "_axes", "_translate"):
        sample = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, s=sample, n=name: drawn.append(n) or s(*a))
    space, params, x = SearchSpace.uniform(2, -1.0, 1.0), StaParams(se=4), np.array([0.5, 0.5])
    walk = _walk(space, x, 1.0, params, rng())

    step = next(walk)
    for _ in range(3):  # no reply improves: a tie is no improvement
        assert step.shape == (4, 2) and space.contains(step)
        step = walk.send((step[0], 1.0))
    assert drawn == ["_expand", "_rotate", "_axes"]
    assert step[0] is x and step[1:] == (1.0, params.alpha_max)

    drawn.clear()
    y = next(walk)[1]
    step = walk.send((y, 0.5))  # the expansion improves: a translation chases it
    assert drawn == ["_expand", "_translate"] and step.shape == (4, 2)
    step = walk.send((step[0], 0.75))  # the chase does worse, so y stands
    for _ in range(2):
        step = walk.send((step[0], 0.5))
    assert drawn == ["_expand", "_translate", "_rotate", "_axes"]
    assert step[0] is y and step[1:] == (0.5, params.alpha_max / params.fc)


# ------------------------------------------------------ counts after an abort


class BackendError(RuntimeError):
    pass


@pytest.mark.parametrize("entry", ["sta_run", "initialize", "select_best"])
def test_batch_objective_is_called_only_inside_call_counter_call(monkeypatch, entry):
    """Every batch is scored through ``CallCounter.__call__``, the one place
    that counts it, and the count equals the points the objective saw."""
    depth, seen = [0], []
    call = CallCounter.__call__

    def counted(self, x):
        depth[0] += 1
        try:
            return call(self, x)
        finally:
            depth[0] -= 1

    def f(x):
        seen.append((depth[0] > 0, len(x)))
        return sphere(x)

    f.supports_batch = True
    monkeypatch.setattr(CallCounter, "__call__", counted)
    space = SearchSpace.uniform(3, -5.0, 5.0)
    if entry == "sta_run":
        evaluations = sta_run(f, space, StaParams(se=5, iterations=20), rng=3).evaluations
    elif entry == "initialize":
        initialize(space, 7, rng(1), f)
        evaluations = 7
    else:
        select_best(f, np.zeros((4, 3)))
        evaluations = 4
    assert seen and all(inside for inside, _ in seen)
    assert evaluations == sum(points for _, points in seen)


@pytest.mark.parametrize("j", [1, 4, 9])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_abort_counts_the_scalar_row_that_raised(j, k):
    """A scalar objective raising at row k of batch j (batch 0 initializes)
    leaves ``j * se + k + 1`` evaluations: every row before it, and itself."""
    se, raised = 5, []

    def f(x):
        if counting.count == j * se + k + 1:
            raised.append(BackendError("the objective went away"))
            raise raised[-1]
        return sphere(x)

    counting = CallCounter(f)
    with pytest.raises(RunAborted) as info:
        sta_run(counting, SearchSpace.uniform(3, -5.0, 5.0), StaParams(se=se, iterations=50), rng=2)
    assert info.value.__cause__ is raised[0]
    assert info.value.partial.evaluations == counting.count == j * se + k + 1


@pytest.mark.parametrize("j", [1, 4, 9])
@pytest.mark.parametrize("hostility", ["raise", "shape"])
def test_abort_counts_the_whole_batch_that_failed(j, hostility):
    """A batch objective that raises, or returns the wrong shape, at its call j
    (call 0 initializes) leaves ``(j + 1) * se`` evaluations: the failed batch
    counts in full."""
    se, raised = 5, []

    def f(x):
        if len(raised) < j:
            raised.append(None)
            return sphere(x)
        if hostility == "raise":
            raised.append(BackendError("the objective went away"))
            raise raised[-1]
        return np.stack([sphere(x)] * 2, axis=-1)

    f.supports_batch = True
    counting = CallCounter(f)
    with pytest.raises(RunAborted) as info:
        sta_run(counting, SearchSpace.uniform(3, -5.0, 5.0), StaParams(se=se, iterations=50), rng=2)
    if hostility == "raise":
        assert info.value.__cause__ is raised[-1]
    else:
        assert isinstance(info.value.__cause__, TypeError)
        assert f"returned shape ({se}, 2), expected ({se},)" in str(info.value.__cause__)
    assert info.value.partial.evaluations == counting.count == (j + 1) * se
