"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines of passing criteria too).  Every stochastic threshold below was
validated against an independent oracle (order statistics, a hand-solved
constrained optimum cross-checked by grid search, or direct simulation of
the annealing recurrence) before being pinned here.
"""

import statistics
import time

import numpy as np

from stapy.benchmarks import get_benchmark, griewank, paper_quadratic, rastrigin, sphere
from stapy.core import CallCounter, RandomSource, SearchSpace, StaParams
from stapy.engine import initialize, select_best, sta_run
from stapy.expressions import parse_expression
from stapy.operators import op_axes, op_expand, op_rotate, op_translate

QUAD_OPTIMUM = 1150.0 / 2116.0


def verdict(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_operator_geometry():
    """Exact geometric guarantees of all four samplers over 1e4 trials each."""
    start = time.perf_counter()
    source = RandomSource(2024)
    rows = 10_000

    best = source.normal(12) * 5.0
    for alpha in (1e-3, 0.25, 1.0, 4.0):
        batch = op_rotate(best, rows, alpha, source)
        assert np.linalg.norm(batch - best, axis=1).max() <= alpha

    old = source.normal(6)
    new = old + source.normal(6)
    beta = 1.0
    batch = op_translate(old, new, rows, beta, source)
    offsets = batch - new
    direction = (new - old) / np.linalg.norm(new - old)
    residual = offsets - np.outer(offsets @ direction, direction)
    assert np.abs(residual).max() < 1e-10, "translation must stay on the line"
    assert np.linalg.norm(offsets, axis=1).max() <= beta

    spotty = source.normal(9)
    spotty[[1, 4]] = 0.0
    zeros = spotty == 0.0
    assert np.all(op_expand(spotty, rows, 1.0, source)[:, zeros] == 0.0)
    ax_batch = op_axes(spotty, rows, 1.0, source)
    assert np.all(ax_batch[:, zeros] == 0.0)
    assert np.sum(ax_batch != spotty, axis=1).max() <= 1

    elapsed = time.perf_counter() - start
    verdict(
        elapsed < 10.0,
        "criterion 1: operator geometry (rotation bound, collinearity, "
        "zero preservation, single-axis sparsity)",
        f"{elapsed:.2f}s / 10s budget",
    )


def test_criterion_2_engine_invariants_100_runs():
    """100 randomized runs: monotone, feasible, exact accounting, reproducible."""
    start = time.perf_counter()
    picker = RandomSource(777)
    names = ["sphere", "rosenbrock", "rastrigin", "griewank", "paper_quadratic"]
    for run_index in range(100):
        name = names[picker.integers(len(names))]
        spec = get_benchmark(name)
        dim = spec.fixed_dim or int(picker.integers(14)) + 2  # 2..15
        space = spec.default_box(dim)
        params = StaParams(iterations=200)
        seed = int(picker.integers(2**31)) + 1

        seen = CallCounter(spec.objective)
        snapshots = []
        result = sta_run(seen, space, params, rng=seed, observer=snapshots.append)

        assert np.all(np.diff(result.history) <= 0.0), (name, seed)
        assert all(space.contains(s.best.coords) for s in snapshots), (name, seed)
        assert space.contains(result.best)
        assert result.evaluations == seen.count, (name, seed)

        again = sta_run(spec.objective, space, params, rng=seed)
        assert np.array_equal(result.best, again.best), (name, seed)
        assert result.fbest == again.fbest
        assert np.array_equal(result.history, again.history)
        assert result.evaluations == again.evaluations
    elapsed = time.perf_counter() - start
    verdict(
        elapsed < 60.0,
        "criterion 2: engine invariants over 100 randomized runs "
        "(monotone history, feasibility, exact evaluation accounting, "
        "bit-identical reruns)",
        f"{elapsed:.1f}s / 60s budget",
    )


def test_criterion_3_alpha_cycle_period_14():
    """Observed alpha schedule equals the annealing recurrence, period 14."""
    observed = []
    sta_run(
        sphere,
        SearchSpace.uniform(3, -10.0, 10.0),
        StaParams(iterations=42),
        rng=0,
        observer=lambda s: observed.append(s.alpha),
    )
    expected = []
    alpha = 1.0
    for _ in range(42):
        if alpha < 1e-4:
            alpha = 1.0
        expected.append(alpha)
        alpha /= 2.0
    assert observed == expected
    cycle = observed[:14]
    assert cycle == [2.0**-j for j in range(14)]
    assert cycle[-1] == 2.0**-13
    assert observed[14] == 1.0 and observed[28] == 1.0, "reset every 14 iterations"
    verdict(
        True,
        "criterion 3: alpha cycle (1, 1/2, ..., 2^-13, reset) with period 14",
    )


def test_criterion_4_sphere_10d_to_1e_minus_8():
    """Sphere 10D, defaults, 1000 iterations: fbest <= 1e-8 on 10/10 seeds."""
    start = time.perf_counter()
    space = SearchSpace.uniform(10, -100.0, 100.0)
    finals = []
    for seed in range(10):
        result = sta_run(sphere, space, StaParams(), rng=seed)
        assert result.evaluations <= 180_000
        finals.append(result.fbest)
    elapsed = time.perf_counter() - start
    worst = max(finals)
    verdict(
        worst <= 1e-8 and elapsed < 30.0,
        "criterion 4: sphere 10D reaches fbest <= 1e-8 on all 10 seeds",
        f"worst={worst:.3e}, {elapsed:.1f}s / 30s budget",
    )


def test_criterion_5_rastrigin_10d_median_and_descent():
    """Rastrigin 10D, 11 seeds: median <= 1.0, every run gains >= 3 orders."""
    space = SearchSpace.uniform(10, -5.12, 5.12)
    params = StaParams()
    finals, descents_ok = [], []
    for seed in range(11):
        init = initialize(space, params.se, RandomSource(seed), rastrigin)
        result = sta_run(rastrigin, space, params, rng=seed)
        finals.append(result.fbest)
        descents_ok.append(result.fbest <= init.fitness * 1e-3)
    median = statistics.median(finals)
    verdict(
        median <= 1.0 and all(descents_ok),
        "criterion 5: rastrigin 10D median <= 1.0 and every run improves "
        "its initialization by >= 3 orders of magnitude",
        f"median={median:.3e}, descents={sum(descents_ok)}/11",
    )


def test_criterion_6_griewank_15d_median():
    """Griewank 15D, 11 seeds: median final fbest <= 0.1."""
    space = SearchSpace.uniform(15, -600.0, 600.0)
    finals = [
        sta_run(griewank, space, StaParams(), rng=seed).fbest for seed in range(11)
    ]
    median = statistics.median(finals)
    verdict(
        median <= 0.1,
        "criterion 6: griewank 15D median final fbest <= 0.1",
        f"median={median:.3e}",
    )


def test_criterion_7_quadratic_constrained_optimum():
    """3D quadratic on its box: median error <= 1e-4 (100 it), <= 1e-2 (10 it)."""
    spec = get_benchmark("paper_quadratic")
    space = spec.default_box(3)
    errors_100 = [
        abs(sta_run(paper_quadratic, space, StaParams(iterations=100), rng=s).fbest
            - QUAD_OPTIMUM)
        for s in range(21)
    ]
    errors_10 = [
        abs(sta_run(paper_quadratic, space, StaParams(iterations=10), rng=s).fbest
            - QUAD_OPTIMUM)
        for s in range(21)
    ]
    med_100 = statistics.median(errors_100)
    med_10 = statistics.median(errors_10)
    verdict(
        med_100 <= 1e-4 and med_10 <= 1e-2,
        "criterion 7: quadratic reaches the constrained optimum "
        "(median error <= 1e-4 at 100 iterations, <= 1e-2 at 10)",
        f"median_100it={med_100:.3e}, median_10it={med_10:.3e}",
    )


def test_criterion_8_selection_equals_exhaustive_scan():
    """select_best == brute-force argmin over 1e3 random 30-row batches."""
    source = RandomSource(55)
    for _ in range(1000):
        dim = int(source.integers(9)) + 2  # 2..10
        batch = source.uniform(-5.12, 5.12, (30, dim))
        sol = select_best(rastrigin, batch)
        values = [float(rastrigin(row)) for row in batch]
        g = min(range(30), key=lambda i: values[i])
        assert np.array_equal(sol.coords, batch[g])
        assert sol.fitness == values[g]
    verdict(
        True,
        "criterion 8: greedy selection equals an exhaustive scan "
        "(1000 batches, exact)",
    )


def test_criterion_9_expression_matches_hand_coded_benchmark():
    """Parsed quadratic expression vs the hand-coded objective, 1e3 points."""
    compiled = parse_expression("(x1-1)^2+(x2-2*x1)^2+(x3-3*x2)^2", 3)
    space = get_benchmark("paper_quadratic").default_box(3)
    source = RandomSource(99)
    u = source.uniform(0.0, 1.0, (1000, 3))
    points = space.lower + u * (space.upper - space.lower)
    worst = 0.0
    for point in points:
        gap = abs(compiled(point) - float(paper_quadratic(point)))
        worst = max(worst, gap)
    verdict(
        worst <= 1e-12,
        "criterion 9: expression evaluator agrees with the hand-coded "
        "quadratic to 1e-12 at 1000 box points",
        f"worst gap={worst:.2e}",
    )
