import numpy as np
import pytest

from perfbench import workloads
from perfbench.workloads import FSTAR, SHIFT_HI, SHIFT_LO, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a = workloads.problems(w, 7, 5)
    b = workloads.problems(w, 7, 5)
    c = workloads.problems(w, 8, 5)
    assert [p.seeds for p in a] == [p.seeds for p in b]
    assert all(np.array_equal(p.shift, q.shift) for p, q in zip(a, b))
    assert not np.array_equal(a[0].shift, c[0].shift)
    assert all(len(p.seeds) == w.seeds_per_problem for p in a)
    # A longer run sees the same problems first.
    longer = workloads.problems(w, 7, 8)
    assert all(np.array_equal(p.shift, q.shift) for p, q in zip(a, longer))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_optimum_is_off_the_origin_and_inside_the_box(name):
    w = WORKLOADS[name]
    for p in workloads.problems(w, 3, 50):
        magnitude = np.abs(p.shift) / w.half_width
        assert (magnitude >= SHIFT_LO).all()
        assert (magnitude <= SHIFT_HI).all()
        f = workloads.reference(w, p.shift)
        assert f(p.shift) == FSTAR
        assert not w.reached(f(np.zeros(w.dim)))


def test_expression_encodes_the_shifted_function():
    import stapy

    w = WORKLOADS["cli_n10_expr"]
    p = workloads.problems(w, 1, 1)[0]
    compiled = stapy.parse_expression(workloads.expression(w, p.shift), w.dim)
    rows = np.random.default_rng(0).uniform(-w.half_width, w.half_width, (50, w.dim))
    np.testing.assert_allclose(compiled(rows), workloads.reference(w, p.shift)(rows), rtol=0, atol=1e-9)
    assert compiled(p.shift[None, :])[0] == 0.0


def test_counting_objective_counts_points_and_keeps_the_scalar_path():
    batch = workloads.counting_objective(WORKLOADS["lib_n100_batch"], np.ones(100))
    batch(np.zeros((30, 100)))
    batch(np.zeros(100))
    assert batch.count == 31
    assert batch.supports_batch is True
    scalar = workloads.counting_objective(WORKLOADS["lib_n10_scalar"], np.ones(10))
    assert not hasattr(scalar, "supports_batch")
