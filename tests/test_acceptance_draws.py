"""The acceptance gate's random cases, replayed without running them.

``tests/test_acceptance.py`` picks its cases with the 0-based
``RandomSource.integers``.  Its draws were first written for a 1-based
``integers(n)`` on {1, ..., n}, and were restated with offsets that give the
same values.  Each replay below draws the cases both ways, from the same seed,
and the two must agree case for case.
"""

import numpy as np

from stapy.benchmarks import get_benchmark
from stapy.core import RandomSource

NAMES = ["sphere", "rosenbrock", "rastrigin", "griewank", "paper_quadratic"]


def _generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _from_one(gen, n):
    """The draw the gate was first written for: uniform on {1, ..., n}."""
    return gen.integers(1, n + 1)


def _criterion_2(picker, name_of, dim_of, seed_of):
    cases = []
    for _ in range(100):
        name = name_of(picker)
        dim = get_benchmark(name).fixed_dim or dim_of(picker)
        cases.append((name, dim, seed_of(picker)))
    return cases


def _criterion_8(source, dim_of):
    cases = []
    for _ in range(1000):
        dim = dim_of(source)
        cases.append((dim, source.uniform(-5.12, 5.12, (30, dim)).tobytes()))
    return cases


def test_criterion_2_cases_are_the_one_based_cases():
    restated = _criterion_2(
        RandomSource(777),
        lambda picker: NAMES[picker.integers(len(NAMES))],
        lambda picker: int(picker.integers(14)) + 2,
        lambda picker: int(picker.integers(2**31)) + 1,
    )
    first = _criterion_2(
        _generator(777),
        lambda gen: NAMES[_from_one(gen, len(NAMES)) - 1],
        lambda gen: int(_from_one(gen, 14)) + 1,
        lambda gen: int(_from_one(gen, 2**31)),
    )
    assert restated == first
    assert {name for name, _, _ in first} == set(NAMES)
    assert {dim for name, dim, _ in first if name != "paper_quadratic"} == set(range(2, 16))


def test_criterion_8_cases_are_the_one_based_cases():
    restated = _criterion_8(RandomSource(55), lambda source: int(source.integers(9)) + 2)
    first = _criterion_8(_generator(55), lambda gen: int(_from_one(gen, 9)) + 1)
    assert restated == first
    assert {dim for dim, _ in first} == set(range(2, 11))
