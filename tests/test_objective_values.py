"""One value rule for what an objective returns, on both scoring paths.

A scalar objective is scored as its batch form mapped over the rows: a value
returned for each point, and the list of those values returned as a batch,
give one outcome.  Both give equal result bits, or the same exception with the
same message and the same partial result, with warnings shown or raised, and
no warning escapes.  The values must form an ``(m,)`` array of integers or
floats; anything else raises TypeError and counts the whole batch.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stapy.benchmarks import sphere
from stapy.core import SearchSpace, StaParams
from stapy.engine import RunAborted, sta_run

SPACE = SearchSpace.uniform(2, -1.0, 1.0)

# Each maker turns a point's sphere value f (in [0, 2] on SPACE) into what the
# objective returns for that point.
MAKERS = {
    "float": lambda f: f,
    "float nan": lambda f: math.nan if f < 0.5 else f,
    "float inf": lambda f: math.inf if f < 0.5 else f,
    "float -inf": lambda f: -math.inf if f < 0.5 else f,
    "int 0": lambda f: int(f * 1000),
    "int -2**63": lambda f: int(f * 1000) - 2**63,
    "int 2**63": lambda f: int(f * 1000) + 2**63,
    "int 2**64": lambda f: int(f * 1000) + 2**64,
    "int 2**70": lambda f: int(f * 1000) + 2**70,
    "bool": lambda f: f < 0.5,
    "np.float32": np.float32,
    "np.float64": np.float64,
    "np.int64": lambda f: np.int64(f * 1000),
    "np.uint64": lambda f: np.uint64(f * 1000),
    "np.bool_": lambda f: np.bool_(f < 0.5),
    "complex": lambda f: complex(f, 0.0),
    "str": repr,
    "bytes": lambda f: repr(f).encode(),
    "None": lambda f: None,
    "Decimal": Decimal,
    "Fraction": Fraction,
    "object": lambda f: object(),
    "0-d array": np.array,
    "one-element array": lambda f: np.array([f]),
}
ACCEPTED = {
    "float", "float nan", "float inf", "float -inf", "int 0", "int -2**63", "int 2**63",
    "np.float32", "np.float64", "np.int64", "np.uint64", "0-d array",
}


def _bits(result):
    return result.best.tobytes(), repr(result.fbest), result.history.tobytes(), result.evaluations


def run(make, batch: bool, params: StaParams, seed: int):
    """The outcome of a run whose objective returns ``make(sphere(x))`` for each point x:
    the result's bits, or the error's type, messages and partial result's bits."""

    def objective(x):
        if batch:
            return [make(float(f)) for f in sphere(x)]
        return make(float(sphere(x)))

    objective.supports_batch = batch
    try:
        result = sta_run(objective, SPACE, params, rng=seed)
    except RunAborted as err:
        partial = err.partial and _bits(err.partial)
        return type(err.__cause__), str(err.__cause__), str(err), partial
    return _bits(result)


def outcome(make, params: StaParams, seed: int):
    """The one outcome of both paths, under default warnings and as errors."""
    seen = set()
    for action in ("default", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            scalar, batch = run(make, False, params, seed), run(make, True, params, seed)
        assert not caught, f"{caught[0].category.__name__} escaped the run"
        assert scalar == batch
        seen.add(scalar)
    assert len(seen) == 1
    return seen.pop()


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(sorted(MAKERS)),
    se=st.integers(min_value=1, max_value=6),
    iterations=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_both_paths_give_one_outcome_for_every_value_kind(kind, se, iterations, seed):
    params = StaParams(se=se, iterations=iterations)
    got = outcome(MAKERS[kind], params, seed)
    if kind in ACCEPTED:  # bit for bit the run of a plain float objective
        assert got == run(lambda f: float(MAKERS[kind](f)), False, params, seed)
    else:
        assert got[0] is TypeError and got[1].startswith("objective returned ")


def ragged(f):  # two values for some points, one for the others
    return np.array([f, f]) if f < 1.0 else f


@pytest.mark.parametrize(
    "make, message",
    [
        (MAKERS["complex"], "objective returned complex128 values, expected integers or floats"),
        (MAKERS["None"], "objective returned object values, expected integers or floats"),
        (MAKERS["str"], "objective returned <U"),
        (MAKERS["bool"], "objective returned bool values, expected integers or floats"),
        (MAKERS["Decimal"], "objective returned object values, expected integers or floats"),
        (MAKERS["Fraction"], "objective returned object values, expected integers or floats"),
        (MAKERS["one-element array"], "objective returned shape (4, 1), expected (4,)"),
        (ragged, "objective returned ragged values: "),
    ],
    ids=["complex", "None", "str", "bool", "Decimal", "Fraction", "one-element array", "ragged"],
)
def test_an_unusable_value_is_one_type_error_on_both_paths(make, message):
    cause, text, _, partial = outcome(make, StaParams(se=4, iterations=3), seed=0)
    assert cause is TypeError and text.startswith(message)
    assert partial is None  # the first batch initializes


@pytest.mark.parametrize("action", ["default", "error"])
def test_a_complex_batch_array_is_rejected_before_any_cast_can_warn(action):
    def objective(x):
        return sphere(x).astype(complex)

    objective.supports_batch = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(RunAborted) as info:
            sta_run(objective, SPACE, StaParams(se=4, iterations=3), rng=0)
    assert not caught
    assert isinstance(info.value.__cause__, TypeError)
    assert str(info.value.__cause__).startswith("objective returned complex128 values")


def test_a_rejected_value_counts_the_whole_batch_on_both_paths():
    """A value rejected mid-run aborts with the failed batch counted in full, on
    the scalar path too, rather than through the row that returned it."""
    se = 5

    def make(f):  # a complex value once the run gets close to the optimum
        return complex(f, 0.0) if f < 0.05 else f

    cause, _, _, partial = outcome(make, StaParams(se=se, iterations=50), seed=3)
    assert cause is TypeError
    evaluations = partial[-1]
    assert evaluations > se and evaluations % se == 0
