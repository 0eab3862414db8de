"""One rule for the numbers a caller passes, at every entry point.

A count (``se``, ``iterations``, ``dim``, a seed) is an int, numpy integers
included, or a float with no fractional part, inside its range; it is used
as exactly ``int(value)``, never truncated.  A real (an operator factor, a
``StaParams`` constant, ``target_fitness``) is a finite float above its
floor.  Anything else raises ``ValueError`` before any random draw.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stapy.benchmarks import get_benchmark, sphere
from stapy.cli import main
from stapy.core import CallCounter, RandomSource, SearchSpace, StaParams
from stapy.engine import initialize, sta_run
from stapy.expressions import parse_expression
from stapy.operators import op_axes, op_expand, op_rotate, op_translate

BEST = np.array([1.0, -2.0, 3.0])
OLD = np.array([0.5, -1.0, 2.0])


def is_count(value, low=1, high=math.inf):
    if isinstance(value, (int, np.integer)):
        return low <= int(value) < high
    return math.isfinite(value) and math.floor(value) == value and low <= int(value) < high


def is_real(value, above):
    try:
        value = float(value)
    except OverflowError:
        return False
    return math.isfinite(value) and value > above


# The partner of alpha_min or alpha_max is moved out of the way of alpha_min <= alpha_max.
PARTNER = {"alpha_min": {"alpha_max": sys.float_info.max}, "alpha_max": {"alpha_min": 5e-324}}


def _params(name):
    return lambda value, rng: StaParams(**{name: value}, **PARTNER.get(name, {}))


def _target(value, rng):
    space = SearchSpace.uniform(1, -1.0, 1.0)
    return sta_run(sphere, space, StaParams(se=2, iterations=2), rng=rng, target_fitness=value)


def _initialize(value, rng):
    counter = CallCounter(sphere)
    initialize(SearchSpace.uniform(2, -1.0, 1.0), value, rng, counter)
    return counter.count


OPERATORS = {
    "op_rotate": lambda se, f, rng: op_rotate(BEST, se, f, rng),
    "op_translate": lambda se, f, rng: op_translate(OLD, BEST, se, f, rng),
    "op_expand": lambda se, f, rng: op_expand(BEST, se, f, rng),
    "op_axes": lambda se, f, rng: op_axes(BEST, se, f, rng),
}

COUNT = ("count", 1, math.inf, False)  # (kind, low, high, allocates)
SIZE = ("count", 1, math.inf, True)  # a count that sizes an allocation
POSITIVE = ("real", 0.0)  # (kind, above)

# name -> (call(value, rng), rule, what an accepted count shows)
SITES = {
    "StaParams.se": (_params("se"), COUNT, lambda p: p.se),
    "StaParams.iterations": (_params("iterations"), COUNT, lambda p: p.iterations),
    "RandomSource.seed": (lambda v, rng: RandomSource(v), ("count", 0, 2**64, False), lambda r: r.seed),
    "initialize.se": (_initialize, SIZE, lambda n: n),
    "SearchSpace.uniform.dim": (lambda v, rng: SearchSpace.uniform(v, -1.0, 1.0), SIZE, lambda s: s.dim),
    "default_box.dim": (lambda v, rng: get_benchmark("sphere").default_box(v), SIZE, lambda s: s.dim),
    "reference_argmin.dim": (lambda v, rng: get_benchmark("sphere").reference_argmin(v), SIZE, len),
    "parse_expression.dim": (lambda v, rng: parse_expression("x1", v), SIZE, lambda e: e.dim),
    "sta_run.target_fitness": (_target, ("real", -math.inf), None),
}
for _field in ("alpha_max", "alpha_min", "beta", "gamma", "delta"):
    SITES[f"StaParams.{_field}"] = (_params(_field), POSITIVE, None)
SITES["StaParams.fc"] = (_params("fc"), ("real", 1.0), None)
for _name, _op in OPERATORS.items():
    SITES[f"{_name}.se"] = (lambda v, rng, op=_op: op(v, 1.0, rng), SIZE, len)
    SITES[f"{_name}.factor"] = (lambda v, rng, op=_op: op(3, v, rng), POSITIVE, None)


def _numpy(value, wide):
    # value as a numpy scalar: (u)int64 for an int it fits, float64 or float32 for a float.
    if isinstance(value, int):
        dtype = np.uint64 if wide and value >= 0 else np.int64
        return dtype(value) if np.iinfo(dtype).min <= value <= np.iinfo(dtype).max else value
    return (np.float64 if wide or 1e30 < abs(value) < math.inf else np.float32)(value)


BOUNDS = [0, 1, -1, 2, 2**64 - 1, 2**64, 10**309, -(10**309)]
PLAIN = st.one_of(
    st.sampled_from(BOUNDS),
    st.integers(-3, 60),
    st.integers(-3, 60).map(float),
    st.sampled_from([2.0**63, 2.0**64, 1e300, -0.0, 0.5, 2.5, 3.9, 1e-300, 5e-324]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(-1e6, 1e6),
    st.floats(),
)
NUMBERS = st.one_of(PLAIN, st.tuples(PLAIN, st.booleans()).map(lambda t: _numpy(*t)))


@settings(deadline=None, max_examples=400)
@given(site=st.sampled_from(sorted(SITES)), value=NUMBERS)
@example(site="op_axes.se", value=3.9)
@example(site="default_box.dim", value=2.7)
@example(site="parse_expression.dim", value=2.7)
@example(site="RandomSource.seed", value=1.5)
@example(site="initialize.se", value=30.0)
@example(site="SearchSpace.uniform.dim", value=3.0)
@example(site="op_expand.factor", value=math.inf)
@example(site="StaParams.se", value=np.uint64(2**64 - 1))
@example(site="RandomSource.seed", value=np.uint64(2**64 - 1))
@example(site="RandomSource.seed", value=2**64)
@example(site="RandomSource.seed", value=-1)
@example(site="StaParams.iterations", value=10**309)
@example(site="sta_run.target_fitness", value=math.nan)
def test_every_site_accepts_exactly_what_the_rule_accepts(site, value):
    call, rule, shown = SITES[site]
    if rule[0] == "count":
        _, low, high, allocates = rule
        accepted = is_count(value, low, high)
        assume(not (allocates and accepted and int(value) > 50))
    else:
        accepted = is_real(value, rule[1])

    rng = RandomSource(11)
    if not accepted:
        with pytest.raises(ValueError):
            call(value, rng)
        assert rng.uniform(0.0, 1.0) == RandomSource(11).uniform(0.0, 1.0), "drew before rejecting"
        return
    with np.errstate(over="ignore"):  # a factor near 1e308 may overflow a sample to +-inf
        out = call(value, rng)
    if shown is not None:
        used = shown(out)
        assert type(used) is int and used == int(value)


def test_sta_run_rejects_a_nan_target_before_evaluating():
    counter = CallCounter(sphere)
    space = SearchSpace.uniform(2, -1.0, 1.0)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target_fitness"):
            sta_run(counter, space, StaParams(iterations=50), rng=0, target_fitness=target)
    assert counter.count == 0
    stopped = sta_run(sphere, space, StaParams(iterations=50), rng=0, target_fitness=1e-3)
    assert len(stopped.history) < 50


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_cli_rejects_a_non_finite_target_in_one_line(capsys, target):
    code = main(["--function", "sphere", "--dim", "2", "--target-fitness", target])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: target_fitness must be finite")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_rejects_one_file_for_json_and_csv(tmp_path, capsys, via_config):
    path = tmp_path / "out.txt"
    args = ["--function", "sphere", "--dim", "2", "--iterations", "3", "--out-csv", str(path)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"out_json": "%s"}' % (tmp_path / "." / "out.txt"))
        args += ["--config", str(cfg)]
    else:
        args += ["--out-json", str(path)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not path.exists()
    assert captured.err == "error: --out-json and --out-csv name the same file\n"
