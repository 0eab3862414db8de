"""One rule for the numbers a caller passes, at every entry point.

A count (``se``, ``iterations``, ``dim``, a seed) is an int, numpy integers
included, or a float with no fractional part, inside its range; it is used
as exactly ``int(value)``, never truncated.  A real (an operator factor, a
``StaParams`` constant, ``target_fitness``) is a finite float above its
floor.  Any other number raises ``ValueError``, and text (even ``"2.5"``)
raises ``TypeError`` in a short message, before any random draw.
"""

import collections
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stapy.benchmarks import get_benchmark, sphere
from stapy.cli import main
from stapy.core import CallCounter, RandomSource, SearchSpace, StaParams, _quoted
from stapy.engine import initialize, select_best, sta_run
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
# Text is no number, even when it reads as one: TypeError, in a short message.
TEXTS = st.sampled_from(["2.5", "3", "x" * 100_000])


@settings(deadline=None, max_examples=400)
@given(site=st.sampled_from(sorted(SITES)), value=st.one_of(NUMBERS, TEXTS))
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
@example(site="StaParams.gamma", value="2.5")
@example(site="StaParams.gamma", value="x" * 100_000)
@example(site="op_rotate.factor", value="x" * 100_000)
def test_every_site_accepts_exactly_what_the_rule_accepts(site, value):
    call, rule, shown = SITES[site]
    if isinstance(value, str):
        accepted = False
    elif rule[0] == "count":
        _, low, high, allocates = rule
        accepted = is_count(value, low, high)
        assume(not (allocates and accepted and int(value) > 50))
    else:
        accepted = is_real(value, rule[1])

    rng = RandomSource(11)
    if not accepted:
        with pytest.raises(TypeError if isinstance(value, str) else ValueError) as err:
            call(value, rng)
        assert len(str(err.value)) < 200
        if isinstance(value, str):
            kind = "a real number" if rule[0] == "real" else "an integer"
            assert f" must be {kind}, got '" in str(err.value)
        assert rng.uniform(0.0, 1.0) == RandomSource(11).uniform(0.0, 1.0), "drew before rejecting"
        return
    out = call(value, rng)  # a factor near 1e308 overflows a sample to +-inf, without a warning
    if shown is not None:
        used = shown(out)
        assert type(used) is int and used == int(value)


@pytest.mark.parametrize(
    "name,call",
    [
        ("seed", lambda v: RandomSource(v)),
        ("gamma", lambda v: StaParams(gamma=v)),
        ("fc", lambda v: StaParams(fc=-v)),
    ],
)
def test_a_huge_int_is_named_in_a_short_message(name, call):
    # repr of an int past 4,300 digits raises; the message must still name the argument.
    with pytest.raises(ValueError, match=f"^{name} must be ") as err:
        call(10**5000)
    assert len(str(err.value)) < 200


def test_sta_run_rejects_a_nan_target_before_evaluating():
    counter = CallCounter(sphere)
    space = SearchSpace.uniform(2, -1.0, 1.0)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target_fitness"):
            sta_run(counter, space, StaParams(iterations=50), rng=0, target_fitness=target)
    assert counter.count == 0
    stopped = sta_run(sphere, space, StaParams(iterations=50), rng=0, target_fitness=1e-3)
    assert len(stopped.history) < 50


WRONG_TYPES = {
    "objective": [None, 3, "sphere"],
    "space": [[-1.0, 1.0], (np.full(2, -1.0), np.full(2, 1.0)), "x" * 1000, None],
    "params": [{"se": 3}, 30, StaParams],
    "observer": [3, "print"],
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_sta_run_rejects_a_wrong_argument_type_before_evaluating(name):
    """A caller's wrong argument is a TypeError naming it in a short message,
    raised before any draw or evaluation, not a RunAborted from the run."""
    counter = CallCounter(sphere)
    space = SearchSpace.uniform(2, -1.0, 1.0)
    duck = type("Box", (), {"lower": space.lower, "upper": space.upper, "dim": 2})()
    args = {"objective": counter, "space": space, "params": StaParams(), "observer": None}
    for bad in WRONG_TYPES[name] + ([duck] if name == "space" else []):
        source = RandomSource(7)
        with pytest.raises(TypeError, match=f"^{name} must be") as err:
            sta_run(**{**args, name: bad}, rng=source)
        assert len(str(err.value)) < 200
        assert source.uniform(0.0, 1.0, 3).tolist() == RandomSource(7).uniform(0.0, 1.0, 3).tolist()
    assert counter.count == 0


SQUARE = SearchSpace.uniform(2, -1.0, 1.0)
BLOCKS = {  # "entry point.argument": a call with a counted objective, a source and a bad value
    "initialize.space": lambda f, rng, bad: initialize(bad, 3, rng, f),
    "initialize.rng": lambda f, rng, bad: initialize(SQUARE, 3, bad, f),
    "initialize.objective": lambda f, rng, bad: initialize(SQUARE, 3, rng, bad),
    "select_best.objective": lambda f, rng, bad: select_best(bad, np.zeros((2, 2))),
    "CallCounter.objective": lambda f, rng, bad: CallCounter(bad),
    "op_rotate.rng": lambda f, rng, bad: op_rotate(BEST, 3, 1.0, bad),
    "op_translate.rng": lambda f, rng, bad: op_translate(OLD, BEST, 3, 1.0, bad),
    "op_expand.rng": lambda f, rng, bad: op_expand(BEST, 3, 1.0, bad),
    "op_axes.rng": lambda f, rng, bad: op_axes(BEST, 3, 1.0, bad),
}


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_a_building_block_rejects_a_wrong_argument_type_before_drawing(case):
    """initialize, select_best, CallCounter and the samplers judge their argument
    types as sta_run does: a short TypeError naming the argument, before any draw
    or evaluation.  A numpy Generator is not a RandomSource, and is not drawn from."""
    name = case.split(".")[1]
    counter = CallCounter(sphere)
    for bad in (None, 7, "x" * 1000, [[-1, -1], [1, 1]], np.random.Generator(np.random.PCG64(7))):
        source = RandomSource(7)
        with pytest.raises(TypeError, match=f"^{name} must be") as err:
            BLOCKS[case](counter, source, bad)
        assert len(str(err.value)) < 200
        assert source.uniform(0.0, 1.0, 3).tolist() == RandomSource(7).uniform(0.0, 1.0, 3).tolist()
        if isinstance(bad, np.random.Generator):
            assert bad.random() == np.random.Generator(np.random.PCG64(7)).random()
    assert counter.count == 0


def test_quoting_a_large_container_reprs_only_a_few_items():
    # A container is named by its type: none of its items is repr'd, sorted or iterated.
    calls = []

    class Item:
        def __repr__(self):
            calls.append(self)
            return "item"

        def __lt__(self, other):  # what a sort of a set or a dict's keys would call
            calls.append(other)
            return id(self) < id(other)

    for container, name in [([Item() for _ in range(100_000)], "list"),
                            ({Item() for _ in range(100_000)}, "set"),
                            ({Item(): Item() for _ in range(100_000)}, "dict")]:
        text = _quoted(container)
        assert calls == []
        assert text == name and len(text) <= 43


def _best_of_three(value):
    """``_quoted(value)`` and its best time of three, so one scheduler pause does not count."""
    seconds = []
    for _ in range(3):
        began = time.perf_counter()
        text = _quoted(value)
        seconds.append(time.perf_counter() - began)
    return text, min(seconds)


@pytest.mark.parametrize("kind,start", [(bytes, "b'\\x00"), (bytearray, "bytearray(b'\\x00")])
def test_quoting_ten_megabytes_cuts_them_before_their_repr(kind, start):
    # Bytes are no text: they are named by their type, and no part of their repr is built.
    value = kind(10_000_000)
    text, seconds = _best_of_three(value)
    assert seconds < 0.005
    assert text == kind.__name__ and not text.startswith(start) and len(text) <= 43


class ListSubclass(list):
    pass


class TupleSubclass(tuple):
    pass


class SetSubclass(set):
    pass


class BytesSubclass(bytes):
    pass


MILLION = range(1_000_000)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: ListSubclass(MILLION), "ListSubclass"),
        (lambda: TupleSubclass(MILLION), "TupleSubclass"),
        (lambda: collections.defaultdict(int, zip(MILLION, MILLION)), "defaultdict"),
        (lambda: collections.OrderedDict(zip(MILLION, MILLION)), "OrderedDict"),
        (lambda: collections.Counter(MILLION), "Counter"),
        (lambda: SetSubclass(MILLION), "SetSubclass"),
        (lambda: BytesSubclass(10_000_000), "BytesSubclass"),
        (lambda: [10**5000] * 1_000_000, "list"),
    ],
    ids=["list", "tuple", "defaultdict", "OrderedDict", "Counter", "set", "bytes", "nested int"],
)
def test_quoting_a_container_subclass_or_a_nested_huge_int_is_bounded(make, name):
    value = make()
    text, seconds = _best_of_three(value)
    assert seconds < 0.005
    assert text == name and len(text) <= 43


def test_quoting_a_subclass_that_breaks_its_bases_rule_falls_back_to_its_name():
    class Broken(list):
        def __iter__(self):
            raise RuntimeError("no iteration")

        def __repr__(self):
            raise RuntimeError("no repr")

    assert _quoted(Broken([1])) == "Broken"
    assert _quoted([Broken([1]), 2]) == "list"


def test_sta_run_names_space_for_a_list_holding_a_huge_int():
    with pytest.raises(TypeError, match=r"^space must be a SearchSpace, got list$"):
        sta_run(sphere, [10**5000])


HUGE_REPR = 10**8  # characters


def _hostile(base, raises):
    # A subclass of base whose own __repr__ is 10**8 characters long, or raises; it logs each call.
    calls = []

    def __repr__(self):
        calls.append(self)
        if raises:
            raise RuntimeError("no repr")
        return "x" * HUGE_REPR

    return type(f"Hostile{base.__name__.title()}", (base,), {"__repr__": __repr__}), calls


@pytest.mark.parametrize("raises", [False, True], ids=["huge", "raising"])
@pytest.mark.parametrize(
    "base,make,shown",
    [
        (str, lambda kind: kind("ab"), "'ab'"),
        (str, lambda kind: kind("y" * 30), "'" + "y" * 20 + "...'"),
        (int, lambda kind: kind(7), "7"),
        (int, lambda kind: kind(-(10**50)), "a negative integer of 167 bits"),
        (float, lambda kind: kind(0.5), "0.5"),
    ],
    ids=["str", "long str", "int", "wide int", "float"],
)
def test_quoting_a_text_or_number_subclass_uses_its_bases_repr(base, make, shown, raises):
    kind, calls = _hostile(base, raises)
    text, seconds = _best_of_three(make(kind))
    assert calls == [], "called the subclass's own __repr__"
    assert text == shown and type(text) is str
    assert seconds < 0.001


def test_quoting_any_other_object_names_its_type_without_its_repr():
    kind, calls = _hostile(object, raises=False)
    text, seconds = _best_of_three(kind())
    assert calls == [] and text == "HostileObject" and seconds < 0.001


def test_quoting_trusts_the_type_not_a_class_property():
    # isinstance would believe a __class__ property, and str's rule would then raise.
    class Posing:
        __class__ = property(lambda self: str)

    assert _quoted(Posing()) == "Posing"


def test_params_name_a_text_subclass_with_a_huge_repr_in_a_short_line():
    kind, calls = _hostile(str, raises=False)
    with pytest.raises(TypeError, match="^gamma must be a real number, got 'ab'$") as err:
        StaParams(gamma=kind("ab"))
    assert len(str(err.value)) < 200 and calls == []


@pytest.mark.parametrize(
    "value,shown",
    [(np.float64(math.nan), "nan"), (np.float32(0.1), repr(float(np.float32(0.1)))),
     (np.float64(-math.inf), "-inf"), (np.uint64(2**64 - 1), "18446744073709551615")],
    ids=["float64 nan", "float32", "float64 -inf", "uint64"],
)
def test_quoting_a_numpy_scalar_shows_its_python_number(value, shown):
    assert _quoted(value) == shown


def test_a_numpy_nan_reads_nan_in_its_message():
    with pytest.raises(ValueError, match=r"^gamma must be finite and > 0\.0, got nan$"):
        StaParams(gamma=np.float64(math.nan))


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
