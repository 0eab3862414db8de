"""Expression compiler: grammar, precedence, errors, differential checks."""

import re

import numpy as np
import pytest

from stapy.benchmarks import griewank, paper_quadratic, rastrigin
from stapy.core import RandomSource
from stapy.expressions import ExpressionError, _tokenize, parse_expression

QUADRATIC = "(x1-1)^2+(x2-2*x1)^2+(x3-3*x2)^2"


def test_quadratic_expression_at_origin():
    f = parse_expression(QUADRATIC, 3)
    assert f(np.zeros(3)) == 1.0


def test_simple_sum_of_squares():
    f = parse_expression("x1^2+x2^2", 2)
    assert f(np.array([3.0, 4.0])) == 25.0
    assert repr(parse_expression("x1^2", 1)) == "CompiledExpression('x1^2', dim=1)"


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("2+3*4", [0.0], 14.0),
        ("(2+3)*4", [0.0], 20.0),
        ("2^3^2", [0.0], 512.0),  # right-associative power
        ("-x1^2", [3.0], -9.0),  # unary minus binds looser than ^
        ("(-x1)^2", [3.0], 9.0),
        ("2^-3", [0.0], 0.125),
        ("10-4-3", [0.0], 3.0),  # left-associative subtraction
        ("24/4/2", [0.0], 3.0),
        ("+x1", [5.0], 5.0),
        ("--x1", [5.0], 5.0),
        ("abs(-3.5)", [0.0], 3.5),
        ("sqrt(x1)", [16.0], 4.0),
        ("sin(0)+cos(0)+exp(0)", [0.0], 2.0),
        ("1e2 + 5E-1", [0.0], 100.5),
        (".5*x1", [4.0], 2.0),
        ("x2", [1.0, 7.0], 7.0),
    ],
)
def test_grammar_values(text, point, expected):
    f = parse_expression(text, len(point))
    assert f(np.asarray(point, dtype=float)) == pytest.approx(expected, abs=1e-15)


def test_differential_against_hand_coded_evaluator():
    """Parsed expression vs an independent Python lambda at random points."""
    cases = [
        ("x1*x2 - x3/2 + sin(x1)", 3,
         lambda x: x[0] * x[1] - x[2] / 2.0 + np.sin(x[0])),
        ("exp(-x1^2) + sqrt(abs(x2))", 2,
         lambda x: np.exp(-(x[0] ** 2)) + np.sqrt(abs(x[1]))),
        ("(x1 - 2)^3 / (1 + x2^2)", 2,
         lambda x: (x[0] - 2.0) ** 3 / (1.0 + x[1] ** 2)),
    ]
    rng = RandomSource(9)
    for text, dim, oracle in cases:
        f = parse_expression(text, dim)
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, dim)
            assert f(x) == pytest.approx(float(oracle(x)), abs=1e-12), text


def test_quadratic_expression_matches_benchmark():
    f = parse_expression(QUADRATIC, 3)
    rng = RandomSource(4)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, 3)
        assert f(x) == pytest.approx(float(paper_quadratic(x)), abs=1e-12)


def test_batch_evaluation_matches_scalar():
    f = parse_expression("x1^2 - 2*x2 + 1", 2)
    assert f.supports_batch is True
    rows = RandomSource(5).uniform(-2.0, 2.0, (50, 2))
    batch = f(rows)
    assert batch.shape == (50,)
    for i in range(50):
        assert batch[i] == f(rows[i])


def test_constant_expression_broadcasts_over_batch():
    for text, value in (("3.5", 3.5), ("10-4-3", 3.0)):  # one literal, and a chain of them
        f = parse_expression(text, 2)
        assert f(np.zeros(2)) == value
        for x in (np.zeros((4, 2)), np.zeros((3, 4, 2))):
            out = f(x)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == x.shape[:-1] and out.flags.writeable and np.all(out == value)


@pytest.mark.parametrize("text,column", [("x1", 0), ("(x1)", 0), ("+x1", 0), ("x02", 1), ("((x2))", 1)])
def test_lone_variable_returns_a_new_array(text, column):
    """A lone variable is spread like a constant: never a view of the caller's batch."""
    f = parse_expression(text, 2)
    batch = np.array([[-0.0, np.nan], [np.nan, -0.0], [1.5, 2.5]])
    for x in (batch, np.stack([batch] * 4)):
        before = x.copy()
        out = f(x)
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == x.shape[:-1] and out.flags.writeable
        assert not np.shares_memory(out, x)
        want = x[..., column]  # the same bits: -0.0 and NaN kept
        assert np.array_equal(out, want, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        out[...] = 5.0
        assert np.array_equal(x, before, equal_nan=True)
    point = f(batch[2])
    assert type(point) is float and point == batch[2, column]


def test_domain_violations_yield_non_finite_not_raise():
    f = parse_expression("sqrt(x1)", 1)
    assert np.isnan(f(np.array([-1.0])))
    g = parse_expression("1/x1", 1)
    assert not np.isfinite(g(np.array([0.0])))


def test_division_by_zero_is_non_finite_not_raise():
    f = parse_expression("x1 + 1/0", 1)
    assert f(np.array([2.0])) == np.inf
    assert np.all(f(np.zeros((3, 1))) == np.inf)
    assert np.isnan(parse_expression("0/0", 1)(np.zeros(1)))


@pytest.mark.parametrize(
    "text,oracle",
    [
        ("10-4-3", lambda x: np.float64(10.0) - 4.0 - 3.0),
        ("24/4/2", lambda x: np.float64(24.0) / 4.0 / 2.0),
        ("2^3^2", lambda x: np.power(2.0, np.power(3.0, 2.0))),
        ("-x1^2", lambda x: -np.power(x[..., 0], 2.0)),
        ("2^-3", lambda x: np.power(2.0, -3.0)),
        ("--x1", lambda x: -(-x[..., 0])),
        ("sin(x1)*exp(-x2^2)/(1+abs(x2))",
         lambda x: np.sin(x[..., 0]) * np.exp(-np.power(x[..., 1], 2.0))
         / (1.0 + np.abs(x[..., 1]))),
        ("3.5", lambda x: np.float64(3.5)),
    ],
)
def test_compiled_form_equals_numpy_in_the_same_order(text, oracle):
    f = parse_expression(text, 2)
    rows = RandomSource(11).uniform(-2.0, 2.0, (50, 2))
    assert np.array_equal(f(rows), np.broadcast_to(oracle(rows), (50,)))
    assert f(rows[0]) == oracle(rows[0])


@pytest.mark.parametrize(
    "text",
    ['__import__("os")', "x1.real", "x1[0]", "x1 ** 2", "x1 // 2", "x1, x2", "lambda: 1"],
)
def test_python_syntax_is_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text, 2)


def test_compiled_function_sees_only_fixed_names_and_no_builtins():
    f = parse_expression("sqrt(abs(x1)) + 2^sin(x2) - exp(cos(x1))/3", 2)
    assert f._fn.__globals__["__builtins__"] == {}
    assert set(f._fn.__code__.co_names) <= {"c", "power", "sin", "cos", "exp", "sqrt", "abs"}


def test_500_dimensional_expression_evaluates():
    """One term per coordinate; evaluation does not recurse over the terms."""
    shift = RandomSource(3).uniform(-2.0, 2.0, 500)
    text = "5000.0" + "".join(
        f" + (x{i}-{o!r})^2 - 10*cos(6.283185307179586*(x{i}-{o!r}))"
        for i, o in enumerate(shift.tolist(), start=1)
    )
    f = parse_expression(text, 500)
    rows = RandomSource(4).uniform(-5.12, 5.12, (8, 500))
    assert f(rows) == pytest.approx(rastrigin(rows - shift), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "text,value",
    [("(" * 400 + "x1" + ")" * 400, 1.5), ("+".join(["x1"] * 100_000), 150_000.0)],
    ids=["400-parentheses", "100000-terms"],
)
def test_deep_expression_compiles_or_raises_expression_error(text, value):
    try:
        f = parse_expression(text, 1)
    except ExpressionError as err:
        assert "nests too deeply" in str(err)
    else:
        assert f(np.array([1.5])) == value


def test_2000_dimensional_flat_sum_equals_numpy_bit_for_bit():
    """4,001 top-level terms compile; the chain keeps numpy's left-to-right order."""
    n = 2000
    shift = RandomSource(3).uniform(-2.0, 2.0, n)
    text = "20000.0" + "".join(
        f" + (x{i}-{o!r})^2 - 10*cos(6.283185307179586*(x{i}-{o!r}))"
        for i, o in enumerate(shift.tolist(), start=1)
    )
    f = parse_expression(text, n)
    rows = RandomSource(4).uniform(-5.12, 5.12, (8, n))
    expected = np.full(8, 20000.0)
    for i, o in enumerate(shift):
        d = rows[:, i] - o
        expected = expected + np.power(d, 2.0) - 10.0 * np.cos(6.283185307179586 * d)
    assert np.array_equal(f(rows), expected)


def test_wrong_arity_point_rejected():
    f = parse_expression("x1+x2", 2)
    with pytest.raises(ValueError):
        f(np.zeros(3))


# ----------------------------------------------------------------- errors


def error_position(text, dim=2):
    with pytest.raises(ExpressionError) as info:
        parse_expression(text, dim)
    return info.value.position


def test_error_positions_are_one_based_columns():
    assert error_position("x1 + $") == 6
    assert error_position("x1 + + ") == 8  # dangling unary plus hits end
    assert error_position("x1 * (x2", 2) == 9  # missing ")"
    assert error_position("x3", 2) == 1  # out-of-range variable
    assert error_position("x1 x2") == 4  # missing operator


def test_error_messages_are_actionable():
    with pytest.raises(ExpressionError, match=r"x1\.\.x2"):
        parse_expression("y + 1", 2)
    with pytest.raises(ExpressionError, match="out of range for dimension 2"):
        parse_expression("x5", 2)
    with pytest.raises(ExpressionError, match=r"'x9{19}\.\.\.' out of range"):
        parse_expression("x" + "9" * 5000, 2)  # beyond int()'s digit limit
    with pytest.raises(ExpressionError, match=r"unknown variable 'y{20}\.\.\.' \("):
        parse_expression("y" * 10_000, 2)
    with pytest.raises(ExpressionError, match="known: abs, cos, exp, sin, sqrt"):
        parse_expression("tan(x1)", 2)
    with pytest.raises(ExpressionError, match="empty"):
        parse_expression("", 2)
    with pytest.raises(ExpressionError, match="empty"):
        parse_expression("   ", 2)
    with pytest.raises(ExpressionError, match="missing operator"):
        parse_expression("2 3", 1)
    with pytest.raises(ExpressionError, match=r"missing '\)'"):
        parse_expression("sin(x1", 1)
    with pytest.raises(ExpressionError):
        parse_expression("(x1))", 1)


def test_parse_expression_rejects_bad_dim():
    with pytest.raises(ValueError):
        parse_expression("x1", 0)


@pytest.mark.parametrize("text", [None, 7, b"x1", ["x1"]], ids=["none", "int", "bytes", "list"])
def test_parse_expression_judges_text(text):
    with pytest.raises(TypeError, match="^text must be") as info:
        parse_expression(text, 2)
    assert len(str(info.value)) < 200


# ----------------------------------------------------------------- tokens


def tokens(text):
    return [(t.kind, t.value, t.pos) for t in _tokenize(text)]


@pytest.mark.parametrize(
    "text,expected",
    [
        (" \t ", [("end", None, 4)]),  # whitespace only
        ("x1 + 2  ", [("name", "x1", 1), ("op", "+", 4), ("num", "2", 6), ("end", None, 9)]),
        ("x1\t+\n2\u00a0*x2", [("name", "x1", 1), ("op", "+", 4), ("num", "2", 6),
                              ("op", "*", 8), ("name", "x2", 9), ("end", None, 11)]),
        ("1e5x", [("num", "1e5", 1), ("name", "x", 4), ("end", None, 5)]),
    ],
)
def test_tokens_carry_kind_text_and_one_based_column(text, expected):
    assert tokens(text) == expected


@pytest.mark.parametrize(
    "text,message,column",
    [
        (" \t\n ", "empty expression", 1),  # whitespace only
        ("$x1", "unexpected character '$'", 1),
        ("x1 +\n  # x2", "unexpected character '#'", 8),
    ],
)
def test_scan_errors_name_their_one_based_column(text, message, column):
    with pytest.raises(ExpressionError, match=re.escape(message)) as info:
        parse_expression(text, 2)
    assert info.value.position == column


def test_workload_tokens_spell_the_text_at_their_columns():
    text = workload_text(10)[0]
    found = tokens(text)
    assert found[-1] == ("end", None, len(text) + 1)
    assert all(text[pos - 1:pos - 1 + len(value)] == value for _, value, pos in found[:-1])
    assert "".join(value for _, value, _ in found[:-1]) == "".join(text.split())


# ------------------------------------------------- repeated terms, rolled


def workload_text(n, seed=0):
    """The benchmark's shifted rastrigin text at dimension ``n``, mixed-sign shifts."""
    from dataclasses import replace

    from perfbench.workloads import WORKLOADS, draw_shift, expression

    workload = replace(WORKLOADS["cli_n10_expr"], dim=n)
    shift = draw_shift(np.random.default_rng(seed), n, workload.half_width)
    assert (shift < 0).any() and (shift > 0).any()
    return expression(workload, shift), shift


def rastrigin_in_source_order(x, shift):
    value = np.float64(10.0 * len(shift))
    for i, o in enumerate(shift):
        d = x[..., i] - o
        value = value + np.power(d, 2.0) - 10.0 * np.cos(6.283185307179586 * d)
    return value


def assert_equals_oracle(f, oracle, dim, scale=5.12):
    """Bit-equal on 30-row batches, some rows holding NaN and +-inf, and on
    every row as a single point."""
    rng = np.random.default_rng(dim)
    rows = rng.uniform(-scale, scale, (30, dim))
    rows[rng.integers(0, 30, 6), rng.integers(0, dim, 6)] = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0
    ]
    with np.errstate(all="ignore"):
        assert np.array_equal(f(rows), np.broadcast_to(oracle(rows), (30,)), equal_nan=True)
        for row in rows:
            assert np.array_equal(f(row), oracle(row), equal_nan=True)


@pytest.mark.parametrize("n", [10, 100, 2000])
def test_workload_expression_equals_numpy_in_source_order(n):
    text, shift = workload_text(n)
    f = parse_expression(text, n)
    assert_equals_oracle(f, lambda x: rastrigin_in_source_order(x, shift), n)


def test_workload_expression_compiles_to_code_of_fixed_length():
    """The coordinates roll into one block, so the code does not grow with n."""
    lengths = {len(parse_expression(workload_text(n)[0], n)._fn.__code__.co_code)
               for n in (10, 1000)}
    assert len(lengths) == 1


def test_rolled_function_sees_only_fixed_names_and_no_builtins():
    f = parse_expression(workload_text(10)[0], 10)
    assert f._fn.__globals__["__builtins__"] == {}
    assert set(f._fn.__code__.co_names) <= {"c", "power", "cos", "_fold"}
    assert "_fold" in f._fn.__code__.co_names


@pytest.mark.parametrize(
    "text,dim,oracle",
    [
        # Non-adjacent and interleaved templates.
        ("x1^2 + sin(x1) - 3*x2 + x2^2 - sin(x2) + x3^2 + sin(x3) - 3*x1", 3,
         lambda v: np.power(v[..., 0], 2.0) + np.sin(v[..., 0]) - 3.0 * v[..., 1]
         + np.power(v[..., 1], 2.0) - np.sin(v[..., 1]) + np.power(v[..., 2], 2.0)
         + np.sin(v[..., 2]) - 3.0 * v[..., 0]),
        # A repeated variable.
        ("+".join(["x1"] * 7), 1,
         lambda v: v[..., 0] + v[..., 0] + v[..., 0] + v[..., 0] + v[..., 0] + v[..., 0]
         + v[..., 0]),
        # Templates that differ only in a literal exponent.
        ("x1^2 + x2^3 + x3^2 + x4^3", 4,
         lambda v: np.power(v[..., 0], 2.0) + np.power(v[..., 1], 3.0)
         + np.power(v[..., 2], 2.0) + np.power(v[..., 3], 3.0)),
        # Two variable slots per term.
        ("x1*x2 + x2*x3 + x3*x4 + x4*x1", 4,
         lambda v: v[..., 0] * v[..., 1] + v[..., 1] * v[..., 2] + v[..., 2] * v[..., 3]
         + v[..., 3] * v[..., 0]),
        # A rolled chain nested inside sqrt.
        ("1 + sqrt(x1^2 + x2^2 + x3^2) - x3", 3,
         lambda v: 1.0 + np.sqrt(np.power(v[..., 0], 2.0) + np.power(v[..., 1], 2.0)
                                 + np.power(v[..., 2], 2.0)) - v[..., 2]),
        # Shifts of either sign, and literal-only factors kept scalar (i^0.5).
        ("(x1+0.5)/1^0.5 + (x2-0.25)/2^0.5 + (x3+-1)/3^0.5", 3,
         lambda v: (v[..., 0] + 0.5) / np.power(1.0, 0.5) + (v[..., 1] - 0.25)
         / np.power(2.0, 0.5) + (v[..., 2] + -1.0) / np.power(3.0, 0.5)),
    ],
    ids=["interleaved", "repeated-variable", "exponents", "two-slots", "nested-sqrt",
         "signs-and-literals"],
)
def test_rolled_chains_equal_numpy_in_source_order(text, dim, oracle):
    assert_equals_oracle(parse_expression(text, dim), oracle, dim, scale=3.0)


def test_exponent_read_from_x_is_not_rolled():
    """At a point where x3 = 2, numpy squares the scalar base; a rolled block
    would call pow on an array, which differs in the last bit for some bases."""
    f = parse_expression("x1^x3 + x2^x3", 3)
    rows = RandomSource(8).uniform(0.5, 3.0, (200, 3))
    rows[:, 2] = 2.0
    for row in rows:
        assert f(row) == np.power(row[..., 0], row[..., 2]) + np.power(row[..., 1], row[..., 2])


def test_literal_only_factors_are_computed_once_by_the_scalar_call():
    """``i^0.5`` is evaluated when compiling, by numpy's scalar pow, so a rolled
    block cannot move it to an array fast path such as sqrt."""
    f = parse_expression("x1/2^0.5 + x2/3^0.5 - x3/-4", 3)
    assert "power" not in f._fn.__code__.co_names
    point = np.array([1.0, 2.0, 3.0])
    assert f(point) == 1.0 / np.power(2.0, 0.5) + 2.0 / np.power(3.0, 0.5) - 3.0 / -4.0


def test_3000_dimensional_griewank_product_compiles():
    """A product of 3,000 factors is cut into temporaries, not rejected."""
    n = 3000
    text = "1 + " + " + ".join(f"x{i}^2/4000" for i in range(1, n + 1)) + " - " + "*".join(
        f"cos(x{i}/{i}^0.5)" for i in range(1, n + 1)
    )
    f = parse_expression(text, n)
    rows = RandomSource(6).uniform(-600.0, 600.0, (4, n))
    rows[0] = RandomSource(7).uniform(-1.0, 1.0, n)  # where the product matters
    assert np.allclose(f(rows), griewank(rows), rtol=1e-12, atol=0.0)
    assert f(rows[0]) == pytest.approx(float(griewank(rows[0])), rel=1e-12)


def test_scalar_point_is_rejected_with_value_error():
    with pytest.raises(ValueError, match="expression over 1 variables got a point of length"):
        parse_expression("x1^2", 1)(3.0)
