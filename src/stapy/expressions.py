"""Compile arithmetic expression strings into objective functions.

The grammar covers ``+ - * / ^``, parentheses, numeric literals, variables
``x1 .. xn``, and the functions ``sin cos exp sqrt abs``.  ``^`` is
right-associative power binding tighter than unary minus, so ``-x1^2`` means
``-(x1^2)`` and ``2^-3`` is legal.  Compiled expressions evaluate on single
points or on ``(m, n)`` batches (``supports_batch``).  The parser emits the
whole expression as one numpy function ``def f(x): ...``, compiled once with
empty builtins.  Terms of a ``+``/``-`` chain that differ only in variables
and literals (the coordinates of a written-out rastrigin) are evaluated as one
column block and summed in source order, with the same bits as term by term.
Long sums and products are split into temporaries, so their length has no
limit; only an expression nested too deeply to compile is rejected.  Domain
violations such as ``sqrt`` of a negative number or ``1/0`` yield non-finite
values rather than raising, which the engine treats as never-selected
candidates.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable, Optional

import numpy as np

from .core import Array, _count, _instance, _quietly, _quoted

__all__ = ["ExpressionError", "CompiledExpression", "parse_expression"]

_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VARIABLE_RE = re.compile(r"^x0*([0-9]+)$")
# A token after its whitespace, the end, or the first character that starts none; numerals are ASCII.
_TOKEN_RE = re.compile(
    r"(?s)\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<bad>.))"
)


class ExpressionError(ValueError):
    """Malformed expression; ``position`` is the 1-based offending column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# kind "num" | "name" | "op" | "end"; value the token's text, None at the end; pos its 1-based column
_Token = namedtuple("_Token", "kind value pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, pos = match.lastgroup, match.start(match.lastgroup) + 1
        if kind == "bad":
            raise ExpressionError(f"unexpected character {match[kind]!r}", pos)
        tokens.append(_Token(kind, match[kind] or None, pos))  # only the end is empty
        if kind == "end":  # after trailing whitespace, \Z would match once more
            break
    return tokens


_CONSTANT_RE = re.compile(r"c\[(\d+)\]")
_INPUT_RE = re.compile(r"x\[|\bt\d")  # reads a variable or a temporary
_LONE_RE = re.compile(r"\(*x\[\.\.\., \d+\]\)*")  # a lone variable, a view of x
# A term's slots: its variables, and its literals but a literal exponent (its
# only ``, c[i]``), so a rolled power keeps numpy's scalar fast paths (square).
_SLOT_RE = re.compile(r"x\[\.\.\., (\d+)\]|(?<!, )c\[(\d+)\]")


def _indexer(indices: list[int]):
    """A slice over ``indices`` if they step evenly upward, else an index array."""
    run = range(indices[0], indices[-1] + 1, max(indices[1] - indices[0], 1))
    return slice(run.start, run.stop, run.step) if indices == list(run) else np.array(indices)


def _fold(x, count, wheres, *terms):
    """Sum a chain of ``count`` terms strictly left to right; ``wheres`` holds
    where each of ``terms``, a column or a block of columns, stands in it."""
    stack = np.empty(x.shape[:-1] + (count,))
    for where, term in zip(wheres, terms):
        stack[..., where] = term
    return np.add.accumulate(stack, axis=-1)[..., -1]


class _Parser:
    """Recursive descent over the token stream, emitting Python source.

    Each grammar rule returns source over an ``(..., n)`` float array ``x``;
    each literal value appears as one ``c[i]``, its value in ``constants``.
    """

    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0
        self.constants: list = []
        # A float's bytes, else an object's id -> its i.  A literal exponent is not a slot (_SLOT_RE),
        # so x^2 terms share a template only if their 2s are one c[i]: equal literals share one.
        self._index: dict = {}
        self.lines: list[str] = []  # statements ``tK = ...`` before the return
        self.scope = {"__builtins__": {}, "c": self.constants, "power": np.power,
                      "_fold": _fold, "full": np.full} | _FUNCTIONS

    def parse(self) -> str:
        if self.tokens[0].kind == "end":
            raise ExpressionError("empty expression", 1)
        source = self._sum()
        tok = self._peek()
        if tok.kind != "end":
            raise ExpressionError(
                f"unexpected {_quoted(tok.value)} (missing operator?)", tok.pos
            )
        return source

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _accept_op(self, chars: str) -> Optional[str]:
        tok = self._peek()
        if tok.kind == "op" and tok.value in chars:
            self._advance()
            return tok.value
        return None

    def _constant(self, value) -> str:
        key = value.tobytes() if isinstance(value, np.float64) else id(value)
        if key not in self._index:
            self._index[key] = len(self.constants)
            self.constants.append(value)
        return f"c[{self._index[key]}]"

    def _temporary(self, source: str) -> str:
        self.lines.append(f"t{len(self.lines)} = {source}")
        return f"t{len(self.lines) - 1}"

    def _folded(self, source: str) -> str:
        """``source`` or, if it reads no variable, one literal of its value (its calls made once)."""
        if _INPUT_RE.search(source) or _CONSTANT_RE.fullmatch(source):
            return source
        return self._constant(np.float64(_quietly(eval, source, self.scope)))

    def _joined(self, parts: list[str]) -> str:
        # Left-associative operands and operators, cut every 500 parts into a
        # temporary, which keeps the order but bounds the compiler's nesting.
        head = parts[:501]
        for i in range(501, len(parts), 500):
            head = [self._temporary(" ".join(head))] + parts[i:i + 500]
        return " ".join(head)

    def _sum(self) -> str:
        # Terms equal but for their slots share a template; one met twice or
        # more is evaluated once on a column block, then folded in source order.
        terms = [("+", self._product())]
        while (op := self._accept_op("+-")) is not None:
            term = self._product()
            if op == "+" and _CONSTANT_RE.fullmatch(term):
                # a + c is exactly a - (-c): shifts of either sign share a template.
                op, term = "-", self._folded("-" + term)
            terms.append((op, term))
        groups: dict = {}
        for position, (sign, source) in enumerate(terms):
            template = _SLOT_RE.sub(lambda m: "x[..., {}]" if m[1] else "{}", source)
            groups.setdefault((sign, template) if "x[" in source else position, []).append(position)
        if len(groups) == len(terms):
            return self._joined([part for term in terms for part in term][1:])
        wheres, values = [], []
        for key, positions in groups.items():
            sign, source = terms[positions[0]]
            wheres.append(positions[0])
            if len(positions) > 1:
                slots = zip(*(_SLOT_RE.findall(terms[p][1]) for p in positions))
                source = key[1].format(*map(self._slot, slots))
                wheres[-1] = _indexer(positions)
            values.append(source if sign == "+" else f"-({source})")
        wheres = self._constant(wheres)
        return self._temporary(f"_fold(x, {len(terms)}, {wheres}, {', '.join(values)})")

    def _slot(self, column: tuple[tuple[str, str], ...]) -> str:
        """An indexer over a slot's variables, its one literal, or a vector."""
        variables, literals = zip(*column)
        if variables[0]:
            return self._constant(_indexer([int(k) for k in variables]))
        if len(set(literals)) == 1:
            return f"c[{literals[0]}]"
        return self._constant(np.array([self.constants[int(i)] for i in literals]))

    def _product(self) -> str:
        parts = [self._unary()]
        while (op := self._accept_op("*/")) is not None:
            parts += [op, self._unary()]
        return self._joined(parts)

    def _unary(self) -> str:
        if self._accept_op("+") is not None:
            return self._unary()
        if self._accept_op("-") is not None:
            return self._folded("-" + self._unary())
        return self._folded(self._power())

    def _power(self) -> str:
        base = self._atom()
        if self._accept_op("^") is None:
            return base
        exponent = self._unary()
        if not _CONSTANT_RE.fullmatch(exponent):  # read from x: never rolled,
            exponent = self._temporary(exponent)  # as numpy squares only scalars
        return f"power({base}, {exponent})"

    def _atom(self) -> str:
        tok = self._advance()
        if tok.kind == "num":
            return self._constant(np.float64(tok.value))
        if tok.kind == "name":
            if self._peek().kind == "op" and self._peek().value == "(":
                if tok.value not in _FUNCTIONS:
                    known = ", ".join(sorted(_FUNCTIONS))
                    raise ExpressionError(
                        f"unknown function {_quoted(tok.value)} (known: {known})", tok.pos
                    )
                self._advance()  # "("
                arg = self._sum()
                self._expect_close(tok)
                return f"{tok.value}({arg})"
            return self._variable(tok)
        if tok.kind == "op" and tok.value == "(":
            source = self._sum()
            self._expect_close(tok)
            return f"({source})"
        what = "end of expression" if tok.kind == "end" else _quoted(tok.value)
        raise ExpressionError(f"expected a value, found {what}", tok.pos)

    def _variable(self, tok: _Token) -> str:
        match = _VARIABLE_RE.match(tok.value)
        if match is None:
            raise ExpressionError(
                f"unknown variable {_quoted(tok.value)} (use x1..x{self.dim})", tok.pos
            )
        # More digits than dim has means out of range; int() never sees them.
        k = int(match[1]) if len(match[1]) <= len(str(self.dim)) else 0
        if not 1 <= k <= self.dim:
            raise ExpressionError(
                f"variable {_quoted(tok.value)} out of range for dimension {self.dim}", tok.pos
            )
        return f"x[..., {k - 1}]"

    def _expect_close(self, opener: _Token):
        if self._accept_op(")") is None:
            tok = self._peek()
            raise ExpressionError(
                f"missing ')' for group opened at position {opener.pos}", tok.pos
            )


class CompiledExpression:
    """Pure objective evaluating a parsed expression on points or batches."""

    supports_batch = True

    def __init__(self, text: str, dim: int, fn: Callable[[Array], Array]):
        self.text = text
        self.dim = dim
        self._fn = fn

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(
                f"expression over {self.dim} variables got a point of "
                f"length {x.shape[-1] if x.ndim else '0 (a scalar)'}"
            )
        value = _quietly(self._fn, x)
        return float(value) if x.ndim == 1 else value

    def __repr__(self):
        return f"{type(self).__name__}({self.text!r}, dim={self.dim})"


def parse_expression(text: str, dim: int) -> CompiledExpression:
    """Compile ``text`` into an objective over variables ``x1..x{dim}``.

    Raises :class:`ExpressionError` (with the offending 1-based position) on
    syntax errors, unknown names, or variable indices beyond ``dim``, and at
    position 1 on an expression that nests too deeply to compile.  ``dim`` is
    an integer >= 1 (``3.0`` counts, ``2.7`` raises ValueError), and a ``text``
    that is not a ``str`` raises TypeError.
    """
    dim = _count(dim, "dim")
    parser = _Parser(_instance(text, str, "text"), dim)
    try:
        source = parser.parse()
        body = "".join(f"    {line}\n" for line in parser.lines)
        if "x[" not in body + source or _LONE_RE.fullmatch(source):  # spread into a new array
            source = f"full(x.shape[:-1], {source})"
        exec(f"def f(x):\n{body}    return {source}", parser.scope)
        fn = parser.scope["f"]
    except (RecursionError, SyntaxError):
        raise ExpressionError("expression nests too deeply", 1) from None
    return CompiledExpression(text, dim, fn)
