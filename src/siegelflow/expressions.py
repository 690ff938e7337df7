"""A tiny expression language for holomorphic vector fields.

A field on an n-dimensional domain is written as n component expressions
separated by semicolons, e.g. ``"0; -i*z2/z1"``.  Components may use the
variables z1..zn (``z`` is an alias for z1 when n = 1), the imaginary literal
``i``, decimal numbers, the operators ``+ - * / ^`` with integer exponents,
parentheses, and the principal-branch functions ``exp``, ``sqrt``, ``log``.

Precedence, tightest first:  ``^``,  unary ``-``,  ``* /``,  ``+ -``.

A parsed component compiles once into nested numpy closures, which evaluate
it on whole grids of points at once.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Union

import numpy as np

from ._records import record
from .errors import ArityMismatchError, ExpressionSyntaxError, UnknownIdentifierError

# Principal-branch functions by name.
FUNCTIONS = {"exp": np.exp, "sqrt": np.sqrt, "log": np.log}


@record
class Num:
    value: complex


@record
class Var:
    index: int  # zero-based


@record
class Neg:
    operand: "Expr"


@record
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@record
class Pow:
    base: "Expr"
    exponent: int


@record
class Func:
    name: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Pow, Func]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", offset + pos
            )
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), offset + pos))
        pos = match.end()
    tokens.append(("end", "", offset + len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, dimension: int, offset: int = 0):
        self.tokens = _tokenize(text, offset)
        self.dimension = dimension
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, symbol: str):
        kind, text, position = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ExpressionSyntaxError(f"expected {symbol!r}", position)

    def parse(self) -> Expr:
        expr = self.additive()
        kind, text, position = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {text!r}", position)
        return expr

    def additive(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, text, position = self.peek()
        if kind == "op" and text == "(":
            self.advance()
            value = self.exponent()
            self.expect_op(")")
            return value
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, position = self.peek()
        if kind != "number":
            raise ExpressionSyntaxError("expected an integer exponent", position)
        if not text.isdigit():
            raise ExpressionSyntaxError(
                f"exponent must be an integer, got {text!r}", position
            )
        self.advance()
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, position = self.advance()
        if kind == "number":
            return Num(complex(float(text)))
        if kind == "name":
            return self.name_atom(text, position)
        if kind == "op" and text == "(":
            inner = self.additive()
            self.expect_op(")")
            return inner
        message = "unexpected end of expression" if kind == "end" else (
            f"unexpected token {text!r}"
        )
        raise ExpressionSyntaxError(message, position)

    def name_atom(self, text: str, position: int) -> Expr:
        if text == "i":
            return Num(1j)
        if text in FUNCTIONS:
            self.expect_op("(")
            inner = self.additive()
            self.expect_op(")")
            return Func(text, inner)
        if text == "z":
            if self.dimension == 1:
                return Var(0)
            raise UnknownIdentifierError(text, position)
        match = re.fullmatch(r"z(\d+)", text)
        if match:
            index = int(match.group(1))
            if 1 <= index <= self.dimension:
                return Var(index - 1)
            raise UnknownIdentifierError(text, position)
        raise UnknownIdentifierError(text, position)


def parse_expression(text: str, dimension: int, offset: int = 0) -> Expr:
    """Parse one component expression for an n-dimensional field."""
    return _Parser(text, dimension, offset).parse()


def parse_components(text: str, dimension: int | None = None) -> list[Expr]:
    """Parse a semicolon-separated component list.

    When ``dimension`` is None it is inferred from the component count.
    Raises ArityMismatchError when the counts disagree.
    """
    pieces = text.split(";")
    if dimension is None:
        dimension = len(pieces)
    if len(pieces) != dimension:
        raise ArityMismatchError(
            f"expected {dimension} component(s), got {len(pieces)}"
        )
    components = []
    offset = 0
    for piece in pieces:
        components.append(parse_expression(piece, dimension, offset))
        offset += len(piece) + 1
    return components


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def compile_expression(expr: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a tree into nested numpy closures, so calls skip the tree walk.

    The closures apply the same numpy operations in the same order as a walk
    of the tree, so their results are bit-identical to it.
    """
    if isinstance(expr, Num):
        value = np.asarray(expr.value)
        return lambda points: value
    if isinstance(expr, Var):
        index = expr.index
        return lambda points: points[..., index]
    if isinstance(expr, Neg):
        operand = compile_expression(expr.operand)
        return lambda points: -operand(points)
    if isinstance(expr, BinOp):
        op = _BINARY[expr.op]
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)
        return lambda points: op(left(points), right(points))
    if isinstance(expr, Pow):
        base = compile_expression(expr.base)
        exponent = expr.exponent
        return lambda points: base(points) ** exponent
    if isinstance(expr, Func):
        fn = FUNCTIONS[expr.name]
        arg = compile_expression(expr.arg)
        return lambda points: fn(arg(points))
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate(program: Callable[[np.ndarray], np.ndarray],
             points: np.ndarray) -> np.ndarray:
    """Run a compile_expression closure on points (..., n).

    Returns an array broadcastable to shape (...,).  Singularities produce
    non-finite entries rather than raising; callers decide the policy.
    """
    return program(points)


# ---------------------------------------------------------------------------
# Canonical pretty-printer
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_UNARY
    if isinstance(expr, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(child: Expr, minimum: int) -> str:
    text = to_text(child)
    if _precedence(child) < minimum:
        return f"({text})"
    return text


def _literal_text(value: complex) -> str:
    if value == 1j:
        return "i"
    if value.imag == 0.0:
        real = value.real
        if real >= 0 and real == int(real) and abs(real) < 1e15:
            return str(int(real))
        return repr(real)
    # Programmatic ASTs may hold general complex literals; printed as a sum.
    return f"({repr(value.real)} + {repr(value.imag)}*i)"


def to_text(expr: Expr) -> str:
    """Render an AST in canonical form; parsing the output reproduces it."""
    if isinstance(expr, Num):
        return _literal_text(expr.value)
    if isinstance(expr, Var):
        return f"z{expr.index + 1}"
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, _PREC_UNARY)
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            left = _wrap(expr.left, _PREC_ADD)
            right = _wrap(expr.right, _PREC_ADD + (1 if expr.op == "-" else 0))
            return f"{left} {expr.op} {right}"
        left = _wrap(expr.left, _PREC_MUL)
        right = _wrap(expr.right, _PREC_MUL + (1 if expr.op == "/" else 0))
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Pow):
        base = _wrap(expr.base, _PREC_ATOM)
        if expr.exponent < 0:
            return f"{base}^({expr.exponent})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Func):
        return f"{expr.name}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def field_to_text(components: list[Expr]) -> str:
    return "; ".join(to_text(c) for c in components)
