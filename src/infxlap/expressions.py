"""Tiny arithmetic expression language for problem configuration.

Frame entries a_ij(x,y), the exponent p(x,y) and boundary data f(x,y) are
given as closed-form strings.  The grammar is fixed: literals, the
variables ``x`` and ``y``, the constants ``pi`` and ``e``, binary
``+ - * / ^`` (with ``^`` right-associative and binding tighter than
unary minus), unary minus, and the calls ``sin cos exp log sqrt abs``
(one argument) and ``min max`` (two arguments).  ``log`` is the natural
logarithm.

Parsed trees are immutable.  :func:`evaluate` walks a tree once on whole
coordinate arrays (0-d at one point): ``+ - * / sqrt abs min max`` are
exact IEEE operations and run as ufuncs, ``^ exp log sin cos`` call
``math`` per element, so every node gets a scalar evaluation's bits.  It
raises :class:`DomainError` instead of returning a non-finite value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed input; carries the character offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the expression's domain (log, sqrt, division, pow):
    ``node`` is the failing subexpression, ``grid_node`` the first failing
    grid node as ``((i, j), (x, y))`` or None off a grid."""

    def __init__(self, reason: str, node: "Expr", grid_node=None):
        (i, j), (x, y) = grid_node or ((0, 0), (0.0, 0.0))
        at = f" at node (i={i}, j={j}), (x={x:g}, y={y:g})" if grid_node else ""
        super().__init__(f"{reason} in '{node}'{at}")
        self.node, self.grid_node = node, grid_node


@dataclass(frozen=True)
class Expr:
    """Abstract syntax tree node (base class)."""

    def __call__(self, x: float, y: float) -> float:
        return evaluate(self, x, y)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x" or "y"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def __str__(self) -> str:
        return f"(-{self.arg})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"


_CONSTANTS = {"pi": math.pi, "e": math.e}
_UNARY_FUNCS = {"sin", "cos", "exp", "log", "sqrt", "abs"}
_BINARY_FUNCS = {"min", "max"}
# digits and dots, then an exponent suffix like 1e-3 / 2.5E+10; a name
_NUMBER, _NAME = re.compile(r"[\d.]*(?:[eE][+-]?\d+)?"), re.compile(r"\w*")


class _Parser:
    """Recursive-descent parser over a character stream.

    Precedence, loosest to tightest: ``+ -`` < ``* /`` < unary ``-``
    < ``^`` (right-associative).
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Expr:
        node = self.expression()
        if self.peek():
            raise ParseError(f"unexpected '{self.text[self.pos]}'", self.pos)
        return node

    def peek(self) -> str:
        """The next character after white space, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def expression(self) -> Expr:
        return self.chain(("+", "-"), self.term)

    def term(self) -> Expr:
        return self.chain(("*", "/"), self.unary)

    def chain(self, ops: tuple[str, str], operand) -> Expr:
        """``operand (op operand)*``, left-associative."""
        node = operand()
        while (op := self.peek()) in ops:
            self.pos += 1
            node = BinOp(op, node, operand())
        return node

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            # right-associative; the exponent may carry a unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            self.pos += 1
            node = self.expression()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        raise ParseError(f"unexpected '{ch}'", self.pos)

    def number(self) -> Expr:
        start = self.pos
        self.pos = _NUMBER.match(self.text, start).end()
        try:
            return Num(float(self.text[start:self.pos]))
        except ValueError:
            raise ParseError("malformed number", start) from None

    def identifier(self) -> Expr:
        start = self.pos
        self.pos = _NAME.match(self.text, start).end()
        name = self.text[start:self.pos]
        if name in ("x", "y"):
            return Var(name)
        if name in _CONSTANTS:
            return Num(_CONSTANTS[name])
        if name in _UNARY_FUNCS or name in _BINARY_FUNCS:
            self.expect("(")
            args = [self.expression()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.expression())
            self.expect(")")
            want = 1 if name in _UNARY_FUNCS else 2
            if len(args) != want:
                raise ParseError(f"{name} takes {want} argument"
                                 f"{'s' * (want > 1)}", start)
            return Call(name, tuple(args))
        raise ParseError(f"unknown identifier '{name}'", start)


def parse(text: str) -> Expr:
    """Parse ``text`` into an immutable expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def _by_math(f, nin=1):
    """``f`` from ``math`` element by element (numpy's exp, log and power
    round differently); an element where ``f`` raises is NaN."""
    def nan_on_raise(*args):
        try:
            return f(*args)
        except (ValueError, OverflowError):
            return math.nan
    fast, slow = np.frompyfunc(f, nin, 1), np.frompyfunc(nan_on_raise, nin, 1)

    def apply(*args):
        try:
            return np.asarray(fast(*args), dtype=float)
        except (ValueError, OverflowError):  # some element left the domain
            return np.asarray(slow(*args), dtype=float)
    return apply


# Exact IEEE operations run as ufuncs; min and max keep Python's tie rule
# (the first argument wins, as in min(0.0, -0.0)).
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "^": _by_math(math.pow, 2), "sqrt": np.sqrt, "abs": np.abs,
        "min": lambda a, b: np.where(b < a, b, a),
        "max": lambda a, b: np.where(b > a, b, a),
        **{name: _by_math(getattr(math, name))
           for name in ("sin", "cos", "exp", "log")}}
# checks on an operation's arguments, and where its math call raised
_BEFORE = {"/": ("division by zero", lambda a, b: b == 0.0),
           "log": ("log of nonpositive value", lambda a: a <= 0.0),
           "sqrt": ("sqrt of negative value", lambda a: a < 0.0)}
_AFTER = {"^": "undefined power", "exp": "exp overflow"}


def _walk(e: Expr, x, y, fail):
    """Values of ``e`` on coordinate arrays; each domain check goes to
    ``fail(mask, reason, node)`` in the order of a scalar evaluation."""
    if isinstance(e, Num):
        v = np.float64(e.value)
    elif isinstance(e, Var):
        v = x if e.name == "x" else y
    elif isinstance(e, Neg):
        v = -_walk(e.arg, x, y, fail)
    elif isinstance(e, (BinOp, Call)):
        op, args = ((e.op, (e.left, e.right)) if isinstance(e, BinOp)
                    else (e.name, e.args))
        vals = [_walk(a, x, y, fail) for a in args]
        if op in _BEFORE:
            fail(_BEFORE[op][1](*vals), _BEFORE[op][0], e)
        v = _OPS[op](*vals)
        if op in _AFTER:
            fail(np.isnan(v), _AFTER[op], e)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    fail(~np.isfinite(v), "non-finite result", e)
    return v


def _raise_at(grid_node=None):
    """A ``fail`` for :func:`_walk` that raises at the first failed check."""
    def fail(mask, reason, node):
        if mask:
            raise DomainError(reason, node, grid_node)
    return fail


def evaluate(e: Expr, x, y):
    """Evaluate ``e`` in double precision at the point (x, y), as a float,
    or on coordinate arrays of shape (ny, nx), indexed ``[j, i]``.

    Raises :class:`DomainError` naming the offending node on log of a
    nonpositive value, sqrt of a negative value, division by zero,
    undefined powers, or any non-finite intermediate.  On arrays the
    failures are collected as a mask; the first failing node in row-major
    order (j outer, i inner) is evaluated again alone, and its error is
    raised with ``grid_node`` set.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    with np.errstate(all="ignore"):
        if x.ndim == 0:
            return float(_walk(e, x, y, _raise_at()))
        bad = np.zeros(x.shape, dtype=bool)
        v = _walk(e, x, y, lambda mask, *_: np.logical_or(bad, mask, out=bad))
        if np.any(bad):
            j, i = (int(k) for k in np.argwhere(bad)[0])
            at = _raise_at(((i, j), (float(x[j, i]), float(y[j, i]))))
            _walk(e, x[j, i], y[j, i], at)
            raise AssertionError(f"node ({i}, {j}) passed when alone")
    return np.broadcast_to(v, x.shape)
