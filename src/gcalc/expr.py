"""Scalar expression trees over chart coordinates.

Grammar (standard infix):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative, binds above unary minus
    atom   := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

so ``-x^2`` is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2)``.  Identifiers are chart
coordinates; call syntax is restricted to the function whitelist in
:mod:`gcalc.jets`.  Expressions evaluate to plain floats or to jets carrying
first and second derivatives.

Trees deeper than 100 levels are refused.  The parser measures each
subtree's height while it builds the nodes, so the limit costs no second
walk; text is only an input format, and code that composes expressions
should build trees with the node operators instead of formatting text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DimMismatch, DomainError, ParseError, UnknownIdentifier
from .jets import (FUNCTIONS, Jet, apply_function, general_power, int_power,
                   value_of)


class Expr:
    """Base class; nodes support arithmetic so trees can be composed in code."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Coord(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    expo: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    name: str
    arg: Expr


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Num(float(x))
    raise TypeError(f"cannot treat {type(x).__name__} as an expression")


_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


def _tokenize(text: str):
    """(kind, text, position) tokens; group 1 is a number, 2 a name, 3 any
    other single non-blank character.  A tail of blanks matches nothing and
    is skipped."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        tok, start = m.group(group), m.start(group)
        if group == 1:
            kind = "num"
        elif group == 2:
            kind = "name"
        elif tok in "+-*/^(),":
            kind = tok
        else:
            raise ParseError(f"unexpected character {tok!r}", start)
        tokens.append((kind, tok, start))
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest expression tree accepted; every recursive walk over a tree
# (parsing, evaluation, printing) stays far inside Python's stack limit.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every rule returns ``(node, height)``, the height
    counting the levels of the subtree it built (a leaf is one level)."""

    def __init__(self, text: str, coords):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        node, height = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        if height > _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", 0)
        return node

    def expr(self):
        node, height = self.term()
        while (op := self.peek()[0]) in ("+", "-"):
            self.pos += 1
            rhs, h = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
            height = 1 + max(height, h)
        return node, height

    def term(self):
        node, height = self.unary()
        while (op := self.peek()[0]) in ("*", "/"):
            self.pos += 1
            rhs, h = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            height = 1 + max(height, h)
        return node, height

    def unary(self):
        # every recursive rule passes through here, so this bounds the
        # recursion; a run of signs is read in a loop, one step for all of it
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels",
                             self.peek()[2])
        signs = 0
        while self.peek()[0] == "-":
            self.pos += 1
            signs += 1
        node, height = self.power()
        for _ in range(signs):
            node = Neg(node)
        self.depth -= 1
        return node, height + signs

    def power(self):
        node, height = self.atom()
        if self.peek()[0] == "^":
            self.pos += 1
            expo, h = self.unary()
            return Pow(node, expo), 1 + max(height, h)
        return node, height

    def atom(self):
        kind, text, at = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", at)
            return Num(value), 1
        if kind == "name":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, at)
                self.pos += 1
                arg, height = self.expr()
                self.expect(")")
                return Call(text, arg), height + 1
            if text in self.coords:
                return Coord(self.coords[text]), 1
            raise UnknownIdentifier(text, at)
        if kind == "(":
            node, height = self.expr()
            self.expect(")")
            return node, height
        raise ParseError("expected an expression", at)


def parse(text: str, coords) -> Expr:
    """Parse ``text`` against the ordered coordinate names ``coords``."""
    return _Parser(text, coords).parse()


# -- canonical printing ----------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4,
         Num: 5, Coord: 5, Call: 5}


def _fmt_num(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def to_text(node: Expr, coords) -> str:
    """Print a tree so that parsing the result reproduces the tree."""

    def paren(child, limit):
        s = walk(child)
        return f"({s})" if _PREC[type(child)] < limit else s

    def walk(e):
        t = type(e)
        if t is Num:
            return _fmt_num(e.value)
        if t is Coord:
            return coords[e.index]
        if t is Call:
            return f"{e.name}({walk(e.arg)})"
        if t is Neg:
            return "-" + paren(e.arg, 3)
        if t is Add:
            return f"{paren(e.left, 1)} + {paren(e.right, 2)}"
        if t is Sub:
            return f"{paren(e.left, 1)} - {paren(e.right, 2)}"
        if t is Mul:
            return f"{paren(e.left, 2)}*{paren(e.right, 3)}"
        if t is Div:
            return f"{paren(e.left, 2)}/{paren(e.right, 3)}"
        if t is Pow:
            # base binds tighter than unary minus; exponent recurses as unary
            base = walk(e.base)
            if _PREC[type(e.base)] < 5:
                base = f"({base})"
            expo = walk(e.expo)
            if _PREC[type(e.expo)] < 3:
                expo = f"({expo})"
            return f"{base}^{expo}"
        raise TypeError(f"unknown node {t!r}")

    return walk(node)


# -- evaluation ------------------------------------------------------------

def _is_constant(e: Expr) -> bool:
    t = type(e)
    if t is Coord:
        return False
    if t is Num:
        return True
    if t is Neg:
        return _is_constant(e.arg)
    if t is Call:
        return _is_constant(e.arg)
    if t is Pow:
        return _is_constant(e.base) and _is_constant(e.expo)
    return _is_constant(e.left) and _is_constant(e.right)


def _eval(e: Expr, point, n: int, order: int):
    t = type(e)
    if t is Num:
        return e.value
    if t is Coord:
        return Jet.variable(point[e.index], n, e.index, order) if order else point[e.index]
    if t is Neg:
        return -_eval(e.arg, point, n, order)
    if t is Add:
        return _eval(e.left, point, n, order) + _eval(e.right, point, n, order)
    if t is Sub:
        return _eval(e.left, point, n, order) - _eval(e.right, point, n, order)
    if t is Mul:
        return _eval(e.left, point, n, order) * _eval(e.right, point, n, order)
    if t is Div:
        num = _eval(e.left, point, n, order)
        den = _eval(e.right, point, n, order)
        if value_of(den) == 0.0:
            raise DomainError("division by zero")
        return num / den
    if t is Pow:
        base = _eval(e.base, point, n, order)
        if _is_constant(e.expo):
            c = value_of(_eval(e.expo, point, n, 0))
            if not math.isfinite(c):
                raise DomainError(f"exponent {c!r} is not finite")
            if abs(c - round(c)) < 1e-12:
                return int_power(base, int(round(c)))
            return general_power(base, c)
        return general_power(base, _eval(e.expo, point, n, order))
    if t is Call:
        return apply_function(e.name, _eval(e.arg, point, n, order))
    raise TypeError(f"unknown node {t!r}")


def eval_value(e: Expr, point) -> float:
    """Evaluate to a plain float."""
    return value_of(_eval(e, tuple(point), len(point), 0))


def eval_jet(e: Expr, point, order: int = 2) -> Jet:
    """Evaluate to a jet of the requested order at ``point``."""
    point = tuple(point)
    n = len(point)
    out = _eval(e, point, n, order)
    if not isinstance(out, Jet):
        out = Jet.constant(out, n, order)
    return out


def check_point(point, n: int):
    if len(point) != n:
        raise DimMismatch(f"point has length {len(point)}, chart dimension is {n}")
