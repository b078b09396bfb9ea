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

Evaluation is the sparse vector mode of forward differentiation (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., 2008): a constant subtree stays
a float, and any other carries its value with maps of only the first and
second partials over the coordinates it reads.  Each entry is computed as
the dense :class:`gcalc.jets.Jet` formulas compute it, so the sparse results
equal dense ones bit for bit up to the sign of zero.  :func:`eval_jet` is
the one entry: it takes a tree, or a nested sequence of trees for the frame
rows, metrics, vector and blade components that callers need as one array
jet, and writes each tree's partials straight into that jet.

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
import numpy as np

from .jets import FUNCTIONS, Jet, function_coeffs


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
#
# Sparse forward mode.  A constant subtree evaluates to a float; any other
# to (value, {k: d_k}, {i*n + j: d_ij}) over the coordinates it reads, with
# the Hessian map None at order 1 (order 0 is the plain float walk).  Every
# entry is computed with the operations of the dense Jet formulas, in their
# order; an entry a map lacks is an exact zero there, so results equal the
# dense ones bit for bit up to the sign of zero.  Maps are never changed
# once a node has returned them.

def _axpy(acc: dict, s, d: dict) -> dict:
    """acc[k] += s * d[k] for every entry of d."""
    for k, x in d.items():
        acc[k] = acc.get(k, 0.0) + s * x
    return acc


def _outer(acc: dict, s, a: dict, b: dict, n: int) -> dict:
    """acc[i, j] += s * (a[i] * b[j]), the term of np.outer."""
    for i, x in a.items():
        i *= n
        for j, y in b.items():
            acc[i + j] = acc.get(i + j, 0.0) + s * (x * y)
    return acc


def _scaled(d: dict, c) -> dict:
    out = {}
    for k, x in d.items():
        out[k] = x * c
    return out


def _scale(u, c):
    v, g, h = u
    return v * c, _scaled(g, c), None if h is None else _scaled(h, c)


def _add(a, b, s):
    """a + s*b for s = 1 or -1."""
    return (a[0] + b[0] if s > 0 else a[0] - b[0], _axpy(dict(a[1]), s, b[1]),
            None if a[2] is None else _axpy(dict(a[2]), s, b[2]))


def _mul(a, b, n):
    av, ag, ah = a
    bv, bg, bh = b
    g = _axpy(_scaled(bg, av), bv, ag)
    if ah is None:
        return av * bv, g, None
    h = _axpy(_scaled(bh, av), bv, ah)
    return av * bv, g, _outer(_outer(h, 1.0, ag, bg, n), 1.0, bg, ag, n)


def _compose(u, f0, f1, f2, n):
    """f(u) from f and its first two derivatives at u's value."""
    _, g, h = u
    return f0, _scaled(g, f1), None if h is None else _outer(_scaled(h, f1), f2, g, g, n)


def _times(a, b, n):
    if type(a) is tuple:
        return _mul(a, b, n) if type(b) is tuple else _scale(a, b)
    return _scale(b, a) if type(b) is tuple else a * b


def _value(u) -> float:
    return u[0] if type(u) is tuple else float(u)


def _call(name: str, u, order: int, n: int):
    if type(u) is not tuple:
        return function_coeffs(name, float(u), 0)[0]
    return _compose(u, *function_coeffs(name, u[0], order), n)


def _int_power(u, m: int, n: int):
    """u**m for integer m, valid for negative bases (and u != 0 when m < 0)."""
    v = _value(u)
    if m < 0 and v == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        if type(u) is not tuple:
            return v ** m
        if m == 0:
            return 1.0, {}, None if u[2] is None else {}
        f0 = v ** m
        f1 = m * v ** (m - 1)
        f2 = m * (m - 1) * v ** (m - 2) if m != 1 else 0.0
    except OverflowError:
        raise DomainError(f"integer power of {v!r} overflows") from None
    return _compose(u, f0, f1, f2, n)


def _general_power(base, expo, order: int, n: int):
    """base ** expo as exp(expo * log(base)); needs a positive base."""
    if _value(base) <= 0.0:
        raise DomainError("power with a non-integer exponent needs a positive base")
    return _call("exp", _times(expo, _call("log", base, order, n), n), order, n)


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


def _eval(e: Expr, point: tuple, n: int, order: int):
    t = type(e)
    if t is Coord:
        k = e.index
        if not order:
            return point[k]
        return point[k], {k: 1.0}, {} if order == 2 else None
    if t is Num:
        return e.value
    if t is Mul:
        return _times(_eval(e.left, point, n, order), _eval(e.right, point, n, order), n)
    if t is Add or t is Sub:
        a = _eval(e.left, point, n, order)
        b = _eval(e.right, point, n, order)
        add = t is Add
        if type(b) is not tuple:
            if type(a) is not tuple:
                return a + b if add else a - b
            return (a[0] + b if add else a[0] - b), a[1], a[2]
        if type(a) is not tuple:
            return (b[0] + a, b[1], b[2]) if add else (a - b[0], *_scale(b, -1.0)[1:])
        return _add(a, b, 1.0 if add else -1.0)
    if t is Neg:
        a = _eval(e.arg, point, n, order)
        # x * -1.0 is -x exactly
        return _scale(a, -1.0) if type(a) is tuple else -a
    if t is Div:
        num = _eval(e.left, point, n, order)
        den = _eval(e.right, point, n, order)
        if _value(den) == 0.0:
            raise DomainError("division by zero")
        if type(den) is not tuple:
            return _scale(num, 1.0 / den) if type(num) is tuple else num / den
        # 1/den as Jet._inverse forms it: f' = -v^2, f'' = 2 v^3
        v = 1.0 / den[0]
        inv = _compose(den, v, -v * v, None if den[2] is None else 2.0 * v ** 3, n)
        return _mul(num, inv, n) if type(num) is tuple else _scale(inv, num)
    if t is Pow:
        base = _eval(e.base, point, n, order)
        if _is_constant(e.expo):
            c = float(_eval(e.expo, point, n, 0))
            if not math.isfinite(c):
                raise DomainError(f"exponent {c!r} is not finite")
            if abs(c - round(c)) < 1e-12:
                return _int_power(base, int(round(c)), n)
            return _general_power(base, c, order, n)
        return _general_power(base, _eval(e.expo, point, n, order), order, n)
    if t is Call:
        return _call(e.name, _eval(e.arg, point, n, order), order, n)
    raise TypeError(f"unknown node {t!r}")


def eval_value(e: Expr, point) -> float:
    """Evaluate to a plain float."""
    point = tuple(map(float, point))
    return float(_eval(e, point, len(point), 0))


def eval_jet(trees, point, order: int = 2) -> Jet:
    """Evaluate one tree, or a nested sequence of trees, to a jet of the
    requested order at ``point``.

    One tree gives a scalar jet.  A nested sequence gives the array jet of
    its shape, each tree's partials written straight into its entry; a
    ``None`` entry is zero.  Trees are evaluated in C order.
    """
    point = tuple(map(float, point))
    n = len(point)
    grid = np.array(trees, dtype=object)
    size = grid.size
    coeffs = [np.zeros((size,) + (n,) * d) for d in range(order + 1)]
    values = coeffs[0]
    grads = coeffs[1] if order else None
    hess = coeffs[2].reshape(size, n * n) if order == 2 else None
    for p, tree in enumerate(grid.flat):
        if tree is None:
            continue
        r = _eval(tree, point, n, order)
        if type(r) is not tuple:
            values[p] = r
            continue
        values[p] = r[0]
        row = grads[p]
        for k, x in r[1].items():
            row[k] = x
        if hess is not None:
            row = hess[p]
            for k, x in r[2].items():
                row[k] = x
    shape = grid.shape
    if not shape:
        return Jet(values[0], *(c[0] for c in coeffs[1:]))
    return Jet(*(c.reshape(shape + c.shape[1:]) for c in coeffs))


def check_point(point, n: int):
    if len(point) != n:
        raise DimMismatch(f"point has length {len(point)}, chart dimension is {n}")
