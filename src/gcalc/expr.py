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
first and second derivatives; :func:`eval_jet`, :class:`Tape` and
:class:`Program` refuse any other order with
:class:`gcalc.errors.JetBudgetExhausted`.

Evaluation is one walk, the sparse vector mode of forward differentiation
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008): a constant
subtree stays a float, and any other carries its value with maps of only
the first and second partials over the coordinates it reads.  Each entry is
computed as the dense :class:`gcalc.jets.Jet` formulas compute it, so the
results equal dense ones bit for bit up to the sign of zero.
:func:`eval_jet` runs the walk on a point of floats, over one tree or a
nested sequence of trees, and writes every entry into one flat buffer that
becomes the array jet.

Which partials a node carries depends on the trees and the order, not on
the point.  A :class:`Tape` runs the same walk once on a point of
registers, which records its float operations in order as a flat list of
instructions (the tape form of the same book, ch. 13), and replays only
those at each point: the walk's jet bit for bit, and its first error.  A
build costs two to three walks, so the owners of reused trees (a chart's
metric and frames, a field's blade grid) evaluate them through a
:class:`Program`, which walks the first two evaluations per (n, order) and
builds the tape on the third, the rule of ski rental.

Trees deeper than 100 levels are refused.  The parser measures each
subtree's height while it builds the nodes, so the limit costs no second
walk; text is only an input format, and code that composes expressions
should build trees with the node operators instead of formatting text.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import (DimMismatch, DomainError, JetBudgetExhausted, ParseError,
                     UnknownIdentifier)
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

    def __post_init__(self):
        if self.index < 0:
            raise IndexError(f"coordinate index {self.index} is negative")


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
#
# The point holds floats, or tape registers (_Reg, below) whose arithmetic
# records instructions.  The four steps that look at a value itself, the
# division and positive-base checks and the coefficients of a function and
# of an integer power, go through _step, which does them on a number and
# records them on a register.

def _step(fn, v, arg, k: int = 0):
    """``fn(v, arg)``, a step that looks at the value ``v``; on a tape
    register it is recorded, a tuple result unpacked into ``k`` registers."""
    if type(v) is float:
        return fn(v, arg)
    if type(v) is _Reg:
        return v.tape.step(fn, v, arg, k)
    return fn(float(v), arg)


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


def _value(u):
    return u[0] if type(u) is tuple else u


# function_coeffs of each whitelisted function, as fn(v, order)
_COEFFS = {name: partial(function_coeffs, name) for name in FUNCTIONS}


def _call(name: str, u, order: int, n: int):
    if type(u) is not tuple:
        return _step(_COEFFS[name], u, 0, 1)[0]
    return _compose(u, *_step(_COEFFS[name], u[0], order, order + 1), n)


def _power(v, m: int):
    """v**m for integer m (and v != 0 when m < 0)."""
    if m < 0 and v == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return v ** m
    except OverflowError:
        raise DomainError(f"integer power of {v!r} overflows") from None


def _power_coeffs(v, m: int):
    """_power(v, m) and its first two derivatives in v."""
    try:
        return _power(v, m), m * v ** (m - 1), m * (m - 1) * v ** (m - 2) if m != 1 else 0.0
    except OverflowError:
        raise DomainError(f"integer power of {v!r} overflows") from None


def _int_power(u, m: int, order: int, n: int):
    """u**m for integer m, valid for negative bases (and u != 0 when m < 0)."""
    if type(u) is not tuple:
        return _step(_power, u, m)
    if m == 0:
        return 1.0, {}, None if u[2] is None else {}
    return _compose(u, *_step(_power_coeffs, u[0], m, order + 1), n)


def _divisor(v, _):
    if v == 0.0:
        raise DomainError("division by zero")


def _positive_base(v, _):
    if v <= 0.0:
        raise DomainError("power with a non-integer exponent needs a positive base")


def _general_power(base, expo, order: int, n: int):
    """base ** expo as exp(expo * log(base)); needs a positive base."""
    _step(_positive_base, _value(base), None)
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


def _exponent(e: Expr) -> float:
    """The value of a constant exponent tree, which must be finite."""
    c = float(_eval(e, (), 0, 0))
    if not math.isfinite(c):
        raise DomainError(f"exponent {c!r} is not finite")
    return c


def _sum(a, b, add: bool):
    """a + b, or a - b when not ``add``."""
    if type(b) is not tuple:
        if type(a) is not tuple:
            return a + b if add else a - b
        return (a[0] + b if add else a[0] - b), a[1], a[2]
    if type(a) is not tuple:
        return (b[0] + a, b[1], b[2]) if add else (a - b[0], *_scale(b, -1.0)[1:])
    return _add(a, b, 1.0 if add else -1.0)


def _quotient(num, den, n: int):
    """num / den for a den whose value is not zero."""
    if type(den) is not tuple:
        return _scale(num, 1.0 / den) if type(num) is tuple else num / den
    # 1/den as Jet._inverse forms it: f' = -v^2, f'' = 2 v^3
    v = 1.0 / den[0]
    inv = _compose(den, v, -v * v, None if den[2] is None else 2.0 * v ** 3, n)
    return _mul(num, inv, n) if type(num) is tuple else _scale(inv, num)


def _eval(e: Expr, point, n: int, order: int):
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
        return _sum(_eval(e.left, point, n, order), _eval(e.right, point, n, order),
                    t is Add)
    if t is Neg:
        a = _eval(e.arg, point, n, order)
        # x * -1.0 is -x exactly
        return _scale(a, -1.0) if type(a) is tuple else -a
    if t is Div:
        num = _eval(e.left, point, n, order)
        den = _eval(e.right, point, n, order)
        _step(_divisor, _value(den), None)
        return _quotient(num, den, n)
    if t is Pow:
        base = _eval(e.base, point, n, order)
        if _is_constant(e.expo):
            c = _exponent(e.expo)
            if abs(c - round(c)) < 1e-12:
                return _int_power(base, int(round(c)), order, n)
            return _general_power(base, c, order, n)
        return _general_power(base, _eval(e.expo, point, n, order), order, n)
    if t is Call:
        return _call(e.name, _eval(e.arg, point, n, order), order, n)
    raise TypeError(f"unknown node {t!r}")


def eval_value(e: Expr, point) -> float:
    """Evaluate to a plain float."""
    point = tuple(map(float, point))
    return float(_eval(e, point, len(point), 0))


# An array jet of shape S over n coordinates, to order d, lives in one flat
# buffer: the values, then the gradients, then the Hessians, each in C order.

@lru_cache(maxsize=256)
def _layout(shape: tuple, n: int, order: int) -> tuple:
    """(start, stop, shape) of each Taylor coefficient in the buffer, for an
    order of 0 to 2, the orders a jet carries."""
    if not 0 <= order <= 2:
        raise JetBudgetExhausted(
            f"jets carry derivatives of order 0 to 2, requested {order}")
    cuts = [math.prod(shape) * sum(n ** k for k in range(d)) for d in range(order + 2)]
    return tuple((cuts[d], cuts[d + 1], shape + (n,) * d) for d in range(order + 1))


def _write(buf, grid, point, order: int) -> None:
    """Walk the trees of ``grid`` at ``point`` in C order and write each
    one's entries into ``buf``; a None tree, and every partial a walk
    leaves out, keeps the buffer's entry."""
    n = len(point)
    size = grid.size
    for p, tree in enumerate(grid.flat):
        if tree is None:
            continue
        r = _eval(tree, point, n, order)
        if type(r) is not tuple:
            buf[p] = r
            continue
        buf[p] = r[0]
        at = size + p * n
        for k, x in r[1].items():
            buf[at + k] = x
        if r[2]:
            at = size * (1 + n) + p * n * n
            for k, x in r[2].items():
                buf[at + k] = x


def _split(buf, layout: tuple) -> Jet:
    """The jet whose coefficients the float array ``buf`` holds."""
    coeffs = [buf[lo:hi].reshape(shape) for lo, hi, shape in layout]
    if not layout[0][2]:
        coeffs[0] = buf[0]
    return Jet(*coeffs)


def eval_jet(trees, point, order: int = 2) -> Jet:
    """Evaluate one tree, or a nested sequence of trees, to a jet of the
    requested order at ``point``.

    One tree gives a scalar jet.  A nested sequence gives the array jet of
    its shape, each tree's partials written straight into its entry; a
    ``None`` entry is zero.  Trees are evaluated in C order.
    """
    point = tuple(map(float, point))
    grid = np.array(trees, dtype=object)
    layout = _layout(grid.shape, len(point), order)
    buf = np.zeros(layout[-1][1])
    _write(buf, grid, point, order)
    return _split(buf, layout)


# -- tapes ----------------------------------------------------------------
#
# A tape is the walk above run once on a point of registers: arithmetic on
# a register records one float instruction, arithmetic on numbers is done at
# build time as the walk does it at every point, and each step through _step
# becomes an instruction that computes or raises as the walk would, in the
# walk's order.

class _Reg:
    """A register of a tape being built; arithmetic on it is recorded."""

    __slots__ = ("tape", "index")

    def __init__(self, tape, index):
        self.tape = tape
        self.index = index

    def __add__(self, o):
        return self.tape.emit(operator.add, self, o)

    def __radd__(self, o):
        return self.tape.emit(operator.add, o, self)

    def __sub__(self, o):
        return self.tape.emit(operator.sub, self, o)

    def __rsub__(self, o):
        return self.tape.emit(operator.sub, o, self)

    def __mul__(self, o):
        return self.tape.emit(operator.mul, self, o)

    def __rmul__(self, o):
        return self.tape.emit(operator.mul, o, self)

    def __truediv__(self, o):
        return self.tape.emit(operator.truediv, self, o)

    def __rtruediv__(self, o):
        return self.tape.emit(operator.truediv, o, self)

    def __pow__(self, o):
        return self.tape.emit(operator.pow, self, o)

    def __neg__(self):
        return self.tape.emit(_neg, self, None)


def _neg(a, _):
    return -a


class Tape:
    """The jet of a nested sequence of trees at any point of n coordinates,
    as a flat list of float instructions ``r[d] = fn(r[a], r[b])`` over a
    register list ``r`` that starts with the point.

    It is recorded by the walk of :func:`eval_jet` on registers, so it equals
    that walk bit for bit, with the same first error.  The buffer entries
    that hold a number form ``template``; ``gather`` reads the others from
    the registers into the places ``dest`` names.  Building raises wherever
    the walk of some tree fails at every point (a constant subtree that
    raises, a coordinate index the point lacks, an unknown node).
    """

    __slots__ = ("n", "layout", "regs", "code", "template", "dest", "gather")

    def __init__(self, trees, n: int, order: int):
        grid = np.array(trees, dtype=object)
        self.n = n
        self.layout = _layout(grid.shape, n, order)
        self.regs = [0.0] * n
        self.code = []
        buf = [0.0] * self.layout[-1][1]
        _write(buf, grid, [_Reg(self, k) for k in range(n)], order)
        dest = [p for p, x in enumerate(buf) if type(x) is _Reg]
        self.template = np.array([0.0 if type(x) is _Reg else x for x in buf], dtype=float)
        self.dest = np.array(dest, dtype=np.intp)
        self.gather = operator.itemgetter(*(buf[p].index for p in dest)) if dest else None

    def emit(self, fn, a, b) -> _Reg:
        """Record ``fn(a, b)``; numbers get registers of their own."""
        if fn is operator.mul:      # x * 1.0 is x exactly
            if type(b) is float and b == 1.0:
                return a
            if type(a) is float and a == 1.0:
                return b
        d = len(self.regs)
        self.regs.append(None)
        self.code.append((fn, d, self._slot(a), self._slot(b)))
        return _Reg(self, d)

    def _slot(self, x) -> int:
        if type(x) is _Reg:
            return x.index
        self.regs.append(x)
        return len(self.regs) - 1

    def step(self, fn, v, arg, k: int):
        """Record the step ``fn(v, arg)`` of :func:`_step`, a ``k``-tuple
        result unpacked into k registers and padded with None to three."""
        t = self.emit(fn, v, arg)
        if not k:
            return t
        return tuple(self.emit(operator.getitem, t, i) for i in range(k)) + (None,) * (3 - k)

    def __call__(self, point) -> Jet:
        """The jet at ``point``, a tuple of n floats."""
        r = self.regs.copy()
        r[:self.n] = point
        for fn, d, a, b in self.code:
            r[d] = fn(r[a], r[b])
        buf = self.template.copy()
        if self.gather is not None:
            buf[self.dest] = self.gather(r)
        return _split(buf, self.layout)


class Program:
    """The jets of reused trees, for an owner that evaluates them at many
    points: a chart's metric and frames, a field's blade grid.

    ``trees(n)`` gives the nested sequence of trees for points of n
    coordinates.  Per (n, order) the first two evaluations walk the trees
    with :func:`eval_jet` and the third builds a :class:`Tape`, which runs
    every later one.  A build costs two to three walks, so trees evaluated
    once or twice never pay for it.  Trees whose walk fails at every point
    build no tape and keep the walker, which fails as before.
    """

    __slots__ = ("trees", "runs")

    def __init__(self, trees):
        self.trees = trees
        self.runs = {}   # (n, order) -> evaluations so far, then the tape

    def jet(self, point, order: int) -> Jet:
        point = tuple(map(float, point))
        key = (len(point), order)
        run = self.runs.get(key, 0)
        if type(run) is int:
            trees = self.trees(len(point))
            if run < 2:
                self.runs[key] = run + 1
                return eval_jet(trees, point, order)
            try:
                run = Tape(trees, len(point), order)
            except Exception:
                # whatever stopped the build stops every walk, in its place
                run = partial(eval_jet, trees, order=order)
            self.runs[key] = run
        return run(point)


def check_point(point, n: int):
    if len(point) != n:
        raise DimMismatch(f"point has length {len(point)}, chart dimension is {n}")
