"""Forward-mode jets: values of any shape that carry exact derivatives up to
order two.

A ``Jet`` of shape S holds a value of shape S (a float when S is ()), an
optional gradient of shape S+(n,) and an optional Hessian of shape S+(n, n)
with respect to n chart coordinates: vector-mode forward differentiation
with array-valued Taylor coefficients (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 13).  When two jets of different order
meet, the result is truncated to the lower order.  Plain Python numbers mix
freely and act as constants.

Expressions are not evaluated here: :func:`gcalc.expr.eval_jet` runs the
sparse form of the same vector mode over each tree and writes the result
into one array jet.  It takes the derivatives of the whitelisted functions
from :func:`function_coeffs`, and the chain rule for a smooth f applied to
a jet u,

    value  f(u)
    grad   f'(u) * u.grad
    hess   f'(u) * u.hess + f''(u) * outer(u.grad, u.grad),

is also :func:`apply_function` on scalar jets.  Jets of every shape add,
subtract, scale by numbers and transpose; scalar jets also multiply and
divide.  Array jets carry the frame, connection and operator layers:
:func:`contract` is the product rule of an einsum contraction, one einsum
per Taylor term, and :func:`mat_det_inv` gives the determinant and inverse
of a matrix jet in closed form,

    d(G^-1) = -G^-1 dG G^-1,    d(det G) = det G tr(G^-1 dG),

with their second-order terms.  :meth:`Jet.take` reads entries and rows of
an array jet.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_NUMBER = (int, float, np.floating, np.integer)
# Bound once: the constructor tests for it on every scalar jet it makes.
_ndarray = np.ndarray


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        cls = value.__class__
        self.value = value if cls is float or cls is _ndarray else float(value)
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        if self.grad is None:
            return 0
        return 1 if self.hess is None else 2

    @property
    def coeffs(self) -> tuple:
        """The Taylor coefficients carried: (value[, grad[, hess]])."""
        return (self.value, self.grad, self.hess)[:self.order + 1]

    def partials(self) -> "Jet":
        """All partial derivatives as one jet of shape S+(n,), one order
        lower: entry [..., k] is the k-th partial of entry [...]."""
        if self.grad is None:
            raise DomainError("cannot differentiate an order-0 jet")
        return Jet(self.grad, self.hess)

    def take(self, index) -> "Jet":
        """The jet at ``index`` of the leading value axes, as numpy indexes
        them (an int drops an axis, a list of ints keeps it, and a tuple
        indexes one axis per entry)."""
        return Jet(*(c[index] for c in self.coeffs))

    def transpose(self, *axes) -> "Jet":
        """Permute the value axes; the derivative axes stay last."""
        return Jet(*(c.transpose(axes + tuple(range(len(axes), c.ndim)))
                     for c in self.coeffs))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            if o == 0:
                return Jet(self.value + other.value)
            if o == 1:
                return Jet(self.value + other.value, self.grad + other.grad)
            return Jet(self.value + other.value, self.grad + other.grad,
                       self.hess + other.hess)
        if isinstance(other, _NUMBER):
            return Jet(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value,
                   None if self.grad is None else -self.grad,
                   None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            if o == 0:
                return Jet(self.value - other.value)
            if o == 1:
                return Jet(self.value - other.value, self.grad - other.grad)
            return Jet(self.value - other.value, self.grad - other.grad,
                       self.hess - other.hess)
        if isinstance(other, _NUMBER):
            return Jet(self.value - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(other - self.value,
                       None if self.grad is None else -self.grad,
                       None if self.hess is None else -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            v = self.value * other.value
            if o == 0:
                return Jet(v)
            g = self.value * other.grad + other.value * self.grad
            if o == 1:
                return Jet(v, g)
            h = (self.value * other.hess + other.value * self.hess
                 + np.outer(self.grad, other.grad)
                 + np.outer(other.grad, self.grad))
            return Jet(v, g, h)
        if isinstance(other, _NUMBER):
            return Jet(self.value * other,
                       None if self.grad is None else self.grad * other,
                       None if self.hess is None else self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self) -> "Jet":
        if self.value == 0.0:
            raise DomainError("division by zero")
        v = 1.0 / self.value
        if self.grad is None:
            return Jet(v)
        g = -v * v * self.grad
        if self.hess is None:
            return Jet(v, g)
        h = -v * v * self.hess + 2.0 * v ** 3 * np.outer(self.grad, self.grad)
        return Jet(v, g, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._inverse()
        if isinstance(other, _NUMBER):
            if other == 0:
                raise DomainError("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return self._inverse() * other
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.value!r}, order={self.order})"


def _compose(u: Jet, f0: float, f1: float, f2: float) -> Jet:
    if u.grad is None:
        return Jet(f0)
    g = f1 * u.grad
    if u.hess is None:
        return Jet(f0, g)
    h = f1 * u.hess + f2 * np.outer(u.grad, u.grad)
    return Jet(f0, g, h)


def _d_abs(v, order):
    if v == 0.0 and order > 0:
        raise DomainError("abs is not differentiable at 0")
    return abs(v), math.copysign(1.0, v) if v != 0.0 else 0.0, 0.0


def _d_log(v, order):
    if v <= 0.0:
        raise DomainError("log of a nonpositive number")
    return math.log(v), 1.0 / v, -1.0 / (v * v)


def _d_sqrt(v, order):
    if v < 0.0:
        raise DomainError("sqrt of a negative number")
    if v == 0.0:
        if order > 0:
            raise DomainError("sqrt is not differentiable at 0")
        return 0.0, 0.0, 0.0
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _d_tan(v, order):
    t = math.tan(v)
    s = 1.0 + t * t
    return t, s, 2.0 * t * s


def _d_tanh(v, order):
    t = math.tanh(v)
    s = 1.0 - t * t
    return t, s, -2.0 * t * s


FUNCTIONS = {
    "sin": lambda v, o: (math.sin(v), math.cos(v), -math.sin(v)),
    "cos": lambda v, o: (math.cos(v), -math.sin(v), -math.cos(v)),
    "tan": _d_tan,
    "exp": lambda v, o: (math.exp(v),) * 3,
    "log": _d_log,
    "sqrt": _d_sqrt,
    "sinh": lambda v, o: (math.sinh(v), math.cosh(v), math.sinh(v)),
    "cosh": lambda v, o: (math.cosh(v), math.sinh(v), math.cosh(v)),
    "tanh": _d_tanh,
    "abs": _d_abs,
}


def function_coeffs(name: str, v: float, order: int) -> tuple:
    """f(v), f'(v) and f''(v) for a whitelisted function; ``order`` is the
    order of the jet f is applied to, since abs and sqrt have no derivative
    at 0."""
    try:
        return FUNCTIONS[name](v, order)
    except OverflowError:
        raise DomainError(f"{name}({v!r}) overflows") from None


def apply_function(name: str, u: Jet) -> Jet:
    """Apply a whitelisted function to a scalar jet."""
    return _compose(u, *function_coeffs(name, u.value, u.order))


def value_of(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


# -- array jets -------------------------------------------------------------

def contract(spec: str, a: Jet, b: Jet) -> Jet:
    """``np.einsum(spec, a, b)`` on the values, with derivatives by the
    product rule; ``spec`` names the value axes in lower-case letters."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    value = np.einsum(spec, a.value, b.value)
    order = min(a.order, b.order)
    if order == 0:
        return Jet(value)
    grad = (np.einsum(f"{sa}X,{sb}->{out}X", a.grad, b.value)
            + np.einsum(f"{sa},{sb}X->{out}X", a.value, b.grad))
    if order == 1:
        return Jet(value, grad)
    cross = np.einsum(f"{sa}X,{sb}Y->{out}XY", a.grad, b.grad)
    hess = (np.einsum(f"{sa}XY,{sb}->{out}XY", a.hess, b.value)
            + np.einsum(f"{sa},{sb}XY->{out}XY", a.value, b.hess)
            + cross + cross.swapaxes(-1, -2))
    return Jet(value, grad, hess)


def mat_det_inv(m: Jet):
    """Determinant (a scalar jet) and inverse (a matrix jet) of a square
    matrix jet G.  With A = G^-1 and dG_x, H_xy the partials of G,

        d_x A    = -A dG_x A
        d_xy A   = A dG_x A dG_y A + A dG_y A dG_x A - A H_xy A
        d_x det  = det tr(A dG_x)
        d_xy det = det (tr(A dG_x) tr(A dG_y) - tr(A dG_x A dG_y)
                        + tr(A H_xy)).

    Raises ``numpy.linalg.LinAlgError`` if the value is singular.
    """
    inv = np.linalg.inv(m.value)
    det = float(np.linalg.det(m.value))
    if m.grad is None:
        return Jet(det), Jet(inv)
    a_dg = np.einsum("ij,jkX->ikX", inv, m.grad)
    tr = np.einsum("iiX->X", a_dg)
    inv_grad = -np.einsum("ikX,kj->ijX", a_dg, inv)
    if m.hess is None:
        return Jet(det, det * tr), Jet(inv, inv_grad)
    a_dg2 = np.einsum("ikX,kjY->ijXY", a_dg, a_dg)
    a_h = np.einsum("ij,jkXY->ikXY", inv, m.hess)
    inv_hess = np.einsum("ikXY,kj->ijXY",
                         a_dg2 + a_dg2.swapaxes(2, 3) - a_h, inv)
    det_hess = det * (np.outer(tr, tr) - np.einsum("iiXY->XY", a_dg2)
                      + np.einsum("iiXY->XY", a_h))
    return Jet(det, det * tr, det_hess), Jet(inv, inv_grad, inv_hess)


def singular(m: np.ndarray) -> bool:
    """Whether |det(m / s)| <= 1e-12 with s = max |m_ij|: the degeneracy
    test of a square matrix, which scaling m does not change and which
    cannot overflow.  A zero matrix, or one with an entry that is not
    finite, is singular."""
    s = float(abs(m).max())
    return not 0.0 < s < math.inf or abs(np.linalg.det(m / s)) <= 1e-12
