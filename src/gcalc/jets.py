"""Forward-mode jets: scalars that carry exact derivatives up to order two.

A ``Jet`` holds a value together with an optional gradient (length n) and an
optional symmetric Hessian (n by n) with respect to n chart coordinates.
Arithmetic propagates derivatives exactly; when two jets of different order
meet, the result is truncated to the lower order.  Plain Python numbers mix
freely and act as constants.

The chain rule for a smooth f applied to a jet u is

    value  f(u)
    grad   f'(u) * u.grad
    hess   f'(u) * u.hess + f''(u) * outer(u.grad, u.grad)

which is what :func:`apply_function` implements for the supported function
set.  A small dense linear-algebra helper (determinant and inverse together,
by Gauss-Jordan elimination with value pivoting) lets metric-derived
quantities be pushed through as jets.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_NUMBER = (int, float, np.floating, np.integer)


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        self.value = float(value)
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        if self.grad is None:
            return 0
        return 1 if self.hess is None else 2

    @classmethod
    def constant(cls, value, n: int, order: int) -> "Jet":
        if order == 0:
            return cls(value)
        if order == 1:
            return cls(value, np.zeros(n))
        return cls(value, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def variable(cls, value, n: int, k: int, order: int) -> "Jet":
        """The k-th coordinate as a jet: unit gradient slot, zero curvature."""
        if order == 0:
            return cls(value)
        g = np.zeros(n)
        g[k] = 1.0
        if order == 1:
            return cls(value, g)
        return cls(value, g, np.zeros((n, n)))

    def partial(self, k: int) -> "Jet":
        """The k-th partial derivative, one order lower than self."""
        if self.grad is None:
            raise DomainError("cannot differentiate an order-0 jet")
        if self.hess is None:
            return Jet(self.grad[k])
        return Jet(self.grad[k], self.hess[k].copy())

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

    def __pow__(self, m):
        if isinstance(m, (int, np.integer)):
            return int_power(self, int(m))
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.value!r}, order={self.order})"


def int_power(u, m: int):
    """u**m for integer m, valid for negative bases (and u != 0 when m < 0)."""
    if m < 0 and value_of(u) == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        if isinstance(u, _NUMBER):
            return float(u) ** m
        v = u.value
        if m == 0:
            return Jet.constant(1.0, 0, 0) if u.grad is None else \
                Jet(1.0, np.zeros_like(u.grad),
                    None if u.hess is None else np.zeros_like(u.hess))
        f0 = v ** m
        f1 = m * v ** (m - 1) if m != 0 else 0.0
        f2 = m * (m - 1) * v ** (m - 2) if m not in (0, 1) else 0.0
    except OverflowError:
        raise DomainError(f"integer power of {value_of(u)!r} overflows") from None
    return _compose(u, f0, f1, f2)


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


def apply_function(name: str, u):
    """Apply a whitelisted function to a jet or plain number."""
    number = isinstance(u, _NUMBER)
    v = float(u) if number else u.value
    try:
        f0, f1, f2 = FUNCTIONS[name](v, 0 if number else u.order)
    except OverflowError:
        raise DomainError(f"{name}({v!r}) overflows") from None
    return f0 if number else _compose(u, f0, f1, f2)


def value_of(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def general_power(base, expo):
    """base ** expo for jet-valued operands; needs a positive base."""
    bv = value_of(base)
    if bv <= 0.0:
        raise DomainError("power with a non-integer exponent needs a positive base")
    return apply_function("exp", expo * apply_function("log", base))


# -- small dense linear algebra over jets ---------------------------------

def mat_det_inv(m):
    """Determinant and inverse of a small matrix of jets/floats.

    Gauss-Jordan with partial pivoting on jet values.  Returns
    ``(det, inv)`` where inv is a list of row lists.  Raises DomainError
    if a zero pivot makes the matrix singular.
    """
    n = len(m)
    a = [list(row) for row in m]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(value_of(a[r][col])))
        if value_of(a[pivot][col]) == 0.0:
            raise DomainError("singular matrix")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        p = a[col][col]
        det = det * p
        for j in range(n):
            a[col][j] = a[col][j] / p
            inv[col][j] = inv[col][j] / p
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if isinstance(f, _NUMBER) and f == 0.0:
                continue
            for j in range(n):
                a[r][j] = a[r][j] - f * a[col][j]
                inv[r][j] = inv[r][j] - f * inv[col][j]
    return det, inv
