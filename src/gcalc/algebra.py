"""Clifford algebra over an arbitrary symmetric nondegenerate Gram matrix.

A multivector is one read-only float row on the blade axis: 2^n entries,
indexed by blade bitmask (ascending index convention).  The geometric
product has one definition, the product kernel on the blade axis in
:mod:`gcalc.blades`.  A :class:`Gram` applies it once, to the identity, to
fill its structure-constant table

    E_a E_b = sum_c T[a, b, c] E_c,

and every float product here is one contraction of the outer product of two
rows with a table the kernel built, as in the bitmask algebras of Dorst,
Fontijne and Mann (2007, ch. 19).  The same table serves every signature,
including indefinite ones.

Derived products follow the usual grade-projection definitions:

    wedge   <A_j B_k>_{j+k}     (the kernel under the zero metric)
    dot     <A_j B_k>_{k-j}     (zero when j > k; the table masked to those grades)

and the dual is A I^{-1} with I the orientation-bearing unit pseudoscalar.
I^{-1} is a multiple of the top blade, so the dual is the slice of the
table at that blade, scaled by a constant of the Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import blades
from .errors import (BladeKeyError, DimMismatch, MixedGrade, SingularFrame,
                     SingularGram)
from .jets import singular

_EIG_RTOL = 1e-12


class Gram:
    """Symmetric invertible Gram matrix with its inverse and product table.

    ``matrix`` and ``inverse`` are read-only, so the table built from them
    cannot go stale.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch("Gram matrix must be square")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
        if asym > 1e-9 * scale:
            raise SingularGram(f"Gram matrix is not symmetric (asymmetry {asym:.3e})")
        self.matrix = (m + m.T) / 2.0
        self.n = m.shape[0]
        lam, q = np.linalg.eigh(self.matrix)
        lam_max = float(np.max(np.abs(lam)))
        if lam_max == 0.0 or float(np.min(np.abs(lam))) < _EIG_RTOL * lam_max:
            raise SingularGram("Gram matrix is numerically singular")
        self.inverse = (q * (1.0 / lam)) @ q.T
        self.matrix.setflags(write=False)
        self.inverse.setflags(write=False)

    @cached_property
    def table(self) -> np.ndarray:
        """Structure constants T[a, b, c] of the geometric product, read-only.

        Built on first use, as the product kernel applied to the identity:
        8^n floats, 32 KB at n = 4.
        """
        size = 1 << self.n
        table = blades.left_products(self.matrix, range(size), np.eye(size)).value
        table.setflags(write=False)
        return table

    @cached_property
    def dot_table(self) -> np.ndarray:
        """The table restricted to the grades of :func:`dot`, read-only."""
        table = np.where(_contraction_mask(self.n), self.table, 0.0)
        table.setflags(write=False)
        return table

    @cached_property
    def dual_scale(self) -> float:
        """I[top] / (I I) for the positively oriented unit pseudoscalar I, so
        that I^{-1} = orientation * dual_scale * E_top."""
        I = pseudoscalar(self)
        return I.row[-1] * (1.0 / gp(I, I, self).row[0])

    def __repr__(self):
        return f"Gram({self.matrix.tolist()!r})"


def as_gram(g) -> Gram:
    return g if isinstance(g, Gram) else Gram(g)


class Multivector:
    """Immutable multivector over n anonymous frame vectors: ``row`` is a
    read-only float array of length 2^n, indexed by blade mask.

    ``coeffs`` may be a blade map (a dict from masks to coefficients) or an
    array of 2^n entries, which is copied.
    """

    __slots__ = ("dim", "row")

    def __new__(cls, dim: int, coeffs=None):
        size = 1 << dim
        if coeffs is None or isinstance(coeffs, dict):
            row = np.zeros(size)
            for m, c in (coeffs or {}).items():
                if not (isinstance(m, (int, np.integer)) and 0 <= m < size):
                    raise BladeKeyError(f"blade mask {m!r} is not in 0..{size - 1}")
                row[m] = c
        else:
            row = np.array(coeffs, dtype=float)
            if row.shape != (size,):
                raise DimMismatch(f"a multivector over {dim} vectors has {size} "
                                  f"entries, not shape {row.shape}")
        return _wrap(dim, row)

    def __setattr__(self, name, value):
        raise AttributeError(f"Multivector is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Multivector is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Multivector, (self.dim, self.row)

    # constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, dim: int, value: float) -> "Multivector":
        return cls(dim, {0: value})

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        """The i-th frame vector, 1-based."""
        return cls(dim, {1 << (i - 1): 1.0})

    @classmethod
    def vector(cls, comps) -> "Multivector":
        comps = list(comps)
        return cls(len(comps), {1 << i: float(c) for i, c in enumerate(comps)})

    @classmethod
    def blade(cls, dim: int, indices, coeff: float = 1.0) -> "Multivector":
        """Wedge of 1-based frame vectors, sorted with the implied sign."""
        sign = 1.0
        acc = 0
        for i in indices:
            w = blades.wedge_blades(acc, 1 << (i - 1))
            if w is None:
                return cls(dim, {})
            s, acc = w
            sign *= s
        return cls(dim, {acc: sign * coeff})

    # views ----------------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """A new blade map of the nonzero entries, in mask order."""
        return {m: c for m, c in enumerate(self.row.tolist()) if c != 0.0}

    def to_blade_map(self) -> dict:
        return {blades.key_of(m): c for m, c in self.coeffs.items()}

    def vector_components(self) -> np.ndarray:
        if np.any(self.row[blades.grade_table(self.dim) != 1]):
            raise MixedGrade("not a pure vector")
        return self.row[1 << np.arange(self.dim)] + 0.0

    def grades(self):
        return np.unique(blades.grade_table(self.dim)[self.row != 0.0]).tolist()

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.row)))

    def __getitem__(self, key) -> float:
        if isinstance(key, str):
            key = blades.mask_from_key(key)
        return float(self.row[key]) + 0.0 if 0 <= key < len(self.row) else 0.0

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.row, other.row)

    # plain linear structure -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            if other.dim != self.dim:
                raise DimMismatch("dimension mismatch in addition")
            return _wrap(self.dim, self.row + other.row)
        if isinstance(other, (int, float)):
            row = self.row.copy()
            row[0] += other
            return _wrap(self.dim, row)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.dim, -self.row)

    def __sub__(self, other):
        if isinstance(other, (Multivector, int, float)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return _wrap(self.dim, self.row * s)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"Multivector({self.dim}, {self.to_blade_map()!r})"


def _wrap(dim: int, row: np.ndarray) -> Multivector:
    """A multivector over a fresh row that nothing else holds, not copied."""
    row.setflags(write=False)
    mv = object.__new__(Multivector)
    object.__setattr__(mv, "dim", dim)
    object.__setattr__(mv, "row", row)
    return mv


def _check_pair(A: Multivector, B: Multivector, g: Gram):
    if A.dim != B.dim:
        raise DimMismatch("multivector dimensions differ")
    if g is not None and g.n != A.dim:
        raise DimMismatch("Gram dimension differs from multivector dimension")


def _contract(A: Multivector, B: Multivector, table: np.ndarray) -> Multivector:
    """sum_{a,b} A^a B^b table[a, b, :] as a multivector."""
    size = len(A.row)
    return _wrap(A.dim, (A.row[:, None] * B.row).reshape(-1)
                 @ table.reshape(size * size, size))


def gp(A: Multivector, B: Multivector, g) -> Multivector:
    """Geometric product of A and B under the Gram matrix g."""
    g = as_gram(g)
    _check_pair(A, B, g)
    return _contract(A, B, g.table)


@lru_cache(maxsize=8)
def _wedge_table(n: int) -> np.ndarray:
    """Structure constants of the outer product: the product kernel under
    the zero metric applied to the identity, read-only."""
    size = 1 << n
    table = blades.left_products(None, range(size), np.eye(size)).value
    table.setflags(write=False)
    return table


def wedge(A: Multivector, B: Multivector) -> Multivector:
    """Outer product; metric free."""
    _check_pair(A, B, None)
    return _contract(A, B, _wedge_table(A.dim))


def grade(A: Multivector, k: int) -> Multivector:
    """Grade-k part; grades outside 0..dim are empty."""
    return _wrap(A.dim, np.where(blades.grade_table(A.dim) == k, A.row, 0.0))


@lru_cache(maxsize=8)
def _contraction_mask(n: int) -> np.ndarray:
    """mask[a, b, c]: grade(c) = grade(b) - grade(a), so grade(a) <= grade(b)."""
    k = blades.grade_table(n)
    mask = k[None, None, :] == k[None, :, None] - k[:, None, None]
    mask.setflags(write=False)
    return mask


def dot(A: Multivector, B: Multivector, g) -> Multivector:
    """Interior product <A_j B_k>_{k-j} summed over pure-grade parts.

    Zero whenever j > k, so scalars act by scaling on the left.
    """
    g = as_gram(g)
    _check_pair(A, B, g)
    return _contract(A, B, g.dot_table)


def reverse(A: Multivector) -> Multivector:
    """Grade k scaled by (-1)^(k(k-1)/2)."""
    return _wrap(A.dim, np.where(blades.grade_table(A.dim) & 2, -A.row, A.row))


def pseudoscalar(g, orientation: int = 1) -> Multivector:
    """Unit pseudoscalar: orientation * e_1^...^e_n normalized under g."""
    g = as_gram(g)
    n = g.n
    top = (1 << n) - 1
    raw = Multivector(n, {top: float(orientation)})
    mag2 = gp(raw, reverse(raw), g)[0]
    if abs(mag2) < 1e-300:
        raise SingularGram("degenerate pseudoscalar")
    return raw * (1.0 / abs(mag2) ** 0.5)


def dual(A: Multivector, g, orientation: int = 1) -> Multivector:
    """A I^{-1} with I the unit pseudoscalar of g of orientation +1 or -1.

    I^{-1} = orientation * s * E_top with s = ``g.dual_scale``, so the dual
    is one contraction of A with the table's slice at the top blade.
    """
    g = as_gram(g)
    if g.n != A.dim:
        raise DimMismatch("Gram dimension differs from multivector dimension")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return _wrap(A.dim, (A.row @ g.table[:, -1, :]) * (orientation * g.dual_scale))


def reciprocal_frame(frame_rows, g_coord) -> np.ndarray:
    """Rows of the reciprocal frame e^i given frame rows e_i (coordinate comps).

    Defined by e^i . e_j = delta^i_j under the coordinate Gram.
    """
    f = np.asarray(frame_rows, dtype=float)
    g = as_gram(g_coord)
    gram = f @ g.matrix @ f.T
    if singular(f):
        raise SingularFrame("frame rows are linearly dependent")
    try:
        return np.linalg.solve(gram, f)
    except np.linalg.LinAlgError as exc:
        raise SingularFrame("frame Gram matrix is singular") from exc


@dataclass(frozen=True)
class LinMap:
    """Pointwise linear map with all-upper components: f(e^i) = f^{ij} e_j."""

    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    def apply(self, v: Multivector, g) -> Multivector:
        """Apply to a vector: f(a) with a_i = (a . e_i) the lower components."""
        g = as_gram(g)
        lower = g.matrix @ v.vector_components()
        return Multivector.vector(lower @ self.upper)


def trace_rot(f: LinMap, g) -> tuple:
    """Invariant trace f^{ij} g_ij and rotation bivector f^{ij} e_i ^ e_j."""
    g = as_gram(g)
    if f.n != g.n:
        raise DimMismatch("map and Gram dimensions differ")
    tr = float(np.sum(f.upper * g.matrix))
    rot_coeffs = {}
    for i in range(f.n):
        for j in range(i + 1, f.n):
            c = f.upper[i, j] - f.upper[j, i]
            if c != 0.0:
                rot_coeffs[(1 << i) | (1 << j)] = c
    return tr, Multivector(f.n, rot_coeffs)


def tsa_decompose(f: LinMap, g) -> tuple:
    """Split f into trace, antisymmetric, and traceless-symmetric parts.

    Returns (trace, f_minus, f_plus) with f = (trace/n) * id + f_minus + f_plus,
    where f_minus is the antisymmetric part, f_plus the traceless symmetric
    remainder, and id the identity map (upper components g^{ij}).
    """
    g = as_gram(g)
    tr, _ = trace_rot(f, g)
    n = f.n
    anti = (f.upper - f.upper.T) / 2.0
    sym = (f.upper + f.upper.T) / 2.0 - (tr / n) * g.inverse
    return tr, LinMap(anti), LinMap(sym)
