"""Clifford algebra over an arbitrary symmetric nondegenerate Gram matrix.

Multivectors are sparse maps from basis blades (bitmasks, ascending index
convention) to float coefficients.  The geometric product has one
definition, the grade recursion of :mod:`gcalc.blades`.  A :class:`Gram`
runs it once, on one-hot coefficient columns, to fill its structure-constant
table

    E_a E_b = sum_c T[a, b, c] E_c,

and every float product here is a contraction with that table, as in the
bitmask algebras of Dorst, Fontijne and Mann (2007, ch. 19).  The same table
serves every signature, including indefinite ones.

Derived products follow the usual grade-projection definitions:

    wedge   <A_j B_k>_{j+k}     (metric free, computed directly on masks)
    dot     <A_j B_k>_{k-j}     (zero when j > k; the table masked to those grades)

and the dual is A I^{-1} with I the orientation-bearing unit pseudoscalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import blades
from .errors import DimMismatch, MixedGrade, SingularFrame, SingularGram

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

        Built on first use: 8^n floats, 32 KB at n = 4.
        """
        size = 1 << self.n
        one_hot = np.eye(size)
        cols = {b: one_hot[b] for b in range(size)}
        table = np.zeros((size, size, size))
        rows = blades.blade_products(range(size), cols, self.matrix.tolist())
        for a, row in rows.items():
            for c, coeffs in row.items():
                table[a, :, c] = coeffs
        table.setflags(write=False)
        return table

    @cached_property
    def dot_table(self) -> np.ndarray:
        """The table restricted to the grades of :func:`dot`, read-only."""
        table = np.where(_contraction_mask(self.n), self.table, 0.0)
        table.setflags(write=False)
        return table

    def __repr__(self):
        return f"Gram({self.matrix.tolist()!r})"


def as_gram(g) -> Gram:
    return g if isinstance(g, Gram) else Gram(g)


@dataclass(frozen=True)
class Multivector:
    """Immutable sparse multivector over n anonymous frame vectors."""

    dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           {m: float(c) for m, c in self.coeffs.items() if c != 0.0})

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
        mask = 0
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

    def to_blade_map(self) -> dict:
        return {blades.key_of(m): c for m, c in sorted(self.coeffs.items())}

    def vector_components(self) -> np.ndarray:
        out = np.zeros(self.dim)
        for m, c in self.coeffs.items():
            k = m.bit_count()
            if k == 0 and c == 0.0:
                continue
            if k != 1:
                raise MixedGrade("not a pure vector")
            out[m.bit_length() - 1] = c
        return out

    def grades(self):
        return sorted({m.bit_count() for m in self.coeffs})

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __getitem__(self, key) -> float:
        if isinstance(key, str):
            key = blades.mask_from_key(key)
        return self.coeffs.get(key, 0.0)

    # plain linear structure -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            if other.dim != self.dim:
                raise DimMismatch("dimension mismatch in addition")
            out = dict(self.coeffs)
            for m, c in other.coeffs.items():
                out[m] = out.get(m, 0.0) + c
            return Multivector(self.dim, out)
        if isinstance(other, (int, float)):
            out = dict(self.coeffs)
            out[0] = out.get(0, 0.0) + other
            return Multivector(self.dim, out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.dim, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (Multivector, int, float)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return Multivector(self.dim, {m: c * s for m, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"Multivector({self.dim}, {self.to_blade_map()!r})"


def _check_pair(A: Multivector, B: Multivector, g: Gram):
    if A.dim != B.dim:
        raise DimMismatch("multivector dimensions differ")
    if g is not None and g.n != A.dim:
        raise DimMismatch("Gram dimension differs from multivector dimension")


def _contract(A: Multivector, B: Multivector, table: np.ndarray) -> Multivector:
    """sum_{a,b} A^a B^b table[a, b, :] as a multivector."""
    size = table.shape[0]
    a = np.zeros(size)
    b = np.zeros(size)
    a[list(A.coeffs)] = list(A.coeffs.values())
    b[list(B.coeffs)] = list(B.coeffs.values())
    out = b @ (a @ table.reshape(size, size * size)).reshape(size, size)
    return Multivector(A.dim, dict(enumerate(out.tolist())))


def gp(A: Multivector, B: Multivector, g) -> Multivector:
    """Geometric product of A and B under the Gram matrix g."""
    g = as_gram(g)
    _check_pair(A, B, g)
    return _contract(A, B, g.table)


def wedge(A: Multivector, B: Multivector) -> Multivector:
    """Outer product; metric free."""
    _check_pair(A, B, None)
    return Multivector(A.dim, blades.wedge_generic(A.coeffs, B.coeffs))


def grade(A: Multivector, k: int) -> Multivector:
    """Grade-k part; grades outside 0..dim are empty."""
    if k < 0 or k > A.dim:
        return Multivector(A.dim, {})
    return Multivector(A.dim, blades.grade_select(A.coeffs, k))


@lru_cache(maxsize=8)
def _contraction_mask(n: int) -> np.ndarray:
    """mask[a, b, c]: grade(c) = grade(b) - grade(a), so grade(a) <= grade(b)."""
    k = np.array([m.bit_count() for m in range(1 << n)])
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
    out = {}
    for m, c in A.coeffs.items():
        k = m.bit_count()
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return Multivector(A.dim, out)


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
    """A I^{-1} with I the oriented unit pseudoscalar of g."""
    g = as_gram(g)
    if g.n != A.dim:
        raise DimMismatch("Gram dimension differs from multivector dimension")
    I = pseudoscalar(g, orientation)
    s = gp(I, I, g)[0]
    I_inv = I * (1.0 / s)
    return gp(A, I_inv, g)


def reciprocal_frame(frame_rows, g_coord) -> np.ndarray:
    """Rows of the reciprocal frame e^i given frame rows e_i (coordinate comps).

    Defined by e^i . e_j = delta^i_j under the coordinate Gram.
    """
    f = np.asarray(frame_rows, dtype=float)
    g = as_gram(g_coord)
    gram = f @ g.matrix @ f.T
    det = np.linalg.det(f)
    scale = max(1.0, float(np.max(np.abs(f))))
    if abs(det) < 1e-12 * scale ** f.shape[0]:
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
