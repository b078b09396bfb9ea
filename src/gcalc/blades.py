"""Bitmask blade arithmetic and the definition of the geometric product.

A basis blade over n frame vectors is a bitmask: bit i set means frame vector
i+1 participates, indices ascending.  A multivector is a blade map, a dict
from masks to coefficients, or a blade axis, the last axis (length 2^n,
indexed by mask) of an array jet.  Blade-map coefficients may be floats,
:class:`gcalc.jets.Jet` objects, expression trees or numpy arrays; the
product routines are written against plain ring arithmetic so the same code
serves numeric, jet-valued and symbolic evaluation.

The geometric product for an arbitrary (symmetric, possibly indefinite) Gram
matrix is defined here, once, by grade recursion on the left factor,

    E_J B = e_j (E_J' B) - (e_j . E_J') B        with E_J = e_j ^ E_J',

which bottoms out in the two vector-level primitives: the contraction of a
vector into a blade and the metric-free wedge.  :func:`blade_products` is
that recursion and :func:`gp_generic` sums its output; the float products in
:mod:`gcalc.algebra` contract with a structure-constant table filled by it.

A change of basis acts on a blade axis as the outermorphism of the vector
map, f(e_J) = f(e_{j1}) ^ ... ^ f(e_{jk}) (:func:`outermorphism`), built from
the wedge table of :func:`blade_tensors`.  Serialization uses 1-based
comma-joined index keys: "" for the scalar slot, "1", "1,3", ...
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BladeKeyError
from .jets import Jet, contract


def grade_of(mask: int) -> int:
    return mask.bit_count()


def indices_of(mask: int):
    """0-based ascending indices in the blade."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def key_of(mask: int) -> str:
    return ",".join(str(i + 1) for i in indices_of(mask))


def mask_from_key(key: str) -> int:
    key = key.strip()
    if not key:
        return 0
    m = 0
    last = 0
    for part in key.split(","):
        try:
            i = int(part)
        except ValueError:
            i = 0
        if i <= last:
            raise BladeKeyError(f"blade key {key!r}: indices must be ascending "
                                "and 1-based")
        last = i
        m |= 1 << (i - 1)
    return m


def merge_sign(a: int, b: int) -> int:
    """Parity sign from interleaving the basis string of a with that of b."""
    swaps = 0
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def wedge_blades(a: int, b: int):
    """e_a ^ e_b -> (sign, mask) or None when the blades share a vector."""
    if a & b:
        return None
    return merge_sign(a, b), a | b


def substitute(mask: int, pos: int, new_index: int):
    """Replace the pos-th vector of the blade with e_{new_index}, resorted.

    Returns (sign, mask) or None if the substitution repeats a vector.
    """
    idx = indices_of(mask)
    rest = mask & ~(1 << idx[pos])
    if rest & (1 << new_index):
        return None
    below = (rest & ((1 << new_index) - 1)).bit_count()
    sign = -1 if (pos + below) & 1 else 1
    return sign, rest | (1 << new_index)


def add_into(dst: dict, src: dict, scale=None) -> dict:
    """dst += scale * src, blade by blade; no multiplication without a scale.

    Unscaled entries of src are stored, not copied, so no coefficient may
    be updated in place afterwards.
    """
    for m, c in src.items():
        if scale is not None:
            c = c * scale
        cur = dst.get(m)
        dst[m] = c if cur is None else cur + c
    return dst


@lru_cache(maxsize=8)
def blade_tensors(n: int) -> tuple:
    """The derivation lift and the interior and exterior products of frame
    vectors with blades, as signed gather tables (src, sign), built once per
    dimension on first use, read-only.  Table T maps a blade array x to

        (T_k x)[a] = sign[k, a] * x[src[k, a]],

    with sign 0 where e_a is not in the image, so it has one entry per
    output blade and index k:

    lift[j, l]   the derivation that extends e_j -> e_l to blades, replacing
                 e_j by e_l with the resorting sign (:func:`substitute`),
                 which is wedge[l] after interior[j]; shape (n, n, 2^n);
    interior[i]  e^i . x with e^i . e_j = delta^i_j, which drops index i,
                 signed by the number of indices below it; shape (n, 2^n);
    wedge[l]     e_l ^ x (:func:`wedge_blades`); shape (n, 2^n).
    """
    masks = np.arange(1 << n)
    bits = (1 << np.arange(n))[:, None]
    has = (masks & bits) != 0
    # sign[k, a]: -1 when an odd number of the indices of a lie below k
    sign = np.where((np.cumsum(has, axis=0) - has) & 1, -1.0, 1.0)
    interior = (masks | bits, np.where(has, 0.0, sign))
    wedge = (masks ^ bits, np.where(has, sign, 0.0))
    # lift[j, l] reads interior[j] at the rows wedge[l] reads
    lift = (interior[0][:, wedge[0]], interior[1][:, wedge[0]] * wedge[1])
    tables = (lift, interior, wedge)
    for table in tables:
        for t in table:
            t.setflags(write=False)
    return tables


def apply_blades(table, x: Jet, summed: bool = False) -> Jet:
    """A gather table (src, sign) applied to the blade axis, the last value
    axis, of x: x[..., b] becomes T_k x[..., :] on value axes (..., k, a),
    k no index, one or two, or with ``summed`` and one index x[..., k, b]
    becomes sum_k T_k x[..., k, :] on value axes (..., a)."""
    src, sign = table
    v = x.value.ndim
    if summed:
        index = (slice(None),) * (v - 2) + (np.arange(len(src))[:, None], src)
    else:
        index = (slice(None),) * (v - 1) + (src,)
    out = []
    for c in x.coeffs:
        term = c[index] * sign.reshape(sign.shape + (1,) * (c.ndim - v))
        out.append(term.sum(axis=v - 2) if summed else term)
    return Jet(*out)


def live_masks(x: Jet) -> list:
    """The masks of the rows of a (2^n,) jet that are nonzero in some
    Taylor coefficient."""
    live = x.value != 0.0
    for c in x.coeffs[1:]:
        live |= c.reshape(len(c), -1).any(axis=1)
    return np.flatnonzero(live).tolist()


def outermorphism(M, x) -> Jet:
    """A change of blade basis on the blade axis of a (2^n,) jet or array.

    If old basis vectors expand in the new basis as old_i = sum_k M[i, k]
    new_k, each old blade maps to the wedge of the images of its vectors,

        f(e_J) = f(e_j) ^ f(e_{J - j}) = sum_k M[j, k] wedge[k] f(e_{J - j})

    with j the lowest index of J.  The images are built a grade at a time,
    on the rows of that grade only, for the live blades of x and the blades
    that recursion reaches.  M is an (n, n) matrix jet or array; the result
    has the lower of the two orders.
    """
    M, x = (a if isinstance(a, Jet) else Jet(np.asarray(a, dtype=float))
            for a in (M, x))
    n = len(M.value)
    src, sign = blade_tensors(n)[2]
    grade = np.count_nonzero(sign, axis=0)    # wedge[k] reads e_a when k is in a
    # the live blades and each one without its i lowest vectors
    need = {m & -(1 << i) for m in live_masks(x) for i in range(n + 1)}
    # scalars are fixed; the loop overwrites the rows of every grade up to
    # the highest live one, and x is zero above it
    out = [c.copy() for c in x.coeffs[:min(x.order, M.order) + 1]]
    # images[b, K]: the image of blades[b] on the blade cols[K]
    blades, cols, images = [], None, None
    for k in range(1, n + 1):
        prev, at = cols, {m: b for b, m in enumerate(blades)}
        blades = sorted(m for m in need if m.bit_count() == k)
        if not blades:
            break
        cols = np.flatnonzero(grade == k)
        lead = M.take([(m & -m).bit_length() - 1 for m in blades])
        if k == 1:
            images = lead                       # f(e_j) = M[j] on the vectors
        else:
            # the wedge table from the rows of grade k - 1 to those of grade k
            s = sign[:, cols]
            table = (np.where(s != 0, np.searchsorted(prev, src[:, cols]), 0), s)
            rest = images.take([at[m & (m - 1)] for m in blades])
            images = contract("bl,blK->bK", lead, apply_blades(table, rest))
        # the blades that are only prefixes have zero rows in x
        part = contract("b,bK->K", x.take(blades), images)
        for c_out, c in zip(out, part.coeffs):
            c_out[cols] = c
    return Jet(*out)


def prune(mv: dict, tol: float = 0.0) -> dict:
    """Drop exact (or below-tol) zero float coefficients; jets are kept."""
    return {m: c for m, c in mv.items()
            if not (isinstance(c, (int, float)) and abs(c) <= tol)}


def grade_select(mv: dict, k: int) -> dict:
    return {m: c for m, c in mv.items() if m.bit_count() == k}


def vector_dot_blade(vec, mask: int, gram) -> dict:
    """a . E_J for a vector a given as (index, coefficient) pairs of its
    nonzero components; the grade drops by one."""
    out: dict = {}
    for pos, j in enumerate(indices_of(mask)):
        s = 0.0
        for l, c in vec:
            s = s + c * gram[l][j]
        if isinstance(s, (int, float)) and s == 0.0:
            continue
        if pos & 1:
            s = -s
        rem = mask & ~(1 << j)
        cur = out.get(rem)
        out[rem] = s if cur is None else cur + s
    return out


def vector_wedge_mv(vec, mv: dict) -> dict:
    """a ^ mv for a vector a given as (index, coefficient) pairs."""
    out: dict = {}
    for m, c in mv.items():
        for l, a in vec:
            w = wedge_blades(1 << l, m)
            if w is None:
                continue
            sign, res = w
            term = a * c if sign > 0 else -(a * c)
            cur = out.get(res)
            out[res] = term if cur is None else cur + term
    return out


def vector_gp_mv(vec, mv: dict, gram) -> dict:
    """Geometric product (vector) * (multivector) over an arbitrary Gram."""
    out: dict = {}
    for m, c in mv.items():
        if m:
            for rem, s in vector_dot_blade(vec, m, gram).items():
                term = s * c
                cur = out.get(rem)
                out[rem] = term if cur is None else cur + term
    add_into(out, vector_wedge_mv(vec, mv))
    return out


def blade_products(masks, B: dict, gram) -> dict:
    """E_J B for every blade J in ``masks``, by grade recursion on E_J.

    Each E_J B is computed once: the recursion for a blade and the correction
    terms of every longer blade share it.
    """
    products = {0: B}

    def blade_times_b(mask: int) -> dict:
        done = products.get(mask)
        if done is not None:
            return done
        lead = (mask & -mask).bit_length() - 1
        e_lead = [(lead, 1.0)]
        rest = mask & ~(1 << lead)
        out = vector_gp_mv(e_lead, blade_times_b(rest), gram)
        for m2, c2 in vector_dot_blade(e_lead, rest, gram).items():
            add_into(out, blade_times_b(m2), -c2)
        products[mask] = out
        return out

    return {mask: blade_times_b(mask) for mask in masks}


def gp_generic(A: dict, B: dict, gram, n: int) -> dict:
    """Geometric product of two multivectors over an arbitrary Gram matrix.

    The recursion does not need the dimension ``n``; callers pass it all the
    same.
    """
    out: dict = {}
    for mask, part in blade_products(A, B, gram).items():
        add_into(out, part, A[mask])
    return out


def wedge_generic(A: dict, B: dict) -> dict:
    out: dict = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            w = wedge_blades(ma, mb)
            if w is None:
                continue
            sign, m = w
            term = ca * cb if sign > 0 else -(ca * cb)
            cur = out.get(m)
            out[m] = term if cur is None else cur + term
    return out


def dot_generic(A: dict, B: dict, gram, n: int) -> dict:
    """Grade-projected product <A_j B_k>_{k-j}, summed over pure-grade parts."""
    out: dict = {}
    by_grade_a: dict = {}
    for m, c in A.items():
        by_grade_a.setdefault(m.bit_count(), {})[m] = c
    by_grade_b: dict = {}
    for m, c in B.items():
        by_grade_b.setdefault(m.bit_count(), {})[m] = c
    for j, Aj in by_grade_a.items():
        for k, Bk in by_grade_b.items():
            if j > k:
                continue
            prod = gp_generic(Aj, Bk, gram, n)
            add_into(out, grade_select(prod, k - j))
    return out
