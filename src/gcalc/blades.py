"""Bitmask blade arithmetic and the definition of the geometric product.

A basis blade over n frame vectors is a bitmask: bit i set means frame vector
i+1 participates, indices ascending.  A multivector is a blade axis, the last
axis (length 2^n, indexed by mask) of an array jet or array.  Blade maps,
dicts from masks to coefficients, appear only at serialization and in the
product oracles: :func:`wedge_generic` wedges two of them without a metric,
for the wedge of differential forms.

The geometric product for an arbitrary (symmetric, possibly indefinite) Gram
matrix is defined here, once, on the blade axis, by grade recursion on the
left factor,

    E_J B = L_j (E_J' B) - (e_j . E_J') B        with E_J = e_j ^ E_J',

where L_j = eps_j + sum_l g_jl iota_l is the left product by the vector e_j,
made of the wedge and interior gather tables of :func:`blade_tensors`
(Hestenes & Sobczyk 1984; Dorst, Fontijne & Mann 2007, ch. 19).
:func:`left_products` is that recursion, on float arrays and on jets over a
matrix-jet Gram alike, and :func:`product` sums it into A B, masks it by
grade into A . B, or drops the metric for A ^ B.  The structure-constant
tables of :mod:`gcalc.algebra` are the recursion applied to the identity,
under a Gram and under the zero metric, and
:func:`gp_generic` and :func:`dot_generic` are the product between blade
maps of floats.

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
def grade_table(n: int) -> np.ndarray:
    """The grade of each blade mask 0..2^n - 1, read-only."""
    k = np.array([m.bit_count() for m in range(1 << n)])
    k.setflags(write=False)
    return k


@lru_cache(maxsize=8)
def blade_tensors(n: int) -> tuple:
    """The interior and exterior products of frame vectors with blades, as
    signed gather tables (src, sign), built once per dimension on first use,
    read-only.  Table T maps a blade array x to

        (T_k x)[a] = sign[k, a] * x[src[k, a]],

    with sign 0 where e_a is not in the image, so it has one entry per
    output blade and index k:

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
    for table in (interior, wedge):
        for t in table:
            t.setflags(write=False)
    return interior, wedge


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


def scale(x: Jet, s) -> Jet:
    """x times the constant array s in every Taylor coefficient; s
    broadcasts against the value axes of x and may add leading ones."""
    s = np.asarray(s)
    v = np.ndim(x.value)
    return Jet(*(c * s.reshape(s.shape + (1,) * (c.ndim - v)) for c in x.coeffs))


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
    src, sign = blade_tensors(n)[1]
    grade = grade_table(n)
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


def grade_select(mv: dict, k: int) -> dict:
    return {m: c for m, c in mv.items() if m.bit_count() == k}


def left_products(g, masks, B) -> Jet:
    """E_J B for each blade J of ``masks``, stacked on a new first axis.

    g is the Gram, an (n, n) array or matrix jet, or None for the zero
    metric, under which the product is the wedge.  B is an (m, 2^n) jet or
    array: m multivectors on the blade axis.  With j the lowest index of J
    and J' = J - j, E_J = e_j E_J' - e_j . E_J', so

        E_J B = L_j (E_J' B) - sum_{m in J'} (-1)^pos(m) g_jm E_{J' - m} B,
        L_j   = eps_j + sum_l g_jl iota_l,

    with pos(m) the place of m in J' and L_j the left product by e_j, made
    of the wedge and interior tables of :func:`blade_tensors`.  The products
    are built a grade at a time, for the blades of ``masks`` and those the
    recursion reaches.  The result has the order of B, or of g if g is a
    jet of lower order; an array g is a constant.
    """
    B = B if isinstance(B, Jet) else Jet(np.asarray(B, dtype=float))
    if g is not None and not isinstance(g, Jet):
        g = np.asarray(g, dtype=float)
        d = B.grad.shape[-1:] if B.order else ()
        g = Jet(g, *(np.zeros(g.shape + d * o) for o in range(1, B.order + 1)))
    masks = list(masks)
    interior, wedge = blade_tensors(B.value.shape[-1].bit_length() - 1)
    need, todo = set(), list(masks)
    while todo:
        m = todo.pop()
        if m not in need:
            need.add(m)
            rest = m & (m - 1)
            todo += [rest] + [rest & ~(1 << i) for i in indices_of(rest)]
    # stacks[k][row[J]] = E_J B for the blades J of grade k in need
    row = {0: 0}
    stacks = [Jet(*(c[None] for c in B.coeffs))]
    for k in range(1, max((m.bit_count() for m in need), default=0) + 1):
        blades = sorted(m for m in need if m.bit_count() == k)
        lead = [(m & -m).bit_length() - 1 for m in blades]
        parents = sorted({m & (m - 1) for m in blades})
        prev = stacks[k - 1].take([row[m] for m in parents])
        # step[p, :, j] = L_j (E_J' B) for J' = parents[p]
        step = apply_blades(wedge, prev)
        if g is not None:
            step = step + contract("jl,pblc->pbjc", g, apply_blades(interior, prev))
        at = {m: p for p, m in enumerate(parents)}
        P = step.take(([at[m & (m - 1)] for m in blades], slice(None), lead))
        if g is not None and k > 1:
            drop = np.array([indices_of(m & (m - 1)) for m in blades])
            src = [[row[m & (m - 1) & ~(1 << i)] for i in idx]
                   for m, idx in zip(blades, drop)]
            coef = scale(g.take((np.array(lead)[:, None], drop)),
                         (-1.0) ** np.arange(k - 1))
            P = P - contract("bt,btmc->bmc", coef, stacks[k - 2].take(src))
        row.update((m, b) for b, m in enumerate(blades))
        stacks.append(P)
    order = B.order if g is None else min(B.order, g.order)
    out = [np.empty((len(masks),) + c.shape) for c in B.coeffs[:order + 1]]
    for k, P in enumerate(stacks):
        at = [b for b, m in enumerate(masks) if m.bit_count() == k]
        for o, c in zip(out, P.coeffs):
            o[at] = c[[row[masks[b]] for b in at]]
    return Jet(*out)


def product(g, A, B, combine: str = "gp") -> Jet:
    """A B, A . B or A ^ B (``combine`` "gp", "dot" or "wedge") of two
    (2^n,) jets or arrays under the Gram g, an (n, n) array or matrix jet,
    which the wedge ignores.

    The product is sum_J A_J E_J B over the live blades J of A
    (:func:`left_products`).  The dot keeps <E_J B_k>_{k-j} for J of grade j
    and each grade-k part B_k of B, so B is split by grade on a leading axis
    and the products are masked to those grades.  The result has the lowest
    order of the jet operands; an array g is a constant.
    """
    A, B = (a if isinstance(a, Jet) else Jet(np.asarray(a, dtype=float)) for a in (A, B))
    grades = grade_table(len(B.value).bit_length() - 1)
    masks = live_masks(A)
    k = np.arange(grades[-1] + 1)[:, None]
    # B on a leading axis: its grade parts for the dot, else B whole
    B = scale(B, grades == k if combine == "dot" else np.ones((1, len(grades))))
    P = left_products(None if combine == "wedge" else g, masks, B)
    if combine == "dot":
        P = scale(P, grades == k - grades[masks][:, None, None])
    return contract("j,jkc->c", A.take(masks), P)


def _dict_product(A: dict, B: dict, gram, n: int, combine: str) -> dict:
    x = np.zeros((2, 1 << n))
    for row, mv in zip(x, (A, B)):
        row[list(mv)] = list(mv.values())
    out = product(np.asarray(gram, dtype=float), x[0], x[1], combine).value
    return {m: c for m, c in enumerate(out.tolist()) if c != 0.0}


def gp_generic(A: dict, B: dict, gram, n: int) -> dict:
    """Geometric product of two blade maps of floats over an arbitrary Gram
    (an array or nested lists): :func:`product` between dicts."""
    return _dict_product(A, B, gram, n, "gp")


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
    """Grade-projected product <A_j B_k>_{k-j} of two blade maps of floats,
    summed over pure-grade parts: :func:`product` between dicts."""
    return _dict_product(A, B, gram, n, "dot")

