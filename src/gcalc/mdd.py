"""Multivector directional derivatives and the operators built from them.

At a point a field is one array jet of shape (2^n,) indexed by blade mask,
with zero rows for the blades it lacks.  The derivative along a frame
vector differentiates the components, then lets the connection act on each
blade as a derivation,

    D_{e_i} e_J = sum_m  e_{j_1} ^ ... ^ (Gamma_{i j_m}^l e_l) ^ ... ^ e_{j_k},

with Gamma_{ij}^l = Gamma_{ijk} g^{kl}.  On bitmask blades that derivation
is a constant linear map, Lambda[j, l] lifting e_j -> e_l to blades, so all
n directions are D[i] = F_ik d_k A + Gamma_{ij}^l Lambda[j, l] A.  Derived
operators contract D with the reciprocal frame:

    gradient   e^i D_{e_i} A  = divergence + curl
    divergence e^i . D_{e_i} A = sum_i iota_i D[i]
    curl       e^i ^ D_{e_i} A = sum_{i,l} g^{il} eps_l D[i]

Since e^i . e_j = delta^i_j, the divergence needs no metric: iota_i drops
index i from a blade, signed by moving e_i to its front, and eps_l wedges
e_l onto it; Lambda[j, l] is eps_l after iota_j.  These are the derivation
and outermorphism machinery of Hestenes & Sobczyk (1984) and Dorst,
Fontijne & Mann (2007) on bitmask blades.  :func:`gcalc.blades.blade_tensors`
holds them as signed gather tables, one entry per output blade and index,
and the sums over frame indices are ``jets.contract`` calls.  The work
grows as n^4 2^n, so operators refuse charts of more than :data:`MAX_DIM`
coordinates.  Pointwise products (the dual, ``product_field``) and changes
of frame (:func:`gcalc.blades.outermorphism`) work on blade maps,
converting at their boundary with :func:`to_blade_map` and
:func:`from_blade_map`.

The exterior derivative is the torsion-free curl and the codifferential the
divergence; a separate dual-sandwich route for the codifferential exists for
cross-checking.  Operators return fields, so they stack; a jet-depth budget
(2 on primitive fields, one less per operator) bounds the stacking depth.
An operator evaluates its operand once per point for all n directions, so a
stack of k operators evaluates its primitive field k times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blades as bl
from . import expr as ex
from .algebra import Multivector
from .connection import ConnectionAt, ConnSpec, gamma_jets, levi_civita
from .errors import DimMismatch, FrameMismatch, JetBudgetExhausted
from .jets import Jet, apply_function, contract, mat_det_inv, value_of
from .manifold import Chart, MultivectorField, frame_jets


def _as_spec(conn) -> ConnSpec:
    return conn.spec if isinstance(conn, ConnectionAt) else conn


@dataclass(frozen=True)
class DerivedField:
    """Field whose components at a point are computed by a closure.

    ``fn(point, order)`` returns them as one jet of shape (2^n,) and the
    given order, indexed by blade mask (:func:`from_blade_map` builds one
    from a blade map); ``budget`` is the remaining jet depth.
    """

    frame: str
    budget: int
    fn: object


def from_blade_map(comps: dict, n: int, order: int) -> Jet:
    """The (2^n,) jet of a map from blade mask to scalar jet or number.

    Numbers are constants and absent masks are zero rows.  The order is
    ``order``, or the lowest order among the jets if that is less.
    """
    order = min([order] + [c.order for c in comps.values() if isinstance(c, Jet)])
    coeffs = [np.zeros((1 << n,) + (n,) * k) for k in range(order + 1)]
    for mask, c in comps.items():
        for rows, part in zip(coeffs, c.coeffs if isinstance(c, Jet) else (c,)):
            rows[mask] = part
    return Jet(*coeffs)


def to_blade_map(jet: Jet) -> dict:
    """The blade map of scalar jets of a (2^n,) jet, without the rows that
    are zero in every Taylor coefficient."""
    live = np.zeros(len(jet.value), dtype=bool)
    for c in jet.coeffs:
        live |= c.reshape(len(c), -1).any(axis=1)
    return {int(m): jet.take(m) for m in np.flatnonzero(live)}


def field_jets(field, point, order: int) -> Jet:
    """Blade components of a field at a point, as one (2^n,) jet."""
    if order > field.budget:
        raise JetBudgetExhausted(
            f"field supports jets to order {field.budget}, requested {order}")
    if isinstance(field, MultivectorField):
        return from_blade_map({mask: ex.eval_jet(e, point, order)
                               for mask, e in field.components.items()},
                              len(point), order)
    return field.fn(point, order)


def eval_field(field, point) -> Multivector:
    """Field value at a point as a multivector."""
    point = tuple(float(p) for p in point)
    values = field_jets(field, point, 0).value
    return Multivector(len(point), dict(enumerate(values.tolist())))


# The blade axis is dense, so an operator's work and memory grow as n^4 2^n;
# larger charts are refused rather than left to run out of memory.
MAX_DIM = 12


def _check_operand(spec: ConnSpec, field) -> None:
    if spec.n > MAX_DIM:
        raise DimMismatch(f"derivative operators support charts of at most "
                          f"{MAX_DIM} coordinates, this one has {spec.n}")
    if field.frame != spec.frame:
        raise FrameMismatch(
            f"field is expressed in frame {field.frame!r} but the connection "
            f"uses {spec.frame!r}")
    if field.budget < 1:
        raise JetBudgetExhausted("field has no derivative budget left")


def _apply_blades(table, x: Jet, summed: bool) -> Jet:
    """A table of :func:`gcalc.blades.blade_tensors` applied to the blade
    axis, the last value axis, of x: x[..., b] becomes T_k x[..., :] on
    value axes (..., k, a), k one index or two, or with ``summed`` and one
    index x[..., k, b] becomes sum_k T_k x[..., k, :] on value axes (..., a)."""
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


def _mdd_basis_jets(spec: ConnSpec, dirs, field, point, order: int) -> Jet:
    """D_{e_i} field for each direction i in ``dirs``: a jet of shape
    (len(dirs), 2^n) and the given order.

    The operand is evaluated once for all the directions.
    """
    gj = gamma_jets(spec, point, order)
    dirs = list(dirs)
    F, mixed = gj.frame.F, gj.mixed
    if dirs != list(range(spec.n)):
        F, mixed = F.take(dirs), mixed.take(dirs)
    A = field_jets(field, point, order + 1)
    # Lambda[j, l] A for every e_j -> e_l, at the order of the result
    lifted = _apply_blades(bl.blade_tensors(spec.n)[0], Jet(*A.coeffs[:order + 1]),
                           summed=False)
    return contract("ik,ak->ia", F, A.partials()) + contract("ijl,jla->ia", mixed, lifted)


def mdd_along_basis(spec, i: int, field) -> DerivedField:
    """D_{e_i} field as a new field (budget drops by one)."""
    spec = _as_spec(spec)
    _check_operand(spec, field)
    if not 0 <= i < spec.n:
        raise FrameMismatch(f"basis direction {i} out of range for n={spec.n}")

    def fn(point, order):
        return _mdd_basis_jets(spec, (i,), field, point, order).take(0)

    return DerivedField(spec.frame, field.budget - 1, fn)


def mdd(spec, a, field, point) -> Multivector:
    """D_a field at a point, for a vector a given in frame components."""
    spec = _as_spec(spec)
    _check_operand(spec, field)
    point = tuple(float(p) for p in point)
    n = spec.n
    if len(a) != n:
        raise FrameMismatch(f"direction must have {n} frame components")
    dirs = [i for i in range(n) if float(a[i]) != 0.0]
    if not dirs:
        return Multivector(n, {})
    weights = np.array([float(a[i]) for i in dirs])
    values = weights @ _mdd_basis_jets(spec, dirs, field, point, 0).value
    return Multivector(n, dict(enumerate(values.tolist())))


def _contract_field(spec, field, combine: str) -> DerivedField:
    """Sum over i of e^i (op) D_{e_i} field, op in {gp, dot, wedge}."""
    spec = _as_spec(spec)
    _check_operand(spec, field)
    n = spec.n

    def fn(point, order):
        D = _mdd_basis_jets(spec, range(n), field, point, order)
        _, interior, wedge = bl.blade_tensors(n)
        if combine != "dot":
            # e^i ^ D_i = e_l ^ D^l, with D^l = g^{li} D_i the derivative along e^l
            ginv = gamma_jets(spec, point, order).frame.gram_inv
            curl = _apply_blades(wedge, contract("il,ia->la", ginv, D), summed=True)
            if combine == "wedge":
                return curl
        div = _apply_blades(interior, D, summed=True)
        return div if combine == "dot" else div + curl

    return DerivedField(spec.frame, field.budget - 1, fn)


def gradient_field(spec: ConnSpec, field) -> DerivedField:
    return _contract_field(spec, field, "gp")


def divergence_field(spec: ConnSpec, field) -> DerivedField:
    return _contract_field(spec, field, "dot")


def curl_field(spec: ConnSpec, field) -> DerivedField:
    return _contract_field(spec, field, "wedge")


def gradient(spec: ConnSpec, field, point) -> Multivector:
    return eval_field(gradient_field(spec, field), point)


def divergence(spec: ConnSpec, field, point) -> Multivector:
    return eval_field(divergence_field(spec, field), point)


def curl(spec: ConnSpec, field, point) -> Multivector:
    return eval_field(curl_field(spec, field), point)


def ext_d_field(chart: Chart, frame: str, field) -> DerivedField:
    """Exterior derivative: the curl of the torsion-free connection."""
    return curl_field(levi_civita(chart, frame), field)


def ext_d(chart: Chart, frame: str, field, point) -> Multivector:
    return eval_field(ext_d_field(chart, frame, field), point)


def codifferential(spec: ConnSpec, field, point) -> Multivector:
    """The codifferential, evaluated as the divergence."""
    return divergence(spec, field, point)


def unit_pseudoscalar_field(chart: Chart, frame: str) -> DerivedField:
    """I(x) = orientation * (e_1 ^ ... ^ e_n) / sqrt(|det Gram|)."""
    n = chart.n
    top = (1 << n) - 1

    def fn(point, order):
        fj = frame_jets(chart, frame, point, order)
        norm = apply_function("sqrt", apply_function("abs", fj.det_gram))
        return from_blade_map({top: float(chart.orientation) / norm}, n, order)

    return DerivedField(frame, 2, fn)


def _pseudoscalar_square_sign(n: int, det_gram) -> float:
    s = -1.0 if (n * (n - 1) // 2) & 1 else 1.0
    return s * (1.0 if value_of(det_gram) > 0 else -1.0)


def dual_field(chart: Chart, frame: str, field) -> DerivedField:
    """A I^{-1} with the chart's unit pseudoscalar; costs no jet budget."""
    n = chart.n
    top = (1 << n) - 1

    def fn(point, order):
        fj = frame_jets(chart, frame, point, order)
        comps = to_blade_map(field_jets(field, point, order))
        norm = apply_function("sqrt", apply_function("abs", fj.det_gram))
        s = _pseudoscalar_square_sign(n, fj.det_gram)
        inv = {top: (float(chart.orientation) * s) / norm}
        return from_blade_map(bl.gp_generic(comps, inv, fj.gram, n), n, order)

    return DerivedField(frame, field.budget, fn)


def codifferential_via_dual(spec, field, point) -> Multivector:
    """The dual-sandwich route dual(d(dual(A))) for sign cross-checks."""
    spec = _as_spec(spec)
    chart, frame = spec.chart, spec.frame
    inner = dual_field(chart, frame, field)
    der = ext_d_field(chart, frame, inner)
    outer = dual_field(chart, frame, der)
    return eval_field(outer, point)


def second_ops(spec, field, point, a=None) -> dict:
    """The second-derivative notations.

    ``grad_grad`` is the composition of two gradients, which differentiates
    the reciprocal basis of the inner gradient as well.  ``gp_gp``,
    ``dot_dot`` and ``wedge_wedge`` are the reciprocal-frame double sums

        (e^i e^j) D_{e_i} D_{e_j} A,   (e^i . e^j) D_{e_i} D_{e_j} A,
        (e^i ^ e^j) D_{e_i} D_{e_j} A,

    so gp_gp = dot_dot + wedge_wedge always, while grad_grad agrees with
    gp_gp only when the frame is covariantly constant.  ``directional``
    (when a is given) is D_a A.
    """
    spec = _as_spec(spec)
    point = tuple(float(p) for p in point)
    n = spec.n
    g1 = gradient_field(spec, field)
    out = {"grad_grad": eval_field(gradient_field(spec, g1), point)}

    fj = frame_jets(spec.chart, spec.frame, point, 0)
    gram, ginv = fj.gram.value.tolist(), fj.gram_inv.value.tolist()
    dd = {}
    for j in range(n):
        dj = mdd_along_basis(spec, j, field)
        rows = _mdd_basis_jets(spec, range(n), dj, point, 0).value.tolist()
        for i, comps in enumerate(rows):
            dd[i, j] = {m: c for m, c in enumerate(comps) if c != 0.0}

    dot_dot: dict = {}
    wedge_wedge: dict = {}
    gp_gp: dict = {}
    for i in range(n):
        recip_i = {1 << l: ginv[i][l] for l in range(n)}
        for j in range(n):
            bl.add_into(dot_dot, dd[i, j], ginv[i][j])
            recip_j = {1 << l: ginv[j][l] for l in range(n)}
            biv = bl.wedge_generic(recip_i, recip_j)
            if biv:
                bl.add_into(wedge_wedge, bl.gp_generic(biv, dd[i, j], gram, n))
            bl.add_into(gp_gp, bl.gp_generic(
                recip_i, bl.gp_generic(recip_j, dd[i, j], gram, n), gram, n))
    out["dot_dot"] = Multivector(n, bl.prune(dot_dot, 0.0))
    out["wedge_wedge"] = Multivector(n, bl.prune(wedge_wedge, 0.0))
    out["gp_gp"] = Multivector(n, bl.prune(gp_gp, 0.0))
    if a is not None:
        out["directional"] = mdd(spec, a, field, point)
    return out


def add_fields(a, b) -> DerivedField:
    """Pointwise sum; budget is the smaller of the two."""
    if a.frame != b.frame:
        raise FrameMismatch("cannot add fields over different frames")

    def fn(point, order):
        return field_jets(a, point, order) + field_jets(b, point, order)

    return DerivedField(a.frame, min(a.budget, b.budget), fn)


def product_field(chart: Chart, frame: str, a, b, combine: str = "gp") -> DerivedField:
    """Pointwise product field A op B, op in {gp, dot, wedge}."""
    if a.frame != frame or b.frame != frame:
        raise FrameMismatch("product operands must live in the stated frame")
    n = chart.n

    def fn(point, order):
        fj = frame_jets(chart, frame, point, order)
        ca = to_blade_map(field_jets(a, point, order))
        cb = to_blade_map(field_jets(b, point, order))
        if combine == "gp":
            out = bl.gp_generic(ca, cb, fj.gram, n)
        elif combine == "dot":
            out = bl.dot_generic(ca, cb, fj.gram, n)
        else:
            out = bl.wedge_generic(ca, cb)
        return from_blade_map(out, n, order)

    return DerivedField(frame, min(a.budget, b.budget), fn)


def grade_field(field, k: int) -> DerivedField:
    """Grade-k part of a field."""

    def fn(point, order):
        comps = to_blade_map(field_jets(field, point, order))
        return from_blade_map(bl.grade_select(comps, k), len(point), order)

    return DerivedField(field.frame, field.budget, fn)


def reexpress_field(chart: Chart, src_frame: str, dst_frame: str, field) -> DerivedField:
    """The same geometric field with components over another frame.

    Blade components transform through the linear map connecting the frames,
    evaluated as jets so derivatives still work afterwards.
    """
    if field.frame != src_frame:
        raise FrameMismatch("field is not expressed in the stated source frame")

    def fn(point, order):
        src = frame_jets(chart, src_frame, point, order)
        dst = frame_jets(chart, dst_frame, point, order)
        # rows of M: source frame vectors in destination-frame components,
        # e_i(src) = M[i][j] e_j(dst) with M = F_src F_dst^{-1}
        M = contract("ik,kj->ij", src.F, mat_det_inv(dst.F)[1])
        comps = to_blade_map(field_jets(field, point, order))
        return from_blade_map(bl.outermorphism(M, comps), chart.n, order)

    return DerivedField(dst_frame, field.budget, fn)

