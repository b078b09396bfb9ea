"""Multivector directional derivatives and the operators built from them.

At a point a field is one array jet of shape (2^n,) indexed by blade mask,
with zero rows for the blades it lacks.  The derivative along a frame
vector differentiates the components, then lets the connection act on each
blade as a derivation,

    D_{e_i} e_J = sum_m  e_{j_1} ^ ... ^ (Gamma_{i j_m}^l e_l) ^ ... ^ e_{j_k},

with Gamma_{ij}^l = Gamma_{ijk} g^{kl}.  On bitmask blades that derivation
is a constant linear map, Lambda[j, l] lifting e_j -> e_l to blades, so all
n directions are D[i] = F_ik d_k A + Gamma_{ij}^l Lambda[j, l] A.  On an
identity frame (F = I) the component term is d_i A itself, and the frame
and connection data come from the metric jet alone, skipping the frame
algebra; for Levi-Civita the contorsion is not evaluated either.  Where
every Taylor coefficient of Gamma_{ij}^l is zero at the point (coordinate
frames of flat metrics without contorsion), the connection term adds only
zeros and is skipped, lift and all.  D is the one primitive: the
derivative is linear in its direction, D_a A = a^i D[i], so :func:`mdd` is
a . D and :func:`mdd_along_basis` is row i.  Derived operators contract D with the
reciprocal frame:

    gradient   e^i D_{e_i} A  = divergence + curl
    divergence e^i . D_{e_i} A = sum_i iota_i D[i]
    curl       e^i ^ D_{e_i} A = sum_{i,l} g^{il} eps_l D[i]

Since e^i . e_j = delta^i_j, the divergence needs no metric: iota_i drops
index i from a blade, signed by moving e_i to its front, and eps_l wedges
e_l onto it; Lambda[j, l] is eps_l after iota_j.  These are the derivation
and outermorphism machinery of Hestenes & Sobczyk (1984) and Dorst,
Fontijne & Mann (2007) on bitmask blades.
:func:`gcalc.blades.blade_tensors` holds iota and eps as signed gather
tables, one entry per output blade and index, :func:`derivation_lift`
builds Lambda from them for the connection term alone, and the sums over
frame indices are ``jets.contract`` calls.  The work grows as n^4 2^n, so
operators refuse charts of more than :data:`MAX_DIM` coordinates.  Changes
of frame and the dual act on the same (2^n,) jet through
:func:`gcalc.blades.outermorphism`, the grade projection is a mask of its
rows, and the pointwise products of :func:`product_field` are the product
kernel :func:`gcalc.blades.product` over the jet of the frame Gram.

The exterior derivative is the torsion-free curl and the codifferential the
divergence; a separate dual-sandwich route for the codifferential exists for
cross-checking.  Operators return fields, so they stack.  Each one asks its
operand for one order more than it was asked for, and expression jets stop
at order two, so two operators stack on a primitive field and a third raises
:class:`gcalc.errors.JetBudgetExhausted` when it is evaluated.  An operator
evaluates its operand once per point for all n directions, so a stack of k
operators evaluates its primitive field k times.  A
:class:`DerivedField` jet may carry leading label axes, shape (..., 2^n), and
D of it has shape (..., n, 2^n): :func:`second_ops` reads its double sums'
D_{e_i} D_{e_j} A as D of the stack D, one evaluation of D in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import blades as bl
from .algebra import Multivector
from .connection import ConnSpec, gamma_jets, levi_civita
from .errors import DimMismatch, FrameMismatch
from .jets import Jet, apply_function, contract, mat_det_inv, value_of
from .manifold import Chart, MultivectorField, frame_jets


@dataclass(frozen=True)
class DerivedField:
    """Field whose components at a point are computed by a closure.

    ``fn(point, order)`` returns them as one jet of shape (..., 2^n) and the
    given order, indexed by blade mask (:func:`from_blade_map` builds one
    from a blade map).
    """

    frame: str
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


def field_jets(field, point, order: int) -> Jet:
    """Blade components of a field at a point, as one (2^n,) jet."""
    if isinstance(field, MultivectorField):
        return field.program.jet(point, order)
    return field.fn(point, order)


def eval_field(field, point) -> Multivector:
    """Field value at a point as a multivector."""
    point = tuple(float(p) for p in point)
    return Multivector(len(point), field_jets(field, point, 0).value)


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


@lru_cache(maxsize=8)
def derivation_lift(n: int) -> tuple:
    """Lambda[j, l], the derivation that extends e_j -> e_l to blades,
    replacing e_j by e_l with the resorting sign (:func:`gcalc.blades.substitute`),
    as a read-only signed gather table (src, sign) of shape (n, n, 2^n) in
    the form of :func:`gcalc.blades.blade_tensors`: wedge[l] after
    interior[j].  Built once per dimension, on the first connection term."""
    interior, wedge = bl.blade_tensors(n)
    # lift[j, l] reads interior[j] at the rows wedge[l] reads
    lift = (interior[0][:, wedge[0]], interior[1][:, wedge[0]] * wedge[1])
    for t in lift:
        t.setflags(write=False)
    return lift


def _mdd_basis_jets(spec: ConnSpec, field, point, order: int) -> Jet:
    """D = (D_{e_1} field, ..., D_{e_n} field): a jet of shape (..., n, 2^n)
    and the given order, for an operand jet of shape (..., 2^n) whose leading
    axes are labels.  Every directional derivative is a contraction of it.

    The operand is evaluated once for all the directions.
    """
    gj = gamma_jets(spec, point, order)
    A = field_jets(field, point, order + 1)
    if gj.mixed_zero:
        return _component_term(gj.frame, A)
    # Lambda[j, l] A for every e_j -> e_l, at the order of the result; built
    # before the component term, which would otherwise add to its peak memory
    lifted = bl.apply_blades(derivation_lift(spec.n), Jet(*A.coeffs[:order + 1]),
                             summed=False)
    return _component_term(gj.frame, A) + contract("ijl,...jla->...ia", gj.mixed, lifted)


def _component_term(fj, A: Jet) -> Jet:
    """F_ik d_k A, of shape (..., n, 2^n).  With F = I it is dA with axes a and k
    swapped, copied so that D is laid out as the contraction lays it."""
    if fj.identity:
        v = A.value.ndim
        return Jet(*(c.swapaxes(v - 1, v).copy() for c in A.coeffs[1:]))
    return contract("ik,...ak->...ia", fj.F, A.partials())


def mdd_along_basis(spec, i: int, field) -> DerivedField:
    """D_{e_i} field as a new field."""
    _check_operand(spec, field)
    if not 0 <= i < spec.n:
        raise FrameMismatch(f"basis direction {i} out of range for n={spec.n}")

    def fn(point, order):
        return _mdd_basis_jets(spec, field, point, order).take(i)

    return DerivedField(spec.frame, fn)


def mdd(spec, a, field, point) -> Multivector:
    """D_a field at a point, for a vector a given in frame components."""
    _check_operand(spec, field)
    point = tuple(float(p) for p in point)
    n = spec.n
    if len(a) != n:
        raise FrameMismatch(f"direction must have {n} frame components")
    a = np.asarray(a, dtype=float)
    return Multivector(n, a @ _mdd_basis_jets(spec, field, point, 0).value)


def _reciprocal_sum(ginv, X: Jet, combine: str) -> Jet:
    """Sum over i of e^i (op) X[..., i, :], op in {gp, dot, wedge}, with
    e^i = g^{il} e_l; ``ginv`` is needed only for gp and wedge."""
    interior, wedge = bl.blade_tensors(X.value.shape[-2])
    if combine != "dot":
        # e^i ^ X_i = e_l ^ X^l, with X^l = g^{li} X_i
        curl = bl.apply_blades(wedge, contract("il,...ia->...la", ginv, X), summed=True)
        if combine == "wedge":
            return curl
    div = bl.apply_blades(interior, X, summed=True)
    return div if combine == "dot" else div + curl


def _contract_field(spec, field, combine: str) -> DerivedField:
    """Sum over i of e^i (op) D_{e_i} field, op in {gp, dot, wedge}."""
    _check_operand(spec, field)

    def fn(point, order):
        ginv = None if combine == "dot" else gamma_jets(spec, point, order).frame.gram_inv
        return _reciprocal_sum(ginv, _mdd_basis_jets(spec, field, point, order), combine)

    return DerivedField(spec.frame, fn)


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

    return DerivedField(frame, fn)


def _pseudoscalar_square_sign(n: int, det_gram) -> float:
    s = -1.0 if (n * (n - 1) // 2) & 1 else 1.0
    return s * (1.0 if value_of(det_gram) > 0 else -1.0)


def dual_field(chart: Chart, frame: str, field) -> DerivedField:
    """A I^{-1} with the chart's unit pseudoscalar, at the order asked of it.

    With I^{-1} = (orientation s / sqrt|det g|) e_top and s = I^2, the dual
    lowers A onto the reciprocal blades, E_K = f_g(E^K) with f_g the
    outermorphism of the frame Gram, and gathers the complement
    E^K e_top = (-1)^(sum of the 0-based indices of K) e_{top - K}.
    """
    n = chart.n
    top = (1 << n) - 1
    odd = sum(1 << i for i in range(1, n, 2))
    complement = (top - np.arange(1 << n),
                  np.array([(-1.0) ** ((top - m) & odd).bit_count()
                            for m in range(1 << n)]))

    def fn(point, order):
        fj = frame_jets(chart, frame, point, order)
        lowered = bl.outermorphism(fj.gram, field_jets(field, point, order))
        norm = apply_function("sqrt", apply_function("abs", fj.det_gram))
        s = _pseudoscalar_square_sign(n, fj.det_gram)
        return contract(",a->a", (float(chart.orientation) * s) / norm,
                        bl.apply_blades(complement, lowered))

    return DerivedField(frame, fn)


def codifferential_via_dual(spec, field, point) -> Multivector:
    """The dual-sandwich route dual(d(dual(A))) for sign cross-checks."""
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
    gp_gp only when the frame is covariantly constant.  As e^i ^ e^j is
    antisymmetric, wedge_wedge sums only the commutator part
    (D_{e_i} D_{e_j} - D_{e_j} D_{e_i}) A / 2.  ``directional`` (when a is
    given) is D_a A.
    """
    point = tuple(float(p) for p in point)
    n = spec.n
    g1 = gradient_field(spec, field)
    out = {"grad_grad": eval_field(gradient_field(spec, g1), point)}
    # D of the stack D, whose label axis is j, holds D_{e_i} D_{e_j} A at [j, i]
    D = DerivedField(spec.frame, lambda p, o: _mdd_basis_jets(spec, field, p, o))
    dd = _mdd_basis_jets(spec, D, point, 0).transpose(1, 0)
    ginv = gamma_jets(spec, point, 0).frame.gram_inv
    out["dot_dot"] = Multivector(n, np.einsum("ij,ija->a", ginv.value, dd.value))
    for name, X in (("gp_gp", dd), ("wedge_wedge", (dd - dd.transpose(1, 0)) * 0.5)):
        out[name] = Multivector(n, _reciprocal_sum(ginv, _reciprocal_sum(ginv, X, "gp"), "gp").value)
    if a is not None:
        out["directional"] = mdd(spec, a, field, point)
    return out


def add_fields(a, b) -> DerivedField:
    """Pointwise sum."""
    if a.frame != b.frame:
        raise FrameMismatch("cannot add fields over different frames")

    def fn(point, order):
        return field_jets(a, point, order) + field_jets(b, point, order)

    return DerivedField(a.frame, fn)


def product_field(chart: Chart, frame: str, a, b, combine: str = "gp") -> DerivedField:
    """Pointwise product field A op B, op in {gp, dot, wedge}."""
    if a.frame != frame or b.frame != frame:
        raise FrameMismatch("product operands must live in the stated frame")

    def fn(point, order):
        return bl.product(frame_jets(chart, frame, point, order).gram,
                          field_jets(a, point, order), field_jets(b, point, order),
                          combine)

    return DerivedField(frame, fn)


def grade_field(field, k: int) -> DerivedField:
    """Grade-k part of a field."""

    def fn(point, order):
        A = field_jets(field, point, order)
        return bl.scale(A, bl.grade_table(A.value.shape[-1].bit_length() - 1) == k)

    return DerivedField(field.frame, fn)


def frame_change(chart: Chart, src_frame: str, dst_frame: str, point, order: int) -> Jet:
    """M = F_src F_dst^{-1}, the jet whose row i holds the source frame vector
    e_i(src) = M[i][j] e_j(dst) in destination-frame components."""
    src = frame_jets(chart, src_frame, point, order)
    dst = frame_jets(chart, dst_frame, point, order)
    return contract("ik,kj->ij", src.F, mat_det_inv(dst.F)[1])


def reexpress_field(chart: Chart, src_frame: str, dst_frame: str, field) -> DerivedField:
    """The same geometric field with components over another frame.

    Blade components transform through the outermorphism of
    :func:`frame_change`, as jets so derivatives still work afterwards.
    """
    if field.frame != src_frame:
        raise FrameMismatch("field is not expressed in the stated source frame")

    def fn(point, order):
        M = frame_change(chart, src_frame, dst_frame, point, order)
        return bl.outermorphism(M, field_jets(field, point, order))

    return DerivedField(dst_frame, fn)

