"""Multivector directional derivatives and the operators built from them.

The derivative along a frame vector acts on a field A = A^J e_J by the
product rule: differentiate each scalar component, then replace one frame
vector of each blade at a time with its derivative,

    D_{e_i} e_J = sum_m  e_{j_1} ^ ... ^ (Gamma_{i j_m k} g^{kl} e_l) ^ ... ^ e_{j_k},

which keeps grades intact blade by blade.  Derived operators contract the
directional derivative with the reciprocal frame:

    gradient   e^i D_{e_i} A  = divergence + curl
    divergence e^i . D_{e_i} A
    curl       e^i ^ D_{e_i} A

Since e^i . e_j = delta^i_j, the divergence needs no metric: e^i . e_J
removes index i from the blade, with the sign of moving e_i to its front.
The curl wedges the row g^{il} e_l of the inverse frame Gram into each
blade.  Pointwise products of fields (the dual, ``product_field``) use the
jet-valued grade recursion :func:`gcalc.blades.gp_generic`.

The exterior derivative is the torsion-free curl and the codifferential the
divergence; a separate dual-sandwich route for the codifferential exists for
cross-checking.

Every operator returns a field whose components can themselves be evaluated
as jets, so operators stack; a jet-depth budget (2 on primitive fields, one
less per operator) bounds the stacking depth.  An operator evaluates its
operand once per point and derives all n directional parts from that one
evaluation, so a stack of k operators evaluates its primitive field k times.
Changes of frame act on blade components by the outermorphism
(:func:`gcalc.blades.outermorphism`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blades as bl
from . import expr as ex
from .algebra import Multivector
from .connection import ConnectionAt, ConnSpec, gamma_jets, levi_civita
from .errors import FrameMismatch, JetBudgetExhausted
from .jets import apply_function, contract, mat_det_inv, value_of
from .manifold import Chart, MultivectorField, frame_jets


def _as_spec(conn) -> ConnSpec:
    return conn.spec if isinstance(conn, ConnectionAt) else conn


@dataclass(frozen=True)
class DerivedField:
    """Field whose components at a point are computed by a closure.

    ``fn(point, order)`` returns a map from blade mask to jets of the given
    order; ``budget`` is the remaining jet depth.
    """

    frame: str
    budget: int
    fn: object


def field_jets(field, point, order: int) -> dict:
    """Blade-component jets of a field at a point."""
    if order > field.budget:
        raise JetBudgetExhausted(
            f"field supports jets to order {field.budget}, requested {order}")
    if isinstance(field, MultivectorField):
        return {mask: ex.eval_jet(e, point, order)
                for mask, e in field.components.items()}
    return field.fn(point, order)


def eval_field(field, point) -> Multivector:
    """Field value at a point as a multivector."""
    point = tuple(float(p) for p in point)
    comps = field_jets(field, point, 0)
    return Multivector(len(point), {m: value_of(c) for m, c in comps.items()})


def _check_operand(spec: ConnSpec, field) -> None:
    if field.frame != spec.frame:
        raise FrameMismatch(
            f"field is expressed in frame {field.frame!r} but the connection "
            f"uses {spec.frame!r}")
    if field.budget < 1:
        raise JetBudgetExhausted("field has no derivative budget left")


def _mdd_basis_jets(spec: ConnSpec, dirs, field, point, order: int) -> list:
    """Components of D_{e_i} field as jets of the given order, one map for
    each direction i in ``dirs``.

    The operand is evaluated once, and its partials and the blade
    substitutions are found once, for all the directions.
    """
    n = spec.n
    gj = gamma_jets(spec, point, order)
    F = gj.frame.F.entries()
    mixed = gj.mixed.entries()
    blades = []
    for mask, cj in field_jets(field, point, order + 1).items():
        subs = []
        for pos, jm in enumerate(bl.indices_of(mask)):
            targets = [(l, res) for l in range(n)
                       if (res := bl.substitute(mask, pos, l)) is not None]
            subs.append((jm, targets))
        blades.append((mask, cj, [cj.partial(k) for k in range(n)], subs))
    outs = []
    for i in dirs:
        out: dict = {}
        for mask, cj, partials, subs in blades:
            d = 0.0
            for k in range(n):
                d = d + F[i][k] * partials[k]
            bl.add_into(out, {mask: d})
            for jm, targets in subs:
                row = mixed[i][jm]
                for l, (sign, new_mask) in targets:
                    term = cj * row[l]
                    if sign < 0:
                        term = -term
                    bl.add_into(out, {new_mask: term})
        outs.append(bl.prune(out))
    return outs


def mdd_along_basis(spec, i: int, field) -> DerivedField:
    """D_{e_i} field as a new field (budget drops by one)."""
    spec = _as_spec(spec)
    _check_operand(spec, field)
    if not 0 <= i < spec.n:
        raise FrameMismatch(f"basis direction {i} out of range for n={spec.n}")

    def fn(point, order):
        return _mdd_basis_jets(spec, (i,), field, point, order)[0]

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
    out: dict = {}
    if dirs:
        for i, di in zip(dirs, _mdd_basis_jets(spec, dirs, field, point, 0)):
            bl.add_into(out, di, float(a[i]))
    return Multivector(n, {m: value_of(c) for m, c in out.items()})


def _interior(i: int, mv: dict) -> dict:
    """e^i . mv: drop index i from each blade holding it, signed by the
    number of indices below it (e^i . e_j = delta^i_j)."""
    bit = 1 << i
    below = bit - 1
    return {m ^ bit: -c if (m & below).bit_count() & 1 else c
            for m, c in mv.items() if m & bit}


def _contract_field(spec, field, combine: str) -> DerivedField:
    """Sum over i of e^i (op) D_{e_i} field, op in {gp, dot, wedge}."""
    spec = _as_spec(spec)
    _check_operand(spec, field)
    n = spec.n

    def fn(point, order):
        ginv = gamma_jets(spec, point, order).frame.gram_inv.entries()
        out: dict = {}
        for i, di in enumerate(_mdd_basis_jets(spec, range(n), field,
                                               point, order)):
            if not di:
                continue
            if combine != "wedge":
                bl.add_into(out, _interior(i, di))
            if combine != "dot":
                recip = {1 << l: ginv[i][l] for l in range(n)}
                bl.add_into(out, bl.wedge_generic(recip, di))
        return bl.prune(out)

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
        return {top: float(chart.orientation) / norm}

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
        comps = field_jets(field, point, order)
        norm = apply_function("sqrt", apply_function("abs", fj.det_gram))
        s = _pseudoscalar_square_sign(n, fj.det_gram)
        inv = {top: (float(chart.orientation) * s) / norm}
        return bl.prune(bl.gp_generic(comps, inv, fj.gram, n))

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
        for i, comps in enumerate(_mdd_basis_jets(spec, range(n), dj,
                                                  point, 0)):
            dd[i, j] = {m: value_of(c) for m, c in comps.items()}

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
        out = dict(field_jets(a, point, order))
        return bl.add_into(out, field_jets(b, point, order))

    return DerivedField(a.frame, min(a.budget, b.budget), fn)


def product_field(chart: Chart, frame: str, a, b, combine: str = "gp") -> DerivedField:
    """Pointwise product field A op B, op in {gp, dot, wedge}."""
    if a.frame != frame or b.frame != frame:
        raise FrameMismatch("product operands must live in the stated frame")
    n = chart.n

    def fn(point, order):
        fj = frame_jets(chart, frame, point, order)
        ca = field_jets(a, point, order)
        cb = field_jets(b, point, order)
        if combine == "gp":
            return bl.prune(bl.gp_generic(ca, cb, fj.gram, n))
        if combine == "dot":
            return bl.prune(bl.dot_generic(ca, cb, fj.gram, n))
        return bl.prune(bl.wedge_generic(ca, cb))

    return DerivedField(frame, min(a.budget, b.budget), fn)


def grade_field(field, k: int) -> DerivedField:
    """Grade-k part of a field."""

    def fn(point, order):
        return bl.grade_select(field_jets(field, point, order), k)

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
        return bl.outermorphism(M, field_jets(field, point, order))

    return DerivedField(dst_frame, field.budget, fn)

