"""Tensors with multivector slots, tensor fields, and their derivatives.

A tensor field of signature (k1, ..., kN : k0) stores scalar expression
components indexed by one blade per input slot plus one output blade,

    T(e_{J1}, ..., e_{JN}) = T_{J1...JN J0} e^{J0},

with the output expanded over the reciprocal wedge basis.  The tensor
derivative follows the chain rule

    (DT)(a, A, ..., B) = D_a(T(A, ..., B)) - T(D_a A, ..., B) - ...

which in grade-1 slots reduces to the familiar component formula

    D_i T_{jk} = d_i T_{jk} - (Gamma_ijm g^{ml}) T_{lk} - (Gamma_ikm g^{ml}) T_{jl}.

The hat conjugate of a grade-k multivector is the k-form-like tensor
hat(B)(a_1, ..., a_k) = reverse(B) . (a_1 ^ ... ^ a_k); breve(B) takes one
grade-k slot instead, breve(B)(A) = B . <A>_k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import blades as bl
from . import expr as ex
from .algebra import Multivector
from .connection import ConnSpec
from .errors import (FrameMismatch, GradeMismatch, MixedGrade,
                     NonScalarOutput, SignatureMismatch, SlotGradeError)
from .manifold import Chart, FrameAt, MultivectorField, eval_frame, frame_jets
from .mdd import (DerivedField, eval_field, field_jets, from_blade_map, mdd,
                  to_blade_map)


@dataclass(frozen=True)
class TensorSignature:
    inputs: tuple
    output: int = 0

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(int(k) for k in self.inputs))
        for k in self.inputs + (self.output,):
            if k < 0:
                raise SlotGradeError("tensor grades must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.inputs)


@dataclass(eq=False)
class TensorField:
    """Expression components of a tensor field over a named frame."""

    chart: Chart
    frame: str
    signature: TensorSignature
    components: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        grades = self.signature.inputs + (self.signature.output,)
        comps = {}
        for key, e in self.components.items():
            key = tuple(int(m) for m in key)
            if len(key) != len(grades):
                raise SlotGradeError(
                    f"component key {key} must list {len(grades)} blades")
            for mask, k in zip(key, grades):
                if bl.grade_of(mask) != k:
                    raise SlotGradeError(
                        f"blade {bl.key_of(mask)!r} in key {key} is not grade {k}")
            comps[key] = self.chart.parse(e) if isinstance(e, str) else ex.as_expr(e)
        self.components = comps

    @property
    def n(self) -> int:
        return self.chart.n


def _pure_grade_comps(arg, k: int, n: int) -> dict:
    """Frame components of a pure grade-k argument (the zero map is fine)."""
    comps = arg.coeffs if isinstance(arg, Multivector) else dict(arg)
    for mask in comps:
        if bl.grade_of(mask) != k:
            raise GradeMismatch(
                f"argument has a grade-{bl.grade_of(mask)} part in a grade-{k} slot")
    return comps


def tensor_eval(T: TensorField, args, point) -> Multivector:
    """Multilinear evaluation on pure-grade multivector arguments."""
    point = tuple(float(p) for p in point)
    sig = T.signature
    if len(args) != sig.rank:
        raise SlotGradeError(f"tensor takes {sig.rank} arguments, got {len(args)}")
    arg_comps = [_pure_grade_comps(a, k, T.n)
                 for a, k in zip(args, sig.inputs)]
    out_coeff: dict = {}
    for key, e in T.components.items():
        prod = None
        for comps, mask in zip(arg_comps, key[:-1]):
            c = comps.get(mask, 0.0)
            if c == 0.0:
                prod = None
                break
            prod = c if prod is None else prod * c
        if prod is None:
            continue
        val = ex.eval_value(e, point) * prod
        out_coeff[key[-1]] = out_coeff.get(key[-1], 0.0) + val

    frame_at = eval_frame(T.chart, T.frame, point)
    out = bl.outermorphism(frame_at.gram_inv, out_coeff)
    return Multivector(T.n, bl.prune(out, 0.0))


def tensor_output_field(T: TensorField, arg_fields) -> DerivedField:
    """T applied to argument fields, as a differentiable field."""
    sig = T.signature
    if len(arg_fields) != sig.rank:
        raise SlotGradeError(f"tensor takes {sig.rank} arguments")
    for f in arg_fields:
        if f.frame != T.frame:
            raise FrameMismatch("argument fields must share the tensor's frame")
    budget = min([2] + [f.budget for f in arg_fields])

    def fn(point, order):
        fj = frame_jets(T.chart, T.frame, point, order)
        jets = [to_blade_map(field_jets(f, point, order)) for f in arg_fields]
        for comps, k in zip(jets, sig.inputs):
            for mask in comps:
                if bl.grade_of(mask) != k:
                    raise GradeMismatch(
                        f"argument field has grade-{bl.grade_of(mask)} part in "
                        f"a grade-{k} slot")
        out_coeff: dict = {}
        for key, e in T.components.items():
            prod = ex.eval_jet(e, point, order)
            missing = False
            for comps, mask in zip(jets, key[:-1]):
                c = comps.get(mask)
                if c is None:
                    missing = True
                    break
                prod = prod * c
            if missing:
                continue
            cur = out_coeff.get(key[-1])
            out_coeff[key[-1]] = prod if cur is None else cur + prod
        return from_blade_map(bl.outermorphism(fj.gram_inv, out_coeff), T.n,
                              order)

    return DerivedField(T.frame, budget, fn)


def tensor_add(T: TensorField, S: TensorField) -> TensorField:
    if T.signature != S.signature:
        raise SignatureMismatch("can only add tensors of equal signature")
    if T.chart is not S.chart or T.frame != S.frame:
        raise SignatureMismatch("can only add tensors over the same frame")
    comps = dict(T.components)
    for key, e in S.components.items():
        comps[key] = comps[key] + e if key in comps else e
    return TensorField(T.chart, T.frame, T.signature, comps)


def tensor_scale(T: TensorField, c: float) -> TensorField:
    comps = {key: ex.Num(float(c)) * e for key, e in T.components.items()}
    return TensorField(T.chart, T.frame, T.signature, comps)


def tensor_product(T: TensorField, S: TensorField) -> TensorField:
    """(T (x) S)(A..., C...) = T(A...) S(C...); scalar outputs only."""
    if T.signature.output != 0 or S.signature.output != 0:
        raise NonScalarOutput("tensor product requires scalar-output tensors")
    if T.chart is not S.chart or T.frame != S.frame:
        raise SignatureMismatch("tensor product requires a common frame")
    sig = TensorSignature(T.signature.inputs + S.signature.inputs, 0)
    comps = {}
    for kt, et in T.components.items():
        for ks, es in S.components.items():
            comps[kt[:-1] + ks[:-1] + (0,)] = et * es
    return TensorField(T.chart, T.frame, sig, comps)


def contract(T: TensorField, slot_p: int, slot_q: int, frame_at: FrameAt) -> dict:
    """Sum_i T(..., e_i, ..., e^i, ...) evaluated at frame_at's point.

    Returns the contracted components as a map from (remaining slot blades...,
    output blade) to float.
    """
    sig = T.signature
    if slot_p == slot_q:
        raise SlotGradeError("contraction needs two distinct slots")
    for s in (slot_p, slot_q):
        if not 0 <= s < sig.rank or sig.inputs[s] != 1:
            raise SlotGradeError("contraction slots must exist and have grade 1")
    n = T.n
    ginv = frame_at.gram_inv
    point = frame_at.point
    out: dict = {}
    for key, e in T.components.items():
        i = bl.indices_of(key[slot_p])[0]
        j = bl.indices_of(key[slot_q])[0]
        w = ginv[i][j]
        if w == 0.0:
            continue
        rest = tuple(m for s, m in enumerate(key[:-1])
                     if s not in (slot_p, slot_q)) + (key[-1],)
        out[rest] = out.get(rest, 0.0) + w * ex.eval_value(e, point)
    return {k: v for k, v in out.items() if v != 0.0}


def tensor_derivative_chain(spec: ConnSpec, T: TensorField, a, arg_fields,
                            point) -> Multivector:
    """(DT)(a, args) = D_a(T(args)) - sum_s T(..., D_a arg_s, ...)."""
    point = tuple(float(p) for p in point)
    out_field = tensor_output_field(T, arg_fields)
    total = mdd(spec, a, out_field, point)
    for s, f in enumerate(arg_fields):
        da = mdd(spec, a, f, point)
        args = [da if r == s else eval_field(g, point)
                for r, g in enumerate(arg_fields)]
        total = total - tensor_eval(T, args, point)
    return total


def tensor_derivative_components(spec: ConnSpec, T: TensorField, point) -> np.ndarray:
    """D_i T_{j...} for all-grade-1-slot, scalar-output tensor fields.

    Shape (n,) * (rank + 1); first index is the derivative direction.
    """
    sig = T.signature
    if sig.output != 0 or any(k != 1 for k in sig.inputs):
        raise SlotGradeError("component formula needs grade-1 slots and "
                             "scalar output")
    from .connection import gamma_jets

    point = tuple(float(p) for p in point)
    n = T.n
    rank = sig.rank
    gj = gamma_jets(spec, point, 0)
    F = gj.frame.F.value.tolist()
    mixed = gj.mixed.value.tolist()

    comp_jets = {}
    for idx in itertools.product(range(n), repeat=rank):
        key = tuple(1 << j for j in idx) + (0,)
        e = T.components.get(key)
        comp_jets[idx] = ex.eval_jet(e, point, 1) if e is not None else None

    out = np.zeros((n,) * (rank + 1))
    for i in range(n):
        for idx in itertools.product(range(n), repeat=rank):
            cj = comp_jets[idx]
            val = 0.0
            if cj is not None:
                val = sum(F[i][k] * cj.grad[k] for k in range(n))
            for s in range(rank):
                for l in range(n):
                    sub = idx[:s] + (l,) + idx[s + 1:]
                    cl = comp_jets[sub]
                    if cl is None:
                        continue
                    val -= mixed[i][idx[s]][l] * cl.value
            out[(i,) + idx] = val
    return out


def frame_gram_exprs(chart: Chart, frame: str):
    """The frame Gram matrix as expressions, g_ij = F_i g F_j."""
    n = chart.n
    rows = chart.frame_rows(frame)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = None
            for l in range(n):
                for m in range(n):
                    term = rows[i][l] * chart.metric[l][m] * rows[j][m]
                    s = term if s is None else s + term
            row.append(s)
        out.append(row)
    return out


def metric_tensor_field(chart: Chart, frame: str = "coord") -> TensorField:
    """ghat(a, b) = a . b as a tensor field."""
    g = frame_gram_exprs(chart, frame)
    n = chart.n
    comps = {(1 << i, 1 << j, 0): g[i][j] for i in range(n) for j in range(n)}
    return TensorField(chart, frame, TensorSignature((1, 1), 0), comps)


def contorsion_tensor(chart: Chart, frame: str, chi) -> TensorField:
    """Q(e_i, e_j) = chi_ijk e^k as a tensor field of signature (1,1:1)."""
    from .connection import conn_spec

    spec = conn_spec(chart, frame, chi)
    comps: dict = {}
    for (i, j, k, e) in spec.chi:
        key = (1 << (i - 1), 1 << (j - 1), 1 << (k - 1))
        comps[key] = comps[key] + e if key in comps else e
    return TensorField(chart, frame, TensorSignature((1, 1), 1), comps)


def _field_pure_grade(field: MultivectorField) -> int:
    grades = {bl.grade_of(m) for m in field.components}
    if len(grades) > 1:
        raise MixedGrade("tensor conjugates need a pure-grade field")
    return grades.pop() if grades else 0


def tensor_conjugate(chart: Chart, frame: str, field: MultivectorField) -> TensorField:
    """hat(B)(a_1, ..., a_k) = reverse(B) . (a_1 ^ ... ^ a_k)."""
    if field.frame != frame:
        raise FrameMismatch("field must be expressed in the stated frame")
    k = _field_pure_grade(field)
    n = chart.n
    gram = frame_gram_exprs(chart, frame)

    rev = {}
    for mask, e in field.components.items():
        rev[mask] = -e if (k * (k - 1) // 2) & 1 else e

    comps: dict = {}
    for idx in itertools.product(range(n), repeat=k):
        blade = 0
        sign = 1
        ok = True
        for i in idx:
            res = bl.wedge_blades(blade, 1 << i)
            if res is None:
                ok = False
                break
            s, blade = res
            sign *= s
        if not ok:
            continue
        val = bl.dot_generic(rev, {blade: 1.0}, gram, n).get(0)
        if val is None:
            continue
        e = val if sign > 0 else -val
        comps[tuple(1 << i for i in idx) + (0,)] = e
    return TensorField(chart, frame, TensorSignature((1,) * k, 0), comps)


def tensor_conjugate_breve(chart: Chart, frame: str,
                           field: MultivectorField) -> TensorField:
    """breve(B)(A) = B . <A>_k, one grade-k slot."""
    if field.frame != frame:
        raise FrameMismatch("field must be expressed in the stated frame")
    k = _field_pure_grade(field)
    n = chart.n
    gram = frame_gram_exprs(chart, frame)
    comps: dict = {}
    for mask in (m for m in range(1 << n) if m.bit_count() == k):
        val = bl.dot_generic(dict(field.components), {mask: 1.0}, gram, n).get(0)
        if val is not None:
            comps[(mask, 0)] = val
    return TensorField(chart, frame, TensorSignature((k,), 0), comps)


def conjugate_derivative_check(spec: ConnSpec, field: MultivectorField, a,
                               point, rng=None, samples: int = 4) -> float:
    """Max deviation between D_a(hat B) and hat(D_a B) on random vectors."""
    point = tuple(float(p) for p in point)
    chart, frame = spec.chart, spec.frame
    k = _field_pure_grade(field)
    That = tensor_conjugate(chart, frame, field)
    n = chart.n
    rng = rng or np.random.default_rng(0)

    from .algebra import as_gram, dot as mv_dot, reverse as mv_reverse, wedge as mv_wedge

    frame_at = eval_frame(chart, frame, point)
    gram = as_gram(frame_at.gram)
    db = mdd(spec, a, field, point)
    worst = 0.0
    for _ in range(samples):
        vec_comps = [{1 << l: float(rng.uniform(-1, 1)) for l in range(n)}
                     for _ in range(k)]
        vecs = [Multivector(n, c) for c in vec_comps]
        arg_fields = [MultivectorField(frame, {m: ex.Num(c) for m, c in vc.items()})
                      for vc in vec_comps]
        lhs = tensor_derivative_chain(spec, That, a, arg_fields, point)
        wedge = Multivector.scalar(n, 1.0)
        for v in vecs:
            wedge = mv_wedge(wedge, v)
        rhs = mv_dot(mv_reverse(db), wedge, gram)
        dev = (lhs - rhs).norm_inf()
        worst = max(worst, dev)
    return worst


def change_of_frame_matrix(chart: Chart, frame_a: str, frame_b: str,
                           point) -> np.ndarray:
    """P[a, c] = e'_a . e^c for re-indexing tensor components between frames.

    Rows are frame_a vectors, columns reciprocal vectors of frame_b; slot
    components transform as T'_{ab...} = P[a, c] P[b, d] ... T_{cd...}.
    """
    point = tuple(float(p) for p in point)
    fa = eval_frame(chart, frame_a, point)
    fb = eval_frame(chart, frame_b, point)
    g = np.array([[ex.eval_value(chart.metric[i][j], point)
                   for j in range(chart.n)] for i in range(chart.n)])
    return fa.rows @ g @ fb.reciprocal.T
