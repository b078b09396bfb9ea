"""Differential forms over the coordinate form basis.

Forms are kept deliberately separate from the multivector operators: their
exterior derivative is the bare antisymmetrized coordinate partial, with no
metric anywhere.  That makes this module an independent oracle for the
multivector exterior derivative, connected to it by the hat map, which
re-expresses a multivector field in the gradient (dx) basis and reads the
components off as form components.

A form is a degree and a field over the dx blades: its components at a
point are the (2^n,) blade-axis jet of :func:`gcalc.mdd.field_jets`, like
any field's.  The field's frame is named "dx", which no builtin chart has,
so the multivector operators refuse it.  Only :func:`form_wedge` reads the
rows as a blade map, for :func:`gcalc.blades.wedge_generic`.

:func:`form_d` asks its operand for one order more, so a third one on a form
of expressions raises :class:`gcalc.errors.JetBudgetExhausted` when evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import blades as bl
from .errors import DimMismatch, FrameMismatch
from .manifold import Chart, MultivectorField, frame_jets
from .mdd import DerivedField, field_jets, from_blade_map, reexpress_field


@dataclass(frozen=True)
class FormField:
    """A differential form: a field over the dx blades and its degree, None
    when unknown (the hat of a field that is not one pure-grade primitive
    field, and what is built from it)."""

    chart: Chart
    degree: int | None
    field: object  # MultivectorField or DerivedField over the "dx" frame

    @staticmethod
    def parse(chart: Chart, degree: int, components: dict) -> "FormField":
        field = MultivectorField.parse(chart, components, "dx")
        for mask in field.components:
            if bl.grade_of(mask) != degree:
                raise DimMismatch(
                    f"component {bl.key_of(mask)!r} does not have degree {degree}")
        return FormField(chart, degree, field)


def form_eval(form, point) -> dict:
    """The nonzero components of a form at a point, as a blade map."""
    point = tuple(float(p) for p in point)
    row = field_jets(form.field, point, 0).value.tolist()
    return {m: c for m, c in enumerate(row) if c != 0.0}


@lru_cache(maxsize=8)
def _d_table(n: int) -> tuple:
    """dx^k ^ on the blade axis as a read-only gather table (src, sign) of
    shape (n, 2^n) in the form of :func:`gcalc.blades.blade_tensors`, with
    the signs of :func:`gcalc.blades.wedge_blades`."""
    src = np.zeros((n, 1 << n), dtype=int)
    sign = np.zeros((n, 1 << n))
    for k in range(n):
        for m in range(1 << n):
            w = bl.wedge_blades(1 << k, m)
            if w is not None:
                sign[k, w[1]], src[k, w[1]] = w[0], m
    for t in (src, sign):
        t.setflags(write=False)
    return src, sign


def form_d(form) -> FormField:
    """Exterior derivative: sum_k dx^k ^ (d component / d x^k), metric-free."""
    table = _d_table(form.chart.n)

    def fn(point, order):
        partials = field_jets(form.field, point, order + 1).partials()
        return bl.apply_blades(table, partials.transpose(1, 0), summed=True)

    degree = None if form.degree is None else form.degree + 1
    return FormField(form.chart, degree, DerivedField("dx", fn))


def form_wedge(a, b) -> FormField:
    """Wedge of two forms by the blade shuffle rules."""
    if a.chart is not b.chart:
        raise FrameMismatch("form wedge requires forms on the same chart")

    def fn(point, order):
        ca, cb = (field_jets(f.field, point, order) for f in (a, b))
        out = bl.wedge_generic({m: ca.take(m) for m in bl.live_masks(ca)},
                               {m: cb.take(m) for m in bl.live_masks(cb)})
        return from_blade_map(out, a.chart.n, order)

    degree = None if None in (a.degree, b.degree) else a.degree + b.degree
    return FormField(a.chart, degree, DerivedField("dx", fn))


def form_add(a, b, ca=1.0, cb=1.0) -> FormField:
    """Linear combination ca*a + cb*b of two forms of equal degree; a form
    of unknown degree adds to any, and the sum's degree is then unknown."""
    known = a.degree is not None and b.degree is not None
    if known and a.degree != b.degree:
        raise DimMismatch("can only add forms of equal degree")

    def fn(point, order):
        return field_jets(a.field, point, order) * ca + field_jets(b.field, point, order) * cb

    return FormField(a.chart, a.degree if known else None, DerivedField("dx", fn))


def hat_map(chart: Chart, field) -> FormField:
    """Multivector field (coordinate frame) -> form, via the dx basis.

    The coordinate vectors expand over the gradient basis as e_i = g_ik dx^k,
    so the blades expand by the outermorphism of g, e_J = e_{j1} ^ ... ^ e_{jk},
    applied on the field's blade axis; the resulting dx components are the
    form components.  Fields over another frame are re-expressed first.  The
    form's degree is the grade of a pure-grade :class:`MultivectorField`,
    reexpressed or not, and unknown (None) for any other field: mixed grades
    are transferred grade by grade.
    """
    grades = ({m.bit_count() for m in field.components}
              if isinstance(field, MultivectorField) else ())
    degree = next(iter(grades)) if len(grades) == 1 else None
    if field.frame != "coord":
        field = reexpress_field(chart, field.frame, "coord", field)

    def fn(point, order):
        fj = frame_jets(chart, "coord", point, order)
        return bl.outermorphism(fj.g_coord, field_jets(field, point, order))

    return FormField(chart, degree, DerivedField("dx", fn))


def unhat(chart: Chart, form) -> DerivedField:
    """Form -> multivector field over the coordinate frame (inverse of hat):
    dx^i = g^{ik} e_k, applied by the outermorphism of g^{-1}."""

    def fn(point, order):
        fj = frame_jets(chart, "coord", point, order)
        return bl.outermorphism(fj.gram_inv, field_jets(form.field, point, order))

    return DerivedField("coord", fn)
