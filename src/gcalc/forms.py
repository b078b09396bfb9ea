"""Differential forms over the coordinate form basis.

Forms are kept deliberately separate from the multivector machinery: their
exterior derivative is the bare antisymmetrized coordinate partial, with no
metric anywhere.  That makes this module an independent oracle for the
multivector exterior derivative, connected to it by the hat map, which
re-expresses a multivector field in the gradient (dx) basis and reads the
components off as form components.

Component maps use the same ascending-index bitmask keys as multivectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blades as bl
from . import expr as ex
from .errors import DimMismatch, FrameMismatch, JetBudgetExhausted
from .jets import value_of
from .manifold import Chart, frame_jets
from .mdd import (DerivedField, field_jets, from_blade_map, reexpress_field,
                  to_blade_map)


@dataclass(frozen=True)
class FormField:
    """A differential form with expression components over the dx basis."""

    chart: Chart
    degree: int
    components: dict  # mask -> Expr, all masks of the stated degree

    def __post_init__(self):
        for mask in self.components:
            if bl.grade_of(mask) != self.degree:
                raise DimMismatch(
                    f"component {bl.key_of(mask)!r} does not have degree "
                    f"{self.degree}")
            if mask >> self.chart.n:
                raise DimMismatch(f"component {bl.key_of(mask)!r} exceeds "
                                  f"dimension {self.chart.n}")

    @property
    def budget(self) -> int:
        return 2

    @staticmethod
    def parse(chart: Chart, degree: int, components: dict) -> "FormField":
        comps = {}
        for key, e in components.items():
            mask = bl.mask_from_key(key) if isinstance(key, str) else int(key)
            comps[mask] = chart.parse(e)
        return FormField(chart, degree, comps)


@dataclass(frozen=True)
class DerivedForm:
    chart: Chart
    degree: int
    budget: int
    fn: object


def form_jets(form, point, order: int) -> dict:
    if order > form.budget:
        raise JetBudgetExhausted(
            f"form supports jets to order {form.budget}, requested {order}")
    if isinstance(form, FormField):
        return {mask: ex.eval_jet(e, point, order)
                for mask, e in form.components.items()}
    return form.fn(point, order)


def form_eval(form, point) -> dict:
    point = tuple(float(p) for p in point)
    return {m: value_of(c) for m, c in form_jets(form, point, order=0).items()}


def form_d(form):
    """Exterior derivative: sum_i dx^i ^ (d component / d x^i), metric-free."""
    if form.budget < 1:
        raise JetBudgetExhausted("form has no derivative budget left")
    n = form.chart.n

    def fn(point, order):
        comps = form_jets(form, point, order + 1)
        out: dict = {}
        for mask, cj in comps.items():
            for i in range(n):
                res = bl.wedge_blades(1 << i, mask)
                if res is None:
                    continue
                sign, new_mask = res
                term = cj.partial(i)
                if sign < 0:
                    term = -term
                bl.add_into(out, {new_mask: term})
        return bl.prune(out)

    return DerivedForm(form.chart, form.degree + 1, form.budget - 1, fn)


def form_wedge(a, b):
    """Wedge of two forms by the blade shuffle rules."""
    if a.chart is not b.chart:
        raise FrameMismatch("form wedge requires forms on the same chart")

    def fn(point, order):
        ca = form_jets(a, point, order)
        cb = form_jets(b, point, order)
        return bl.prune(bl.wedge_generic(ca, cb))

    return DerivedForm(a.chart, a.degree + b.degree,
                       min(a.budget, b.budget), fn)


def form_add(a, b, ca=1.0, cb=1.0):
    """Linear combination ca*a + cb*b of two forms of equal degree."""
    if a.degree != b.degree:
        raise DimMismatch("can only add forms of equal degree")

    def fn(point, order):
        out = bl.add_into({}, form_jets(a, point, order), ca)
        return bl.add_into(out, form_jets(b, point, order), cb)

    return DerivedForm(a.chart, a.degree, min(a.budget, b.budget), fn)


def hat_map(chart: Chart, field):
    """Multivector field (coordinate frame) -> form, via the dx basis.

    The coordinate vectors expand over the gradient basis as e_i = g_ik dx^k,
    so the blades expand by the outermorphism, e_J = e_{j1} ^ ... ^ e_{jk};
    the resulting dx components are the form components.  Fields over
    another frame are re-expressed first.
    """
    if field.frame != "coord":
        field = reexpress_field(chart, field.frame, "coord", field)

    def fn(point, order):
        fj = frame_jets(chart, "coord", point, order)
        return bl.outermorphism(fj.g_coord,
                                to_blade_map(field_jets(field, point, order)))

    # mixed-grade fields are transferred grade by grade; degree is only
    # meaningful when the input is pure, so record the top populated grade
    return DerivedForm(chart, -1, field.budget, fn)


def unhat(chart: Chart, form) -> DerivedField:
    """Form -> multivector field over the coordinate frame (inverse of hat)."""

    def fn(point, order):
        fj = frame_jets(chart, "coord", point, order)
        return from_blade_map(bl.outermorphism(fj.gram_inv,
                                               form_jets(form, point, order)),
                              chart.n, order)

    return DerivedField("coord", form.budget, fn)
