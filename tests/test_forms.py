"""Coordinate differential forms and the multivector correspondence."""

import numpy as np
import pytest

from gcalc import blades as bl
from gcalc.errors import DimMismatch, FrameMismatch, JetBudgetExhausted
from gcalc.forms import (FormField, form_add, form_d, form_eval, form_wedge,
                         hat_map, unhat)
from gcalc.manifest import builtin, builtin_names
from gcalc.manifold import MultivectorField, eval_frame, sample_point
from gcalc.mdd import (eval_field, ext_d_field, field_jets, product_field,
                       reexpress_field)

SPHERE = builtin("sphere2").chart
POLAR = builtin("polar2").chart
FLAT2 = builtin("euclid2").chart


def assert_forms_close(got: dict, want: dict, tol=1e-12):
    for mask in set(got) | set(want):
        assert got.get(mask, 0.0) == pytest.approx(want.get(mask, 0.0),
                                                   abs=tol)


class TestExteriorDerivative:
    def test_x_dy(self):
        w = FormField.parse(FLAT2, 1, {"2": "x"})
        dw = form_d(w)
        assert form_eval(dw, (0.7, -0.3)) == {3: 1.0}

    def test_scalar_gives_gradient_one_form(self):
        w = FormField.parse(POLAR, 0, {"": "r^2 * sin(theta)"})
        point = (1.2, 0.5)
        got = form_eval(form_d(w), point)
        r, t = point
        assert_forms_close(got, {1: 2 * r * np.sin(t), 2: r * r * np.cos(t)})

    @pytest.mark.parametrize("chart,comps,degree", [
        (POLAR, {"1": "r*theta^2", "2": "cos(r*theta)"}, 1),
        (SPHERE, {"1": "sin(theta)*phi", "2": "theta^3"}, 1),
        (SPHERE, {"": "exp(theta) * phi"}, 0),
    ])
    def test_d_squared_is_zero(self, chart, comps, degree):
        w = FormField.parse(chart, degree, comps)
        point = (1.1, 0.4)
        got = form_eval(form_d(form_d(w)), point)
        for c in got.values():
            assert abs(c) < 1e-12

    def test_antisymmetrization_collects_ascending_keys(self):
        w = FormField.parse(POLAR, 1, {"1": "0", "2": "r"})
        got = form_eval(form_d(w), (2.0, 0.3))
        # d(r dtheta) = dr ^ dtheta exactly once
        assert got == {3: 1.0}

    def test_top_degree_has_no_derivative(self):
        w = FormField.parse(POLAR, 2, {"1,2": "r*theta"})
        assert form_eval(form_d(w), (1.0, 1.0)) == {}


class TestValidation:
    def test_wrong_grade_key_rejected(self):
        with pytest.raises(DimMismatch):
            FormField.parse(FLAT2, 1, {"1,2": "1"})

    def test_out_of_range_key_rejected(self):
        with pytest.raises(DimMismatch):
            FormField.parse(FLAT2, 1, {"3": "1"})

    def test_mixed_chart_wedge_rejected(self):
        a = FormField.parse(FLAT2, 1, {"1": "x"})
        b = FormField.parse(POLAR, 1, {"1": "r"})
        with pytest.raises(FrameMismatch):
            form_wedge(a, b)

    def test_mismatched_degrees_do_not_add(self):
        a = FormField.parse(FLAT2, 1, {"1": "x"})
        b = FormField.parse(FLAT2, 2, {"1,2": "y"})
        with pytest.raises(DimMismatch):
            form_add(a, b)

    def test_budget_runs_out_at_third_derivative(self):
        w = FormField.parse(POLAR, 0, {"": "r^3 * theta"})
        ddw = form_d(form_d(w))
        form_eval(ddw, (1.0, 0.5))  # two derivatives fit
        dddw = form_d(ddw)          # builds; the order limit is met when evaluated
        with pytest.raises(JetBudgetExhausted):
            form_eval(dddw, (1.0, 0.5))


class TestHatMap:
    def test_degree_is_the_grade_of_a_pure_field(self):
        """The hat of a pure-grade field has that degree, reexpressed or not,
        so it adds to forms of that degree; any other field gives an unknown
        degree (None), which form_d and form_wedge keep."""
        r, theta = point = (1.1, 0.6)
        v = MultivectorField.vector(POLAR, ["r", "theta"])
        one_form = FormField.parse(POLAR, 1, {"1": "r"})
        total = form_add(hat_map(POLAR, v), one_form)
        assert total.degree == 1
        # e_i = g_ik dx^k with g = diag(1, r^2)
        assert_forms_close(form_eval(total, point), {1: 2 * r, 2: r * r * theta})
        assert form_d(hat_map(POLAR, v)).degree == 2
        assert form_wedge(hat_map(POLAR, v), one_form).degree == 2
        skew = MultivectorField.vector(POLAR, ["r", "theta"], "skew")
        assert hat_map(POLAR, skew).degree == 1
        assert hat_map(POLAR, MultivectorField.parse(POLAR, {"1,2": "r"})).degree == 2

        mixed = hat_map(POLAR, MultivectorField.parse(POLAR, {"": "1", "1": "r"}))
        derived = hat_map(POLAR, ext_d_field(POLAR, "coord", v))
        for form in (mixed, derived):
            assert form.degree is None
            assert form_d(form).degree is None
            assert form_wedge(form, one_form).degree is None
        two_form = FormField.parse(POLAR, 2, {"1,2": "theta"})
        assert form_add(mixed, two_form).degree is None
        assert_forms_close(form_eval(form_add(mixed, two_form), point),
                           {0: 1.0, 1: r, 3: theta})

    def test_scalar_passes_through(self):
        one = MultivectorField.scalar(FLAT2, "1")
        assert form_eval(hat_map(FLAT2, one), (0.3, 0.4)) == {0: 1.0}

    def test_euclidean_blades_map_to_form_basis(self):
        A = MultivectorField.parse(FLAT2, {"1,2": "1"})
        assert form_eval(hat_map(FLAT2, A), (0.1, 0.2)) == {3: 1.0}

    def test_gradient_basis_blade_maps_to_form_basis(self):
        """dx^1 ^ dx^2 expands to det(g^{-1}) e_1 ^ e_2 in the coordinate
        frame; hat must send it to the unit d-hat-x^1 ^ d-hat-x^2."""
        point = (1.3, 0.8)
        frame_at = eval_frame(POLAR, "coord", point)
        det_inv = float(np.linalg.det(frame_at.gram_inv.value))
        A = MultivectorField("coord",
                             {3: POLAR.parse(f"({det_inv!r})")})
        got = form_eval(hat_map(POLAR, A), point)
        assert_forms_close(got, {3: 1.0}, tol=1e-12)

    def test_round_trip_on_random_fields(self):
        rng = np.random.default_rng(3)
        polys = ["r*theta", "sin(theta)", "r^2", "1 + r", "theta^2"]
        comps = {"": str(rng.choice(polys)), "1": str(rng.choice(polys)),
                 "2": str(rng.choice(polys)), "1,2": str(rng.choice(polys))}
        A = MultivectorField.parse(POLAR, comps)
        back = unhat(POLAR, hat_map(POLAR, A))
        for _ in range(5):
            point = (rng.uniform(0.2, 2.4), rng.uniform(-2.9, 2.9))
            diff = eval_field(back, point) - eval_field(A, point)
            assert diff.norm_inf() < 1e-12

    def test_unhat_inverts_hat_to_second_order(self):
        """unhat(hat(A)) = A in value, gradient and Hessian on every builtin
        chart and frame (fields off the coordinate frame are re-expressed
        into it by hat, so they are compared there)."""
        rng = np.random.default_rng(13)
        for name in builtin_names():
            chart = builtin(name).chart
            x = chart.coords[0]
            A = MultivectorField.parse(chart, {
                bl.key_of(m): f"{rng.uniform(-1, 1)!r} + {x}^2"
                for m in range(1 << chart.n)})
            point = sample_point(chart, rng)
            for frame in chart.frames:
                field = A if frame == "coord" else \
                    reexpress_field(chart, "coord", frame, A)
                back = field_jets(unhat(chart, hat_map(chart, field)), point, 2)
                want = field_jets(A, point, 2)
                for got_c, want_c in zip(back.coeffs, want.coeffs):
                    assert np.max(np.abs(got_c - want_c)) < 1e-12

    def test_round_trip_starting_from_a_form(self):
        w = FormField.parse(SPHERE, 1, {"1": "theta*phi", "2": "sin(theta)"})
        back = hat_map(SPHERE, unhat(SPHERE, w))
        point = (0.9, 0.6)
        assert_forms_close(form_eval(back, point), form_eval(w, point))


class TestEquivalence:
    """The correspondence A -> hat(A) respects sums, wedges and d."""

    @pytest.mark.parametrize("chart,point", [(POLAR, (1.4, 0.6)),
                                             (SPHERE, (0.8, 0.9))])
    def test_linear(self, chart, point):
        c = chart.coords
        A = MultivectorField.parse(chart, {"1": f"{c[0]}*{c[1]}",
                                           "1,2": f"sin({c[0]})"})
        B = MultivectorField.parse(chart, {"1": f"{c[1]}^2",
                                           "1,2": f"{c[0]}"})
        combo = MultivectorField(
            "coord",
            {m: 0.3 * A.components.get(m, chart.parse("0"))
             + 1.7 * B.components.get(m, chart.parse("0"))
             for m in set(A.components) | set(B.components)})
        lhs = form_eval(hat_map(chart, combo), point)
        rhs_form = form_add(hat_map(chart, A), hat_map(chart, B), 0.3, 1.7)
        assert_forms_close(lhs, form_eval(rhs_form, point), tol=1e-9)

    @pytest.mark.parametrize("chart,point", [(POLAR, (1.1, -0.4)),
                                             (SPHERE, (1.2, 0.5))])
    def test_wedge(self, chart, point):
        c = chart.coords
        A = MultivectorField.parse(chart, {"1": f"{c[0]}^2", "2": f"{c[1]}"})
        B = MultivectorField.parse(chart, {"1": f"sin({c[1]})", "2": "2"})
        AB = product_field(chart, "coord", A, B, "wedge")
        lhs = form_eval(hat_map(chart, AB), point)
        rhs = form_wedge(hat_map(chart, A), hat_map(chart, B))
        assert_forms_close(lhs, form_eval(rhs, point), tol=1e-9)

    @pytest.mark.parametrize("chart,point", [(POLAR, (0.9, 0.7)),
                                             (SPHERE, (0.7, -0.8))])
    def test_exterior_derivative(self, chart, point):
        c = chart.coords
        A = MultivectorField.parse(chart, {"": f"{c[0]}*{c[1]}",
                                           "1": f"{c[1]}^2",
                                           "2": f"{c[0]}*sin({c[1]})"})
        lhs = form_eval(hat_map(chart, ext_d_field(chart, "coord", A)), point)
        rhs = form_eval(form_d(hat_map(chart, A)), point)
        assert_forms_close(lhs, rhs, tol=1e-9)

    def test_exterior_derivative_from_noncoordinate_frame(self):
        """hat re-expresses other frames before transferring components."""
        point = (0.9, 0.6)
        A_c = MultivectorField.parse(SPHERE, {"1": "theta", "2": "phi^2"})
        from gcalc.mdd import reexpress_field
        A_o = reexpress_field(SPHERE, "coord", "ortho", A_c)
        lhs = form_eval(hat_map(SPHERE, A_o), point)
        rhs = form_eval(hat_map(SPHERE, A_c), point)
        assert_forms_close(lhs, rhs, tol=1e-10)
