"""Directional derivatives of multivector fields and the operators built
from them: gradient, divergence, curl, exterior derivative, codifferential."""

import numpy as np
import pytest

from gcalc import blades as bl
from gcalc import connection
from gcalc import expr as ex
from gcalc import mdd as md
from gcalc.algebra import (Multivector, as_gram, dot as mv_dot, dual,
                           wedge as mv_wedge)
from gcalc.connection import conn_spec, levi_civita
from gcalc.errors import FrameMismatch, JetBudgetExhausted, SingularGram
from gcalc.manifest import builtin, builtin_names, load_manifest
from gcalc.manifold import (Chart, MultivectorField, dirderiv_scalar,
                            eval_frame, frame_jets, sample_point)
from gcalc.mdd import (DerivedField, add_fields, codifferential,
                       codifferential_via_dual, curl, curl_field, divergence,
                       divergence_field, dual_field, eval_field, ext_d,
                       ext_d_field, field_jets, from_blade_map, grade_field,
                       gradient, gradient_field, mdd, mdd_along_basis,
                       product_field, reexpress_field, second_ops,
                       unit_pseudoscalar_field)
from test_curvature import CHART3

SPHERE = builtin("sphere2").chart
POLAR = builtin("polar2").chart
FLAT2 = builtin("euclid2").chart
FLAT3 = builtin("euclid3").chart
MINKOWSKI = builtin("minkowski4").chart
PARABOLOID = load_manifest({
    "name": "para",
    "coordinates": ["u", "v"],
    "metric": [["1 + 4*u^2", "4*u*v"], ["4*u*v", "1 + 4*v^2"]],
    "frames": {"tilted": [["1", "0"], ["1", "1"]]},
    "contorsion": [{"i": 1, "j": 1, "k": 2, "expr": "u"},
                   {"i": 1, "j": 2, "k": 1, "expr": "-u"}],
}).chart

CHI_SPHERE = (
    (1, 2, 1, "0.3*theta"), (1, 1, 2, "-0.3*theta"),
    (2, 2, 1, "0.4 + 0.1*phi"), (2, 1, 2, "-0.4 - 0.1*phi"),
)


def basis_direction(n, i):
    return [1.0 if k == i else 0.0 for k in range(n)]


def mixed_grade_field(chart, rng, frame="coord"):
    """Every blade of the chart, each a random product of sines of its
    coordinates, so no component derivative vanishes by accident."""
    comps = {}
    for mask in range(1 << chart.n):
        terms = [f"sin({rng.uniform(0.3, 1.2)!r}*{c} + {rng.uniform(-1, 1)!r})"
                 for c in chart.coords]
        comps[mask] = f"{rng.uniform(0.5, 2.0)!r}*" + "*".join(terms)
    return MultivectorField.parse(chart, comps, frame)


class TestConnectionTermSkip:
    """_mdd_basis_jets drops Gamma Lambda A where every Taylor coefficient of
    Gamma is zero; the term it drops adds only zeros."""

    @staticmethod
    def full_formula(monkeypatch):
        monkeypatch.setattr(md, "gamma_jets", lambda *a: connection.gamma_jets(*a)
                            ._replace(mixed_zero=False))

    @pytest.mark.parametrize("chart", [FLAT3, MINKOWSKI], ids=["euclid3", "minkowski4"])
    def test_skip_equals_full_formula(self, monkeypatch, chart):
        rng = np.random.default_rng(22)
        spec = levi_civita(chart, "coord")
        field = mixed_grade_field(chart, rng)
        points = [sample_point(chart, rng) for _ in range(3)]
        calls = [lambda p: md._mdd_basis_jets(spec, field, p, 1),
                 lambda p: md._mdd_basis_jets(spec, field, p, 0),
                 lambda p: md._mdd_basis_jets(spec, field, p, 1).take(1),
                 lambda p: field_jets(gradient_field(spec, field), p, 1),
                 lambda p: field_jets(curl_field(spec, curl_field(spec, field)), p, 0)]
        for p in points:
            assert connection.gamma_jets(spec, p, 0).mixed_zero
            assert connection.gamma_jets(spec, p, 1).mixed_zero
        fast = [[call(p) for call in calls] for p in points]
        self.full_formula(monkeypatch)
        full = [[call(p) for call in calls] for p in points]
        for a, b in zip(sum(fast, []), sum(full, [])):
            assert a.order == b.order
            for x, y in zip(a.coeffs, b.coeffs):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("spec", [
        levi_civita(POLAR, "coord"),
        conn_spec(FLAT3, "coord", [(1, 2, 3, "0.5*x"), (1, 3, 2, "-0.5*x")]),
    ], ids=["polar2", "euclid3_contorsion"])
    def test_lift_runs_where_gamma_is_not_zero(self, monkeypatch, spec):
        chart = spec.chart
        rng = np.random.default_rng(23)
        field = mixed_grade_field(chart, rng)
        point = sample_point(chart, rng)
        assert not connection.gamma_jets(spec, point, 0).mixed_zero
        lifts = []
        apply_blades = bl.apply_blades
        monkeypatch.setattr(bl, "apply_blades",
                            lambda *a, **k: lifts.append(1) or apply_blades(*a, **k))
        D = md._mdd_basis_jets(spec, field, point, 0)
        assert lifts
        F = connection.gamma_jets(spec, point, 0).frame.F.value
        derivs = np.einsum("ik,ak->ia", F, field_jets(field, point, 1).grad)
        assert np.max(np.abs(D.value - derivs)) > 1e-3


class TestDirectional:
    def test_sphere_basis_vector(self):
        # D_{e_theta} e_phi = cot(theta) e_phi, and cot(pi/4) = 1
        spec = levi_civita(SPHERE, "coord")
        e_phi = MultivectorField("coord", {2: ex.Num(1.0)})
        got = mdd(spec, [1.0, 0.0], e_phi, (np.pi / 4, 0.3))
        assert got.to_blade_map() == pytest.approx({"2": 1.0})

    def test_flat_chart_reduces_to_componentwise_derivative(self):
        spec = levi_civita(FLAT2, "coord")
        field = MultivectorField.parse(FLAT2, {"1": "x^2*y", "1,2": "y^3"})
        got = mdd(spec, [0.5, -2.0], field, (1.0, 2.0))
        # 0.5 * d/dx - 2 * d/dy applied to each component
        assert got[1] == pytest.approx(0.5 * 2 * 1.0 * 2.0 - 2.0 * 1.0)
        assert got[3] == pytest.approx(-2.0 * 3 * 4.0)

    def test_scalar_fields_need_no_connection(self):
        point = (0.9, 0.4)
        phi = MultivectorField.scalar(SPHERE, "theta^2 * sin(phi)")
        for chi in ((), CHI_SPHERE):
            spec = conn_spec(SPHERE, "coord", chi)
            a = [0.7, -0.4]
            got = mdd(spec, a, phi, point)[0]
            expect = dirderiv_scalar(SPHERE, "coord", point, a,
                                     SPHERE.parse("theta^2 * sin(phi)"))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_linearity_in_direction(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        field = MultivectorField.parse(SPHERE, {"1": "phi", "2": "theta",
                                                "1,2": "theta*phi"})
        point = (1.1, 0.6)
        d1 = mdd(spec, [1.0, 0.0], field, point)
        d2 = mdd(spec, [0.0, 1.0], field, point)
        mix = mdd(spec, [0.3, -1.7], field, point)
        assert (mix - (0.3 * d1 + -1.7 * d2)).norm_inf() < 1e-12

    def test_grade_preservation(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        point = (0.8, -0.2)
        for comps, k in [({"": "theta*phi"}, 0),
                         ({"1": "phi^2", "2": "theta"}, 1),
                         ({"1,2": "theta + phi"}, 2)]:
            field = MultivectorField.parse(SPHERE, comps)
            got = mdd(spec, [0.6, 0.8], field, point)
            for mask, c in got.coeffs.items():
                if abs(c) > 1e-10:
                    assert bin(mask).count("1") == k

    def test_frame_mismatch_rejected(self):
        spec = levi_civita(SPHERE, "coord")
        field = MultivectorField("ortho", {1: ex.Num(1.0)})
        with pytest.raises(FrameMismatch):
            mdd(spec, [1.0, 0.0], field, (0.8, 0.3))


def mdd_over_nonzero_weights(spec, a, field, point):
    """D_a field by the formula mdd used while it differentiated only along
    the directions a weights: those weights times those rows of D, so zero
    for a = 0."""
    dirs = [i for i in range(spec.n) if float(a[i]) != 0.0]
    weights = np.array([float(a[i]) for i in dirs])
    return weights @ md._mdd_basis_jets(spec, field, point, 0).value[dirs]


class TestDirectionIsContractionOfD:
    """mdd is a . D over all n rows of D.  Basis, dense and zero directions
    give the nonzero-weights formula bit for bit (up to the sign of zero); a
    sparse direction in 4-D sums its terms in another order, so it agrees to
    rounding."""

    SETUPS = [
        (conn_spec(SPHERE, "ortho", CHI_SPHERE),
         [[1.0, 0.0], [0.0, 1.0], [0.0, -1.3], [0.7, -0.4], [0.0, 0.0]]),
        (levi_civita(POLAR, "skew"),
         [[1.0, 0.0], [0.0, 1.0], [2.1, 0.0], [-0.6, 1.5], [0.0, 0.0]]),
        (levi_civita(MINKOWSKI, "coord"),
         [basis_direction(4, 2), [0.3, 0.0, -1.2, 0.0], [0.0, 0.8, 0.5, -1.1],
          [0.3, -0.8, 1.1, 0.45], [0.0] * 4]),
    ]

    @pytest.mark.parametrize("spec,directions", SETUPS,
                             ids=["sphere2_ortho_chi", "polar2_skew", "minkowski4"])
    def test_against_nonzero_weights(self, spec, directions):
        rng = np.random.default_rng(25)
        field = mixed_grade_field(spec.chart, rng, spec.frame)
        for point in [sample_point(spec.chart, rng) for _ in range(3)]:
            D = md._mdd_basis_jets(spec, field, point, 0).value
            for a in directions:
                got = mdd(spec, a, field, point).row
                want = mdd_over_nonzero_weights(spec, a, field, point)
                if np.count_nonzero(a) in (0, 1, spec.n):
                    assert np.array_equal(got, want)
                else:
                    bound = 4 * np.finfo(float).eps * (np.abs(a) @ np.abs(D))
                    assert np.all(np.abs(got - want) <= bound)

    def test_zero_direction_evaluates_the_point(self):
        spec = levi_civita(SPHERE, "coord")
        field = MultivectorField.scalar(SPHERE, "theta")
        assert mdd(spec, [0.0, 0.0], field, (0.9, 0.2)).norm_inf() == 0.0
        with pytest.raises(SingularGram):
            mdd(spec, [0.0, 0.0], field, (0.0, 0.2))


class TestLeibniz:
    """D_a is a derivation for the geometric, inner and outer products."""

    @pytest.mark.parametrize("combine", ["gp", "dot", "wedge"])
    @pytest.mark.parametrize("chi", [(), CHI_SPHERE])
    def test_product_rule(self, combine, chi):
        chart, frame = SPHERE, "coord"
        spec = conn_spec(chart, frame, chi)
        point = (0.9, 0.5)
        a = [0.4, -1.2]
        A = MultivectorField.parse(chart, {"": "phi", "1": "theta^2",
                                           "2": "sin(phi)"})
        B = MultivectorField.parse(chart, {"1": "cos(theta)", "1,2": "phi"})
        AB = product_field(chart, frame, A, B, combine)
        lhs = mdd(spec, a, AB, point)

        gram = as_gram(eval_frame(chart, frame, point).gram.value)
        dA = mdd(spec, a, A, point)
        dB = mdd(spec, a, B, point)
        Av = eval_field(A, point)
        Bv = eval_field(B, point)
        if combine == "gp":
            from gcalc.algebra import gp
            rhs = gp(dA, Bv, gram) + gp(Av, dB, gram)
        elif combine == "dot":
            rhs = mv_dot(dA, Bv, gram) + mv_dot(Av, dB, gram)
        else:
            rhs = mv_wedge(dA, Bv) + mv_wedge(Av, dB)
        assert (lhs - rhs).norm_inf() < 1e-9

    def test_metric_compatibility_of_scalar_product(self):
        """d/da of the scalar part of A~ B sees only D_a A and D_a B."""
        chart, frame = SPHERE, "coord"
        spec = conn_spec(chart, frame, CHI_SPHERE)
        point = (1.2, -0.4)
        a = [1.0, 0.7]
        A = MultivectorField.parse(chart, {"1": "theta", "2": "phi^2"})
        B = MultivectorField.parse(chart, {"1": "sin(phi)", "2": "cos(theta)"})

        AdotB = product_field(chart, frame, A, B, "dot")
        lhs = mdd(spec, a, AdotB, point)[0]

        gram = as_gram(eval_frame(chart, frame, point).gram.value)
        rhs = mv_dot(mdd(spec, a, A, point), eval_field(B, point), gram)[0] \
            + mv_dot(eval_field(A, point), mdd(spec, a, B, point), gram)[0]
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_pseudoscalar_is_parallel(self):
        for chart, frame, point in [(SPHERE, "coord", (0.7, 0.3)),
                                    (SPHERE, "ortho", (1.2, -0.5)),
                                    (POLAR, "skew", (1.5, 0.8))]:
            I = unit_pseudoscalar_field(chart, frame)
            spec = levi_civita(chart, frame)
            got = mdd(spec, [0.8, -0.6], I, point)
            assert got.norm_inf() < 1e-10


def _gram_route(spec, field, combine):
    """e^i (op) D_{e_i} field with e^i = g^{il} e_l multiplied through the
    jet-valued frame Gram, the metric-laden form of the contraction.  The
    product shares the gather tables of blade_tensors with the operators;
    TestProductKernel holds it to an eigh-diagonalised oracle."""
    n = spec.n

    def fn(point, order):
        fj = frame_jets(spec.chart, spec.frame, point, order)
        out = None
        for i in range(n):
            di = field_jets(mdd_along_basis(spec, i, field), point, order)
            recip = from_blade_map({1 << l: fj.gram_inv.take((i, l))
                                    for l in range(n)}, n, order)
            part = bl.product(fj.gram, recip, di, combine)
            out = part if out is None else out + part
        return out

    return DerivedField(spec.frame, fn)


class TestMetricFreeContraction:
    """e^i . e_j = delta^i_j lets the operators skip the frame Gram; they
    must agree with the Gram-based products they replace."""

    @pytest.mark.parametrize("chart,frame,comps,point", [
        (PARABOLOID, "tilted",
         {"": "u*v^2", "1": "u^2 - v", "2": "sin(u)*v", "1,2": "u*v + 1"},
         (0.3, -0.4)),
        (MINKOWSKI, "coord",
         {"": "t*x", "1": "x*y", "2": "t^2 - z", "3": "sin(y)", "4": "t*z",
          "1,2": "x*z", "2,4": "y^2", "1,2,3": "t + y"},
         (0.2, -0.3, 0.5, 0.7)),
    ])
    def test_operators_match_gram_route(self, chart, frame, comps, point):
        spec = conn_spec(chart, frame)
        field = MultivectorField.parse(chart, comps, frame)
        pairs = [
            (gradient_field(spec, field), _gram_route(spec, field, "gp")),
            (divergence_field(spec, field), _gram_route(spec, field, "dot")),
            (curl_field(spec, field), _gram_route(spec, field, "wedge")),
            (divergence_field(spec, curl_field(spec, field)),
             _gram_route(spec, _gram_route(spec, field, "wedge"), "dot")),
        ]
        for new, old in pairs:
            a, b = eval_field(new, point), eval_field(old, point)
            scale = max(1.0, a.norm_inf(), b.norm_inf())
            assert b.norm_inf() > 0.0
            assert (a - b).norm_inf() <= 1e-12 * scale


class TestOperandEvaluations:
    """Each operator evaluates its operand once per point, for all frame
    directions, so a stack of k operators evaluates its field k times."""

    @pytest.mark.parametrize("chart,comps,stack", [
        (MINKOWSKI, {"1": "x*y", "2": "t*z", "3": "sin(x)", "4": "y^2"},
         lambda spec, f: curl_field(spec, curl_field(spec, f))),
        (FLAT3, {"": "x*y*z + sin(x)"},
         lambda spec, f: divergence_field(spec, gradient_field(spec, f))),
    ], ids=["minkowski4-curl-curl", "euclid3-div-grad"])
    def test_field_jets_calls(self, monkeypatch, chart, comps, stack):
        import gcalc.mdd as md
        calls = []
        inner = md.field_jets

        def counting(field, point, order):
            calls.append(order)
            return inner(field, point, order)

        monkeypatch.setattr(md, "field_jets", counting)
        spec = levi_civita(chart, "coord")
        field = MultivectorField.parse(chart, comps)
        eval_field(stack(spec, field), (0.1, -0.2, 0.3, 0.4)[:chart.n])
        assert sorted(calls) == [0, 1, 2]


class TestGradient:
    def test_flat_scalar(self):
        spec = levi_civita(FLAT2, "coord")
        phi = MultivectorField.scalar(FLAT2, "x^2 + y^2")
        got = gradient(spec, phi, (1.0, 2.0))
        assert got.to_blade_map() == pytest.approx({"1": 2.0, "2": 4.0})

    def test_reciprocal_weights_on_curved_chart(self):
        # On the sphere, grad phi = d_theta phi e^theta + d_phi phi e^phi,
        # and e^phi = e_phi / sin(theta)^2.
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "phi")
        point = (np.pi / 3, 0.2)
        got = gradient(spec, phi, point)
        assert got[1] == pytest.approx(0.0, abs=1e-14)
        assert got[2] == pytest.approx(1.0 / np.sin(np.pi / 3) ** 2)

    def test_direction_dotted_into_gradient_is_directional(self):
        chart, frame = POLAR, "skew"
        spec = levi_civita(chart, frame)
        phi = MultivectorField.scalar(chart, "r^2 * cos(theta)", frame)
        point = (1.3, 0.6)
        a = [0.3, 0.9]
        grad = gradient(spec, phi, point)
        frame_at = eval_frame(chart, frame, point)
        avec = Multivector(2, {1: a[0], 2: a[1]})
        lhs = mv_dot(avec, grad, as_gram(frame_at.gram.value))[0]
        rhs = mdd(spec, a, phi, point)[0]
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_splits_into_divergence_plus_curl(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        field = MultivectorField.parse(SPHERE, {"1": "theta*phi", "2": "phi^2"})
        point = (0.9, 0.7)
        full = gradient(spec, field, point)
        split = divergence(spec, field, point) + curl(spec, field, point)
        assert (full - split).norm_inf() < 1e-12

    def test_frame_independence(self):
        """The same field seen from two frames has the same gradient."""
        point = (0.9, 0.4)
        field_c = MultivectorField.parse(SPHERE, {"1": "theta*phi",
                                                  "2": "sin(theta)"})
        field_o = reexpress_field(SPHERE, "coord", "ortho", field_c)
        g_c = gradient(levi_civita(SPHERE, "coord"), field_c, point)
        g_o = gradient(levi_civita(SPHERE, "ortho"), field_o, point)
        back = reexpress_field(SPHERE, "ortho", "coord",
                               MultivectorField("ortho",
                                                {m: ex.Num(c) for m, c
                                                 in g_o.coeffs.items()}))
        assert (eval_field(back, point) - g_c).norm_inf() < 1e-9


class TestExteriorAndCodifferential:
    def test_d_squared_vanishes(self):
        for chart, comps, point in [
                (POLAR, {"1": "r*theta", "2": "cos(r)"}, (1.1, 0.5)),
                (SPHERE, {"": "theta*phi^2"}, (0.8, 0.6)),
                (FLAT3, {"1": "y*z", "2": "x^2", "3": "x*y*z"}, (0.3, 0.7, 0.9))]:
            field = MultivectorField.parse(chart, comps)
            dd = ext_d(chart, "coord",
                       ext_d_field(chart, "coord", field), point)
            assert dd.norm_inf() < 1e-8

    def test_codifferential_squared_vanishes(self):
        spec = levi_civita(POLAR, "coord")
        field = MultivectorField.parse(POLAR, {"1,2": "r^2 * theta"})
        from gcalc.mdd import divergence_field
        dd = eval_field(divergence_field(spec, divergence_field(spec, field)),
                        (1.4, 0.3))
        assert dd.norm_inf() < 1e-8

    def test_graded_product_rule(self):
        """d(A ^ B) = dA ^ B + (-1)^j A ^ dB for a grade-j field A."""
        chart, frame = FLAT3, "coord"
        point = (0.4, 0.8, 1.2)
        A = MultivectorField.parse(chart, {"1": "y*z", "2": "x*x", "3": "y"})
        B = MultivectorField.parse(chart, {"1": "z", "2": "x*y", "3": "x+z"})
        AB = product_field(chart, frame, A, B, "wedge")
        lhs = ext_d(chart, frame, AB, point)
        dA = ext_d(chart, frame, A, point)
        dB = ext_d(chart, frame, B, point)
        rhs = mv_wedge(dA, eval_field(B, point)) \
            - mv_wedge(eval_field(A, point), dB)
        assert (lhs - rhs).norm_inf() < 1e-9

    def test_exterior_derivative_ignores_the_metric(self):
        """Transport a 1-form across two metrics on the same coordinates;
        d must not notice."""
        from gcalc.forms import FormField, form_eval, hat_map, unhat

        flat = Chart("flat_like_polar", ("r", "theta"),
                     [["1", "0"], ["0", "1"]], {},
                     domain=((0.1, 2.5), (-3.0, 3.0)))
        w = {"1": "r*theta", "2": "r^2"}
        point = (1.2, 0.7)
        results = []
        for chart in (POLAR, flat):
            form = FormField.parse(chart, 1, w)
            rebuilt = hat_map(chart, ext_d_field(chart, "coord",
                                                 unhat(chart, form)))
            results.append(form_eval(rebuilt, point))
        for mask in set(results[0]) | set(results[1]):
            assert results[0].get(mask, 0.0) == pytest.approx(
                results[1].get(mask, 0.0), abs=1e-10)

    def test_codifferential_matches_dual_route_up_to_sign(self):
        spec = levi_civita(FLAT3, "coord")
        field = MultivectorField.parse(FLAT3, {"1": "x*y", "2": "z^2", "3": "y"})
        point = (0.5, 0.7, 0.2)
        direct = codifferential(spec, field, point)
        sandwich = codifferential_via_dual(spec, field, point)
        assert (direct + sandwich).norm_inf() < 1e-10  # sign is -1 here

    def test_dual_of_one_is_inverse_pseudoscalar(self):
        one = MultivectorField.scalar(FLAT2, "1")
        got = eval_field(dual_field(FLAT2, "coord", one), (0.0, 0.0))
        # I^{-1} = -I in the euclidean plane
        assert got.to_blade_map() == pytest.approx({"1,2": -1.0})


def _builtin_frames():
    """Every builtin chart and frame, plus polar2 with reversed orientation."""
    out = []
    for name in builtin_names():
        chart = builtin(name).chart
        out += [(chart, frame) for frame in chart.frames]
    flipped = Chart("polar2_flipped", POLAR.coords, POLAR.metric,
                    dict(POLAR.frames), orientation=-1, domain=POLAR.domain)
    return out + [(flipped, "skew")]


def _random_field(rng, chart, frame, grades):
    x, y = chart.coords[0], chart.coords[-1]
    return MultivectorField(frame, {
        m: chart.parse(f"{rng.uniform(-1, 1)!r} + {rng.uniform(-1, 1)!r}*{x}*{y}"
                       f" + sin({y})")
        for m in range(1 << chart.n) if m.bit_count() in grades})


class TestDual:
    def test_matches_algebra_dual_in_every_grade(self):
        """dual_field against algebra.dual, which multiplies by the inverse
        pseudoscalar through the product table of the frame Gram."""
        rng = np.random.default_rng(29)
        for chart, frame in _builtin_frames():
            for k in range(chart.n + 1):
                A = _random_field(rng, chart, frame, {k})
                point = sample_point(chart, rng)
                got = eval_field(dual_field(chart, frame, A), point)
                want = dual(eval_field(A, point),
                            eval_frame(chart, frame, point).gram.value,
                            chart.orientation)
                assert got.grades() == [chart.n - k]
                assert (got - want).norm_inf() < 1e-12 * max(1.0, want.norm_inf())

    def test_grade_field_is_a_grade_mask(self):
        rng = np.random.default_rng(31)
        A = _random_field(rng, MINKOWSKI, "coord", range(5))
        point = (0.1, 0.2, -0.3, 0.4)
        whole = field_jets(A, point, 2)
        parts = [field_jets(grade_field(A, k), point, 2) for k in range(5)]
        for c, *cs in zip(whole.coeffs, *(p.coeffs for p in parts)):
            assert np.array_equal(sum(cs), c)
        for k, part in enumerate(parts):
            assert {bl.grade_of(m) for m in bl.live_masks(part)} == {k}


def double_sums_by_blade_products(spec, field, point):
    """dot_dot, wedge_wedge and gp_gp by the loop second_ops ran before it
    multiplied through the Gram tables: blades.product on float rows."""
    n = spec.n
    fj = frame_jets(spec.chart, spec.frame, point, 0)
    gram, ginv = fj.gram.value, fj.gram_inv.value
    dd = np.stack([md._mdd_basis_jets(spec, mdd_along_basis(spec, j, field),
                                      point, 0).value for j in range(n)], axis=1)
    recip = np.zeros((n, 1 << n))
    recip[:, 1 << np.arange(n)] = ginv
    wedge_wedge = gp_gp = 0.0
    for i in range(n):
        for j in range(n):
            biv = bl.product(None, recip[i], recip[j], "wedge")
            wedge_wedge = wedge_wedge + bl.product(gram, biv, dd[i, j]).value
            gp_gp = gp_gp + bl.product(
                gram, recip[i], bl.product(gram, recip[j], dd[i, j])).value
    return {"dot_dot": np.einsum("ij,ija->a", ginv, dd),
            "wedge_wedge": wedge_wedge, "gp_gp": gp_gp}


class TestSecondDerivatives:
    @pytest.mark.parametrize("spec", [
        levi_civita(SPHERE, "coord"), conn_spec(SPHERE, "ortho", CHI_SPHERE),
        levi_civita(POLAR, "skew"), levi_civita(FLAT3, "coord"),
        levi_civita(MINKOWSKI, "coord"), levi_civita(CHART3, "twist"),
    ], ids=["sphere2", "sphere2_ortho_chi", "polar2_skew", "euclid3", "minkowski4",
            "curved3_twist"])
    def test_double_sums_match_blade_products(self, spec):
        rng = np.random.default_rng(26)
        field = mixed_grade_field(spec.chart, rng, spec.frame)
        point = sample_point(spec.chart, rng)
        ops = second_ops(spec, field, point)
        for name, want in double_sums_by_blade_products(spec, field, point).items():
            dev = np.max(np.abs(ops[name].row - want))
            assert dev <= 1e-12 * max(1.0, np.max(np.abs(want))), name

    def test_operand_evaluated_once_per_derivative_path(self, monkeypatch):
        """The primitive field is read once for grad_grad and once for all
        n^2 entries of dd, each time at order 2."""
        calls = []
        inner = md.field_jets

        def counting(field, point, order):
            if field is primitive:
                calls.append(order)
            return inner(field, point, order)

        monkeypatch.setattr(md, "field_jets", counting)
        spec = levi_civita(MINKOWSKI, "coord")
        primitive = mixed_grade_field(MINKOWSKI, np.random.default_rng(27))
        second_ops(spec, primitive, (0.1, -0.2, 0.3, 0.4))
        assert calls == [2, 2]

    def test_ricci_identity_on_the_unit_sphere(self):
        """On the unit sphere Ric = g, so the commutator sum
        (e^i ^ e^j) D_i D_j v = -Ric(v) is -v for every vector field v."""
        spec = levi_civita(SPHERE, "coord")
        rng = np.random.default_rng(28)
        for _ in range(10):
            v = MultivectorField.parse(SPHERE, {
                key: f"{rng.uniform(-2, 2)!r}*sin({rng.uniform(0.3, 1.2)!r}*theta)"
                     f"*cos({rng.uniform(0.3, 1.2)!r}*phi + {rng.uniform(-1, 1)!r})"
                for key in ("1", "2")})
            point = sample_point(SPHERE, rng)
            want = eval_field(v, point)
            got = second_ops(spec, v, point)["wedge_wedge"]
            assert (got + want).norm_inf() <= 1e-12 * max(1.0, want.norm_inf())

    def test_flat_laplacian(self):
        spec = levi_civita(FLAT2, "coord")
        phi = MultivectorField.scalar(FLAT2, "x^2 + y^2")
        ops = second_ops(spec, phi, (0.3, -0.8))
        assert ops["grad_grad"].to_blade_map() == pytest.approx({"": 4.0})
        assert ops["dot_dot"].to_blade_map() == pytest.approx({"": 4.0})
        assert ops["wedge_wedge"].norm_inf() < 1e-12

    def test_double_sum_splits_into_dot_plus_wedge(self):
        # (e^i e^j) D_i D_j A = (e^i . e^j) D_i D_j A + (e^i ^ e^j) D_i D_j A,
        # the parenthesized forms; the composition grad_grad is a different
        # operator on curved charts because it differentiates the basis too.
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "theta^2 * phi")
        point = (0.9, 0.3)
        ops = second_ops(spec, phi, point, a=[0.2, 0.8])
        total = ops["dot_dot"] + ops["wedge_wedge"]
        assert (ops["gp_gp"] - total).norm_inf() < 1e-12
        assert ops["directional"][0] == pytest.approx(
            mdd(spec, [0.2, 0.8], phi, point)[0])

    def test_composition_matches_double_sum_on_flat_charts(self):
        spec = levi_civita(FLAT3, "coord")
        field = MultivectorField.parse(FLAT3, {"1": "x*y*z", "1,2": "z^2"})
        ops = second_ops(spec, field, (0.4, 0.6, 0.1))
        assert (ops["grad_grad"] - ops["gp_gp"]).norm_inf() < 1e-10

    def test_curl_of_gradient_of_scalar_vanishes(self):
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "sin(theta) * phi")
        ops = second_ops(spec, phi, (1.1, 0.4))
        assert ops["wedge_wedge"].norm_inf() < 1e-9

    def test_laplacian_preserves_grade(self):
        rng = np.random.default_rng(11)
        spec = levi_civita(FLAT3, "coord")
        polys = ["x*y", "z^2", "x + y*z", "x*z", "y^2", "x*y*z"]
        field = MultivectorField.parse(
            FLAT3, {"1,3": rng.choice(polys), "2,3": rng.choice(polys),
                    "1,2": rng.choice(polys)})
        ops = second_ops(spec, field, tuple(rng.uniform(-1, 1, 3)))
        for mask, c in ops["grad_grad"].coeffs.items():
            if abs(c) > 1e-10:
                assert bin(mask).count("1") == 2
        # the double-sum laplacian preserves grade on curved charts too
        spec2 = levi_civita(SPHERE, "coord")
        f2 = MultivectorField.parse(SPHERE, {"1": "theta*phi", "2": "phi"})
        ops2 = second_ops(spec2, f2, (0.8, 0.5))
        for mask, c in ops2["dot_dot"].coeffs.items():
            if abs(c) > 1e-9:
                assert bin(mask).count("1") == 1


class TestBudget:
    """Jets stop at order two and each operator asks its operand for one
    order more, so a third operator builds but fails when it is evaluated."""

    def test_two_derivatives_fit_three_do_not(self):
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "theta^3 * phi")
        twice = gradient_field(spec, gradient_field(spec, phi))
        eval_field(twice, (0.9, 0.4))  # fine
        thrice = gradient_field(spec, twice)
        with pytest.raises(JetBudgetExhausted):
            eval_field(thrice, (0.9, 0.4))

    def test_algebraic_wrappers_cost_nothing(self):
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "theta * phi^2")
        once = gradient_field(spec, phi)
        wrapped = grade_field(dual_field(SPHERE, "coord", once), 1)
        again = gradient_field(spec, wrapped)  # still order 2 total
        eval_field(again, (1.0, 0.5))

    def test_sums_keep_the_deeper_operand(self):
        """A sum asks both operands for the same order, so the gradient of a
        sum on top of a once-derived field is as deep as a second gradient,
        and one more operator fails on the derived operand."""
        spec = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "theta")
        once = gradient_field(spec, phi)
        s = add_fields(once, MultivectorField.scalar(SPHERE, "phi"))
        eval_field(gradient_field(spec, s), (0.9, 0.4))  # fine
        with pytest.raises(JetBudgetExhausted):
            eval_field(gradient_field(spec, gradient_field(spec, s)), (0.9, 0.4))


def test_distinct_contorsions_are_distinguishable():
    """Two connections never collapse to the same derivative operator:
    they already differ on a basis vector field."""
    spec_a = conn_spec(SPHERE, "coord", ())
    spec_b = conn_spec(SPHERE, "coord", CHI_SPHERE)
    point = (0.9, 0.4)
    seen = 0.0
    for j in range(2):
        ej = MultivectorField("coord", {1 << j: ex.Num(1.0)})
        for i in range(2):
            a = basis_direction(2, i)
            diff = mdd(spec_a, a, ej, point) - mdd(spec_b, a, ej, point)
            seen = max(seen, diff.norm_inf())
    assert seen > 1e-3
