"""Frame evaluation, Lie brackets, and frame classification."""

import dataclasses
import math

import numpy as np
import pytest

from gcalc import expr as ex
from gcalc.algebra import reciprocal_frame
from gcalc.connection import levi_civita
from gcalc.errors import DimMismatch, FrameMismatch, SingularFrame, SingularGram
from gcalc.jets import Jet
from gcalc.manifest import ManifestError, builtin, load_manifest
from gcalc.manifold import (Chart, MultivectorField, bracket, classify_frame,
                            dirderiv_scalar, eval_frame, frame_jets, gradient_basis,
                            lie_bracket, sample_point)
from gcalc.mdd import field_jets, gradient
from test_curvature import CHART3

RNG = np.random.default_rng(512)


def chart_of(name):
    return builtin(name).chart


def handed_out_arrays(jets) -> list:
    """Every coefficient array of a FrameJets or GammaJets, the frame jets
    a GammaJets holds included."""
    out = []
    for part in jets:
        if isinstance(part, tuple):
            out += handed_out_arrays(part)
        elif isinstance(part, Jet):
            out += [c for c in part.coeffs if isinstance(c, np.ndarray)]
    return out


# ---------------------------------------------------------------------------
# independent oracle: brackets of frame vector fields by central differences
# of the frame component functions themselves

def fd_lie(chart, frame, point, h=1e-6):
    """L_ijk from finite differences of F, no jets involved."""
    n = chart.n
    rows = chart.frame_rows(frame)

    def F_at(p):
        return np.array([[ex.eval_value(rows[i][k], p) for k in range(n)]
                         for i in range(n)])

    F = F_at(point)
    dF = np.zeros((n, n, n))  # dF[l, i, k] = d F[i, k] / d x^l
    for l in range(n):
        pp = list(point)
        pp[l] += h
        up = F_at(tuple(pp))
        pp[l] -= 2 * h
        dn = F_at(tuple(pp))
        dF[l] = (up - dn) / (2 * h)

    bracket = np.zeros((n, n, n))  # [e_i, e_j] coordinate components
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bracket[i, j, k] = sum(F[i, l] * dF[l, j, k] - F[j, l] * dF[l, i, k]
                                       for l in range(n))
    g = np.array([[ex.eval_value(chart.metric[i][j], point) for j in range(n)]
                  for i in range(n)])
    L = np.einsum("ijm,ml,kl->ijk", bracket, g, F)
    return L


class TestEvalFrame:
    def test_sphere_coord_frame(self):
        chart = chart_of("sphere2")
        fa = eval_frame(chart, "coord", (math.pi / 4, 0.3))
        assert np.allclose(fa.gram.value, np.diag([1.0, 0.5]), atol=1e-14)
        assert np.max(np.abs(fa.lie.value)) < 1e-14
        assert np.allclose(fa.gram_inv.value @ fa.F.value, np.diag([1.0, 2.0]), atol=1e-12)

    def test_sphere_ortho_frame(self):
        chart = chart_of("sphere2")
        theta = math.pi / 4
        fa = eval_frame(chart, "ortho", (theta, -0.7))
        assert np.allclose(fa.gram.value, np.eye(2), atol=1e-12)
        # [e1, e2] = -cot(theta) e2 in this frame, so L_122 = -cot(theta)
        assert fa.lie.value[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert fa.lie.value[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert fa.lie.value[0, 1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_lie_antisymmetry_exact(self):
        chart = chart_of("polar2")
        for _ in range(16):
            p = sample_point(chart, RNG)
            fa = eval_frame(chart, "skew", p)
            assert np.array_equal(fa.lie.value, -np.swapaxes(fa.lie.value, 0, 1))

    def test_lie_against_finite_differences(self):
        for name, frame in [("sphere2", "ortho"), ("polar2", "skew")]:
            chart = chart_of(name)
            for _ in range(12):
                p = sample_point(chart, RNG)
                fa = eval_frame(chart, frame, p)
                ref = fd_lie(chart, frame, p)
                assert np.max(np.abs(fa.lie.value - ref)) < 1e-7

    def test_reciprocal_property(self):
        chart = chart_of("polar2")
        for _ in range(12):
            p = sample_point(chart, RNG)
            fa = eval_frame(chart, "skew", p)
            g = np.array([[ex.eval_value(chart.metric[i][j], p) for j in range(2)]
                          for i in range(2)])
            delta = (fa.gram_inv.value @ fa.F.value) @ g @ fa.F.value.T
            assert np.max(np.abs(delta - np.eye(2))) < 1e-12

    def test_dgram_matches_finite_differences(self):
        chart = chart_of("sphere2")
        h = 1e-6
        for _ in range(8):
            p = sample_point(chart, RNG)
            fa = eval_frame(chart, "ortho", p)
            n = chart.n

            def gram_at(q):
                return eval_frame(chart, "ortho", q).gram.value

            for i in range(n):
                num = np.zeros((n, n))
                for l in range(n):
                    pp = list(p)
                    pp[l] += h
                    up = gram_at(tuple(pp))
                    pp[l] -= 2 * h
                    dn = gram_at(tuple(pp))
                    num += fa.F.value[i, l] * (up - dn) / (2 * h)
                assert np.max(np.abs(fa.dgram.value[i] - num)) < 1e-6

    def test_arrays_handed_out_are_read_only(self):
        """eval_frame and gradient_basis hand out the cached jets, so no
        caller can write into what the operators read."""
        for name, frame in [("polar2", "skew"), ("sphere2", "coord")]:
            chart = chart_of(name)
            arrays = handed_out_arrays(eval_frame(chart, frame, sample_point(chart, RNG)))
            assert len(arrays) >= 8
            for a in arrays:
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1.0
        with pytest.raises(ValueError):
            gradient_basis(chart_of("polar2"), (2.0, 1.0))[0, 0] = 1.0

    def test_gram_is_the_gram_the_operators_read(self):
        """Bit for bit the Gram of frame_jets at order 0, which the
        operators and product_field use, on frames whose F g F^T is not
        exactly symmetric in floating point."""
        for chart, frame in [(chart_of("polar2"), "skew"),
                             (chart_of("sphere2"), "ortho"), (CHART3, "twist")]:
            for _ in range(20):
                p = sample_point(chart, RNG)
                assert np.array_equal(eval_frame(chart, frame, p).gram.value,
                                      frame_jets(chart, frame, p, 0).gram.value)

    def test_singular_frame_rejected(self):
        chart = Chart(name="bad", coords=("x", "y"),
                      metric=[["1", "0"], ["0", "1"]],
                      frames={"flat": [["1", "0"], ["0", "0"]]})
        with pytest.raises(SingularFrame):
            eval_frame(chart, "flat", (0.2, 0.4))

    def test_unknown_frame(self):
        with pytest.raises(FrameMismatch):
            eval_frame(chart_of("euclid2"), "nope", (0.0, 0.0))

    def test_point_dimension_checked(self):
        with pytest.raises(DimMismatch):
            eval_frame(chart_of("euclid2"), "coord", (0.0, 0.0, 0.0))


class TestClassify:
    def test_sphere_coord_holonomic_not_orthonormal(self):
        fa = eval_frame(chart_of("sphere2"), "coord", (math.pi / 4, 1.0))
        c = classify_frame(fa)
        assert c["holonomic"] and not c["orthonormal"]
        assert c["signature"] is None

    def test_sphere_ortho(self):
        fa = eval_frame(chart_of("sphere2"), "ortho", (math.pi / 4, 1.0))
        c = classify_frame(fa)
        assert c["orthonormal"] and not c["holonomic"]
        assert c["signature"] == (1, 1)

    def test_cartesian_both(self):
        fa = eval_frame(chart_of("euclid3"), "coord", (0.1, 0.2, 0.3))
        c = classify_frame(fa)
        assert c["orthonormal"] and c["holonomic"]
        assert c["signature"] == (1, 1, 1)

    def test_minkowski_signature(self):
        fa = eval_frame(chart_of("minkowski4"), "coord", (0.0, 0.1, 0.2, 0.3))
        c = classify_frame(fa)
        assert c["orthonormal"] and c["holonomic"]
        assert c["signature"] == (1, -1, -1, -1)

    def test_polar_skew_neither(self):
        fa = eval_frame(chart_of("polar2"), "skew", (1.3, 0.8))
        c = classify_frame(fa)
        assert not c["orthonormal"] and not c["holonomic"]


class TestDirectionalDerivative:
    def test_flat_radial(self):
        chart = chart_of("euclid2")
        assert dirderiv_scalar(chart, "coord", (1.0, 2.0), (1.0, 0.0),
                               "x^2 + y^2") == pytest.approx(2.0)

    def test_zero_direction(self):
        chart = chart_of("euclid2")
        assert dirderiv_scalar(chart, "coord", (1.0, 2.0), (0.0, 0.0), "x^2 + y^2") == 0.0

    def test_polar_angular_on_radial_function(self):
        chart = chart_of("polar2")
        assert dirderiv_scalar(chart, "coord", (2.0, 0.5), (0.0, 1.0), "r^2") == 0.0

    def test_frame_components_resolve_through_frame(self):
        chart = chart_of("sphere2")
        # e_2 = (1/sin theta) d_phi, so e_2(phi) = 1/sin(theta)
        got = dirderiv_scalar(chart, "ortho", (math.pi / 3, 0.2), (0.0, 1.0), "phi")
        assert got == pytest.approx(1.0 / math.sin(math.pi / 3), rel=1e-12)

    def test_reads_the_named_frame(self):
        """The same components a = (0, 1) are d_phi in the coordinate frame
        and d_phi / sin(theta) in the orthonormal one."""
        chart = chart_of("sphere2")
        point = (math.pi / 3, 0.2)
        assert dirderiv_scalar(chart, "coord", point, (0.0, 1.0), "phi") == 1.0
        got = dirderiv_scalar(chart, "ortho", point, (0.0, 1.0), "phi")
        assert got == pytest.approx(1.0 / math.sin(math.pi / 3), rel=1e-12)


class TestLieBracket:
    def test_bracket_closed_form_and_its_derivative(self):
        # a = (xy, sin x), b = (y^2, x + y):
        # [a, b] = (2y sin x - y^3 - x(x + y), xy + sin x - y^2 cos x)
        chart = chart_of("euclid2")
        x, y = 0.7, -0.4
        a, b = (ex.eval_jet([chart.parse(c) for c in f], (x, y), 2)
                for f in (("x*y", "sin(x)"), ("y^2", "x + y")))
        ab = bracket(a, b)
        assert ab.order == 1
        s, c = math.sin(x), math.cos(x)
        assert np.allclose(ab.value, [2 * y * s - y ** 3 - x * (x + y),
                                      x * y + s - y * y * c], rtol=0, atol=1e-15)
        assert np.allclose(ab.grad, [[2 * y * c - 2 * x - y, 2 * s - 3 * y * y - x],
                                     [y + c + y * y * s, x - 2 * y * c]],
                           rtol=0, atol=1e-15)
        assert np.array_equal(lie_bracket(chart, ("x*y", "sin(x)"), ("y^2", "x + y"),
                                          (x, y)), ab.value)

    def test_bracket_of_order_one_jets_is_a_value(self):
        chart = chart_of("euclid2")
        a, b = (ex.eval_jet([chart.parse(c) for c in f], (0.3, 0.2), 1)
                for f in (("y", "x"), ("x*x", "1")))
        assert bracket(a, b).order == 0

    def test_coordinate_stretching(self):
        got = lie_bracket(chart_of("euclid2"), ("1", "0"), ("0", "x"), (0.7, -0.4))
        assert np.allclose(got, [0.0, 1.0], atol=1e-14)

    def test_self_bracket_zero(self):
        got = lie_bracket(chart_of("euclid2"), ("y", "x*y"), ("y", "x*y"), (0.7, -0.4))
        assert np.max(np.abs(got)) == 0.0

    def test_coordinate_fields_commute(self):
        got = lie_bracket(chart_of("euclid3"), ("1", "0", "0"), ("0", "0", "1"),
                          (0.1, 0.2, 0.3))
        assert np.max(np.abs(got)) == 0.0

    def test_antisymmetry_random(self):
        chart = chart_of("polar2")
        fields = [("r*theta", "sin(theta)"), ("r^2", "cos(theta)*r")]
        for _ in range(8):
            p = sample_point(chart, RNG)
            ab = lie_bracket(chart, fields[0], fields[1], p)
            ba = lie_bracket(chart, fields[1], fields[0], p)
            assert np.max(np.abs(ab + ba)) < 1e-14

    def test_jacobi_identity(self):
        chart = chart_of("euclid2")
        a = ("x*y", "sin(x)")
        b = ("y^2", "x + y")
        c = ("cos(y)", "x^2")
        # nested brackets need first derivatives of the inner bracket, which
        # the two-field evaluator does not expose; use finite differences
        h = 1e-5

        def bracket_num(f, g, p):
            return lie_bracket(chart, f, g, p)

        def nested(f, g, k, p):
            # [[f, g], k] at p with [f,g] sampled by central differences
            n = chart.n
            inner = bracket_num(f, g, p)
            dinner = np.zeros((n, n))
            for l in range(n):
                pp = list(p)
                pp[l] += h
                up = bracket_num(f, g, tuple(pp))
                pp[l] -= 2 * h
                dn = bracket_num(f, g, tuple(pp))
                dinner[l] = (up - dn) / (2 * h)
            kv = [ex.eval_jet(chart.parse(cmp), p, 1) for cmp in k]
            out = np.zeros(n)
            for m in range(n):
                out[m] = sum(inner[l] * kv[m].grad[l] - kv[l].value * dinner[l, m]
                             for l in range(n))
            return out

        p = (0.3, 0.7)
        total = nested(a, b, c, p) + nested(b, c, a, p) + nested(c, a, b, p)
        assert np.max(np.abs(total)) < 1e-9


class TestGradientBasis:
    def test_cartesian_identity(self):
        assert np.allclose(gradient_basis(chart_of("euclid2"), (0.3, 0.4)),
                           np.eye(2), atol=1e-14)

    def test_polar_inverse_metric(self):
        got = gradient_basis(chart_of("polar2"), (2.0, 1.0))
        assert np.allclose(got, np.diag([1.0, 0.25]), atol=1e-14)

    def test_duality_with_coordinate_frame(self):
        chart = chart_of("sphere2")
        for _ in range(8):
            p = sample_point(chart, RNG)
            rows = gradient_basis(chart, p)
            g = np.array([[ex.eval_value(chart.metric[i][j], p) for j in range(2)]
                          for i in range(2)])
            assert np.max(np.abs(rows @ g - np.eye(2))) < 1e-12


class TestChartConstruction:
    def test_coord_frame_always_present(self):
        chart = Chart(name="c", coords=("u",), metric=[["1"]])
        assert "coord" in chart.frames
        fa = eval_frame(chart, "coord", (0.5,))
        assert fa.gram.value[0, 0] == 1.0

    def test_bad_metric_shape(self):
        with pytest.raises(DimMismatch):
            Chart(name="c", coords=("u", "v"), metric=[["1", "0"]])

    def test_frame_jets_cached(self):
        chart = chart_of("sphere2")
        a = frame_jets(chart, "ortho", (0.5, 0.25), 1)
        b = frame_jets(chart, "ortho", (0.5, 0.25), 1)
        assert a is b

    def test_chart_is_immutable(self):
        chart = chart_of("sphere2")
        for f in dataclasses.fields(Chart):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(chart, f.name, getattr(chart, f.name))
        with pytest.raises(TypeError):
            chart.frames["ortho"] = chart.frames["coord"]
        with pytest.raises(TypeError):
            del chart.frames["ortho"]
        assert set(chart.frames) == {"coord", "ortho"}

    def test_field_components_read_only(self):
        chart = chart_of("sphere2")
        given = {1: ex.parse("theta", chart.coords)}
        field = MultivectorField("coord", given)
        with pytest.raises(TypeError):
            field.components[2] = ex.Num(1.0)
        given[2] = ex.Num(1.0)
        assert set(field.components) == {1}


class TestPrograms:
    """A chart's metric and frames and a field's blade grid walk their trees
    on the first two evaluations per (n, order) and run a tape from the
    third on, with the walker's results bit for bit."""

    @staticmethod
    def chart():
        return Chart(name="p", coords=("u", "v"),
                     metric=[["2 + u^2", "0.3*v"], ["0.3*v", "1 + exp(u*v)"]],
                     frames={"f": [["1", "0.2*v"], ["sin(u)", "2"]]})

    @staticmethod
    def counting(monkeypatch):
        walks = []
        walk = ex.eval_jet

        def counted(trees, point, order=2):
            walks.append(order)
            return walk(trees, point, order)
        monkeypatch.setattr(ex, "eval_jet", counted)
        return walks

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_chart_programs(self, monkeypatch, order):
        walk = ex.eval_jet
        walks = self.counting(monkeypatch)
        chart = self.chart()
        for k in range(1, 6):
            point = (0.1 * k, 0.3 - 0.05 * k)
            before = len(walks)
            fj = frame_jets(chart, "f", point, order)
            for program, got, trees in ((chart.metric_program, fj.g_coord, chart.metric),
                                        (chart.frame_programs["f"], fj.F, chart.frames["f"])):
                run = program.runs[(2, order)]
                if k <= 2:
                    assert run == k
                else:
                    assert isinstance(run, ex.Tape)
                want = walk(trees, point, order)
                for a, b in zip(got.coeffs, want.coeffs):
                    assert a.tobytes() == b.tobytes()
            assert len(walks) == before + (2 if k <= 2 else 0)
        assert set(chart.metric_program.runs) == {(2, order)}

    def test_field_program(self, monkeypatch):
        walk = ex.eval_jet
        walks = self.counting(monkeypatch)
        chart = self.chart()
        field = MultivectorField.parse(chart, {"1": "u*v", "1,2": "sin(u)/(1 + v^2)"})
        grid = [field.components.get(m) for m in range(4)]
        for order in (1, 2):
            for k in range(1, 6):
                point = (0.1 * k, 0.3 - 0.05 * k)
                got = field_jets(field, point, order)
                run = field.program.runs[(2, order)]
                assert run == k if k <= 2 else isinstance(run, ex.Tape)
                want = walk(grid, point, order)
                for a, b in zip(got.coeffs, want.coeffs):
                    assert a.tobytes() == b.tobytes()
        assert walks == [1, 1, 2, 2]


class TestScaleFreeDegeneracy:
    """The frame and frame-Gram tests compare |det(M/s)| with 1e-12 for
    s = max |M_ij|, so a chart whose metric or frame is scaled by 1e-7 is
    accepted, and its gradient is the unscaled one divided by the scale."""

    S = 1e-7
    POINT = (0.4, -0.3)
    PHI = "u*v + sin(u)"

    def chart(self, metric_scale, frame_scale):
        m, f = repr(metric_scale), repr(frame_scale)
        return Chart(name="scaled", coords=("u", "v"),
                     metric=[[f"{m}*(2 + u)", f"{m}*0.3"],
                             [f"{m}*0.3", f"{m}*(1 + v^2)"]],
                     frames={"f": [[f, f"{f}*0.2*v"], ["0", f]]})

    def grad(self, chart, frame):
        phi = MultivectorField.scalar(chart, self.PHI, frame)
        return gradient(levi_civita(chart, frame), phi, self.POINT).row

    @pytest.mark.parametrize("frame", ["coord", "f"])
    def test_scaled_metric(self, frame):
        want = self.grad(self.chart(1.0, 1.0), frame)
        got = self.grad(self.chart(self.S, 1.0), frame)
        assert np.max(np.abs(got * self.S - want)) < 1e-12 * np.max(np.abs(want))

    def test_scaled_frame(self):
        want = self.grad(self.chart(1.0, 1.0), "f")
        got = self.grad(self.chart(1.0, self.S), "f")
        assert np.max(np.abs(got * self.S - want)) < 1e-12 * np.max(np.abs(want))

    def test_scaled_reciprocal_frame(self):
        F = np.array([[1.0, 0.2], [0.0, 1.0]])
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        want = reciprocal_frame(F, g)
        assert np.allclose(reciprocal_frame(self.S * F, g) * self.S, want,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, 1e-7])
    def test_sphere_pole_still_refused(self, theta):
        with pytest.raises(SingularGram):
            frame_jets(chart_of("sphere2"), "coord", (theta, 0.2), 0)


class TestManifest:
    def test_load_round_trip(self):
        doc = {
            "name": "demo",
            "coordinates": ["u", "v"],
            "metric": [["1", "0"], ["0", "u^2 + 1"]],
            "fields": {"w": {"frame": "coord", "components": {"1,2": "u*v"}}},
        }
        bundle = load_manifest(doc)
        assert bundle.chart.n == 2
        fld = bundle.field("w")
        assert fld.frame == "coord"
        assert set(fld.components) == {0b11}

    def test_asymmetric_metric_rejected(self):
        doc = {
            "name": "demo",
            "coordinates": ["u", "v"],
            "metric": [["1", "u"], ["v", "1"]],
        }
        with pytest.raises(ManifestError):
            load_manifest(doc)

    def test_symmetric_by_value_accepted(self):
        doc = {
            "name": "demo",
            "coordinates": ["u", "v"],
            "metric": [["1", "u + u"], ["2*u", "1"]],
        }
        bundle = load_manifest(doc)
        assert bundle.chart.name == "demo"

    def test_unknown_builtin(self):
        with pytest.raises(ManifestError):
            builtin("hyperbolic7")

    def test_bad_blade_key(self):
        doc = {
            "name": "demo",
            "coordinates": ["u", "v"],
            "metric": [["1", "0"], ["0", "1"]],
            "fields": {"w": {"components": {"3": "1"}}},
        }
        with pytest.raises(ManifestError):
            load_manifest(doc)

    def test_bad_expression_position(self):
        doc = {
            "name": "demo",
            "coordinates": ["u", "v"],
            "metric": [["1", "0"], ["0", "sin("]],
        }
        with pytest.raises(ManifestError):
            load_manifest(doc)
