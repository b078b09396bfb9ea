"""Connection coefficients: closed forms, defining identities, torsion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalc import expr as ex
from gcalc.connection import (_chi_jets, conn_spec, connection_at,
                              contorsion_apply, levi_civita,
                              reciprocal_gamma, torsion)
from gcalc.errors import DimMismatch, DomainError, InvalidContorsion
from gcalc.manifest import builtin
from gcalc.manifold import MultivectorField, eval_frame
from test_manifold import handed_out_arrays
from gcalc.mdd import (DerivedField, eval_field, from_blade_map, mdd,
                       mdd_along_basis)

SPHERE = builtin("sphere2").chart
POLAR = builtin("polar2").chart
FLAT2 = builtin("euclid2").chart


def sphere_coord_gammabar(theta):
    """Levi-Civita coefficients of the theta/phi coordinate frame.

    The only derivative in sight is d/dtheta of sin(theta)^2, so the three
    survivors are gbar_{theta phi phi} = gbar_{phi theta phi} = sin cos and
    gbar_{phi phi theta} = -sin cos.
    """
    g = np.zeros((2, 2, 2))
    sc = np.sin(theta) * np.cos(theta)
    g[0, 1, 1] = sc
    g[1, 0, 1] = sc
    g[1, 1, 0] = -sc
    return g


def polar_coord_gammabar(r):
    g = np.zeros((2, 2, 2))
    g[0, 1, 1] = r
    g[1, 0, 1] = r
    g[1, 1, 0] = -r
    return g


RANDOM_CHI = (
    (1, 2, 1, "0.3*theta"), (1, 1, 2, "-0.3*theta"),
    (2, 2, 1, "0.4 + 0.1*phi"), (2, 1, 2, "-0.4 - 0.1*phi"),
)


class TestClosedForms:
    @given(st.floats(0.2, 2.9), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_sphere_coordinate_frame(self, theta, phi):
        conn = connection_at(SPHERE, "coord", (theta, phi), chi=())
        assert np.allclose(conn.gammabar.value, sphere_coord_gammabar(theta),
                           atol=1e-10)
        assert np.allclose(conn.gamma.value, conn.gammabar.value)

    @given(st.floats(0.2, 2.4), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_polar_coordinate_frame(self, r, theta):
        conn = connection_at(POLAR, "coord", (r, theta), chi=())
        assert np.allclose(conn.gammabar.value, polar_coord_gammabar(r), atol=1e-10)

    def test_sphere_orthonormal_frame(self):
        # cot(pi/4) = 1 makes the expected entries easy to spot
        conn = connection_at(SPHERE, "ortho", (np.pi / 4, 0.5), chi=())
        expect = np.zeros((2, 2, 2))
        expect[1, 0, 1] = 1.0
        expect[1, 1, 0] = -1.0
        assert np.allclose(conn.gammabar.value, expect, atol=1e-12)

    def test_flat_frames_vanish(self):
        conn = connection_at(FLAT2, "coord", (0.3, -1.1))
        assert np.all(conn.gamma.value == 0.0)
        conn3 = connection_at(builtin("euclid3").chart, "coord", (1., 2., 3.))
        assert np.all(conn3.gamma.value == 0.0)

    def test_minkowski_coordinate_frame_vanishes(self):
        chart = builtin("minkowski4").chart
        conn = connection_at(chart, "coord", (0.1, 0.2, 0.3, 0.4))
        assert np.all(conn.gamma.value == 0.0)


def numeric_gram(chart, frame, point):
    n = chart.n
    F = np.array([[ex.eval_value(e, point) for e in row]
                  for row in chart.frame_rows(frame)])
    G = np.array([[ex.eval_value(chart.metric[i][j], point) for j in range(n)]
                  for i in range(n)])
    return F, F @ G @ F.T


def test_skew_frame_matches_finite_differences():
    """Recompute gammabar for the polar skew frame from scratch with FD."""
    chart, frame = POLAR, "skew"
    point = (1.3, 0.4)
    n, h = 2, 1e-6

    def gram_at(p):
        return numeric_gram(chart, frame, p)[1]

    def rows_at(p):
        return numeric_gram(chart, frame, p)[0]

    F = rows_at(point)
    dgram_c = np.zeros((n, n, n))   # coordinate partials of g_jk
    drows_c = np.zeros((n, n, n))   # coordinate partials of F
    for c in range(n):
        up = list(point)
        dn = list(point)
        up[c] += h
        dn[c] -= h
        dgram_c[c] = (gram_at(up) - gram_at(dn)) / (2 * h)
        drows_c[c] = (rows_at(up) - rows_at(dn)) / (2 * h)

    dgram = np.einsum("ic,cjk->ijk", F, dgram_c)
    bracket = np.einsum("il,ljk->ijk", F, drows_c)
    bracket = bracket - bracket.transpose(1, 0, 2)
    G = np.array([[ex.eval_value(chart.metric[i][j], point) for j in range(n)]
                  for i in range(n)])
    lie = np.einsum("ijc,cd,kd->ijk", bracket, G, F)

    # transpose(1, 2, 0) reads A[k, i, j]; transpose(2, 0, 1) reads A[j, k, i]
    expect = 0.5 * (dgram - dgram.transpose(1, 2, 0) + dgram.transpose(2, 0, 1))
    expect += 0.5 * (lie - lie.transpose(2, 0, 1) + lie.transpose(1, 2, 0))

    conn = connection_at(chart, frame, point, chi=())
    assert np.allclose(conn.gammabar.value, expect, atol=1e-6)


class TestDefiningIdentities:
    """gbar is pinned down by metric compatibility plus its torsion."""

    @pytest.mark.parametrize("chart,frame,point", [
        (SPHERE, "coord", (0.8, 0.3)),
        (SPHERE, "ortho", (1.1, -0.7)),
        (POLAR, "skew", (1.7, 0.2)),
        (POLAR, "coord", (0.6, -1.4)),
    ])
    def test_metric_compatibility_and_torsion(self, chart, frame, point):
        frame_at = eval_frame(chart, frame, point)
        conn = connection_at(chart, frame, point, chi=())
        sym = conn.gammabar.value + conn.gammabar.value.transpose(0, 2, 1)
        assert np.allclose(sym, frame_at.dgram.value, atol=1e-10)
        skew = conn.gammabar.value - conn.gammabar.value.transpose(1, 0, 2)
        assert np.allclose(skew, frame_at.lie.value, atol=1e-10)

    def test_identities_survive_contorsion(self):
        point = (0.9, 0.4)
        frame_at = eval_frame(SPHERE, "coord", point)
        conn = connection_at(SPHERE, "coord", point, chi=RANDOM_CHI)
        sym = conn.gamma.value + conn.gamma.value.transpose(0, 2, 1)
        assert np.allclose(sym, frame_at.dgram.value, atol=1e-10)
        assert not np.allclose(conn.gamma.value, conn.gammabar.value)

    def test_gamma_is_gammabar_plus_chi(self):
        point = (0.9, 0.4)
        conn = connection_at(SPHERE, "coord", point, chi=RANDOM_CHI)
        chi = np.zeros((2, 2, 2))
        chi[0, 1, 0] = 0.3 * point[0]
        chi[0, 0, 1] = -0.3 * point[0]
        chi[1, 1, 0] = 0.4 + 0.1 * point[1]
        chi[1, 0, 1] = -0.4 - 0.1 * point[1]
        assert np.allclose(conn.gamma.value, conn.gammabar.value + chi, atol=1e-12)

    def test_contorsion_must_be_antisymmetric(self):
        with pytest.raises(InvalidContorsion):
            connection_at(SPHERE, "coord", (0.9, 0.4),
                          chi=((1, 2, 2, "1"),))

    def test_contorsion_diagonal_must_vanish(self):
        with pytest.raises(InvalidContorsion):
            connection_at(SPHERE, "coord", (0.9, 0.4),
                          chi=((1, 2, 2, "theta"), (1, 2, 2, "theta")))


class TestContorsionJets:
    POINT = (0.9, 0.4)

    def chi(self, entries, order=2):
        return _chi_jets(conn_spec(SPHERE, "coord", entries), self.POINT, order)

    def test_levi_civita_is_zero(self):
        chi = self.chi(())
        assert chi.order == 2
        for c, shape in zip(chi.coeffs, ((2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2))):
            assert c.shape == shape and not c.any()

    def test_entries_add_up_at_their_slots(self):
        theta, phi = self.POINT
        chi = self.chi(((2, 1, 2, "theta*phi"), (2, 2, 1, "-theta*phi"),
                        (2, 1, 2, "phi^2"), (2, 2, 1, "-phi^2")))
        want = np.zeros((2, 2, 2))
        want[1, 0, 1] = theta * phi + phi * phi
        want[1, 1, 0] = -want[1, 0, 1]
        assert np.allclose(chi.value, want, rtol=0, atol=1e-15)
        assert np.allclose(chi.grad[1, 0, 1], [phi, theta + 2 * phi],
                           rtol=0, atol=1e-15)
        assert np.allclose(chi.hess[1, 1, 0], [[0, -1], [-1, -2]],
                           rtol=0, atol=1e-15)
        assert self.chi(((1, 2, 1, "theta"), (1, 1, 2, "-theta")), 0).order == 0

    @pytest.mark.parametrize("entries, message", [
        (((1, 2, 3, "1"), (1, 2, 2, "1")), "contorsion index (1,2,3) out of range"),
        (((1, 2, 2, "1"), (0, 1, 1, "1")), "contorsion index (0,1,1) out of range"),
        (((2, 1, 2, "1"), (1, 2, 1, "2"), (1, 1, 2, "-1")),
         "contorsion antisymmetry violated at entry (1,1,2): deviation 1.000e+00"),
        (((1, 2, 2, "theta"),),
         "contorsion antisymmetry violated at entry (1,2,2): deviation 1.800e+00"),
    ])
    def test_messages(self, entries, message):
        with pytest.raises(InvalidContorsion) as err:
            self.chi(entries)
        assert str(err.value) == message

    def test_entries_are_read_in_order(self):
        # an entry that cannot be evaluated is met before a later bad index,
        # and a bad index before a later entry that cannot be evaluated
        with pytest.raises(DomainError):
            self.chi(((1, 2, 1, "log(-theta)"), (1, 2, 3, "1")))
        with pytest.raises(InvalidContorsion):
            self.chi(((1, 2, 3, "1"), (1, 2, 1, "log(-theta)")))


class TestDerivedCoefficients:
    def test_mixed_raises_last_index(self):
        point = (np.pi / 4, 0.5)
        conn = connection_at(SPHERE, "coord", point, chi=())
        mixed = conn.mixed.value
        frame_at = eval_frame(SPHERE, "coord", point)
        expect = np.einsum("ijm,mk->ijk", conn.gamma.value, frame_at.gram_inv.value)
        assert np.allclose(mixed, expect, atol=1e-12)
        # D_theta e_phi = cot(theta) e_phi on the sphere
        assert mixed[0, 1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_frame_coefficients(self):
        # D_theta e^phi = -cot(theta) e^phi; the g^{phi phi} factor doubles
        # the 0.5 from gammabar at theta = pi/4
        point = (np.pi / 4, 0.5)
        conn = connection_at(SPHERE, "coord", point, chi=())
        rg = reciprocal_gamma(conn)
        assert rg[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        flat = reciprocal_gamma(connection_at(FLAT2, "coord", (0.2, 0.3)))
        assert np.all(flat == 0.0)

    def test_reciprocal_coefficients_differentiate_reciprocal_fields(self):
        """D_{e_i} e^j should come out as sum_l rg[i,j,l] e^l."""
        chart, frame, point = SPHERE, "coord", (0.9, -0.3)
        spec = conn_spec(chart, frame, RANDOM_CHI)
        conn = connection_at(chart, frame, point, chi=RANDOM_CHI)
        rg = reciprocal_gamma(conn)
        frame_at = eval_frame(chart, frame, point)
        n = chart.n

        from gcalc.manifold import frame_jets

        for j in range(n):
            def recip_fn(p, order, j=j):
                fj = frame_jets(chart, frame, p, order)
                return from_blade_map({1 << l: fj.gram_inv.take((j, l))
                                       for l in range(n)}, n, order)

            recip_field = DerivedField(frame, recip_fn)
            for i in range(n):
                a = [1.0 if k == i else 0.0 for k in range(n)]
                got = mdd(spec, a, recip_field, point).to_blade_map()
                expect = rg[i, j] @ frame_at.gram_inv.value
                for l in range(n):
                    assert got.get(str(l + 1), 0.0) == pytest.approx(
                        expect[l], abs=1e-10)


class TestTorsion:
    def test_levi_civita_is_torsion_free(self):
        a = ["theta*phi", "1 + phi"]
        b = ["sin(phi)", "theta"]
        tau = torsion(SPHERE, "coord", a, b, (0.8, 0.4), chi=())
        assert np.allclose(tau, 0.0, atol=1e-10)

    def test_value_matches_contorsion_difference(self):
        point = (0.8, 0.4)
        frame_at = eval_frame(SPHERE, "coord", point)
        conn = connection_at(SPHERE, "coord", point, chi=RANDOM_CHI)
        chi = conn.chi.value
        for i in range(2):
            ei = ["1" if k == i else "0" for k in range(2)]
            for j in range(2):
                ej = ["1" if k == j else "0" for k in range(2)]
                tau = torsion(SPHERE, "coord", ei, ej, point, chi=RANDOM_CHI)
                lowered = frame_at.gram.value @ tau
                for k in range(2):
                    assert lowered[k] == pytest.approx(
                        chi[i, j, k] - chi[j, i, k], abs=1e-10)

    def test_vanishes_on_repeated_argument(self):
        a = ["r*theta", "cos(theta)"]
        tau = torsion(POLAR, "skew", a, a, (1.2, 0.5), chi=RANDOM_CHI_POLAR)
        assert np.allclose(tau, 0.0, atol=1e-10)

    @pytest.mark.parametrize("a, b, point", [
        (["1", "0", "0"], ["0", "1"], (0.8, 0.4)),
        (["1"], ["0", "1"], (0.8, 0.4)),
        (["1", "0"], [], (0.8, 0.4)),
        (["1", "theta"], ["phi", "1"], (0.8,)),
    ], ids=["long", "short", "empty", "short-point"])
    def test_wrong_dimension(self, a, b, point):
        with pytest.raises(DimMismatch):
            torsion(SPHERE, "coord", a, b, point)

    def test_antisymmetric_in_arguments(self):
        a = ["r", "theta"]
        b = ["1", "r*r"]
        point = (1.4, -0.8)
        t_ab = torsion(POLAR, "coord", a, b, point, chi=RANDOM_CHI_POLAR)
        t_ba = torsion(POLAR, "coord", b, a, point, chi=RANDOM_CHI_POLAR)
        assert np.allclose(t_ab, -t_ba, atol=1e-10)


RANDOM_CHI_POLAR = (
    (1, 2, 1, "0.2*r"), (1, 1, 2, "-0.2*r"),
    (2, 2, 1, "0.5"), (2, 1, 2, "-0.5"),
)


class TestContorsionOperator:
    def test_zero_chi_means_zero_operator(self):
        d = conn_spec(SPHERE, "coord", ())
        nabla = levi_civita(SPHERE, "coord")
        field = MultivectorField.parse(SPHERE, {"1": "theta", "2": "phi"})
        q = contorsion_apply(d, nabla, [0.5, 0.5], field, (0.8, 0.4))
        assert q.norm_inf() < 1e-14

    def test_kills_scalars(self):
        d = conn_spec(SPHERE, "coord", RANDOM_CHI)
        nabla = levi_civita(SPHERE, "coord")
        phi = MultivectorField.scalar(SPHERE, "theta^2 * sin(phi)")
        q = contorsion_apply(d, nabla, [0.3, -0.9], phi, (0.8, 0.4))
        assert q.norm_inf() < 1e-12

    def test_pointwise_linear_over_scalar_fields(self):
        """Q_a(phi A) = phi Q_a(A): the derivative terms cancel exactly."""
        point = (0.8, 0.4)
        d = conn_spec(SPHERE, "coord", RANDOM_CHI)
        nabla = levi_civita(SPHERE, "coord")
        A = MultivectorField.parse(SPHERE, {"1": "phi", "2": "theta", "1,2": "1"})
        phiA = MultivectorField(
            "coord", {m: SPHERE.parse("(1 + theta*phi)") * e
                      for m, e in A.components.items()})
        a = [0.7, -0.2]
        q_scaled = contorsion_apply(d, nabla, a, phiA, point)
        q_plain = contorsion_apply(d, nabla, a, A, point)
        phi_val = 1 + point[0] * point[1]
        assert (q_scaled - phi_val * q_plain).norm_inf() < 1e-10

    def test_different_frames_rejected(self):
        from gcalc.errors import FrameMismatch
        d = conn_spec(SPHERE, "coord", RANDOM_CHI)
        nabla = levi_civita(SPHERE, "ortho")
        field = MultivectorField.parse(SPHERE, {"1": "1"})
        with pytest.raises(FrameMismatch):
            contorsion_apply(d, nabla, [1.0, 0.0], field, (0.8, 0.4))


def test_basis_derivatives_expose_mixed_coefficients():
    """D_{e_i} e_j must reproduce the mixed coefficients verbatim."""
    spec = conn_spec(SPHERE, "coord", RANDOM_CHI)
    point = (1.1, 0.2)
    conn = connection_at(SPHERE, "coord", point, chi=RANDOM_CHI)
    mixed = conn.mixed.value
    for j in range(2):
        ej = MultivectorField("coord", {1 << j: ex.Num(1.0)})
        for i in range(2):
            got = eval_field(mdd_along_basis(spec, i, ej), point)
            for l in range(2):
                assert got[1 << l] == pytest.approx(mixed[i, j, l], abs=1e-12)


def test_connection_at_arrays_are_read_only():
    """connection_at hands out the cached jets, its frame jets included, so
    no caller can write into what the operators read."""
    conn = connection_at(SPHERE, "ortho", (0.9, 0.4), chi=RANDOM_CHI)
    arrays = handed_out_arrays(conn)
    assert len(arrays) >= 12
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
