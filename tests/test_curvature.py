"""Curvature from the commutator of directional derivatives.

    R(e_i, e_j) A = D_i D_j A - D_j D_i A - D_{[e_i, e_j]} A,
    [e_i, e_j] = L_ijk g^{kl} e_l,

built only from stacked ``mdd_along_basis``, the frame's Lie coefficients
and ``mdd``.  Two stacked derivatives read the first derivatives of the
connection coefficients, so these closed forms and identities are the
oracle for ``gamma_jets`` at order 1.
"""

import itertools
import math

import numpy as np
import pytest

from gcalc.algebra import wedge
from gcalc.connection import levi_civita
from gcalc.manifest import builtin
from gcalc.manifold import Chart, MultivectorField, eval_frame
from gcalc.mdd import eval_field, mdd, mdd_along_basis, product_field

TOL = 1e-12

SPHERE = builtin("sphere2").chart
POLAR = builtin("polar2").chart

# Non-diagonal metric, positive definite near POINT3; "twist" is a frame
# whose vectors do not commute.
CHART3 = Chart(
    name="curved3", coords=("x", "y", "z"),
    metric=(("1 + x^2", "0.3*y", "0.1*z"),
            ("0.3*y", "2 + y*z", "0.2*x"),
            ("0.1*z", "0.2*x", "1.5 + 0.5*sin(x)")),
    frames={"twist": (("1", "0.2*y", "0"),
                      ("0.1*z", "1", "0.3*x"),
                      ("0", "0.2*x*y", "1"))})
POINT3 = (0.3, -0.4, 0.5)
POINT2 = (0.9, 0.3)


def curvature(spec, i, j, field, point):
    """R(e_i, e_j) field at a point, as a multivector."""
    dij = eval_field(mdd_along_basis(spec, i, mdd_along_basis(spec, j, field)),
                     point)
    dji = eval_field(mdd_along_basis(spec, j, mdd_along_basis(spec, i, field)),
                     point)
    fa = eval_frame(spec.chart, spec.frame, point)
    bracket = fa.lie.value[i, j] @ fa.gram_inv.value
    return dij - dji - mdd(spec, bracket, field, point)


def basis_vector(chart, frame, k):
    return MultivectorField(frame, {1 << k: chart.parse("1")})


def coeffs(mv, n):
    return np.array([mv[m] for m in range(1 << n)])


def riemann(spec, point):
    """R_ijkl = (R(e_i, e_j) e_k) . e_l in the spec's frame."""
    n = spec.n
    gram = eval_frame(spec.chart, spec.frame, point).gram.value
    R = np.zeros((n,) * 4)
    for i, j, k in itertools.product(range(n), repeat=3):
        v = curvature(spec, i, j, basis_vector(spec.chart, spec.frame, k),
                      point).vector_components()
        R[i, j, k] = v @ gram
    return R


class TestSphere:
    def test_coordinate_frame(self):
        spec = levi_civita(SPHERE, "coord")
        theta = POINT2[0]
        r_theta = curvature(spec, 0, 1, basis_vector(SPHERE, "coord", 0),
                            POINT2)
        r_phi = curvature(spec, 0, 1, basis_vector(SPHERE, "coord", 1),
                          POINT2)
        assert np.max(np.abs(coeffs(r_theta, 2) - [0, 0, -1, 0])) < TOL
        assert np.max(np.abs(coeffs(r_phi, 2)
                             - [0, math.sin(theta) ** 2, 0, 0])) < TOL

    def test_orthonormal_frame(self):
        spec = levi_civita(SPHERE, "ortho")
        r1 = curvature(spec, 0, 1, basis_vector(SPHERE, "ortho", 0), POINT2)
        r2 = curvature(spec, 0, 1, basis_vector(SPHERE, "ortho", 1), POINT2)
        assert np.max(np.abs(coeffs(r1, 2) - [0, 0, -1, 0])) < TOL
        assert np.max(np.abs(coeffs(r2, 2) - [0, 1, 0, 0])) < TOL


def test_flat_skew_frame_has_no_curvature():
    spec = levi_civita(POLAR, "skew")
    field = MultivectorField.parse(
        POLAR, {"": "r*theta", "1": "sin(theta) + r", "2": "r^2*cos(theta)",
                "1,2": "exp(0.3*r)*theta"}, "skew")
    point = (1.3, 0.4)
    for i, j in itertools.product(range(2), repeat=2):
        assert np.max(np.abs(coeffs(curvature(spec, i, j, field, point), 2))) \
            < TOL


@pytest.mark.parametrize("frame", ["coord", "twist"])
class TestLeviCivitaSymmetries:
    def test_frame_is_as_intended(self, frame):
        lie = eval_frame(CHART3, frame, POINT3).lie.value
        assert (np.max(np.abs(lie)) > 0.1) == (frame == "twist")

    def test_riemann_symmetries(self, frame):
        R = riemann(levi_civita(CHART3, frame), POINT3)
        assert np.max(np.abs(R)) > 0.1
        bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) < TOL
        assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < TOL
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < TOL
        assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < TOL

    def test_curvature_is_a_derivation(self, frame):
        spec = levi_civita(CHART3, frame)
        a = MultivectorField.parse(
            CHART3, {"": "x*y", "1": "sin(y) + z", "2": "x^2",
                     "1,3": "cos(x*z)"}, frame)
        b = MultivectorField.parse(
            CHART3, {"1": "y*z", "2": "1 + x", "3": "exp(0.2*y)"}, frame)
        ab = product_field(CHART3, frame, a, b, "wedge")
        av, bv = eval_field(a, POINT3), eval_field(b, POINT3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lhs = curvature(spec, i, j, ab, POINT3)
            rhs = (wedge(curvature(spec, i, j, a, POINT3), bv)
                   + wedge(av, curvature(spec, i, j, b, POINT3)))
            assert (lhs - rhs).norm_inf() < TOL
            assert lhs.norm_inf() > 1e-3
