"""Array jets against the scalar-jet arithmetic they replace.

The references build every entry with scalar ``Jet`` products in Python
loops; the array routes reorder the sums, so agreement is to a few ulps.
"""

import itertools

import numpy as np
import pytest

from gcalc.expr import eval_jet, parse
from gcalc.jets import Jet, contract, mat_det_inv

COORDS = ("x", "y", "z")
POINT = (0.3, -0.4, 0.5)
TEXTS = ("2 + sin(x)", "x*y", "0.3*z", "x^2 - y", "3 + y*z", "cos(z)",
         "0.1*x*y", "0.2 + exp(y)", "1.5 + z^2")


def matrix(order, texts=TEXTS):
    """A 3x3 matrix as nested lists of scalar jets and as one array jet."""
    trees = [[parse(texts[3 * i + k], COORDS) for k in range(3)] for i in range(3)]
    rows = [[eval_jet(t, POINT, order) for t in row] for row in trees]
    return rows, eval_jet(trees, POINT, order)


def close(jet, ref, tol=1e-14):
    """Every Taylor coefficient of a scalar jet matches the reference."""
    assert jet.order == ref.order
    for a, b in zip(jet.coeffs, ref.coeffs):
        assert np.max(np.abs(np.asarray(a) - b)) <= tol * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_stack_and_entries_round_trip(order):
    rows, m = matrix(order)
    assert m.value.shape == (3, 3) and m.order == order
    for i, k in itertools.product(range(3), repeat=2):
        assert isinstance(m.take((i, k)).value, float)
        close(m.take((i, k)), rows[i][k], 0.0)
    t = m.transpose(1, 0)
    for i, k in itertools.product(range(3), repeat=2):
        close(t.take((i, k)), rows[k][i], 0.0)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_contract_is_the_product_rule(order):
    a_rows, a = matrix(order)
    b_rows, b = matrix(order, TEXTS[::-1])
    prod = contract("ik,kj->ij", a, b)
    for i, j in itertools.product(range(3), repeat=2):
        ref = sum((a_rows[i][k] * b_rows[k][j] for k in range(3)), start=0.0)
        close(prod.take((i, j)), ref)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_mat_det_inv_closed_form(order):
    rows, m = matrix(order)
    det, inv = mat_det_inv(m)
    # cofactor expansion with scalar jets as the reference determinant
    ref = sum((rows[0][p[0]] * rows[1][p[1]] * rows[2][p[2]]
               * np.linalg.det(np.eye(3)[list(p)])
               for p in itertools.permutations(range(3))), start=0.0)
    close(det, ref, 1e-13)
    eye = contract("ik,kj->ij", m, inv)
    for i, j in itertools.product(range(3), repeat=2):
        unit = Jet(float(i == j), *(np.zeros((3,) * d) for d in range(1, order + 1)))
        close(eye.take((i, j)), unit, 1e-14)


def test_singular_matrix_raises():
    m = Jet(np.ones((2, 2)), np.zeros((2, 2, 1)))
    with pytest.raises(np.linalg.LinAlgError):
        mat_det_inv(m)
