"""The constant blade tables behind the operator layer, checked entry by
entry against the dict-valued blade arithmetic they replace."""

import numpy as np
import pytest

from gcalc import blades as bl
from gcalc.connection import conn_spec
from gcalc.manifest import load_manifest
from gcalc.manifold import MultivectorField
from gcalc.mdd import curl, gradient

DIMS = (1, 2, 3, 4)


def _interior(i, mv):
    """e^i . mv with e^i . e_j = delta^i_j: drop index i from each blade
    holding it, signed by the number of indices below it."""
    bit = 1 << i
    below = bit - 1
    return {m ^ bit: -c if (m & below).bit_count() & 1 else c
            for m, c in mv.items() if m & bit}


def _apply(table, k, mv, n):
    """T_k mv for a table (src, sign) of blade_tensors and an index k (an
    int or a pair), as a blade map without its zeros."""
    src, sign = table
    x = np.zeros(1 << n)
    for m, c in mv.items():
        x[m] = c
    y = sign[k] * x[src[k]]
    return {m: float(y[m]) for m in range(1 << n) if y[m]}


@pytest.mark.parametrize("n", DIMS)
def test_lift_replaces_each_vector_by_substitution(n):
    lift, interior, wedge = bl.blade_tensors(n)
    for mask in range(1 << n):
        for j in range(n):
            for l in range(n):
                want: dict = {}
                for pos, index in enumerate(bl.indices_of(mask)):
                    if index == j and (res := bl.substitute(mask, pos, l)):
                        bl.add_into(want, {res[1]: float(res[0])})
                assert _apply(lift, (j, l), {mask: 1.0}, n) == want
                # the lift is the interior product, then the wedge
                assert _apply(wedge, l, _apply(interior, j, {mask: 1.0}, n), n) == want


@pytest.mark.parametrize("n", DIMS)
def test_lift_is_the_derivation_of_the_outermorphism(n):
    """For the matrix unit E (e_j -> e_l) the outermorphism of I + E is
    I + Lambda[j, l] exactly, since E ^ E = 0."""
    lift = bl.blade_tensors(n)[0]
    for j in range(n):
        for l in range(n):
            M = np.eye(n)
            M[j, l] += 1.0
            for mask in range(1 << n):
                image = bl.outermorphism(M.tolist(), {mask: 1.0})
                got = {m: c for m, c in image.items() if c}
                want = _apply(lift, (j, l), {mask: 1.0}, n)
                want[mask] = want.get(mask, 0.0) + 1.0
                assert got == {m: c for m, c in want.items() if c}


@pytest.mark.parametrize("n", DIMS)
def test_interior_matches_sign_rule(n):
    interior = bl.blade_tensors(n)[1]
    for i in range(n):
        for mask in range(1 << n):
            assert _apply(interior, i, {mask: 1.0}, n) == _interior(i, {mask: 1.0})


@pytest.mark.parametrize("n", DIMS)
def test_wedge_matches_wedge_generic(n):
    wedge = bl.blade_tensors(n)[2]
    for l in range(n):
        for mask in range(1 << n):
            want = bl.wedge_generic({1 << l: 1.0}, {mask: 1.0})
            assert _apply(wedge, l, {mask: 1.0}, n) == want


def test_built_once_read_only_and_linear_in_blades():
    first = bl.blade_tensors(3)
    assert bl.blade_tensors(3) is first
    for table in first:
        for t in table:
            with pytest.raises(ValueError):
                t[(0,) * t.ndim] = 1
    lift, interior, wedge = bl.blade_tensors(12)
    assert all(t.shape == (12, 12, 1 << 12) for t in lift)
    assert all(t.shape == (12, 1 << 12) for t in interior + wedge)


def test_operators_on_a_ten_dimensional_chart():
    """Closed forms on flat R^10: grad(x1 x2 + x10) and curl(x2 e_1)."""
    n = 10
    coords = [f"x{i + 1}" for i in range(n)]
    chart = load_manifest({
        "name": "euclid10", "coordinates": coords,
        "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
    }).chart
    spec = conn_spec(chart, "coord")
    point = tuple(0.1 * (i + 1) for i in range(n))
    phi = MultivectorField.parse(chart, {"": "x1*x2 + x10"})
    got = gradient(spec, phi, point).to_blade_map()
    assert got == pytest.approx({"1": 0.2, "2": 0.1, "10": 1.0})
    vec = MultivectorField.parse(chart, {"1": "x2"})
    assert curl(spec, vec, point).to_blade_map() == pytest.approx({"1,2": -1.0})
