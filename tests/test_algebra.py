import itertools

import numpy as np
import pytest

from gcalc import blades
from gcalc.algebra import (Gram, LinMap, Multivector, dot, dual, gp, grade,
                           pseudoscalar, reciprocal_frame, reverse, trace_rot,
                           tsa_decompose, wedge)
from gcalc.errors import DimMismatch, MixedGrade, SingularFrame, SingularGram
from gcalc.jets import Jet


# ---------------------------------------------------------------------------
# Independent oracle: list-based diagonal product plus explicit minor
# transport through a basis change chosen by the test itself.
# ---------------------------------------------------------------------------

def _diag_mul(idx_a, idx_b, diag):
    """Product of ascending index tuples under a diagonal metric."""
    out = list(idx_a)
    coeff = 1.0
    for b in idx_b:
        swaps = sum(1 for a in out if a > b)
        if swaps % 2:
            coeff = -coeff
        if b in out:
            coeff *= diag[b]
            out.remove(b)
        else:
            out.append(b)
            out.sort()
    return coeff, tuple(out)


def _minor_matrix(S, k):
    n = S.shape[0]
    combos = list(itertools.combinations(range(n), k))
    O = np.zeros((len(combos), len(combos)))
    for a, rows in enumerate(combos):
        for b, cols in enumerate(combos):
            O[a, b] = np.linalg.det(S[np.ix_(rows, cols)]) if k else 1.0
    return combos, O


def _push(S, comps):
    """Blade components across e_i = sum_a S[i,a] f_a: new^K = det(S[J;K]) old^J.

    The pull-back is the same formula applied with S^{-1}.
    """
    n = S.shape[0]
    out = {}
    for k in range(n + 1):
        combos, O = _minor_matrix(S, k)
        index = {c: i for i, c in enumerate(combos)}
        vec = np.zeros(len(combos))
        for idx, c in comps.items():
            if len(idx) == k:
                vec[index[idx]] = c
        res = O.T @ vec
        for c, i in index.items():
            if res[i] != 0.0:
                out[c] = out.get(c, 0.0) + res[i]
    return out


def oracle_gp(A, B, S, diag):
    """Geometric product oracle for the Gram g = S diag S^T.

    A, B map ascending 0-based index tuples to coefficients.
    """
    a_f = _push(S, A)
    b_f = _push(S, B)
    prod = {}
    for ia, ca in a_f.items():
        for ib, cb in b_f.items():
            coeff, idx = _diag_mul(ia, ib, diag)
            if coeff != 0.0:
                prod[idx] = prod.get(idx, 0.0) + coeff * ca * cb
    Sinv = np.linalg.inv(S)
    return _push(Sinv, prod)


def _to_tuple_map(mv: Multivector):
    return {tuple(blades.indices_of(m)): c for m, c in mv.coeffs.items()}


def _from_tuple_map(dim, d):
    return Multivector(dim, {blades.mask_of(idx): c for idx, c in d.items()})


def _random_mv(rng, n, grades=None):
    coeffs = {}
    for m in range(1 << n):
        if grades is not None and m.bit_count() not in grades:
            continue
        if rng.random() < 0.7:
            coeffs[m] = float(rng.normal())
    return Multivector(n, coeffs)


def _random_gram_factors(rng, n, indefinite=False):
    S = rng.normal(size=(n, n))
    while abs(np.linalg.det(S)) < 0.3:
        S = rng.normal(size=(n, n))
    diag = rng.uniform(0.5, 2.0, size=n)
    if indefinite:
        signs = rng.choice([-1.0, 1.0], size=n)
        if np.all(signs > 0):
            signs[0] = -1.0
        diag = diag * signs
    return S, diag


def _dev(A: Multivector, B: Multivector):
    return (A - B).norm_inf() / max(1.0, A.norm_inf(), B.norm_inf())


class TestGeometricProduct:
    def test_euclidean_basis_product(self):
        e1 = Multivector.basis_vector(2, 1)
        e2 = Multivector.basis_vector(2, 2)
        out = gp(e1, e2, np.eye(2))
        assert out.to_blade_map() == {"1,2": pytest.approx(1.0)}

    def test_non_orthogonal_gram(self):
        g = [[1.0, 0.5], [0.5, 1.0]]
        e1 = Multivector.basis_vector(2, 1)
        e2 = Multivector.basis_vector(2, 2)
        out = gp(e1, e2, g)
        assert abs(out[""] - 0.5) < 1e-14
        assert abs(out["1,2"] - 1.0) < 1e-14

    def test_lorentz_square(self):
        g = np.diag([1.0, -1.0, -1.0, -1.0])
        e2 = Multivector.basis_vector(4, 2)
        out = gp(e2, e2, g)
        assert abs(out[""] + 1.0) < 1e-14
        assert len(out.coeffs) == 1

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for n in (2, 3, 4):
            for trial in range(30):
                S, diag = _random_gram_factors(rng, n, indefinite=(trial % 2 == 0))
                g = S @ np.diag(diag) @ S.T
                A = _random_mv(rng, n)
                B = _random_mv(rng, n)
                want = _from_tuple_map(n, oracle_gp(_to_tuple_map(A), _to_tuple_map(B), S, diag))
                got = gp(A, B, g)
                worst = max(worst, _dev(got, want))
        assert worst < 1e-10

    def test_matches_recursive_route(self):
        # the table route against the grade recursion it is built from
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for _ in range(20):
                S, diag = _random_gram_factors(rng, n, indefinite=True)
                g = S @ np.diag(diag) @ S.T
                A = _random_mv(rng, n)
                B = _random_mv(rng, n)
                got = gp(A, B, g)
                alt = Multivector(n, blades.gp_generic(A.coeffs, B.coeffs, g, n))
                assert _dev(got, alt) < 1e-10
                got = dot(A, B, g)
                alt = Multivector(n, blades.dot_generic(A.coeffs, B.coeffs, g, n))
                assert _dev(got, alt) < 1e-10
                top = (1 << n) - 1
                rev = -1.0 if (n * (n - 1) // 2) & 1 else 1.0
                mag2 = blades.gp_generic({top: 1.0}, {top: rev}, g, n)[0]
                unit = {top: 1.0 / abs(mag2) ** 0.5}
                square = blades.gp_generic(unit, unit, g, n)[0]
                alt = Multivector(n, blades.gp_generic(
                    A.coeffs, {top: unit[top] / square}, g, n))
                assert _dev(dual(A, g), alt) < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for n in (2, 3, 4):
            for _ in range(25):
                S, diag = _random_gram_factors(rng, n, indefinite=True)
                g = Gram(S @ np.diag(diag) @ S.T)
                A, B, C = (_random_mv(rng, n) for _ in range(3))
                worst = max(worst, _dev(gp(gp(A, B, g), C, g), gp(A, gp(B, C, g), g)))
        assert worst < 1e-10

    def test_fundamental_identity(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            for _ in range(25):
                S, diag = _random_gram_factors(rng, n, indefinite=True)
                g = Gram(S @ np.diag(diag) @ S.T)
                a = _random_mv(rng, n, grades={1})
                B = _random_mv(rng, n)
                lhs = gp(a, B, g)
                rhs = dot(a, B, g) + wedge(a, B)
                assert _dev(lhs, rhs) < 1e-10

    def test_vector_symmetry(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            S, diag = _random_gram_factors(rng, n, indefinite=True)
            g = Gram(S @ np.diag(diag) @ S.T)
            for _ in range(20):
                a = _random_mv(rng, n, grades={1})
                b = _random_mv(rng, n, grades={1})
                sym = (gp(a, b, g) + gp(b, a, g)) * 0.5
                anti = (gp(a, b, g) - gp(b, a, g)) * 0.5
                assert _dev(sym, dot(a, b, g)) < 1e-12
                assert _dev(anti, wedge(a, b)) < 1e-12

    def test_singular_gram_rejected(self):
        with pytest.raises(SingularGram):
            gp(Multivector.basis_vector(2, 1), Multivector.basis_vector(2, 2),
               [[1.0, 1.0], [1.0, 1.0]])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            gp(Multivector.basis_vector(2, 1), Multivector.basis_vector(3, 1), np.eye(2))

    def test_gram_is_read_only(self):
        g = Gram([[1.0, 0.5], [0.5, -1.0]])
        for arr in (g.matrix, g.inverse, g.table, g.dot_table):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0


class TestOutermorphism:
    def test_matches_minor_determinants(self):
        # f(e_J) built by wedging vector images must carry det(M[J;K]) on
        # e_K, which _push takes from np.linalg.det of every minor
        rng = np.random.default_rng(131)
        for n in (2, 3, 4):
            for _ in range(6):
                M = rng.normal(size=(n, n))
                A = _random_mv(rng, n)
                got = Multivector(n, blades.outermorphism(M, A.coeffs))
                want = _from_tuple_map(n, _push(M, _to_tuple_map(A)))
                assert _dev(got, want) < 1e-13

    def test_identity_and_jet_entries(self):
        A = {0: 2.0, 0b011: -1.5, 0b111: 0.25}
        assert blades.prune(blades.outermorphism(np.eye(3), A)) == A
        # a 2x2 jet matrix: the bivector picks up the determinant, with its
        # derivative by the product rule
        x = Jet.variable(0.5, 1, 0, 1)
        M = [[x, 0.0], [1.0, x * x]]
        out = blades.outermorphism(M, {0b11: 1.0})
        assert set(out) == {0b11}
        assert out[0b11].value == 0.125
        assert abs(out[0b11].grad[0] - 0.75) < 1e-15


class TestWedgeDotGrade:
    def test_wedge_basis(self):
        e1 = Multivector.basis_vector(3, 1)
        e2 = Multivector.basis_vector(3, 2)
        assert wedge(e1, e2).to_blade_map() == {"1,2": pytest.approx(1.0)}
        assert wedge(e1, e1).to_blade_map() == {}

    def test_wedge_mixed(self):
        e1 = Multivector.basis_vector(2, 1)
        e2 = Multivector.basis_vector(2, 2)
        out = wedge(Multivector.scalar(2, 1.0) + e1, e2)
        assert abs(out["2"] - 1.0) < 1e-15 and abs(out["1,2"] - 1.0) < 1e-15

    def test_wedge_is_gram_independent_vs_projected_product(self):
        rng = np.random.default_rng(41)
        for n in (2, 3):
            for _ in range(15):
                S1, d1 = _random_gram_factors(rng, n)
                S2, d2 = _random_gram_factors(rng, n, indefinite=True)
                g1 = Gram(S1 @ np.diag(d1) @ S1.T)
                g2 = Gram(S2 @ np.diag(d2) @ S2.T)
                A = _random_mv(rng, n)
                B = _random_mv(rng, n)
                w = wedge(A, B)
                for g in (g1, g2):
                    proj = Multivector(n, {})
                    for j in A.grades():
                        for k in B.grades():
                            proj = proj + grade(gp(grade(A, j), grade(B, k), g), j + k)
                    assert _dev(w, proj) < 1e-10

    def test_dot_examples(self):
        g = np.eye(2)
        e1 = Multivector.basis_vector(2, 1)
        e12 = Multivector.blade(2, [1, 2])
        assert dot(e12, e1, g).to_blade_map() == {}          # grade would drop below 0
        assert dot(e1, e1, g).to_blade_map() == {"": pytest.approx(1.0)}
        assert dot(e1, e12, g).to_blade_map() == {"2": pytest.approx(1.0)}

    def test_dot_against_oracle(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for n in (2, 3, 4):
            for _ in range(15):
                S, diag = _random_gram_factors(rng, n, indefinite=True)
                g = S @ np.diag(diag) @ S.T
                A = _random_mv(rng, n)
                B = _random_mv(rng, n)
                want = Multivector(n, {})
                for j in A.grades():
                    for k in B.grades():
                        if j > k:
                            continue
                        prod = oracle_gp(_to_tuple_map(grade(A, j)),
                                         _to_tuple_map(grade(B, k)), S, diag)
                        want = want + grade(_from_tuple_map(n, prod), k - j)
                worst = max(worst, _dev(dot(A, B, g), want))
        assert worst < 1e-10

    def test_grade_selection(self):
        m = Multivector(3, {0: 1.0, 0b11: 2.0, 0b111: 3.0})
        assert grade(m, 2).to_blade_map() == {"1,2": pytest.approx(2.0)}
        assert grade(m, 1).to_blade_map() == {}
        assert grade(m, -1).to_blade_map() == {}
        assert grade(m, 5).to_blade_map() == {}
        total = grade(m, 0) + grade(m, 1) + grade(m, 2) + grade(m, 3)
        assert _dev(total, m) == 0.0


class TestDual:
    def test_pseudoscalar_maps_to_one(self):
        for g in (np.eye(2), np.eye(3), np.diag([1.0, -1.0, -1.0, -1.0])):
            n = g.shape[0]
            I = pseudoscalar(g)
            assert _dev(dual(I, g), Multivector.scalar(n, 1.0)) < 1e-12

    def test_scalar_maps_to_inverse_pseudoscalar(self):
        g = np.eye(3)
        I = pseudoscalar(g)
        s = gp(I, I, g)[""]
        assert _dev(dual(Multivector.scalar(3, 1.0), g), I * (1.0 / s)) < 1e-12

    def test_euclidean_r3_vector(self):
        out = dual(Multivector.basis_vector(3, 1), np.eye(3))
        assert out.to_blade_map() == {"2,3": pytest.approx(-1.0)}

    def test_orientation_flips_sign(self):
        g = np.eye(3)
        a = dual(Multivector.basis_vector(3, 1), g, orientation=1)
        b = dual(Multivector.basis_vector(3, 1), g, orientation=-1)
        assert _dev(a, -1.0 * b) < 1e-14

    def test_duality_relations(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 4):
            for indef in (False, True):
                S, diag = _random_gram_factors(rng, n, indefinite=indef)
                g = Gram(S @ np.diag(diag) @ S.T)
                for j in range(n + 1):
                    for k in range(n + 1):
                        A = _random_mv(rng, n, grades={j})
                        B = _random_mv(rng, n, grades={k})
                        lhs = dual(dot(A, B, g), g)
                        rhs = wedge(A, dual(B, g))
                        assert _dev(lhs, rhs) < 1e-10
                        lhs2 = dual(wedge(A, B), g)
                        rhs2 = dot(A, dual(B, g), g)
                        assert _dev(lhs2, rhs2) < 1e-10


class TestReciprocalFrame:
    def test_identity(self):
        r = reciprocal_frame(np.eye(3), np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_polar_at_r2(self):
        r = reciprocal_frame(np.eye(2), np.diag([1.0, 4.0]))
        assert np.allclose(r, np.diag([1.0, 0.25]))

    def test_lorentz_orthonormal(self):
        g = np.diag([1.0, -1.0, -1.0, -1.0])
        r = reciprocal_frame(np.eye(4), g)
        assert np.allclose(r, g)       # e^i = eta(i) e_i

    def test_defining_property(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            S, diag = _random_gram_factors(rng, 3, indefinite=True)
            g = S @ np.diag(diag) @ S.T
            F = rng.normal(size=(3, 3))
            while abs(np.linalg.det(F)) < 0.3:
                F = rng.normal(size=(3, 3))
            R = reciprocal_frame(F, g)
            assert np.allclose(R @ g @ F.T, np.eye(3), atol=1e-10)

    def test_singular_frame(self):
        with pytest.raises(SingularFrame):
            reciprocal_frame([[1.0, 0.0], [2.0, 0.0]], np.eye(2))


class TestLinMaps:
    def test_identity_trace_rot(self):
        f = LinMap(np.eye(3))       # f(e^i) = e_i has upper components delta
        g = np.eye(3)
        tr, rot = trace_rot(f, g)
        assert abs(tr - 3.0) < 1e-14
        assert rot.norm_inf() == 0.0

    def test_antisymmetric_rot_doubles(self):
        c = 0.7
        f = LinMap([[0.0, c], [-c, 0.0]])
        tr, rot = trace_rot(f, np.eye(2))
        assert abs(tr) < 1e-15
        assert abs(rot["1,2"] - 2 * c) < 1e-15

    def test_symmetric_has_no_rot(self):
        rng = np.random.default_rng(81)
        m = rng.normal(size=(3, 3))
        f = LinMap(m + m.T)
        _, rot = trace_rot(f, np.eye(3))
        assert rot.norm_inf() == 0.0

    def test_trace_rot_basis_independent(self):
        rng = np.random.default_rng(91)
        for _ in range(15):
            n = 3
            g = np.eye(n)
            M = rng.normal(size=(n, n))          # abstract map on coordinate comps
            S = rng.normal(size=(n, n))
            while abs(np.linalg.det(S)) < 0.3:
                S = rng.normal(size=(n, n))
            # frame 1: identity rows; frame 2: rows S
            def components(F):
                gram = F @ g @ F.T
                R = np.linalg.solve(gram, F)       # reciprocal rows, coord comps
                return np.array([[R[i] @ g @ (M @ R[j]) for j in range(n)]
                                 for i in range(n)]), gram
            f1, g1 = components(np.eye(n))
            f2, g2 = components(S)
            tr1, rot1 = trace_rot(LinMap(f1), g1)
            tr2, rot2 = trace_rot(LinMap(f2), g2)
            assert abs(tr1 - tr2) < 1e-10 * max(1.0, abs(tr1))
            # map frame-2 rot back to coordinate components for comparison
            def rot_coord(rot, F):
                out = np.zeros((n, n))
                for mask, cc in rot.coeffs.items():
                    i, j = blades.indices_of(mask)
                    out += cc * (np.outer(F[i], F[j]) - np.outer(F[j], F[i])) / 2.0
                return out
            assert np.allclose(rot_coord(rot1, np.eye(n)), rot_coord(rot2, S), atol=1e-9)

    def test_tsa_identity_map(self):
        g = Gram(np.eye(3))
        tr, fm, fp = tsa_decompose(LinMap(np.eye(3)), g)
        assert abs(tr - 3.0) < 1e-14
        assert np.max(np.abs(fm.upper)) < 1e-15
        assert np.max(np.abs(fp.upper)) < 1e-15

    def test_tsa_antisymmetric(self):
        f = LinMap([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
        tr, fm, fp = tsa_decompose(f, np.eye(3))
        assert abs(tr) < 1e-15
        assert np.allclose(fm.upper, f.upper)
        assert np.max(np.abs(fp.upper)) < 1e-15

    def test_tsa_reconstruction_and_parts(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            S, diag = _random_gram_factors(rng, n, indefinite=True)
            g = Gram(S @ np.diag(diag) @ S.T)
            f = LinMap(rng.normal(size=(n, n)))
            tr, fm, fp = tsa_decompose(f, g)
            recon = (tr / n) * g.inverse + fm.upper + fp.upper
            assert np.max(np.abs(recon - f.upper)) < 1e-12
            # antisymmetric part: f_minus(a).b = -f_minus(b).a
            assert np.allclose(fm.upper, -fm.upper.T, atol=1e-13)
            # traceless symmetric part
            tr_p, rot_p = trace_rot(fp, g)
            assert abs(tr_p) < 1e-10
            assert rot_p.norm_inf() < 1e-13

    def test_rot_contraction_constant(self):
        # a . rot(f) = c * f_minus(a); the measured c
        rng = np.random.default_rng(111)
        cs = []
        for _ in range(40):
            n = int(rng.integers(2, 5))
            S, diag = _random_gram_factors(rng, n)
            g = Gram(S @ np.diag(diag) @ S.T)
            f = LinMap(rng.normal(size=(n, n)))
            _, fm, _ = tsa_decompose(f, g)
            _, rot = trace_rot(f, g)
            a = Multivector.vector(rng.normal(size=n))
            lhs = dot(a, rot, g)
            rhs = fm.apply(a, g)
            if rhs.norm_inf() < 1e-9:
                continue
            ratios = [lhs[m] / c for m, c in rhs.coeffs.items() if abs(c) > 1e-6]
            cs.extend(ratios)
        cs = np.array(cs)
        assert np.max(np.abs(cs - cs[0])) < 1e-10
        assert abs(cs[0] - 2.0) < 1e-12

    def test_mixed_grade_rejected(self):
        f = LinMap(np.eye(2))
        with pytest.raises(MixedGrade):
            f.apply(Multivector(2, {0: 1.0, 1: 1.0}), np.eye(2))
