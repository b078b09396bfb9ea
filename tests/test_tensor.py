"""Tensor fields over multivector slots: evaluation, products, contraction,
derivatives, and the hat/breve conjugates."""

import itertools

import numpy as np
import pytest

from gcalc import blades as bl
from gcalc import expr as ex
from gcalc.algebra import Multivector, as_gram, dot as mv_dot, wedge as mv_wedge
from gcalc.connection import conn_spec, gamma_jets, levi_civita, contorsion_apply
from gcalc.errors import (GradeMismatch, MixedGrade, NonScalarOutput,
                          SignatureMismatch, SlotGradeError)
from gcalc import suites
from gcalc.manifest import builtin, builtin_names
from gcalc.manifold import MultivectorField, eval_frame, frame_jets, sample_point
from gcalc.mdd import DerivedField, eval_field, from_blade_map, mdd
from gcalc.tensor import (TensorField, TensorSignature, change_of_frame_matrix,
                          conjugate_derivative_check, contorsion_tensor,
                          contract, metric_tensor_field, tensor_add,
                          tensor_conjugate, tensor_conjugate_breve,
                          tensor_derivative_chain,
                          tensor_derivative_components, tensor_eval,
                          tensor_output_field, tensor_product, tensor_scale)

SPHERE = builtin("sphere2").chart
POLAR = builtin("polar2").chart
FLAT2 = builtin("euclid2").chart

CHI_SPHERE = (
    (1, 2, 1, "0.3*theta"), (1, 1, 2, "-0.3*theta"),
    (2, 2, 1, "0.4 + 0.1*phi"), (2, 1, 2, "-0.4 - 0.1*phi"),
)

E1 = Multivector(2, {1: 1.0})
E2 = Multivector(2, {2: 1.0})


def basis_fields(n):
    return [MultivectorField("coord", {1 << i: ex.Num(1.0)}) for i in range(n)]


def rank2_example():
    return TensorField(SPHERE, "coord", TensorSignature((1, 1), 0), {
        (1, 1, 0): "theta^2",
        (1, 2, 0): "sin(theta)*phi",
        (2, 1, 0): "cos(phi)",
        (2, 2, 0): "theta*phi^2",
    })


class TestEvaluation:
    def test_metric_tensor_reproduces_gram(self):
        point = (0.9, 0.5)
        for frame in ("coord", "ortho"):
            ghat = metric_tensor_field(SPHERE, frame)
            gram = eval_frame(SPHERE, frame, point).gram.value
            for i, Ei in enumerate((E1, E2)):
                for j, Ej in enumerate((E1, E2)):
                    got = tensor_eval(ghat, [Ei, Ej], point)[0]
                    assert got == pytest.approx(gram[i][j], abs=1e-12)

    def test_empty_tensor_evaluates_to_zero(self):
        T = TensorField(SPHERE, "coord", TensorSignature((1, 1), 0), {})
        assert tensor_eval(T, [E1, E2], (0.8, 0.3)).norm_inf() == 0.0

    def test_multilinear_in_each_slot(self):
        T = rank2_example()
        point = (1.1, 0.7)
        a = Multivector(2, {1: 0.3, 2: -1.2})
        b = Multivector(2, {1: 1.5, 2: 0.4})
        c = Multivector(2, {1: -0.6, 2: 0.9})
        lhs = tensor_eval(T, [2.0 * a + 3.0 * b, c], point)[0]
        rhs = 2.0 * tensor_eval(T, [a, c], point)[0] \
            + 3.0 * tensor_eval(T, [b, c], point)[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_output_expands_over_reciprocal_basis(self):
        # T(e_1) = e^2 r^2: a vector-valued one-slot tensor
        T = TensorField(POLAR, "coord", TensorSignature((1,), 1),
                        {(1, 2): "r^2"})
        point = (1.5, 0.3)
        got = tensor_eval(T, [E1], point)
        frame_at = eval_frame(POLAR, "coord", point)
        want = point[0] ** 2 * frame_at.gram_inv.value[1]
        assert got[1] == pytest.approx(want[0], abs=1e-13)
        assert got[2] == pytest.approx(want[1], abs=1e-13)

    def test_wrong_grade_argument_rejected(self):
        T = rank2_example()
        biv = Multivector(2, {3: 1.0})
        with pytest.raises(GradeMismatch):
            tensor_eval(T, [biv, E1], (0.9, 0.5))

    def test_wrong_argument_count_rejected(self):
        with pytest.raises(SlotGradeError):
            tensor_eval(rank2_example(), [E1], (0.9, 0.5))

    def test_index_raising_matches_reciprocal_arguments(self):
        T = rank2_example()
        point = (0.7, -0.6)
        ginv = eval_frame(SPHERE, "coord", point).gram_inv.value
        for i in range(2):
            recip = Multivector(2, {1 << l: ginv[i][l] for l in range(2)})
            lhs = tensor_eval(T, [recip, E2], point)[0]
            rhs = sum(ginv[i][k] * tensor_eval(
                T, [Multivector(2, {1 << k: 1.0}), E2], point)[0]
                for k in range(2))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_eval_is_the_output_field_on_constant_arguments(self):
        """tensor_eval equals eval_field of tensor_output_field when every
        argument is a constant field, and both equal the component sum over
        reciprocal blades E^J = e^{j1} ^ ... ^ e^{jk} built with
        algebra.wedge, including multivector outputs."""
        rng = np.random.default_rng(17)
        for name in ("sphere2", "euclid3", "minkowski4"):
            chart = builtin(name).chart
            n = chart.n
            point = tuple(0.3 + 0.1 * i for i in range(n))
            ginv = eval_frame(chart, "coord", point).gram_inv.value
            recip = [Multivector(n, {1 << l: ginv[i][l] for l in range(n)})
                     for i in range(n)]
            for inputs, output in (((1, 1), 0), ((1,), 1), ((2, 1), 2),
                                   ((1,), n)):
                grades = inputs + (output,)
                comps = {key: f"{rng.uniform(-1, 1)!r} + {chart.coords[0]}^2"
                         for key in itertools.product(*[
                             [m for m in range(1 << n) if m.bit_count() == k]
                             for k in grades])}
                T = TensorField(chart, "coord", TensorSignature(inputs, output),
                                comps)
                args = [Multivector(n, {m: float(rng.normal())
                                        for m in range(1 << n)
                                        if m.bit_count() == k})
                        for k in inputs]
                want = Multivector(n, {})
                for key, e in T.components.items():
                    blade = Multivector.scalar(n, 1.0)
                    for i in bl.indices_of(key[-1]):
                        blade = mv_wedge(blade, recip[i])
                    coeff = ex.eval_value(e, point)
                    for a, mask in zip(args, key[:-1]):
                        coeff *= a[mask]
                    want = want + coeff * blade
                fields = [MultivectorField("coord", {m: ex.Num(c)
                                                     for m, c in a.coeffs.items()})
                          for a in args]
                got = tensor_eval(T, args, point)
                assert got.norm_inf() > 0.0
                assert (got - want).norm_inf() < 1e-12 * max(1.0, want.norm_inf())
                assert got == eval_field(tensor_output_field(T, fields), point)


class TestAlgebra:
    def test_product_takes_covariant_components(self):
        af = MultivectorField("coord", {1: ex.Num(2.0), 2: ex.Num(3.0)})
        bf = MultivectorField("coord", {1: ex.Num(-1.0), 2: ex.Num(5.0)})
        TP = tensor_product(tensor_conjugate(FLAT2, "coord", af),
                            tensor_conjugate(FLAT2, "coord", bf))
        point = (0.0, 0.0)
        got = np.array([[tensor_eval(TP, [Ei, Ej], point)[0]
                         for Ej in (E1, E2)] for Ei in (E1, E2)])
        assert np.allclose(got, np.outer([2.0, 3.0], [-1.0, 5.0]), atol=1e-13)

    def test_product_requires_scalar_output(self):
        T = TensorField(POLAR, "coord", TensorSignature((1,), 1),
                        {(1, 2): "r"})
        with pytest.raises(NonScalarOutput):
            tensor_product(T, T)

    def test_add_requires_equal_signatures(self):
        T = rank2_example()
        S = TensorField(SPHERE, "coord", TensorSignature((1,), 0), {(1, 0): "1"})
        with pytest.raises(SignatureMismatch):
            tensor_add(T, S)

    def test_add_and_scale_are_pointwise(self):
        T = rank2_example()
        point = (0.8, 0.9)
        S = tensor_add(tensor_scale(T, 2.0), T)
        got = tensor_eval(S, [E1, E2], point)[0]
        assert got == pytest.approx(3.0 * tensor_eval(T, [E1, E2], point)[0],
                                    abs=1e-12)


class TestContraction:
    def test_trace_of_metric_is_dimension(self):
        point = (1.0, 0.4)
        for chart in (SPHERE, POLAR):
            ghat = metric_tensor_field(chart, "coord")
            got = contract(ghat, 0, 1, point)
            assert got[(0,)] == pytest.approx(2.0, abs=1e-12)

    def test_contraction_is_basis_independent(self):
        """Summing T(b_i, b^i) over any frame and its reciprocal gives the
        same scalar as the component formula."""
        T = rank2_example()
        point = (0.9, 0.5)
        want = contract(T, 0, 1, point)[(0,)]

        ortho = eval_frame(SPHERE, "ortho", point)
        reciprocal = ortho.gram_inv.value @ ortho.F.value
        total = 0.0
        for i in range(2):
            b_i = Multivector(2, {1 << l: ortho.F.value[i][l] for l in range(2)})
            b_up = Multivector(2, {1 << l: reciprocal[i][l]
                                   for l in range(2)})
            total += tensor_eval(T, [b_i, b_up], point)[0]
        assert total == pytest.approx(want, abs=1e-10)

    def test_conjugate_product_contracts_to_inner_product(self):
        point = (1.2, 0.6)
        af = MultivectorField.parse(SPHERE, {"1": "theta", "2": "phi"})
        bf = MultivectorField.parse(SPHERE, {"1": "2", "2": "sin(theta)"})
        TP = tensor_product(tensor_conjugate(SPHERE, "coord", af),
                            tensor_conjugate(SPHERE, "coord", bf))
        frame_at = eval_frame(SPHERE, "coord", point)
        got = contract(TP, 0, 1, point).get((0,), 0.0)
        a = Multivector(2, {1: point[0], 2: point[1]})
        b = Multivector(2, {1: 2.0, 2: np.sin(point[0])})
        want = mv_dot(a, b, as_gram(frame_at.gram.value))[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_reads_the_tensors_own_frame(self):
        """The same components delta_ij over two frames contract with each
        frame's own reciprocal: to g^11 + g^22 over the sphere's coordinate
        frame and to 2 over its orthonormal frame."""
        point = (0.9, 0.5)
        sig = TensorSignature((1, 1), 0)
        comps = {(1, 1, 0): "1", (2, 2, 0): "1"}
        coord = contract(TensorField(SPHERE, "coord", sig, comps), 0, 1, point)
        ortho = contract(TensorField(SPHERE, "ortho", sig, comps), 0, 1, point)
        assert coord[(0,)] == pytest.approx(1.0 + 1.0 / np.sin(0.9) ** 2, rel=1e-12)
        assert ortho[(0,)] == pytest.approx(2.0, rel=1e-12)

    def test_grade_one_slots_required(self):
        T = TensorField(SPHERE, "coord", TensorSignature((2, 1), 0),
                        {(3, 1, 0): "theta"})
        with pytest.raises(SlotGradeError):
            contract(T, 0, 1, (0.8, 0.3))
        with pytest.raises(SlotGradeError):
            contract(T, 1, 1, (0.8, 0.3))


class TestDerivative:
    def test_chain_rule_matches_component_formula_rank2(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        T = rank2_example()
        point = (np.pi / 4, 0.7)
        dcomp = tensor_derivative_components(spec, T, point)
        Ef = basis_fields(2)
        for i, j, k in itertools.product(range(2), repeat=3):
            a = [1.0 if l == i else 0.0 for l in range(2)]
            chain = tensor_derivative_chain(spec, T, a, [Ef[j], Ef[k]], point)
            assert chain[0] == pytest.approx(dcomp[i, j, k], abs=1e-9)

    def test_chain_rule_matches_component_formula_rank3(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        T = TensorField(SPHERE, "coord", TensorSignature((1, 1, 1), 0), {
            (1, 1, 1, 0): "theta*phi",
            (1, 2, 1, 0): "sin(theta)",
            (2, 1, 2, 0): "phi^2",
            (2, 2, 2, 0): "cos(theta)*phi",
        })
        point = (0.9, 0.4)
        dcomp = tensor_derivative_components(spec, T, point)
        Ef = basis_fields(2)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            a = [1.0 if m == i else 0.0 for m in range(2)]
            chain = tensor_derivative_chain(spec, T, a,
                                            [Ef[j], Ef[k], Ef[l]], point)
            assert chain[0] == pytest.approx(dcomp[i, j, k, l], abs=1e-9)

    def test_component_formula_reduces_to_partials_when_flat(self):
        spec = levi_civita(FLAT2, "coord")
        T = TensorField(FLAT2, "coord", TensorSignature((1, 1), 0), {
            (1, 1, 0): "x^2*y", (2, 2, 0): "x + y^3"})
        point = (0.7, 1.2)
        dcomp = tensor_derivative_components(spec, T, point)
        x, y = point
        assert dcomp[0, 0, 0] == pytest.approx(2 * x * y)
        assert dcomp[1, 0, 0] == pytest.approx(x * x)
        assert dcomp[0, 1, 1] == pytest.approx(1.0)
        assert dcomp[1, 1, 1] == pytest.approx(3 * y * y)
        assert dcomp[0, 0, 1] == 0.0 and dcomp[1, 1, 0] == 0.0

    def test_metric_is_parallel(self):
        point = (0.8, 0.6)
        Ef = basis_fields(2)
        for chi in ((), CHI_SPHERE):
            spec = conn_spec(SPHERE, "coord", chi)
            ghat = metric_tensor_field(SPHERE, "coord")
            for i, j, k in itertools.product(range(2), repeat=3):
                a = [1.0 if l == i else 0.0 for l in range(2)]
                val = tensor_derivative_chain(spec, ghat, a,
                                              [Ef[j], Ef[k]], point)
                assert val.norm_inf() < 1e-10

    def test_pointwise_linear_in_arguments(self):
        """Scaling an argument slot by a scalar field scales the derivative
        pointwise; the derivative of the scale factor cancels."""
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        T = rank2_example()
        point = (1.1, 0.3)
        a = [0.4, -0.9]
        phi = SPHERE.parse("1 + theta*phi")
        e2_scaled = MultivectorField("coord", {2: phi})
        Ef = basis_fields(2)
        lhs = tensor_derivative_chain(spec, T, a, [Ef[0], e2_scaled], point)
        rhs = tensor_derivative_chain(spec, T, a, [Ef[0], Ef[1]], point)
        phi_val = 1 + point[0] * point[1]
        assert (lhs - phi_val * rhs).norm_inf() < 1e-9

    def test_derivative_commutes_with_contraction(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        T = rank2_example()
        point = (0.9, 0.5)
        a = [0.7, -0.4]
        frame_at = eval_frame(SPHERE, "coord", point)
        Ef = basis_fields(2)

        lhs = 0.0
        for i in range(2):
            recip = MultivectorField(
                "coord", {1 << l: ex.Num(float(frame_at.gram_inv.value[i][l]))
                          for l in range(2)})
            lhs += tensor_derivative_chain(spec, T, a, [Ef[i], recip], point)[0]

        def tbar_fn(p, order):
            fj = frame_jets(SPHERE, "coord", p, order)
            tot = None
            for i in range(2):
                for j in range(2):
                    cj = ex.eval_jet(T.components[(1 << i, 1 << j, 0)], p, order)
                    term = fj.gram_inv.take((i, j)) * cj
                    tot = term if tot is None else tot + term
            return from_blade_map({0: tot}, 2, order)

        rhs = mdd(spec, a, DerivedField("coord", tbar_fn), point)[0]
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_chain_value_is_extension_independent(self):
        """Evaluating (DT)(a, ., .) on two different field extensions of the
        same vectors at the point gives the same number."""
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        T = rank2_example()
        point = (1.0, 0.6)
        a = [0.5, 0.5]
        const = MultivectorField("coord", {1: ex.Num(1.0), 2: ex.Num(2.0)})
        # same value at the point, wildly different derivatives
        theta0, phi0 = point
        varying = MultivectorField.parse(SPHERE, {
            "1": f"1 + (theta - {theta0!r}) * phi",
            "2": f"2 + sin(phi - {phi0!r}) * theta"})
        other = basis_fields(2)[0]
        v1 = tensor_derivative_chain(spec, T, a, [other, const], point)[0]
        v2 = tensor_derivative_chain(spec, T, a, [other, varying], point)[0]
        assert v1 == pytest.approx(v2, abs=1e-9)


def components_by_index(spec, T, point):
    """D_i T_{j...} entry by entry: F_ik d_k T_{j...} minus, per slot s and
    index l, Gamma_{i j_s}^l T_{...l...}, skipping absent components."""
    n, rank = T.n, T.signature.rank
    gj = gamma_jets(spec, tuple(point), 0)
    F, mixed = gj.frame.F.value, gj.mixed.value
    comp_jets = {}
    for idx in itertools.product(range(n), repeat=rank):
        e = T.components.get(tuple(1 << j for j in idx) + (0,))
        comp_jets[idx] = ex.eval_jet(e, point, 1) if e is not None else None
    out = np.zeros((n,) * (rank + 1))
    for i in range(n):
        for idx in itertools.product(range(n), repeat=rank):
            cj = comp_jets[idx]
            val = 0.0
            if cj is not None:
                val = sum(F[i][k] * cj.grad[k] for k in range(n))
            for s in range(rank):
                for l in range(n):
                    cl = comp_jets[idx[:s] + (l,) + idx[s + 1:]]
                    if cl is not None:
                        val -= mixed[i][idx[s]][l] * cl.value
            out[(i,) + idx] = val
    return out


@pytest.mark.parametrize("name", ["sphere2", "polar2", "euclid3"])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_component_contractions_match_index_loop(name, rank):
    chart = builtin(name).chart
    rng = np.random.default_rng(1000 * rank + len(name))
    n = chart.n
    for frame in chart.frames:
        for chi in ((), suites._rand_chi(rng, chart)):
            spec = conn_spec(chart, frame, chi)
            # about a third of the components are absent
            comps = {tuple(1 << j for j in idx) + (0,): suites._rand_scalar_expr(rng, chart)
                     for idx in itertools.product(range(n), repeat=rank)
                     if rng.random() < 0.7}
            T = TensorField(chart, frame, TensorSignature((1,) * rank, 0), comps)
            point = sample_point(chart, rng)
            got = tensor_derivative_components(spec, T, point)
            want = components_by_index(spec, T, point)
            assert got.shape == (n,) * (rank + 1)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


class TestConjugates:
    def test_hat_of_bivector_uses_reversal(self):
        B = MultivectorField("coord", {3: ex.Num(1.0)})
        hatB = tensor_conjugate(FLAT2, "coord", B)
        assert tensor_eval(hatB, [E1, E2], (0., 0.))[0] == pytest.approx(1.0)
        assert tensor_eval(hatB, [E2, E1], (0., 0.))[0] == pytest.approx(-1.0)
        assert tensor_eval(hatB, [E1, E1], (0., 0.))[0] == 0.0

    def test_hat_of_reciprocal_vector_is_kronecker_delta(self):
        point = (0.9, 0.4)
        ginv = eval_frame(SPHERE, "coord", point).gram_inv.value
        for i in range(2):
            recip = MultivectorField(
                "coord", {1 << l: ex.Num(float(ginv[i][l])) for l in range(2)})
            hat_r = tensor_conjugate(SPHERE, "coord", recip)
            for j, Ej in enumerate((E1, E2)):
                want = 1.0 if i == j else 0.0
                assert tensor_eval(hat_r, [Ej], point)[0] == pytest.approx(
                    want, abs=1e-12)

    def test_hat_against_gram_determinant(self):
        """hat(b1 ^ b2)(a1, a2) = det of the mutual inner products."""
        rng = np.random.default_rng(7)
        point = (1.1, 0.8)
        frame_at = eval_frame(SPHERE, "coord", point)
        gram = as_gram(frame_at.gram.value)
        b = [Multivector(2, {1: float(rng.uniform(-1, 1)),
                             2: float(rng.uniform(-1, 1))}) for _ in range(2)]
        a = [Multivector(2, {1: float(rng.uniform(-1, 1)),
                             2: float(rng.uniform(-1, 1))}) for _ in range(2)]
        Bw = mv_wedge(b[0], b[1])
        Bf = MultivectorField("coord", {m: ex.Num(c)
                                        for m, c in Bw.coeffs.items()})
        hatB = tensor_conjugate(SPHERE, "coord", Bf)
        got = tensor_eval(hatB, a, point)[0]
        M = np.array([[mv_dot(b[r], a[s], gram)[0] for s in range(2)]
                      for r in range(2)])
        assert got == pytest.approx(np.linalg.det(M), abs=1e-10)

    def test_breve_pairs_blades_by_inner_product(self):
        point = (0.9, 0.7)
        frame_at = eval_frame(SPHERE, "coord", point)
        gram = as_gram(frame_at.gram.value)
        B = MultivectorField.parse(SPHERE, {"1,2": "theta*phi"})
        breve = tensor_conjugate_breve(SPHERE, "coord", B)
        E12 = Multivector(2, {3: 1.0})
        got = tensor_eval(breve, [E12], point)[0]
        Bv = Multivector(2, {3: point[0] * point[1]})
        assert got == pytest.approx(mv_dot(Bv, E12, gram)[0], abs=1e-12)

    def test_mixed_grade_rejected(self):
        B = MultivectorField.parse(SPHERE, {"": "1", "1,2": "theta"})
        with pytest.raises(MixedGrade):
            tensor_conjugate(SPHERE, "coord", B)

    def test_derivative_commutes_with_hat(self):
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        B = MultivectorField.parse(SPHERE, {"1,2": "theta*phi + 2"})
        dev = conjugate_derivative_check(spec, B, [0.3, -0.8], (np.pi / 4, 0.7),
                                         rng=np.random.default_rng(5),
                                         samples=4)
        assert dev < 1e-9

    def test_derivative_commutes_with_hat_for_vectors(self):
        spec = levi_civita(POLAR, "coord")
        B = MultivectorField.parse(POLAR, {"1": "r*theta", "2": "cos(r)"})
        dev = conjugate_derivative_check(spec, B, [1.0, 0.4], (1.3, 0.5),
                                         rng=np.random.default_rng(8),
                                         samples=4)
        assert dev < 1e-9


class TestContorsionTensor:
    def test_matches_operator_difference(self):
        point = (np.pi / 4, 0.7)
        Q = contorsion_tensor(SPHERE, "coord", CHI_SPHERE)
        spec = conn_spec(SPHERE, "coord", CHI_SPHERE)
        lc = levi_civita(SPHERE, "coord")
        Ef = basis_fields(2)
        for i in range(2):
            a = [1.0 if k == i else 0.0 for k in range(2)]
            for j, Ej in enumerate((E1, E2)):
                qv = tensor_eval(Q, [Multivector(2, {1 << i: 1.0}), Ej], point)
                ca = contorsion_apply(spec, lc, a, Ef[j], point)
                assert (qv - ca).norm_inf() < 1e-10


def test_change_of_frame_transformation_law():
    """Components in a second frame are two P-factors away from the first."""
    T = rank2_example()
    point = (0.9, 0.5)
    P = change_of_frame_matrix(SPHERE, "ortho", "coord", point)
    ortho = eval_frame(SPHERE, "ortho", point)
    comps = np.array([[ex.eval_value(T.components[(1 << c, 1 << d, 0)], point)
                       for d in range(2)] for c in range(2)])
    want = np.einsum("ac,bd,cd->ab", P, P, comps)
    for a_i in range(2):
        b_a = Multivector(2, {1 << l: ortho.F.value[a_i][l] for l in range(2)})
        for b_i in range(2):
            b_b = Multivector(2, {1 << l: ortho.F.value[b_i][l] for l in range(2)})
            got = tensor_eval(T, [b_a, b_b], point)[0]
            assert got == pytest.approx(want[a_i, b_i], abs=1e-10)


@pytest.mark.parametrize("name", builtin_names())
def test_change_of_frame_matrix_matches_metric_route(name):
    """P = F_a F_b^{-1} against the route that reads the metric,
    P = F_a g F_b^T G_b^{-1}, on every ordered pair of the chart's frames."""
    chart = builtin(name).chart
    rng = np.random.default_rng(25)
    n = chart.n
    for point in [sample_point(chart, rng) for _ in range(3)]:
        g = np.array([[ex.eval_value(chart.metric[i][j], point) for j in range(n)]
                      for i in range(n)])
        for fa, fb in itertools.product(chart.frames, repeat=2):
            frame_b = eval_frame(chart, fb, point)
            want = (eval_frame(chart, fa, point).F.value @ g
                    @ (frame_b.gram_inv.value @ frame_b.F.value).T)
            got = change_of_frame_matrix(chart, fa, fb, point)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_signature_validation():
    with pytest.raises(SlotGradeError):
        TensorSignature((1, -1), 0)
    with pytest.raises(SlotGradeError):
        TensorField(SPHERE, "coord", TensorSignature((1,), 0), {(3, 0): "1"})
    with pytest.raises(SlotGradeError):
        TensorField(SPHERE, "coord", TensorSignature((1,), 0), {(1,): "1"})
