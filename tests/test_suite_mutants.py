"""Every suite check can fail: each mutant below breaks one piece of the
library, and every check it names must then fail at 4 samples.

A check that no defect can move shows nothing, so each mutant names the
checks that catch it.  Mutants are applied in-process with ``monkeypatch``,
under every name the library and the suites bind them to.
"""

import dataclasses
import functools
import inspect
import operator

import numpy as np
import pytest

from gcalc import (algebra, connection, expr, forms, manifest, manifold, mdd, suites,
                   tensor)
from gcalc.jets import contract


def _one_sided_bracket(a, b):
    """a^l d_l b^k, missing the - b^l d_l a^k term."""
    return contract("l,kl->k", a, b.partials())


def _connection_always_skipped(spec, point, order):
    """Connection data that claims Gamma = 0 everywhere, so the operators
    drop the connection term even where it is not zero."""
    return connection.gamma_jets(spec, point, order)._replace(mixed_zero=True)


def _every_frame_identity(rows):
    """Every frame taken for the constant identity, so the frame algebra is
    skipped on frames that need it."""
    return True


_gamma_jets = connection.gamma_jets


def _chi_dropped(spec, point, order):
    """Connection data that ignores the contorsion of its spec."""
    return _gamma_jets(dataclasses.replace(spec, chi=()), point, order)


def _product_without_second_cross_term(a, b, n):
    """The sparse product a*b with its Hessian missing outer(b.grad, a.grad)."""
    av, ag, ah = a
    bv, bg, bh = b
    g = expr._axpy(expr._scaled(bg, av), bv, ag)
    if ah is None:
        return av * bv, g, None
    h = expr._axpy(expr._scaled(bh, av), bv, ah)
    return av * bv, g, expr._outer(h, 1.0, ag, bg, n)


_mul = expr._mul


def _tape_product_without_second_cross_term(a, b, n):
    """The same defect where an operand holds a tape register, so that only
    tapes are wrong and the walker multiplies right."""
    if type(a[0]) is expr._Reg or type(b[0]) is expr._Reg:
        return _product_without_second_cross_term(a, b, n)
    return _mul(a, b, n)


def _recompiled(func, old, new):
    """``func`` compiled again from its source, decorators included, with
    ``old`` replaced by ``new``; a cached function gets a cache of its own."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, old
    namespace = dict(inspect.unwrap(func).__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


_gammabar_sign_flipped = _recompiled(connection.gamma_jets, "dg - dg.transpose(1, 2, 0)",
                                     "dg + dg.transpose(1, 2, 0)")
_frame_jets = manifold.frame_jets


def _gram_inv_is_gram(chart, frame, point, order):
    """Frame data that hands out the Gram as its own inverse."""
    fj = _frame_jets(chart, frame, point, order)
    return fj._replace(gram_inv=fj.gram)


# gamma_jets with a cache of its own, which sees the mutant frame data
_fresh_gamma_jets = functools.lru_cache(maxsize=None)(inspect.unwrap(connection.gamma_jets))
_dual, _wedge_table = algebra.dual, algebra._wedge_table


def _negated_dual(A, g, orientation=1):
    return -_dual(A, g, orientation)


def _unsigned_wedge_table(n):
    """The outer-product table with every sign dropped."""
    return np.abs(_wedge_table(n))


def _tape_reciprocal_inverted(self, o):
    """A tape that records the reciprocal 1/v of a division as v/1, so that
    charts and fields evaluated from the third use on divide wrongly; the
    walker still divides right."""
    return self.tape.emit(operator.truediv, self, o)


def _tape_rsub_swapped(self, o):
    """A tape that records number - register as register - number; the
    walker still subtracts right."""
    return self.tape.emit(operator.sub, self, o)


def _statuses(suite):
    report = suites.run_checks(suite, samples=4)
    return {row["name"]: row["status"] for row in report["checks"]}


MUTANTS = [
    ("one_sided_bracket", [(manifold, "bracket", _one_sided_bracket),
                           (suites, "bracket", _one_sided_bracket)],
     "frames", ["frames.lie_jacobi", "frames.lie_antisymmetric",
                "frames.lie_scalar_multipliers"]),
    ("connection_always_skipped",
     [(mdd, "gamma_jets", _connection_always_skipped)],
     "all", ["mdd.metric_compatibility", "mdd.connection_restriction",
             "mdd.product_rule", "mdd.pseudoscalar_parallel",
             "tensor.chain_matches_components", "tensor.metric_parallel",
             "exterior.metric_independence", "forms.derivative_agreement"]),
    ("product_without_second_cross_term",
     [(expr, "_mul", _product_without_second_cross_term)],
     "all", ["expr.jets_match_finite_differences", "frames.lie_jacobi",
             "exterior.d_squared"]),
    ("negated_dual",
     [(algebra, "dual", _negated_dual), (suites, "dual", _negated_dual)],
     "algebra", ["algebra.dual_inverse"]),
    ("unsigned_wedge_table",
     [(algebra, "_wedge_table", _unsigned_wedge_table)],
     "all", ["algebra.fundamental_identity", "algebra.vector_product_split",
             "algebra.wedge_gram_independence",
             "algebra.dual_exchanges_dot_and_wedge", "mdd.product_rule",
             "exterior.graded_leibniz",
             "tensor.conjugate_commutes_with_derivative"]),
    # charts decide their identity frames when built, so the cached charts
    # are replaced by ones built under the mutant
    ("every_frame_identity",
     [(manifold, "_is_identity", _every_frame_identity),
      (manifest, "_BUILTINS", {}), (suites, "_BUILT_CHARTS", {})],
     "all", ["mdd.gradient_frame_independence", "tensor.metric_parallel"]),
    # tapes live on the charts and fields that own the trees, so the cached
    # charts are replaced by ones whose tapes are built under the mutant
    ("tape_reciprocal_inverted",
     [(expr._Reg, "__rtruediv__", _tape_reciprocal_inverted),
      (manifest, "_BUILTINS", {}), (suites, "_BUILT_CHARTS", {})],
     "all", ["mdd.gradient_frame_independence"]),
    # fields are drawn fresh for each sample, so their tapes are built under
    # the mutant
    ("tape_product_without_second_cross_term",
     [(expr, "_mul", _tape_product_without_second_cross_term)],
     "expr", ["expr.program_matches_walk"]),
    ("tape_rsub_swapped",
     [(expr._Reg, "__rsub__", _tape_rsub_swapped)],
     "expr", ["expr.program_matches_walk"]),
    ("gammabar_sign_flipped",
     [(module, "gamma_jets", _gammabar_sign_flipped) for module in (connection, mdd, tensor)],
     "all", ["connection.sphere_closed_form", "connection.polar_closed_form",
             "connection.metric_compatibility"]),
    # every binding sees the mutant, gamma_jets through a cache of its own;
    # tensor.contorsion_matches_operator then passes, since both of its sides
    # raise the contorsion's index with the same gram_inv
    ("gram_inv_is_gram",
     [(module, "frame_jets", _gram_inv_is_gram)
      for module in (manifold, connection, mdd, tensor, forms, suites)]
     + [(module, "gamma_jets", _fresh_gamma_jets) for module in (connection, mdd, tensor)],
     "all", ["frames.commutator_jacobi_constraint", "frames.coordinate_gradient_duality",
             "mdd.metric_compatibility", "tensor.derivative_commutes_with_contraction",
             "exterior.metric_independence"]),
    ("chi_dropped",
     [(connection, "gamma_jets", _chi_dropped), (mdd, "gamma_jets", _chi_dropped),
      (tensor, "gamma_jets", _chi_dropped)],
     "all", ["tensor.contorsion_matches_operator"]),
]


@pytest.mark.parametrize("patches, suite, caught",
                         [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, patches, suite, caught):
    assert all(s == "pass" for s in _statuses(suite).values())
    for module, name, mutant in patches:
        monkeypatch.setattr(module, name, mutant)
    statuses = _statuses(suite)
    for name in caught:
        assert statuses[name] == "fail", name
