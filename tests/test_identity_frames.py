"""Identity frames skip the frame algebra.

On a frame whose rows are the literal identity, ``frame_jets`` evaluates
only the metric, ``gamma_jets`` leaves out the Lie terms, and the component
term of D is the field's derivative with two axes swapped; with no
contorsion, ``gamma_jets`` also skips the contorsion jet.  Each shortcut is
pinned here to the general path, taken on a clone of the chart whose
identity frame is written 1 + 0*x and 0*x, and whose zero contorsion is
written 0*x: the two agree bit for bit, up to the sign of zero.
"""

import numpy as np
import pytest

from gcalc import expr as ex
from gcalc.connection import conn_spec, gamma_jets
from gcalc.manifest import builtin, builtin_names
from gcalc.manifold import Chart, MultivectorField, frame_jets, sample_point
from gcalc.mdd import _mdd_basis_jets
from gcalc.suites import _rand_field

TWISTED = Chart(
    "twisted3", ("x", "y", "z"),
    (("1 + x^2", "0.3*y", "0"), ("0.3*y", "2 + y*z", "0.2*x"),
     ("0", "0.2*x", "1.5 + 0.5*sin(x)")),
    contorsion=((1, 2, 3, "0.3*x*y"), (1, 3, 2, "-0.3*x*y"),
                (3, 1, 2, "z - 1"), (3, 2, 1, "1 - z")),
    domain=((-0.5, 0.5),) * 3)
CHARTS = [builtin(name).chart for name in builtin_names()] + [TWISTED]


def _general_clone(chart):
    """The chart with its identity frame as rows that are not literals."""
    zero = ex.Num(0.0) * ex.Coord(0)
    rows = [[ex.Num(1.0) + zero if i == j else zero for j in range(chart.n)]
            for i in range(chart.n)]
    return Chart(chart.name + "_general", chart.coords, chart.metric,
                 {"general": rows}, chart.contorsion, chart.orientation,
                 chart.domain)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (len(a.coeffs) == len(b.coeffs)
            and all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def _same_frame(fast, slow) -> bool:
    return all(_same(getattr(fast, f), getattr(slow, f))
               for f in ("F", "g_coord", "gram", "gram_inv", "lie", "dgram", "det_gram"))


def _chi_pairs(chart):
    """(shortcut chi, general chi): none against an evaluated zero, and a
    contorsion on both sides."""
    zero = ex.Num(0.0) * ex.Coord(0)
    nonzero = chart.contorsion or ((1, 1, 2, "0.5*" + chart.coords[0]),
                                   (1, 2, 1, "-0.5*" + chart.coords[0]))
    return [((), ((1, 1, 2, zero), (1, 2, 1, zero))), (nonzero, nonzero)]


@pytest.mark.parametrize("chart", CHARTS, ids=[c.name for c in CHARTS])
class TestIdentityShortcut:
    def test_clone_takes_the_general_path(self, chart):
        clone = _general_clone(chart)
        assert "coord" in chart.identity_frames
        assert clone.identity_frames == {"coord"}

    def test_frame_jets(self, chart):
        clone = _general_clone(chart)
        rng = np.random.default_rng(26)
        for _ in range(3):
            p = sample_point(chart, rng)
            for order in range(3):
                fast = frame_jets(chart, "coord", p, order)
                slow = frame_jets(clone, "general", p, order)
                assert fast.identity and not slow.identity
                assert _same_frame(fast, slow), order

    def test_gamma_jets(self, chart):
        clone = _general_clone(chart)
        rng = np.random.default_rng(27)
        for chi_fast, chi_slow in _chi_pairs(chart):
            fast_spec = conn_spec(chart, "coord", chi_fast)
            slow_spec = conn_spec(clone, "general", chi_slow)
            for _ in range(3):
                p = sample_point(chart, rng)
                for order in range(2):
                    fast = gamma_jets(fast_spec, p, order)
                    slow = gamma_jets(slow_spec, p, order)
                    assert _same_frame(fast.frame, slow.frame)
                    for f in ("gammabar", "chi", "gamma", "mixed"):
                        assert _same(getattr(fast, f), getattr(slow, f)), (f, order)
                    assert fast.mixed_zero == slow.mixed_zero

    def test_mdd_basis_jets(self, chart):
        clone = _general_clone(chart)
        rng = np.random.default_rng(28)
        for chi_fast, chi_slow in _chi_pairs(chart):
            fast_spec = conn_spec(chart, "coord", chi_fast)
            slow_spec = conn_spec(clone, "general", chi_slow)
            for _ in range(2):
                field = _rand_field(rng, chart)
                general = MultivectorField("general", field.components)
                p = sample_point(chart, rng)
                for order in range(2):
                    assert _same(_mdd_basis_jets(fast_spec, field, p, order),
                                 _mdd_basis_jets(slow_spec, general, p, order)), order
