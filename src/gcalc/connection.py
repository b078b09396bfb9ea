"""Metric-compatible connections in arbitrary frames.

The Levi-Civita coefficients come from the standard form

    Gbar_ijk = (dg_i g_jk - dg_k g_ij + dg_j g_ki)/2
             + (L_ijk - L_jki + L_kij)/2,

with dg_i the directional derivative along frame vector e_i and L the Lie
coefficients.  A metric-compatible connection is then Gamma = Gbar + chi for
any contorsion chi antisymmetric in its last two slots.  Its torsion

    tau(a, b) = D_a b - D_b a - [a, b]

takes the bracket of :func:`gcalc.manifold.bracket` on the coordinate
components a^i F_i^k of the two fields; it is zero for Levi-Civita.

Coefficients are whole-array jets (:mod:`gcalc.jets`) computed from the
array-jet frame data, so the same formula yields values or first
derivatives as needed by nested derivative operators.  These cached
:class:`GammaJets` are the only form they take: :func:`connection_at` hands
them out with their arrays made read-only.  On an identity frame
(F = I) the Lie terms vanish and are left out, so Gbar is the Christoffel
form (dg_i g_jk - dg_k g_ij + dg_j g_ki)/2 of the metric jet; for
Levi-Civita (no contorsion entries) chi is zero and is not evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import FrameMismatch, InvalidContorsion
from .jets import Jet, contract
from .manifold import (Chart, FrameJets, MultivectorField, bracket, frame_jets,
                       read_only)

_CHI_TOL = 1e-10


@dataclass(frozen=True)
class ConnSpec:
    """A connection named by chart, frame, and contorsion expressions.

    Hashable so jet evaluations can be cached per (spec, point, order).
    """

    chart: Chart
    frame: str
    chi: tuple  # ((i, j, k, Expr), ...) with 1-based indices

    @property
    def n(self) -> int:
        return self.chart.n


def _normalize_chi(chart: Chart, chi) -> tuple:
    if chi is None:
        return tuple(chart.contorsion)
    out = []
    for (i, j, k, e) in chi:
        out.append((int(i), int(j), int(k), chart.parse(e)))
    return tuple(out)


def conn_spec(chart: Chart, frame: str, chi=None) -> ConnSpec:
    """Connection spec; chi=None takes the chart's contorsion, () is Levi-Civita."""
    chart.frame_rows(frame)
    return ConnSpec(chart, frame, _normalize_chi(chart, chi))


def levi_civita(chart: Chart, frame: str) -> ConnSpec:
    return conn_spec(chart, frame, ())


class GammaJets(NamedTuple):
    """Connection coefficients as array jets at one point, the one form they
    take; ``mixed`` holds Gamma_ij^l, with D_{e_i} e_j = Gamma_ij^l e_l."""

    frame: FrameJets      # at order + 1
    gammabar: Jet         # [i, j, k]
    chi: Jet
    gamma: Jet
    mixed: Jet            # [i, j, l] = sum_k gamma_ijk g^{kl}
    mixed_zero: bool      # every Taylor coefficient of mixed is zero


@lru_cache(maxsize=8192)
def gamma_jets(spec: ConnSpec, point: tuple, order: int) -> GammaJets:
    """Evaluate Gbar, chi, Gamma and the mixed coefficients as jets, and
    note once whether the mixed ones vanish in every Taylor coefficient."""
    fj = frame_jets(spec.chart, spec.frame, point, order + 1)
    dg, lie = fj.dgram, fj.lie
    # transpose(1, 2, 0) reads A[k, i, j]; transpose(2, 0, 1) reads A[j, k, i]
    gammabar = dg - dg.transpose(1, 2, 0) + dg.transpose(2, 0, 1)
    if not fj.identity:
        gammabar = gammabar + lie - lie.transpose(2, 0, 1) + lie.transpose(1, 2, 0)
    gammabar = gammabar * 0.5
    if spec.chi:
        chi = _chi_jets(spec, point, order)
        gamma = gammabar + chi
    else:
        chi, gamma = Jet(*(np.zeros_like(c) for c in gammabar.coeffs)), gammabar
    mixed = contract("ijk,kl->ijl", gamma, fj.gram_inv)
    return GammaJets(fj, gammabar, chi, gamma, mixed,
                     not any(c.any() for c in mixed.coeffs))


def _chi_jets(spec: ConnSpec, point: tuple, order: int) -> Jet:
    """The contorsion as a jet, after the range and antisymmetry checks."""
    n = spec.n
    coeffs = [np.zeros((n, n, n) + (n,) * d) for d in range(order + 1)]
    for (i, j, k, e) in spec.chi:
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise InvalidContorsion(f"contorsion index ({i},{j},{k}) out of range")
        for c, part in zip(coeffs, ex.eval_jet(e, point, order).coeffs):
            c[i - 1, j - 1, k - 1] += part
    chi = Jet(*coeffs)
    scale = max(1.0, float(np.max(np.abs(chi.value))))
    dev = np.abs(chi.value + chi.value.transpose(0, 2, 1))
    bad = np.argwhere(dev > _CHI_TOL * scale)
    if len(bad):
        i, j, k = bad[0]
        raise InvalidContorsion(
            f"contorsion antisymmetry violated at entry "
            f"({i + 1},{j + 1},{k + 1}): deviation {dev[i, j, k]:.3e}")
    return chi


def connection_at(chart: Chart, frame: str, point, chi=None) -> GammaJets:
    """Connection coefficients at a point, the cached order-0 jets,
    read-only; chi defaults to the chart's."""
    point = tuple(float(p) for p in point)
    return read_only(gamma_jets(conn_spec(chart, frame, chi), point, 0))


def reciprocal_gamma(gj: GammaJets) -> np.ndarray:
    """rg[i, j, l]: D_{e_i} e^j = rg[i, j, l] e^l = -(Gamma_ilm g^{mj}) e^l."""
    return -gj.mixed.value.swapaxes(1, 2)


def torsion(chart: Chart, frame: str, field_a, field_b, point, chi=None) -> np.ndarray:
    """tau(a, b) = D_a b - D_b a - [a, b], in frame components.

    ``field_a``/``field_b`` are sequences of n frame-component expressions.
    """
    from . import mdd as _mdd

    point = tuple(float(p) for p in point)
    spec = conn_spec(chart, frame, chi)
    n = chart.n
    fa = MultivectorField.vector(chart, field_a, frame)
    fb = MultivectorField.vector(chart, field_b, frame)
    ex.check_point(point, n)
    a, b = (ex.eval_jet(list(f.components.values()), point, 1) for f in (fa, fb))

    dab = _mdd.mdd(spec, a.value, fb, point)
    dba = _mdd.mdd(spec, b.value, fa, point)

    # [a, b] on the coordinate components a^i F_i^k, read back in the frame
    F = frame_jets(chart, frame, point, 1).F
    ab = bracket(contract("i,ik->k", a, F), contract("i,ik->k", b, F)).value
    ab_frame = np.linalg.solve(F.value.T, ab)

    return np.array([dab[1 << i] - dba[1 << i] for i in range(n)]) - ab_frame


def contorsion_apply(conn_d: ConnSpec, conn_nabla: ConnSpec, a, field, point):
    """Q_a(field) = D_a field - nabla_a field for two connections on one frame."""
    from . import mdd as _mdd

    if (conn_d.chart is not conn_nabla.chart) or conn_d.frame != conn_nabla.frame:
        raise FrameMismatch("contorsion operator needs both connections on the "
                            "same chart and frame")
    point = tuple(float(p) for p in point)
    da = _mdd.mdd(conn_d, a, field, point)
    na = _mdd.mdd(conn_nabla, a, field, point)
    return da - na
