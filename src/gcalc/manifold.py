"""Charts, frames, and pointwise frame data.

A chart is a named coordinate patch: coordinate names, a metric given as a
matrix of scalar expressions, and a set of frames.  A frame is a row matrix of
expressions, row i holding the coordinate components of the frame vector e_i;
the identity frame is always present under the name "coord", and a chart
refuses a "coord" with other rows.  The chart notes once which of its frames
are the literal identity (F = I): there the frame algebra is skipped, so
the frame data comes from the metric jet alone, with Gram g, vanishing Lie
coefficients and dgram[i, j, k] = d_i g_jk.

Frame data at a point (frame Gram, its inverse, Lie coefficients,
frame-direction metric derivatives) is computed on whole-array
jets (:mod:`gcalc.jets`): the frame rows and the metric are evaluated as jets
once, and each derived quantity is one contraction or one closed-form
inverse, so the same code yields plain numbers or first/second derivative
information as needed by the derivative operators.  These cached
:class:`FrameJets` are the only form frame data takes: :func:`eval_frame`
hands them out with their arrays made read-only.

The Lie bracket of two vector fields given by coordinate components is

    [a, b]^k = a^l d_l b^k - b^l d_l a^k,

which :func:`bracket` takes on (n,) vector jets, returning a jet one order
lower; from order-2 jets it keeps the first derivatives that a nested
bracket [a, [b, c]] needs.  The Lie coefficients of a frame are the same
formula on all pairs of frame vector fields at once,

    L_ijk = [e_i, e_j] . e_k,

which vanish exactly on coordinate frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import blades as bl
from . import expr as ex
from .errors import BladeKeyError, DimMismatch, FrameMismatch, SingularFrame, SingularGram
from .jets import Jet, contract, mat_det_inv, singular

_ORTHO_TOL = 1e-10
_HOLO_TOL = 1e-10


def _is_identity(rows) -> bool:
    """Whether every row entry is a literal number, 1 on the diagonal and 0
    off it."""
    return all(isinstance(e, ex.Num) and e.value == (i == j)
               for i, row in enumerate(rows) for j, e in enumerate(row))


@dataclass(eq=False, frozen=True)
class Chart:
    """A coordinate patch with a metric and named frames.

    ``metric`` and frame rows accept expression text or Expr trees.
    ``contorsion`` is a sparse list of (i, j, k, expr) entries, 1-based,
    antisymmetric in (j, k); unspecified entries are zero.
    ``domain`` gives per-coordinate sampling bounds used by property suites.
    Charts are immutable, so caches keyed on their identity cannot go stale.
    The metric and each frame are evaluated through an
    :class:`gcalc.expr.Program`, which runs them from a tape once they are
    reused.
    """

    name: str
    coords: tuple
    metric: tuple
    frames: Mapping = field(default_factory=dict)
    contorsion: tuple = ()
    orientation: int = 1
    domain: tuple = ()
    # the frames whose rows are the literal identity, decided once here
    identity_frames: frozenset = field(init=False, repr=False)
    metric_program: ex.Program = field(init=False, repr=False)
    frame_programs: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("coords", tuple(self.coords))
        n = len(self.coords)
        metric = self._parse_rows(self.metric, "metric")
        put("metric", metric)
        put("metric_program", ex.Program(lambda n: metric))
        eye = tuple(tuple(ex.Num(1.0 if i == j else 0.0) for j in range(n))
                    for i in range(n))
        frames = {fname: eye if isinstance(rows, str) and rows == "identity"
                  else self._parse_rows(rows, f"frame {fname!r}")
                  for fname, rows in self.frames.items()}
        frames.setdefault("coord", eye)
        put("frames", MappingProxyType(frames))
        put("frame_programs", MappingProxyType(
            {fname: ex.Program(lambda n, rows=rows: rows) for fname, rows in frames.items()}))
        put("identity_frames", frozenset(f for f, rows in frames.items()
                                         if _is_identity(rows)))
        if "coord" not in self.identity_frames:
            raise ValueError("frame 'coord' must be the identity")
        put("contorsion", tuple((int(i), int(j), int(k), self.parse(e))
                                for (i, j, k, e) in self.contorsion))
        put("domain", tuple((float(a), float(b)) for a, b in self.domain)
            or tuple((-1.0, 1.0) for _ in range(n)))
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.coords)

    def frame_rows(self, frame: str):
        try:
            return self.frames[frame]
        except KeyError:
            raise FrameMismatch(f"chart {self.name!r} has no frame {frame!r}") from None

    def parse(self, text):
        return ex.parse(text, self.coords) if isinstance(text, str) else ex.as_expr(text)

    def _parse_rows(self, rows, what: str) -> tuple:
        rows = tuple(tuple(self.parse(e) for e in row) for row in rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise DimMismatch(f"{what} must be n by n")
        return rows


class FrameJets(NamedTuple):
    """Frame data as array jets at one point, the one form it takes.

    F, the coordinate metric and the frame Gram carry the order asked of
    :func:`frame_jets`; bracket data (lie, dgram) sits one order lower.
    ``identity`` marks a frame whose rows are the constant identity, where
    F, lie and the frame algebra are known without evaluating them.
    """

    F: Jet                # F[i, k]: coordinate components of e_i
    g_coord: Jet
    gram: Jet             # F g F^T
    gram_inv: Jet
    lie: Jet              # L[i, j, k]; None at order 0
    dgram: Jet            # dgram[i, j, k] = e_i(g_jk); None at order 0
    det_gram: Jet
    identity: bool


@lru_cache(maxsize=8192)
def frame_jets(chart: Chart, frame: str, point: tuple, order: int) -> FrameJets:
    """Evaluate frame and metric data as jets of the given order at ``point``.

    Lie coefficients and frame-direction metric derivatives consume one
    derivative, so requesting them at order d needs d+1 <= 2; they are only
    filled for order <= 1.  On an identity frame only the metric is
    evaluated: the Gram is g, the Lie coefficients vanish and
    dgram[i, j, k] = d_i g_jk.
    """
    n = chart.n
    ex.check_point(point, n)
    identity = frame in chart.identity_frames
    if not identity:
        chart.frame_rows(frame)     # refuses a frame the chart lacks
        F = chart.frame_programs[frame].jet(point, order)
    g_coord = gram = chart.metric_program.jet(point, order)
    if identity:
        # the constant I, shaped after the metric jet, which refuses an order past two
        F = Jet(np.eye(n), *(np.zeros_like(c) for c in g_coord.coeffs[1:]))
    else:
        if singular(F.value):
            raise SingularFrame(f"frame {frame!r} is degenerate at {point}")
        g_rows = contract("kl,jl->kj", g_coord, F)      # g F^T
        gram = contract("ik,kj->ij", F, g_rows)
    if singular(gram.value):
        raise SingularGram(f"frame Gram is singular at {point}")
    det_gram, gram_inv = mat_det_inv(gram)

    lie = None
    dgram = None
    if order >= 1 and identity:
        dgram = g_coord.partials().transpose(2, 0, 1)
        lie = Jet(*(np.zeros_like(c) for c in dgram.coeffs))
    elif order >= 1:
        bracket = contract("il,jkl->ijk", F, F.partials())
        bracket = bracket - bracket.transpose(1, 0, 2)
        lie = contract("ijm,mk->ijk", bracket, g_rows)
        dgram = contract("il,jkl->ijk", F, gram.partials())
    return FrameJets(F, g_coord, gram, gram_inv, lie, dgram, det_gram, identity)


def read_only(jets):
    """``jets`` (a :class:`FrameJets` or a tuple holding one) with every
    coefficient array made read-only, so that the cached jets can be handed
    out; the operators read the cache without this."""
    for part in jets:
        if isinstance(part, tuple):
            read_only(part)
        elif isinstance(part, Jet):
            for c in part.coeffs:
                if isinstance(c, np.ndarray):
                    c.flags.writeable = False
    return jets


def eval_frame(chart: Chart, frame: str, point) -> FrameJets:
    """Frame data at a point: the cached order-1 jets, read-only."""
    return read_only(frame_jets(chart, frame, tuple(float(p) for p in point), 1))


def classify_frame(fj: FrameJets) -> dict:
    """Orthonormality (with signature flags) and holonomicity at the point."""
    g = fj.gram.value
    n = g.shape[0]
    off = float(np.max(np.abs(g - np.diag(np.diag(g))))) if n > 1 else 0.0
    unit = float(np.max(np.abs(np.abs(np.diag(g)) - 1.0)))
    orthonormal = off < _ORTHO_TOL and unit < _ORTHO_TOL
    eta = tuple(int(np.sign(g[i, i])) for i in range(n)) if orthonormal else None
    holonomic = float(np.max(np.abs(fj.lie.value))) < _HOLO_TOL
    return {"orthonormal": orthonormal, "holonomic": holonomic, "signature": eta}


def dirderiv_scalar(chart: Chart, frame: str, point, a, phi) -> float:
    """Directional derivative along a = a^i e_i of a scalar expression:
    a^i F_i^k d_k phi."""
    point = tuple(float(p) for p in point)
    F = frame_jets(chart, frame, point, 1).F.value
    jet = ex.eval_jet(chart.parse(phi), point, 1)
    return float(np.asarray(a, dtype=float) @ F @ jet.grad)


def bracket(a: Jet, b: Jet) -> Jet:
    """[a, b]^k = a^l d_l b^k - b^l d_l a^k on (n,) vector jets of coordinate
    components; the result is one order lower than the lower of the two."""
    return contract("l,kl->k", a, b.partials()) - contract("l,kl->k", b, a.partials())


def lie_bracket(chart: Chart, field_a, field_b, point) -> np.ndarray:
    """[a, b] for vector fields given by coordinate-frame component expressions."""
    point = tuple(float(p) for p in point)
    n = chart.n
    ex.check_point(point, n)
    if len(field_a) != n or len(field_b) != n:
        raise DimMismatch("vector fields must have n components")
    a, b = (ex.eval_jet([chart.parse(c) for c in f], point, 1) for f in (field_a, field_b))
    return bracket(a, b).value


def sample_point(chart: Chart, rng) -> tuple:
    """Uniform random point inside the chart's sampling box."""
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in chart.domain)


def gradient_basis(chart: Chart, point) -> np.ndarray:
    """Rows are the coordinate components of the gradient vectors dx^i = g^{ij} e(x_j)."""
    point = tuple(float(p) for p in point)
    return read_only(frame_jets(chart, "coord", point, 0)).gram_inv.value


@dataclass(frozen=True)
class MultivectorField:
    """A multivector field: blade components (expressions) over a named frame.

    Primitive fields can supply value, gradient and Hessian data for their
    components, so two derivative operators may be stacked on top of them.
    ``components`` is a read-only copy of the map given, so the tape of
    ``program``, the blade grid as an :class:`gcalc.expr.Program`, cannot go
    stale.
    """

    frame: str
    components: Mapping
    program: ex.Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = MappingProxyType(dict(self.components))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "program", ex.Program(
            lambda n: [comps.get(m) for m in range(1 << n)]))

    @staticmethod
    def parse(chart: Chart, components: dict, frame: str = "coord") -> "MultivectorField":
        comps = {}
        for key, e in components.items():
            mask = bl.mask_from_key(key) if isinstance(key, str) else int(key)
            if mask >> chart.n:
                raise DimMismatch(f"blade key {key!r} exceeds dimension {chart.n}")
            if mask in comps:
                raise BladeKeyError(f"blade key {key!r} repeats a blade given before")
            comps[mask] = chart.parse(e)
        return MultivectorField(frame, comps)

    @staticmethod
    def scalar(chart: Chart, text, frame: str = "coord") -> "MultivectorField":
        return MultivectorField(frame, {0: chart.parse(text)})

    @staticmethod
    def vector(chart: Chart, comps, frame: str = "coord") -> "MultivectorField":
        if len(comps) != chart.n:
            raise DimMismatch("vector fields must have n components")
        return MultivectorField(frame, {1 << i: chart.parse(c)
                                        for i, c in enumerate(comps)})
