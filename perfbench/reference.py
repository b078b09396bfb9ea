"""Closed-form references the benchmark checks gcalc's outputs against.

Pure numpy; nothing here imports gcalc, so a defect in gcalc cannot leak into
the reference.  Fields are sums of terms whose value, gradient and Hessian are
written out by hand.  Charts carry their metric and its first partials in
closed form, which gives the Levi-Civita coefficients of the coordinate frame
directly.  Products use the bitmask blade algorithm for a diagonal metric.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# scalar terms


def fmt(x: float) -> str:
    """Round-trip text of a float, parenthesised so a sign never clashes."""
    return f"({float(x)!r})"


class Term:
    """c * f(x) for one of a few elementary f with known derivatives.

    kinds: ``const``; ``pow`` c*x_a^p; ``mono`` c*x_a^p*x_b^q (a != b);
    ``sin``/``cos``/``exp`` c*f(k*x_a).
    """

    def __init__(self, kind, c, a=0, p=1, b=0, q=1, k=1.0):
        self.kind, self.c, self.a, self.p, self.b, self.q, self.k = \
            kind, float(c), a, p, b, q, float(k)

    def text(self, coords) -> str:
        ca, cb = coords[self.a], coords[self.b]
        if self.kind == "const":
            return fmt(self.c)
        if self.kind == "pow":
            return f"{fmt(self.c)}*{ca}^{self.p}"
        if self.kind == "mono":
            return f"{fmt(self.c)}*{ca}^{self.p}*{cb}^{self.q}"
        return f"{fmt(self.c)}*{self.kind}({fmt(self.k)}*{ca})"

    def jet(self, x, n):
        """Value, gradient (n) and Hessian (n, n)."""
        g = np.zeros(n)
        h = np.zeros((n, n))
        c, a = self.c, self.a
        if self.kind == "const":
            return c, g, h
        if self.kind == "pow":
            p, u = self.p, x[a]
            g[a] = c * p * u ** (p - 1)
            h[a, a] = c * p * (p - 1) * u ** (p - 2) if p >= 2 else 0.0
            return c * u ** p, g, h
        if self.kind == "mono":
            b, p, q = self.b, self.p, self.q
            u, v = x[a], x[b]
            fu, du, ddu = u ** p, p * u ** (p - 1), (p * (p - 1) * u ** (p - 2) if p >= 2 else 0.0)
            fv, dv, ddv = v ** q, q * v ** (q - 1), (q * (q - 1) * v ** (q - 2) if q >= 2 else 0.0)
            g[a], g[b] = c * du * fv, c * fu * dv
            h[a, a], h[b, b] = c * ddu * fv, c * fu * ddv
            h[a, b] = h[b, a] = c * du * dv
            return c * fu * fv, g, h
        k, u = self.k, self.k * x[a]
        if self.kind == "sin":
            f0, f1, f2 = math.sin(u), math.cos(u), -math.sin(u)
        elif self.kind == "cos":
            f0, f1, f2 = math.cos(u), -math.sin(u), -math.cos(u)
        else:
            f0 = f1 = f2 = math.exp(u)
        g[a] = c * k * f1
        h[a, a] = c * k * k * f2
        return c * f0, g, h


def random_term(rng, n: int) -> Term:
    c = float(rng.uniform(-1.5, 1.5))
    kind = ("pow", "mono", "sin", "cos", "exp")[int(rng.integers(5))]
    a = int(rng.integers(n))
    if kind == "pow":
        return Term("pow", c, a, p=int(rng.integers(1, 4)))
    if kind == "mono":
        b = int((a + 1 + rng.integers(n - 1)) % n)
        return Term("mono", c, a, p=int(rng.integers(1, 3)), b=b,
                    q=int(rng.integers(1, 3)))
    return Term(kind, c, a, k=float(rng.uniform(-1.0, 1.0)))


class Field:
    """Multivector field: blade mask -> list of terms, coordinate frame."""

    def __init__(self, comps: dict):
        self.comps = {m: list(ts) for m, ts in comps.items()}

    @staticmethod
    def random(rng, n: int, masks, terms: int = 2) -> "Field":
        return Field({m: [random_term(rng, n) for _ in range(terms)] for m in masks})

    def expr(self, mask, coords) -> str:
        return " + ".join(t.text(coords) for t in self.comps[mask])

    def inline(self, coords, name="A") -> str:
        """The CLI's inline form: ``A: key = expr; ...`` (1-based keys)."""
        if list(self.comps) == [0]:
            return f"{name}: {self.expr(0, coords)}"
        return f"{name}: " + "; ".join(f"{blade_key(m)} = {self.expr(m, coords)}"
                                       for m in sorted(self.comps))

    def components(self, coords) -> dict:
        return {blade_key(m): self.expr(m, coords) for m in sorted(self.comps)}

    def jets(self, x, n):
        """mask -> (value, gradient, Hessian)."""
        out = {}
        for m, ts in self.comps.items():
            v, g, h = 0.0, np.zeros(n), np.zeros((n, n))
            for t in ts:
                tv, tg, th = t.jet(x, n)
                v, g, h = v + tv, g + tg, h + th
            out[m] = (v, g, h)
        return out


def blade_key(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of_key(key: str) -> int:
    return sum(1 << (int(k) - 1) for k in key.split(",")) if key else 0


# ---------------------------------------------------------------------------
# charts


class RefChart:
    """Coordinates, sampling box, and metric with its partials in closed form."""

    def __init__(self, name, coords, domain, metric, dmetric):
        self.name, self.coords, self.domain = name, tuple(coords), tuple(domain)
        self.metric, self.dmetric = metric, dmetric
        self.n = len(self.coords)

    def christoffel(self, x):
        """G1[i, j, k] = (D_{e_i} e_j) . e_k and G2[i, j, l] with D_{e_i} e_j = G2[i, j, l] e_l."""
        dg = self.dmetric(x)
        g1 = 0.5 * (dg + np.einsum("jki->ijk", dg) - np.einsum("kij->ijk", dg))
        return g1, np.einsum("ijm,ml->ijl", g1, np.linalg.inv(self.metric(x)))

    def sample(self, rng) -> tuple:
        return tuple(float(rng.uniform(lo, hi)) for lo, hi in self.domain)


def _const(mat):
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    return lambda x: mat, lambda x: np.zeros((n, n, n))


def _sphere_metric(x):
    return np.diag([1.0, math.sin(x[0]) ** 2])


def _sphere_dmetric(x):
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = 2.0 * math.sin(x[0]) * math.cos(x[0])
    return dg


def _polar_dmetric(x):
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = 2.0 * x[0]
    return dg


CHARTS = {
    "sphere2": RefChart("sphere2", ("theta", "phi"), ((0.1, math.pi - 0.1), (-3.0, 3.0)),
                        _sphere_metric, _sphere_dmetric),
    "polar2": RefChart("polar2", ("r", "theta"), ((0.1, 2.5), (-3.0, 3.0)),
                       lambda x: np.diag([1.0, x[0] ** 2]), _polar_dmetric),
    "euclid3": RefChart("euclid3", ("x", "y", "z"), ((-1.0, 1.0),) * 3,
                        *_const(np.eye(3))),
    "minkowski4": RefChart("minkowski4", ("t", "x", "y", "z"), ((-1.0, 1.0),) * 4,
                           *_const(np.diag([1.0, -1.0, -1.0, -1.0]))),
}


def warp_chart(a: float) -> RefChart:
    """g = I + a w w^T with w = (u, v): positive definite for a > 0, not diagonal."""

    def metric(x):
        w = np.array(x, dtype=float)
        return np.eye(2) + a * np.outer(w, w)

    def dmetric(x):
        u, v = x
        return a * np.array([[[2 * u, v], [v, 0.0]], [[0.0, u], [u, 2 * v]]])

    return RefChart("warp", ("u", "v"), ((-1.0, 1.0), (-1.0, 1.0)), metric, dmetric)


def warp_manifest(a: float, field: Field) -> dict:
    return {"name": "warp", "coordinates": ["u", "v"],
            "metric": [[f"1 + {fmt(a)}*u^2", f"{fmt(a)}*u*v"],
                       [f"{fmt(a)}*u*v", f"1 + {fmt(a)}*v^2"]],
            "fields": {"h": {"components": field.components(("u", "v"))}},
            "domain": [[-1.0, 1.0], [-1.0, 1.0]]}


# ---------------------------------------------------------------------------
# diagonal-metric Clifford products on {mask: coeff}


def _reorder_sign(a: int, b: int) -> float:
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


def gp_diag(A: dict, B: dict, lam) -> dict:
    out: dict = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            s = _reorder_sign(ma, mb)
            common = ma & mb
            for i in range(common.bit_length()):
                if common >> i & 1:
                    s *= lam[i]
            out[ma ^ mb] = out.get(ma ^ mb, 0.0) + s * ca * cb
    return out


def _graded(A: dict, B: dict, lam, pick) -> dict:
    out: dict = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            want = pick(ma.bit_count(), mb.bit_count())
            if want is None:
                continue
            for m, c in gp_diag({ma: ca}, {mb: cb}, lam).items():
                if m.bit_count() == want:
                    out[m] = out.get(m, 0.0) + c
    return out


def dot_diag(A, B, lam):
    """<A_j B_k>_{k-j} for j <= k, gcalc's contraction convention."""
    return _graded(A, B, lam, lambda j, k: k - j if j <= k else None)


def wedge_diag(A, B, lam):
    return _graded(A, B, lam, lambda j, k: j + k)


def add_into(dst: dict, src: dict, s: float = 1.0) -> dict:
    for m, c in src.items():
        dst[m] = dst.get(m, 0.0) + s * c
    return dst


def _blade(seq):
    """(sign, mask) of e_seq[0] ^ e_seq[1] ^ ..., or None when an index repeats."""
    if len(set(seq)) < len(seq):
        return None
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return (-1.0 if inv & 1 else 1.0), sum(1 << i for i in seq)


# ---------------------------------------------------------------------------
# derivative operators in the coordinate frame (Levi-Civita)


def directional(chart: RefChart, field: Field, x, i: int) -> dict:
    """D_{e_i} A: partials of the components plus the frame-vector derivatives."""
    n = chart.n
    _, g2 = chart.christoffel(x)
    out: dict = {}
    for m, (v, g, _) in field.jets(x, n).items():
        out[m] = out.get(m, 0.0) + g[i]
        idx = [j for j in range(n) if m >> j & 1]
        for pos, j in enumerate(idx):
            for l in range(n):
                b = _blade(idx[:pos] + [l] + idx[pos + 1:])
                if b is not None:
                    out[b[1]] = out.get(b[1], 0.0) + b[0] * v * g2[i, j, l]
    return out


def _diag_lam(chart, x):
    g = chart.metric(x)
    if np.max(np.abs(g - np.diag(np.diag(g)))) != 0.0:
        raise ValueError("product oracle needs a diagonal metric")
    return np.diag(g)


def contract(chart: RefChart, field: Field, x, op: str) -> dict:
    """sum_i e^i (op) D_{e_i} A with e^i = e_i / g_ii, op in gp/dot/wedge."""
    lam = _diag_lam(chart, x)
    prod = {"gp": gp_diag, "dot": dot_diag, "wedge": wedge_diag}[op]
    out: dict = {}
    for i in range(chart.n):
        add_into(out, prod({1 << i: 1.0 / lam[i]}, directional(chart, field, x, i), lam))
    return out


def mdd(chart, field, x, a) -> dict:
    out: dict = {}
    for i, ai in enumerate(a):
        add_into(out, directional(chart, field, x, i), ai)
    return out


def scalar_gradient(chart: RefChart, field: Field, x) -> dict:
    """grad phi = g^{ij} d_j phi e_i, for any metric."""
    _, g, _ = field.jets(x, chart.n)[0]
    v = np.linalg.solve(chart.metric(x), g)
    return {1 << i: float(v[i]) for i in range(chart.n)}


def flat_curl_div(chart: RefChart, field: Field, x) -> dict:
    """J = div(curl A) on a chart with a constant diagonal metric, from Hessians."""
    n = chart.n
    lam = _diag_lam(chart, x)
    jets = field.jets(x, n)
    out: dict = {}
    for i in range(n):
        dF: dict = {}
        for j in range(n):
            d2 = {m: h[i, j] for m, (_, _, h) in jets.items()}
            add_into(dF, wedge_diag({1 << j: 1.0 / lam[j]}, d2, lam))
        add_into(out, dot_diag({1 << i: 1.0 / lam[i]}, dF, lam))
    return out


def flat_laplacian(chart: RefChart, field: Field, x) -> dict:
    """div(grad phi) = sum_i g^{ii} d_i d_i phi on a constant diagonal metric."""
    lam = _diag_lam(chart, x)
    _, _, h = field.jets(x, chart.n)[0]
    return {0: float(sum(h[i, i] / lam[i] for i in range(chart.n)))}


# ---------------------------------------------------------------------------
# comparison


def rel_dev(got: dict, want: dict) -> float:
    """Largest component deviation over max(1, |got|, |want|), as the suites measure."""
    keys = set(got) | set(want)
    if not keys:
        return 0.0
    scale = max([1.0] + [abs(v) for v in got.values()] + [abs(v) for v in want.values()])
    return max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys) / scale
