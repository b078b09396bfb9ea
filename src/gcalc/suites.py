"""Randomized property suites behind the command line ``check`` verb.

Every suite is a list of named checks.  A check draws all of its random
data (Gram matrices, component expressions, sample points, directions)
from a dedicated generator seeded with ``SeedSequence([seed, index])``,
where ``index`` is the check's fixed position in the global registry.
Reports are therefore byte-identical across runs and independent of
which other suites run alongside.

Deviations are measured relative to ``max(1, |lhs|, |rhs|)`` so that a
check neither fails on roundoff noise for large operands nor hides an
absolute error on small ones.  Each check carries a pinned tolerance;
the ``tol`` argument rescales all of them proportionally (the default
1e-8 leaves every pinned value as is), which gives a single knob for
tightening or loosening a whole run.
"""

import itertools
import math

import numpy as np

from . import blades as bl
from . import expr as ex
from . import mdd as md
from .algebra import (Gram, LinMap, Multivector, as_gram, dot, dual, gp,
                      grade, pseudoscalar, trace_rot, tsa_decompose, wedge)
from .connection import conn_spec, connection_at, contorsion_apply, levi_civita
from .errors import GcalcError, DomainError
from .forms import FormField, form_add, form_d, form_eval, form_wedge, hat_map, unhat
from .manifest import builtin
from .manifold import (Chart, MultivectorField, bracket, dirderiv_scalar,
                       eval_frame, frame_jets, lie_bracket, sample_point)
from .mdd import DerivedField, eval_field
from .tensor import (TensorField, TensorSignature, change_of_frame_matrix,
                     conjugate_derivative_check, contorsion_tensor,
                     metric_tensor_field, tensor_derivative_chain,
                     tensor_derivative_components, tensor_eval, tensor_product)

DEFAULT_SAMPLES = 64
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-8


class UnknownSuite(GcalcError):
    pass


# ---------------------------------------------------------------------------
# random data helpers


def _chart(name):
    return builtin(name).chart


def _rc(rng):
    """A random coefficient, bounded away from huge values."""
    return float(rng.uniform(-1.0, 1.0))


def _rel_mv(A, B):
    return (A - B).norm_inf() / max(1.0, A.norm_inf(), B.norm_inf())


def _rel_arr(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _random_gram(rng, n):
    """Well conditioned random symmetric Gram, indefinite half of the time."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mags = rng.uniform(0.5, 2.0, size=n)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if rng.random() < 0.4:
        signs = np.ones(n)            # keep some definite cases in the mix
    return Gram(q @ np.diag(mags * signs) @ q.T)


def _random_mv(rng, n, grades=None):
    comps = {}
    for m in range(1 << n):
        if grades is not None and bl.grade_of(m) not in grades:
            continue
        comps[m] = _rc(rng)
    return Multivector(n, comps)


def _random_vec(rng, n):
    return Multivector(n, {1 << i: _rc(rng) for i in range(n)})


def _rand_scalar_expr(rng, chart):
    """Random smooth scalar expression tree in the chart coordinates:
    c0 + c1*u + c2*v*w + c3*f(z), with f one of sin and cos."""

    def num():
        return ex.Num(_rc(rng))

    def coord():
        return ex.Coord(int(rng.integers(0, chart.n)))

    # operands are evaluated left to right, so rng is drawn in reading order
    tree = num() + num() * coord() + num() * coord() * coord()
    fn = ("sin", "cos")[int(rng.integers(0, 2))]
    return tree + num() * ex.Call(fn, coord())


def _rand_field(rng, chart, grades=None, frame="coord"):
    n = chart.n
    comps = {}
    for m in range(1 << n):
        if grades is not None and bl.grade_of(m) not in grades:
            continue
        comps[m] = _rand_scalar_expr(rng, chart)
    return MultivectorField.parse(chart, comps, frame)


def _rand_direction(rng, n):
    return [_rc(rng) for _ in range(n)]


def _rand_chi(rng, chart):
    """Random contorsion entries, antisymmetric in the last index pair."""
    n = chart.n
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                e = ex.Num(_rc(rng)) + ex.Num(_rc(rng)) * ex.Coord(0)
                entries.append((i, j, k, e))
                entries.append((i, k, j, -e))
    return tuple(entries)


def _basis_fields(n, frame="coord"):
    return [MultivectorField(frame, {1 << i: ex.Num(1.0)}) for i in range(n)]


_BUILT_CHARTS = {}   # charts the suites build, once per process, by name


def _flat_clone(chart):
    """Same coordinates and sampling box, identity metric."""
    name = chart.name + "_flat"
    if name not in _BUILT_CHARTS:
        n = chart.n
        eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        _BUILT_CHARTS[name] = Chart(name, chart.coords, eye, domain=chart.domain)
    return _BUILT_CHARTS[name]


def _curved3():
    """A 3-D chart with a varying metric and a frame whose vectors do not commute."""
    if "curved3" not in _BUILT_CHARTS:
        _BUILT_CHARTS["curved3"] = Chart(
            "curved3", ("x", "y", "z"),
            (("1 + x^2", "0.3*y", "0.1*z"), ("0.3*y", "2 + y*z", "0.2*x"),
             ("0.1*z", "0.2*x", "1.5 + 0.5*sin(x)")),
            {"twist": (("1", "0.2*y", "0"), ("0.1*z", "1", "0.3*x"),
                       ("0", "0.2*x*y", "1"))},
            domain=((-0.5, 0.5),) * 3)
    return _BUILT_CHARTS["curved3"]


# ---------------------------------------------------------------------------
# expr checks


def _rand_expr_text(rng, coords, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.25:
        if rng.random() < 0.3:
            return repr(_rc(rng))
        return f"{_rc(rng)!r}*{coords[int(rng.integers(0, len(coords)))]}"
    a = _rand_expr_text(rng, coords, depth + 1)
    op = int(rng.integers(0, 7))
    if op <= 2:
        b = _rand_expr_text(rng, coords, depth + 1)
        return (f"({a}) + ({b})", f"({a}) - ({b})", f"({a})*({b})")[op]
    if op == 3:
        b = _rand_expr_text(rng, coords, depth + 1)
        return f"({a})/(2 + ({b})^2)"
    if op == 4:
        fn = ("sin", "cos")[int(rng.integers(0, 2))]
        return f"{fn}({a})"
    if op == 5:
        return f"exp({_rc(rng) * 0.5!r}*({a}))"
    return f"({a})^2"


def _shifted(point, deltas):
    p = list(point)
    for k, d in deltas.items():
        p[k] += d
    return tuple(p)


def _fd_gradient(f, point, h=1e-5):
    n = len(point)
    out = np.zeros(n)
    for k in range(n):
        out[k] = (f(_shifted(point, {k: h})) - f(_shifted(point, {k: -h}))) / (2 * h)
    return out


def _fd_hessian(f, point, h=2e-3):
    """Central second differences, Richardson extrapolated once."""
    n = len(point)

    def second(step):
        out = np.zeros((n, n))
        f0 = f(point)
        for k in range(n):
            out[k, k] = (f(_shifted(point, {k: step})) - 2.0 * f0
                         + f(_shifted(point, {k: -step}))) / step ** 2
            for l in range(k + 1, n):
                v = (f(_shifted(point, {k: step, l: step}))
                     - f(_shifted(point, {k: step, l: -step}))
                     - f(_shifted(point, {k: -step, l: step}))
                     + f(_shifted(point, {k: -step, l: -step}))) / (4 * step ** 2)
                out[k, l] = out[l, k] = v
        return out

    return (4.0 * second(h / 2) - second(h)) / 3.0


def _chk_expr_fd(rng, samples):
    count = max(256, samples)
    dev = 0.0
    pools = (("u", "v"), ("u", "v", "w"))
    done = 0
    while done < count:
        coords = pools[int(rng.integers(0, 2))]
        n = len(coords)
        text = _rand_expr_text(rng, coords)
        point = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
        try:
            node = ex.parse(text, coords)
            jet = ex.eval_jet(node, point, 2)
            f = lambda p: ex.eval_value(node, p)
            fg = _fd_gradient(f, point)
            fh = _fd_hessian(f, point)
        except GcalcError:
            continue
        scale = max(1.0, abs(jet.value), float(np.max(np.abs(jet.grad))),
                    float(np.max(np.abs(jet.hess))))
        dev = max(dev, float(np.max(np.abs(jet.grad - fg))) / scale)
        dev = max(dev, float(np.max(np.abs(jet.hess - fh))) / scale)
        done += 1
    return dev, count, None


def _chk_expr_roundtrip(rng, samples):
    fixed = ["-x^2", "x - (y - z)", "x/y/z", "2*x^3^2", "sin(cos(x*y)) + exp(z)",
             "x*(-y)", "(x + y)*(x - y)", "1/(2 + x^2)"]
    coords = ("x", "y", "z")
    bad = 0
    total = 0
    for text in fixed:
        total += 1
        canon = ex.to_text(ex.parse(text, coords), coords)
        again = ex.to_text(ex.parse(canon, coords), coords)
        if again != canon:
            bad += 1
    for _ in range(samples):
        total += 1
        text = _rand_expr_text(rng, coords)
        canon = ex.to_text(ex.parse(text, coords), coords)
        again = ex.to_text(ex.parse(canon, coords), coords)
        if again != canon:
            bad += 1
    return float(bad), total, None


def _chk_program_matches_walk(rng, samples):
    """A fresh vector field's program walks its first two points and builds
    and runs a tape at the third, where every entry must equal the walk's,
    bit for bit.  The first two are the walk itself, so only the third is
    compared.  The scalar part, a number minus a product of coordinates,
    records a subtraction whose left operand is a number."""
    dev = 0.0
    for _ in range(samples):
        name = ("sphere2", "polar2", "curved3")[int(rng.integers(0, 3))]
        chart = _curved3() if name == "curved3" else _chart(name)
        field = _rand_field(rng, chart, grades={1})
        field = MultivectorField(field.frame, {**field.components,
                                               0: 0.5 - ex.Coord(0) * ex.Coord(1)})
        for _ in range(3):
            point = sample_point(chart, rng)
            got = field.program.jet(point, 2)
        grid = [field.components.get(m) for m in range(1 << chart.n)]
        for a, b in zip(got.coeffs, ex.eval_jet(grid, point, 2).coeffs):
            dev = max(dev, _rel_arr(a, b))
    return dev, samples, None


# ---------------------------------------------------------------------------
# algebra checks


def _chk_alg_fundamental(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        a = _random_vec(rng, n)
        B = _random_mv(rng, n)
        lhs = gp(a, B, g)
        rhs = dot(a, B, g) + wedge(a, B)
        dev = max(dev, _rel_mv(lhs, rhs))
    return dev, samples, None


def _chk_alg_associativity(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        A, B, C = (_random_mv(rng, n) for _ in range(3))
        dev = max(dev, _rel_mv(gp(gp(A, B, g), C, g), gp(A, gp(B, C, g), g)))
    return dev, samples, None


def _chk_alg_vector_split(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        a, b = _random_vec(rng, n), _random_vec(rng, n)
        ab, ba = gp(a, b, g), gp(b, a, g)
        dev = max(dev, _rel_mv(dot(a, b, g), (ab + ba) * 0.5))
        dev = max(dev, _rel_mv(wedge(a, b), (ab - ba) * 0.5))
    return dev, samples, None


def _chk_alg_wedge_gram_free(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        j = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        A = _random_mv(rng, n, grades={j})
        B = _random_mv(rng, n, grades={k})
        w = wedge(A, B)
        for _ in range(2):
            g = _random_gram(rng, n)
            proj = grade(gp(A, B, g), j + k)
            dev = max(dev, _rel_mv(w, proj))
    return dev, samples, None


def _chk_alg_duality(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        j = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        A = _random_mv(rng, n, grades={j})
        B = _random_mv(rng, n, grades={k})
        dev = max(dev, _rel_mv(dual(dot(A, B, g), g), wedge(A, dual(B, g))))
        dev = max(dev, _rel_mv(dual(wedge(A, B), g), dot(A, dual(B, g), g)))
    return dev, samples, None


def _chk_alg_dual_inverse(rng, samples):
    """dual(A) I = A I^{-1} I = A: the dual applied once, so a scaled or
    negated dual fails here, while the exchange identities above apply it
    on both sides and cancel any scale."""
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        A = _random_mv(rng, n)
        for o in (1, -1):
            dev = max(dev, _rel_mv(gp(dual(A, g, o), pseudoscalar(g, o), g), A))
    return dev, samples, None


def _chk_alg_trace_rot(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = np.asarray(_random_gram(rng, n).matrix)
        M = rng.normal(size=(n, n))
        S = rng.normal(size=(n, n))
        while abs(np.linalg.det(S)) < 0.3:
            S = rng.normal(size=(n, n))

        def components(F):
            gram = F @ g @ F.T
            R = np.linalg.solve(gram, F)
            upper = np.array([[R[i] @ g @ (M @ R[j]) for j in range(n)]
                              for i in range(n)])
            return upper, gram

        f1, g1 = components(np.eye(n))
        f2, g2 = components(S)
        tr1, rot1 = trace_rot(LinMap(f1), g1)
        tr2, rot2 = trace_rot(LinMap(f2), g2)
        dev = max(dev, abs(tr1 - tr2) / max(1.0, abs(tr1)))

        def rot_coord(rot, F):
            out = np.zeros((n, n))
            for mask, cc in rot.coeffs.items():
                i, j = bl.indices_of(mask)
                out += cc * (np.outer(F[i], F[j]) - np.outer(F[j], F[i])) / 2.0
            return out

        dev = max(dev, _rel_arr(rot_coord(rot1, np.eye(n)), rot_coord(rot2, S)))
    return dev, samples, None


def _chk_alg_tsa(rng, samples):
    dev = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        f = LinMap(rng.normal(size=(n, n)))
        tr, fm, fp = tsa_decompose(f, g)
        a = _random_vec(rng, n)
        got = (tr / n) * LinMap(np.asarray(g.inverse)).apply(a, g) \
            + fm.apply(a, g) + fp.apply(a, g)
        dev = max(dev, _rel_mv(f.apply(a, g), got))
        tr_plus, _ = trace_rot(fp, g)
        dev = max(dev, abs(tr_plus))
        b = _random_vec(rng, n)
        left = dot(a, fm.apply(b, g), g)[0]
        right = dot(b, fm.apply(a, g), g)[0]
        dev = max(dev, abs(left + right) / max(1.0, abs(left)))
    return dev, samples, None


def _chk_alg_rot_constant(rng, samples):
    dev = 0.0
    fitted = []
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = _random_gram(rng, n)
        f = LinMap(rng.normal(size=(n, n)))
        _, fm, _ = tsa_decompose(f, g)
        _, rot = trace_rot(f, g)
        a = _random_vec(rng, n)
        u = fm.apply(a, g)
        v = dot(a, rot, g)
        uu = sum(c * c for c in u.coeffs.values())
        if uu < 1e-8:
            continue
        uv = sum(v[m] * c for m, c in u.coeffs.items())
        c_fit = uv / uu
        fitted.append(c_fit)
        dev = max(dev, abs(c_fit - 2.0))
    extra = {"fitted_constant": float(np.mean(fitted))} if fitted else None
    return dev, samples, extra


# ---------------------------------------------------------------------------
# frames checks


_FRAME_CHARTS = ("polar2", "sphere2")


def _chk_lie_bilinear(rng, samples):
    dev = 0.0
    for _ in range(samples):
        chart = _chart(_FRAME_CHARTS[int(rng.integers(0, 2))])
        n = chart.n
        point = sample_point(chart, rng)
        fa = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fb = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fc = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        al, be = _rc(rng), _rc(rng)
        combo = [ex.Num(al) * a + ex.Num(be) * b for a, b in zip(fa, fb)]
        lhs = lie_bracket(chart, combo, fc, point)
        rhs = al * lie_bracket(chart, fa, fc, point) \
            + be * lie_bracket(chart, fb, fc, point)
        dev = max(dev, _rel_arr(lhs, rhs))
    return dev, samples, None


def _chk_lie_antisymmetric(rng, samples):
    dev = 0.0
    for _ in range(samples):
        chart = _chart(_FRAME_CHARTS[int(rng.integers(0, 2))])
        n = chart.n
        point = sample_point(chart, rng)
        fa = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fb = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        lhs = lie_bracket(chart, fa, fb, point)
        rhs = lie_bracket(chart, fb, fa, point)
        dev = max(dev, _rel_arr(lhs, -rhs))
    return dev, samples, None


def _nested_bracket(chart, fa, fb, fc, point):
    """[a, [b, c]] exactly: the inner bracket of order-2 jets keeps the first
    derivatives that the outer bracket takes."""
    abc = ex.eval_jet([fa, fb, fc], point, 2)
    a, b, c = (abc.take(i) for i in range(3))
    return bracket(a, bracket(b, c)).value


def _chk_lie_jacobi(rng, samples):
    dev = 0.0
    for _ in range(samples):
        chart = _chart(_FRAME_CHARTS[int(rng.integers(0, 2))])
        n = chart.n
        point = sample_point(chart, rng)
        fa = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fb = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fc = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        total = (_nested_bracket(chart, fa, fb, fc, point)
                 + _nested_bracket(chart, fc, fa, fb, point)
                 + _nested_bracket(chart, fb, fc, fa, point))
        dev = max(dev, _rel_arr(total, np.zeros(n)))
    return dev, samples, None


def _chk_lie_multipliers(rng, samples):
    dev = 0.0
    for _ in range(samples):
        chart = _chart(_FRAME_CHARTS[int(rng.integers(0, 2))])
        n = chart.n
        point = sample_point(chart, rng)
        fa = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        fb = [_rand_scalar_expr(rng, chart) for _ in range(n)]
        al_t = _rand_scalar_expr(rng, chart)
        be_t = _rand_scalar_expr(rng, chart)
        lhs = lie_bracket(chart, [al_t * t for t in fa], [be_t * t for t in fb],
                          point)
        a_vals = np.array([ex.eval_value(t, point) for t in fa])
        b_vals = np.array([ex.eval_value(t, point) for t in fb])
        al = ex.eval_jet(al_t, point, 1)
        be = ex.eval_jet(be_t, point, 1)
        da_beta = float(np.dot(a_vals, be.grad))
        db_alpha = float(np.dot(b_vals, al.grad))
        rhs = al.value * da_beta * b_vals - be.value * db_alpha * a_vals \
            + al.value * be.value * lie_bracket(chart, fa, fb, point)
        dev = max(dev, _rel_arr(lhs, rhs))
    return dev, samples, None


def _chk_commutator_antisymmetry(rng, samples):
    dev = 0.0
    pairs = (("sphere2", "ortho"), ("polar2", "skew"))
    for s in range(samples):
        name, frame = pairs[s % 2]
        chart = _chart(name)
        fa = eval_frame(chart, frame, sample_point(chart, rng))
        dev = max(dev, float(np.max(np.abs(fa.lie.value + fa.lie.value.transpose(1, 0, 2)))))
    return dev, samples, None


def _chk_commutator_jacobi(rng, samples):
    """The Jacobi identity of the frame brackets [e_j, e_k] = c_jk^q e_q,
    c_jk^q = L_jkp g^{pq}, dotted with e_m:

        sum_cyc c_jk^q L_qim = sum_cyc [e_i(L_jkm) - c_jk^l e_i(g_lm)],

    each side summed over the cyclic permutations of (i, j, k).  On 2-D
    frames both sides vanish; the 3-D chart has a frame whose vectors do not
    commute and a Gram that varies."""
    setups = ((_chart("sphere2"), "ortho"), (_chart("polar2"), "skew"),
              (_curved3(), "twist"))
    dev = 0.0
    for s in range(samples):
        chart, frame = setups[s % 3]
        fj = frame_jets(chart, frame, sample_point(chart, rng), 2)
        L = fj.lie.value
        c = np.einsum("jkp,pq->jkq", L, fj.gram_inv.value)
        lhs = np.einsum("jkq,qim->ijkm", c, L)
        rhs = (np.einsum("ia,jkma->ijkm", fj.F.value, fj.lie.grad)
               - np.einsum("jkl,ilm->ijkm", c, fj.dgram.value))
        lhs, rhs = (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
                    for t in (lhs, rhs))
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        dev = max(dev, float(np.max(np.abs(lhs - rhs) / scale)))
    return dev, samples, None


def _chk_coordinate_duality(rng, samples):
    """Polar coordinate vectors against the gradients of cartesian scalars:
    e(x_i) . dy^j must equal the Jacobian entry dy^j/dx^i."""
    chart = _chart("polar2")
    spec = levi_civita(chart, "coord")
    cartesian = [MultivectorField.scalar(chart, text)
                 for text in ("r*cos(theta)", "r*sin(theta)")]
    dev = 0.0
    for _ in range(samples):
        point = sample_point(chart, rng)
        r, th = point
        jac = np.array([[np.cos(th), np.sin(th)],
                        [-r * np.sin(th), r * np.cos(th)]])
        g = as_gram(eval_frame(chart, "coord", point).gram.value)
        for j, field in enumerate(cartesian):
            gmv = md.gradient(spec, field, point)
            for i in range(2):
                e_i = Multivector(2, {1 << i: 1.0})
                got = dot(e_i, gmv, g)[0]
                dev = max(dev, abs(got - jac[i, j]) / max(1.0, abs(jac[i, j])))
    return dev, samples, None


# ---------------------------------------------------------------------------
# connection checks


def _chk_sphere_closed_form(rng, samples):
    chart = _chart("sphere2")
    dev = 0.0
    for _ in range(samples):
        point = sample_point(chart, rng)
        th = point[0]
        want = np.zeros((2, 2, 2))
        want[0, 1, 1] = want[1, 0, 1] = np.sin(th) * np.cos(th)
        want[1, 1, 0] = -np.sin(th) * np.cos(th)
        conn = connection_at(chart, "coord", point, ())
        dev = max(dev, _rel_arr(conn.gammabar.value, want))
    return dev, samples, None


def _chk_polar_closed_form(rng, samples):
    chart = _chart("polar2")
    dev = 0.0
    for _ in range(samples):
        point = sample_point(chart, rng)
        r = point[0]
        want = np.zeros((2, 2, 2))
        want[0, 1, 1] = want[1, 0, 1] = r
        want[1, 1, 0] = -r
        conn = connection_at(chart, "coord", point, ())
        dev = max(dev, _rel_arr(conn.gammabar.value, want))
    return dev, samples, None


_CONN_SETUPS = (("sphere2", "coord"), ("sphere2", "ortho"),
                ("polar2", "coord"), ("polar2", "skew"))


def _chk_metric_compatibility(rng, samples):
    dev = 0.0
    for s in range(samples):
        name, frame = _CONN_SETUPS[s % 4]
        chart = _chart(name)
        chi = _rand_chi(rng, chart)
        point = sample_point(chart, rng)
        conn = connection_at(chart, frame, point, chi)
        sym = conn.gamma.value + conn.gamma.value.transpose(0, 2, 1)
        dev = max(dev, _rel_arr(sym, conn.frame.dgram.value))
    return dev, samples, None


def _chk_torsion_free_identity(rng, samples):
    dev = 0.0
    for s in range(samples):
        name, frame = _CONN_SETUPS[s % 4]
        chart = _chart(name)
        point = sample_point(chart, rng)
        conn = connection_at(chart, frame, point, ())
        skew = conn.gammabar.value - conn.gammabar.value.transpose(1, 0, 2)
        dev = max(dev, _rel_arr(skew, conn.frame.lie.value))
    return dev, samples, None


def _chk_flat_vanishes(rng, samples):
    dev = 0.0
    names = ("euclid2", "euclid3", "minkowski4")
    for s in range(samples):
        chart = _chart(names[s % 3])
        point = sample_point(chart, rng)
        conn = connection_at(chart, "coord", point, ())
        dev = max(dev, float(np.max(np.abs(conn.gamma.value))))
    return dev, samples, None


def _chk_contorsion_operator(rng, samples):
    """Q_a kills scalars, is pointwise linear over scalar fields, and
    preserves grade."""
    dev = 0.0
    pairs = (("sphere2", "coord"), ("polar2", "skew"))
    for s in range(samples):
        name, frame = pairs[s % 2]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart)
        spec = conn_spec(chart, frame, chi)
        lc = levi_civita(chart, frame)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, n)
        k = int(rng.integers(1, n + 1))
        A = _rand_field(rng, chart, grades={k}, frame=frame)
        qa = contorsion_apply(spec, lc, a, A, point)
        off = Multivector(n, {m: c for m, c in qa.coeffs.items()
                              if bl.grade_of(m) != k})
        dev = max(dev, off.norm_inf() / max(1.0, qa.norm_inf()))
        phi_t = _rand_scalar_expr(rng, chart)
        phi = ex.eval_value(phi_t, point)
        scaled = MultivectorField(frame, {m: phi_t * c
                                          for m, c in A.components.items()})
        dev = max(dev, _rel_mv(contorsion_apply(spec, lc, a, scaled, point),
                               phi * qa))
        sc = MultivectorField.scalar(chart, phi_t, frame)
        dev = max(dev, contorsion_apply(spec, lc, a, sc, point).norm_inf())
    return dev, samples, None


# ---------------------------------------------------------------------------
# mdd checks


_MDD_SETUPS = (("sphere2", "coord"), ("sphere2", "ortho"), ("polar2", "skew"))


def _chk_mdd_product_rule(rng, samples):
    dev = 0.0
    combines = ("gp", "dot", "wedge")
    for s in range(samples):
        name, frame = _MDD_SETUPS[s % 3]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, frame, chi)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, n)
        A = _rand_field(rng, chart, frame=frame)
        B = _rand_field(rng, chart, frame=frame)
        combine = combines[int(rng.integers(0, 3))]
        lhs = md.mdd(spec, a, md.product_field(chart, frame, A, B, combine),
                     point)
        g = as_gram(eval_frame(chart, frame, point).gram.value)
        ops = {"gp": lambda X, Y: gp(X, Y, g),
               "dot": lambda X, Y: dot(X, Y, g),
               "wedge": wedge}
        op = ops[combine]
        da = md.mdd(spec, a, A, point)
        db = md.mdd(spec, a, B, point)
        rhs = op(da, eval_field(B, point)) + op(eval_field(A, point), db)
        dev = max(dev, _rel_mv(lhs, rhs))
    return dev, samples, None


def _chk_mdd_grade_preservation(rng, samples):
    dev = 0.0
    for s in range(samples):
        name, frame = _MDD_SETUPS[s % 3]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, frame, chi)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, n)
        k = int(rng.integers(0, n + 1))
        A = _rand_field(rng, chart, grades={k}, frame=frame)
        da = md.mdd(spec, a, A, point)
        off = Multivector(n, {m: c for m, c in da.coeffs.items()
                              if bl.grade_of(m) != k})
        dev = max(dev, off.norm_inf() / max(1.0, da.norm_inf()))
    return dev, samples, None


def _chk_mdd_metric_compat(rng, samples):
    """The scalar product rule: a directional derivative of b . c splits."""
    dev = 0.0
    for s in range(samples):
        name, frame = _MDD_SETUPS[s % 3]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, frame, chi)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, n)
        bField = _rand_field(rng, chart, grades={1}, frame=frame)
        cField = _rand_field(rng, chart, grades={1}, frame=frame)
        lhs = md.mdd(spec, a, md.product_field(chart, frame, bField, cField,
                                               "dot"), point)[0]
        g = as_gram(eval_frame(chart, frame, point).gram.value)
        rhs = dot(md.mdd(spec, a, bField, point), eval_field(cField, point), g)[0] \
            + dot(eval_field(bField, point), md.mdd(spec, a, cField, point), g)[0]
        dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return dev, samples, None


def _chk_mdd_pseudoscalar(rng, samples):
    dev = 0.0
    for s in range(samples):
        name, frame = _MDD_SETUPS[s % 3]
        chart = _chart(name)
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, frame, chi)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, chart.n)
        I = md.unit_pseudoscalar_field(chart, frame)
        dev = max(dev, md.mdd(spec, a, I, point).norm_inf())
    return dev, samples, None


def _chk_mdd_restriction(rng, samples):
    """Basis derivatives reproduce the connection coefficients, the input
    contorsion is recoverable, and scalars never see the connection."""
    dev = 0.0
    for s in range(samples):
        name, frame = _MDD_SETUPS[s % 3]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart)
        spec = conn_spec(chart, frame, chi)
        point = sample_point(chart, rng)
        conn = connection_at(chart, frame, point, chi)
        mg = conn.mixed.value
        basis = _basis_fields(n, frame)
        got = np.zeros((n, n, n))
        for i in range(n):
            a = [1.0 if l == i else 0.0 for l in range(n)]
            for j in range(n):
                dmv = md.mdd(spec, a, basis[j], point)
                got[i, j] = [dmv[1 << l] for l in range(n)]
        dev = max(dev, _rel_arr(got, mg))
        lowered = np.einsum("ijl,lk->ijk", got, conn.frame.gram.value)
        dev = max(dev, _rel_arr(lowered - conn.gammabar.value, conn.chi.value))
        phi_t = _rand_scalar_expr(rng, chart)
        a = _rand_direction(rng, n)
        sc = MultivectorField.scalar(chart, phi_t, frame)
        lhs = md.mdd(spec, a, sc, point)[0]
        rhs = dirderiv_scalar(chart, frame, point, a, phi_t)
        dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return dev, samples, None


def _transformed_chi(chart, dst_frame, chi_entries):
    """Re-express coordinate-frame contorsion entries in another frame."""
    n = chart.n
    rows = chart.frame_rows(dst_frame)
    dense = [[[None] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, e) in chi_entries:
        cur = dense[i - 1][j - 1][k - 1]
        dense[i - 1][j - 1][k - 1] = e if cur is None else cur + e
    out = []
    for a, b, c in itertools.product(range(n), repeat=3):
        total = None
        for i, j, k in itertools.product(range(n), repeat=3):
            if dense[i][j][k] is None:
                continue
            term = rows[a][i] * rows[b][j] * rows[c][k] * dense[i][j][k]
            total = term if total is None else total + term
        if total is not None:
            out.append((a + 1, b + 1, c + 1, total))
    return tuple(out)


def _chk_mdd_gradient_frames(rng, samples):
    """The gradient is an absolute operator: computing it in another frame
    and re-expressing lands on the same multivector."""
    chart = _chart("sphere2")
    dev = 0.0
    for s in range(samples):
        chi_c = _rand_chi(rng, chart) if s % 2 else ()
        chi_o = _transformed_chi(chart, "ortho", chi_c) if chi_c else ()
        spec_c = conn_spec(chart, "coord", chi_c)
        spec_o = conn_spec(chart, "ortho", chi_o)
        point = sample_point(chart, rng)
        field_c = _rand_field(rng, chart)
        field_o = md.reexpress_field(chart, "coord", "ortho", field_c)
        g_c = md.gradient(spec_c, field_c, point)
        g_o = md.gradient(spec_o, field_o, point)
        snap = MultivectorField("ortho", {m: ex.Num(float(c))
                                          for m, c in g_o.coeffs.items()})
        back = eval_field(md.reexpress_field(chart, "ortho", "coord", snap),
                          point)
        dev = max(dev, _rel_mv(back, g_c))
    return dev, samples, None


# ---------------------------------------------------------------------------
# exterior checks


_EXT_CHARTS = ("polar2", "sphere2", "euclid3")


def _chk_d_squared(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_EXT_CHARTS[s % 3])
        point = sample_point(chart, rng)
        A = _rand_field(rng, chart)
        dd = md.ext_d(chart, "coord",
                      md.ext_d_field(chart, "coord", A), point)
        dev = max(dev, dd.norm_inf())
    return dev, samples, None


def _chk_codiff_squared(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_EXT_CHARTS[s % 3])
        spec = levi_civita(chart, "coord")
        point = sample_point(chart, rng)
        A = _rand_field(rng, chart)
        dd = eval_field(md.divergence_field(spec, md.divergence_field(spec, A)),
                        point)
        dev = max(dev, dd.norm_inf())
    return dev, samples, None


def _chk_graded_leibniz(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_EXT_CHARTS[s % 3])
        n = chart.n
        point = sample_point(chart, rng)
        j = int(rng.integers(0, n + 1))
        A = _rand_field(rng, chart, grades={j})
        B = _rand_field(rng, chart)
        AB = md.product_field(chart, "coord", A, B, "wedge")
        lhs = md.ext_d(chart, "coord", AB, point)
        dA = md.ext_d(chart, "coord", A, point)
        dB = md.ext_d(chart, "coord", B, point)
        sign = -1.0 if j % 2 else 1.0
        rhs = wedge(dA, eval_field(B, point)) \
            + sign * wedge(eval_field(A, point), dB)
        dev = max(dev, _rel_mv(lhs, rhs))
    return dev, samples, None


def _chk_ext_metric_independence(rng, samples):
    """Transport a form across two metrics on one coordinate system; the
    conjugated exterior derivative must not notice the metric."""
    dev = 0.0
    names = ("polar2", "sphere2")
    for s in range(samples):
        chart = _chart(names[s % 2])
        flat = _flat_clone(chart)
        n = chart.n
        degree = int(rng.integers(0, n))
        comps = {bl.key_of(m): _rand_scalar_expr(rng, chart)
                 for m in range(1 << n) if bl.grade_of(m) == degree}
        point = sample_point(chart, rng)
        vals = []
        for cc in (chart, flat):
            form = FormField.parse(cc, degree, comps)
            rebuilt = hat_map(cc, md.ext_d_field(cc, "coord", unhat(cc, form)))
            vals.append(form_eval(rebuilt, point))
        dev = max(dev, _forms_dev(vals[0], vals[1]))
    return dev, samples, None


def _chk_codiff_dual_sign(rng, samples):
    """The divergence and the dual-sandwich route agree up to the sign of
    I^2 = (-1)^(n(n-1)/2) sign(det g) for every metric signature and grade;
    measure it, and count a sign other than that one as a deviation of 1."""
    dev = 0.0
    signs = {}
    names = ("euclid2", "euclid3", "minkowski4", "polar2", "sphere2")
    for s in range(samples):
        chart = _chart(names[s % 5])
        n = chart.n
        spec = levi_civita(chart, "coord")
        point = sample_point(chart, rng)
        gram = eval_frame(chart, "coord", point).gram.value
        sig = "".join("+" if v > 0 else "-"
                      for v in sorted(np.linalg.eigvalsh(gram), reverse=True))
        k = int(rng.integers(1, n + 1))
        A = _rand_field(rng, chart, grades={k})
        direct = md.codifferential(spec, A, point)
        sandwich = md.codifferential_via_dual(spec, A, point)
        if max(direct.norm_inf(), sandwich.norm_inf()) < 1e-12:
            continue
        dev_p = _rel_mv(direct, sandwich)
        dev_m = _rel_mv(direct, sandwich * -1.0)
        sign = 1 if dev_p <= dev_m else -1
        dev = max(dev, min(dev_p, dev_m))
        if sign != (-1) ** (n * (n - 1) // 2) * np.sign(np.linalg.det(gram)):
            dev = max(dev, 1.0)
        signs[f"{sig},grade={k}"] = sign
    return dev, samples, {"signs": signs}


# ---------------------------------------------------------------------------
# tensor checks


def _rand_tensor(rng, chart, rank, frame="coord"):
    n = chart.n
    comps = {}
    for idx in itertools.product(range(n), repeat=rank):
        comps[tuple(1 << i for i in idx) + (0,)] = _rand_scalar_expr(rng, chart)
    return TensorField(chart, frame, TensorSignature((1,) * rank, 0), comps)


def _chk_tensor_chain(rng, samples):
    dev = 0.0
    names = ("sphere2", "polar2")
    for s in range(samples):
        chart = _chart(names[s % 2])
        n = chart.n
        rank = 2 if s % 4 < 2 else 3
        chi = _rand_chi(rng, chart)
        spec = conn_spec(chart, "coord", chi)
        T = _rand_tensor(rng, chart, rank)
        point = sample_point(chart, rng)
        dcomp = tensor_derivative_components(spec, T, point)
        basis = _basis_fields(n)
        i = int(rng.integers(0, n))
        idx = tuple(int(rng.integers(0, n)) for _ in range(rank))
        a = [1.0 if l == i else 0.0 for l in range(n)]
        chain = tensor_derivative_chain(spec, T, a, [basis[j] for j in idx],
                                        point)
        want = dcomp[(i,) + idx]
        dev = max(dev, abs(chain[0] - want) / max(1.0, abs(want)))
    return dev, samples, None


def _chk_tensor_metric_parallel(rng, samples):
    dev = 0.0
    pairs = (("sphere2", "coord"), ("polar2", "skew"))
    for s in range(samples):
        name, frame = pairs[s % 2]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, frame, chi)
        ghat = metric_tensor_field(chart, frame)
        point = sample_point(chart, rng)
        basis = _basis_fields(n, frame)
        i, j, k = (int(rng.integers(0, n)) for _ in range(3))
        a = [1.0 if l == i else 0.0 for l in range(n)]
        val = tensor_derivative_chain(spec, ghat, a, [basis[j], basis[k]],
                                      point)
        dev = max(dev, val.norm_inf())
    return dev, samples, None


def _chk_tensor_product_rule(rng, samples):
    chart = _chart("sphere2")
    n = chart.n
    dev = 0.0
    for s in range(samples):
        chi = _rand_chi(rng, chart) if s % 2 else ()
        spec = conn_spec(chart, "coord", chi)
        point = sample_point(chart, rng)
        T = _rand_tensor(rng, chart, 1)
        S = _rand_tensor(rng, chart, 1)
        TS = tensor_product(T, S)
        basis = _basis_fields(n)
        i, j, k = (int(rng.integers(0, n)) for _ in range(3))
        a = [1.0 if l == i else 0.0 for l in range(n)]
        lhs = tensor_derivative_chain(spec, TS, a, [basis[j], basis[k]],
                                      point)[0]
        ej = Multivector(n, {1 << j: 1.0})
        ek = Multivector(n, {1 << k: 1.0})
        rhs = tensor_derivative_chain(spec, T, a, [basis[j]], point)[0] \
            * tensor_eval(S, [ek], point)[0] \
            + tensor_eval(T, [ej], point)[0] \
            * tensor_derivative_chain(spec, S, a, [basis[k]], point)[0]
        dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return dev, samples, None


def _chk_tensor_contraction_commutes(rng, samples):
    chart = _chart("sphere2")
    n = chart.n
    dev = 0.0
    for s in range(samples):
        chi = _rand_chi(rng, chart)
        spec = conn_spec(chart, "coord", chi)
        T = _rand_tensor(rng, chart, 2)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, n)
        frame_at = eval_frame(chart, "coord", point)
        basis = _basis_fields(n)
        lhs = 0.0
        for i in range(n):
            recip = MultivectorField(
                "coord", {1 << l: ex.Num(float(frame_at.gram_inv.value[i][l]))
                          for l in range(n)})
            lhs += tensor_derivative_chain(spec, T, a, [basis[i], recip],
                                           point)[0]

        def tbar_fn(p, order, _T=T, _chart=chart):
            fj = frame_jets(_chart, "coord", p, order)
            tot = None
            for i in range(n):
                for j in range(n):
                    cj = ex.eval_jet(_T.components[(1 << i, 1 << j, 0)], p,
                                     order)
                    term = fj.gram_inv.take((i, j)) * cj
                    tot = term if tot is None else tot + term
            return md.from_blade_map({0: tot}, n, order)

        rhs = md.mdd(spec, a, DerivedField("coord", tbar_fn), point)[0]
        dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return dev, samples, None


def _chk_tensor_frame_law(rng, samples):
    chart = _chart("sphere2")
    n = chart.n
    dev = 0.0
    for _ in range(samples):
        T = _rand_tensor(rng, chart, 2)
        point = sample_point(chart, rng)
        P = change_of_frame_matrix(chart, "ortho", "coord", point)
        ortho = eval_frame(chart, "ortho", point)
        comps = np.array([[ex.eval_value(T.components[(1 << c, 1 << d, 0)],
                                         point)
                           for d in range(n)] for c in range(n)])
        want = np.einsum("ac,bd,cd->ab", P, P, comps)
        got = np.zeros((n, n))
        for a_i in range(n):
            b_a = Multivector(n, {1 << l: ortho.F.value[a_i][l] for l in range(n)})
            for b_i in range(n):
                b_b = Multivector(n, {1 << l: ortho.F.value[b_i][l]
                                      for l in range(n)})
                got[a_i, b_i] = tensor_eval(T, [b_a, b_b], point)[0]
        dev = max(dev, _rel_arr(got, want))
    return dev, samples, None


def _chk_tensor_index_raising(rng, samples):
    dev = 0.0
    names = ("sphere2", "polar2")
    for s in range(samples):
        chart = _chart(names[s % 2])
        n = chart.n
        T = _rand_tensor(rng, chart, 2)
        point = sample_point(chart, rng)
        frame_at = eval_frame(chart, "coord", point)
        comps = np.array([[ex.eval_value(T.components[(1 << c, 1 << d, 0)],
                                         point)
                           for d in range(n)] for c in range(n)])
        raised = comps @ frame_at.gram_inv.value.T
        for i in range(n):
            e_i = Multivector(n, {1 << i: 1.0})
            for j in range(n):
                up = Multivector(n, {1 << l: float(frame_at.gram_inv.value[j][l])
                                     for l in range(n)})
                got = tensor_eval(T, [e_i, up], point)[0]
                dev = max(dev, abs(got - raised[i, j])
                          / max(1.0, abs(raised[i, j])))
    return dev, samples, None


def _chk_tensor_contorsion(rng, samples):
    dev = 0.0
    pairs = (("sphere2", "coord"), ("polar2", "coord"))
    for s in range(samples):
        name, frame = pairs[s % 2]
        chart = _chart(name)
        n = chart.n
        chi = _rand_chi(rng, chart)
        Q = contorsion_tensor(chart, frame, chi)
        spec = conn_spec(chart, frame, chi)
        lc = levi_civita(chart, frame)
        point = sample_point(chart, rng)
        basis = _basis_fields(n, frame)
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        a = [1.0 if l == i else 0.0 for l in range(n)]
        qv = tensor_eval(Q, [Multivector(n, {1 << i: 1.0}),
                             Multivector(n, {1 << j: 1.0})], point)
        ca = contorsion_apply(spec, lc, a, basis[j], point)
        dev = max(dev, _rel_mv(qv, ca))
    return dev, samples, None


def _chk_tensor_conjugate_derivative(rng, samples):
    dev = 0.0
    for s in range(samples):
        if s % 2:
            chart = _chart("sphere2")
            spec = conn_spec(chart, "coord", _rand_chi(rng, chart))
            grades = {2}
        else:
            chart = _chart("polar2")
            spec = levi_civita(chart, "coord")
            grades = {1}
        B = _rand_field(rng, chart, grades=grades)
        point = sample_point(chart, rng)
        a = _rand_direction(rng, chart.n)
        dev = max(dev, conjugate_derivative_check(spec, B, a, point, rng=rng,
                                                  samples=3))
    return dev, samples, None


# ---------------------------------------------------------------------------
# forms checks


_FORM_CHARTS = ("polar2", "sphere2")


def _chk_forms_linear(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_FORM_CHARTS[s % 2])
        point = sample_point(chart, rng)
        A = _rand_field(rng, chart)
        B = _rand_field(rng, chart)
        ca, cb = _rc(rng), _rc(rng)
        combo = MultivectorField(
            "coord", {m: ca * A.components.get(m, ex.Num(0.0))
                      + cb * B.components.get(m, ex.Num(0.0))
                      for m in set(A.components) | set(B.components)})
        lhs = form_eval(hat_map(chart, combo), point)
        rhs = form_eval(form_add(hat_map(chart, A), hat_map(chart, B), ca, cb),
                        point)
        dev = max(dev, _forms_dev(lhs, rhs))
    return dev, samples, None


def _forms_dev(a, b):
    scale = max([1.0] + [abs(v) for v in a.values()]
                + [abs(v) for v in b.values()])
    masks = set(a) | set(b)
    if not masks:
        return 0.0
    return max(abs(a.get(m, 0.0) - b.get(m, 0.0)) for m in masks) / scale


def _chk_forms_wedge(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_FORM_CHARTS[s % 2])
        n = chart.n
        point = sample_point(chart, rng)
        j = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        A = _rand_field(rng, chart, grades={j})
        B = _rand_field(rng, chart, grades={k})
        AB = md.product_field(chart, "coord", A, B, "wedge")
        lhs = form_eval(hat_map(chart, AB), point)
        rhs = form_eval(form_wedge(hat_map(chart, A), hat_map(chart, B)),
                        point)
        dev = max(dev, _forms_dev(lhs, rhs))
    return dev, samples, None


def _chk_forms_derivative(rng, samples):
    dev = 0.0
    for s in range(samples):
        chart = _chart(_FORM_CHARTS[s % 2])
        point = sample_point(chart, rng)
        A = _rand_field(rng, chart)
        if s % 4 == 3 and "ortho" in chart.frames:
            A = md.reexpress_field(chart, "coord", "ortho",
                                   _rand_field(rng, chart))
        lhs = form_eval(hat_map(chart, md.ext_d_field(
            chart, getattr(A, "frame", "coord"), A)), point)
        rhs = form_eval(form_d(hat_map(chart, A)), point)
        dev = max(dev, _forms_dev(lhs, rhs))
    return dev, samples, None


def _chk_forms_metric_blind(rng, samples):
    """form_d reads only coordinate partials, so two charts that differ
    only in their metric produce identical derivatives."""
    dev = 0.0
    for s in range(samples):
        chart = _chart(_FORM_CHARTS[s % 2])
        flat = _flat_clone(chart)
        n = chart.n
        degree = int(rng.integers(0, n))
        comps = {}
        for m in range(1 << n):
            if bl.grade_of(m) == degree:
                comps[bl.key_of(m)] = _rand_scalar_expr(rng, chart)
        point = sample_point(chart, rng)
        va = form_eval(form_d(FormField.parse(chart, degree, comps)), point)
        vb = form_eval(form_d(FormField.parse(flat, degree, comps)), point)
        dev = max(dev, _forms_dev(va, vb))
    return dev, samples, None


# ---------------------------------------------------------------------------
# maxwell check


def _chk_maxwell(rng, samples):
    """A vector potential along y with an x^2 profile: the field strength
    is a single bivector, its curl vanishes, and its divergence is e_y."""
    chart = _chart("minkowski4")
    spec = levi_civita(chart, "coord")
    A = MultivectorField.parse(chart, {"3": "-x^2/2"})
    F = md.curl_field(spec, A)
    dev = 0.0
    for _ in range(samples):
        point = sample_point(chart, rng)
        x = point[1]
        want_F = Multivector(4, {6: x})
        dev = max(dev, _rel_mv(eval_field(F, point), want_F))
        dF = md.curl(spec, F, point)
        dev = max(dev, dF.norm_inf())
        J = md.divergence(spec, F, point)
        dev = max(dev, _rel_mv(J, Multivector(4, {4: 1.0})))
    return dev, samples, None


# ---------------------------------------------------------------------------
# registry and runner


# A check seeds itself from its index here, so new checks go at the end,
# which leaves every earlier row of a report as it was.
CHECKS = (
    ("expr.jets_match_finite_differences", "expr", 1e-6, _chk_expr_fd),
    ("expr.parse_print_roundtrip", "expr", 0.0, _chk_expr_roundtrip),
    ("algebra.fundamental_identity", "algebra", 1e-10, _chk_alg_fundamental),
    ("algebra.product_associativity", "algebra", 1e-10, _chk_alg_associativity),
    ("algebra.vector_product_split", "algebra", 1e-10, _chk_alg_vector_split),
    ("algebra.wedge_gram_independence", "algebra", 1e-10, _chk_alg_wedge_gram_free),
    ("algebra.dual_exchanges_dot_and_wedge", "algebra", 1e-10, _chk_alg_duality),
    ("algebra.trace_rot_basis_independence", "algebra", 1e-9, _chk_alg_trace_rot),
    ("algebra.tsa_reconstruction", "algebra", 1e-12, _chk_alg_tsa),
    ("algebra.rot_contraction_constant", "algebra", 1e-10, _chk_alg_rot_constant),
    ("frames.lie_bilinear", "frames", 1e-9, _chk_lie_bilinear),
    ("frames.lie_antisymmetric", "frames", 1e-9, _chk_lie_antisymmetric),
    ("frames.lie_jacobi", "frames", 1e-9, _chk_lie_jacobi),
    ("frames.lie_scalar_multipliers", "frames", 1e-9, _chk_lie_multipliers),
    ("frames.commutator_antisymmetry", "frames", 0.0, _chk_commutator_antisymmetry),
    ("frames.commutator_jacobi_constraint", "frames", 1e-8, _chk_commutator_jacobi),
    ("frames.coordinate_gradient_duality", "frames", 1e-9, _chk_coordinate_duality),
    ("connection.sphere_closed_form", "connection", 1e-10, _chk_sphere_closed_form),
    ("connection.polar_closed_form", "connection", 1e-10, _chk_polar_closed_form),
    ("connection.metric_compatibility", "connection", 1e-10, _chk_metric_compatibility),
    ("connection.torsion_free_part_identity", "connection", 1e-10, _chk_torsion_free_identity),
    ("connection.flat_orthonormal_vanishes", "connection", 1e-14, _chk_flat_vanishes),
    ("connection.contorsion_operator_linearity", "connection", 1e-10, _chk_contorsion_operator),
    ("mdd.product_rule", "mdd", 1e-9, _chk_mdd_product_rule),
    ("mdd.grade_preservation", "mdd", 1e-9, _chk_mdd_grade_preservation),
    ("mdd.metric_compatibility", "mdd", 1e-9, _chk_mdd_metric_compat),
    ("mdd.pseudoscalar_parallel", "mdd", 1e-9, _chk_mdd_pseudoscalar),
    ("mdd.connection_restriction", "mdd", 1e-10, _chk_mdd_restriction),
    ("mdd.gradient_frame_independence", "mdd", 1e-9, _chk_mdd_gradient_frames),
    ("exterior.d_squared", "exterior", 1e-8, _chk_d_squared),
    ("exterior.codifferential_squared", "exterior", 1e-8, _chk_codiff_squared),
    ("exterior.graded_leibniz", "exterior", 1e-9, _chk_graded_leibniz),
    ("exterior.metric_independence", "exterior", 1e-10, _chk_ext_metric_independence),
    ("exterior.codifferential_dual_sign", "exterior", 1e-10, _chk_codiff_dual_sign),
    ("tensor.chain_matches_components", "tensor", 1e-9, _chk_tensor_chain),
    ("tensor.metric_parallel", "tensor", 1e-10, _chk_tensor_metric_parallel),
    ("tensor.product_rule", "tensor", 1e-9, _chk_tensor_product_rule),
    ("tensor.derivative_commutes_with_contraction", "tensor", 1e-9, _chk_tensor_contraction_commutes),
    ("tensor.change_of_frame_law", "tensor", 1e-10, _chk_tensor_frame_law),
    ("tensor.index_raising", "tensor", 1e-10, _chk_tensor_index_raising),
    ("tensor.contorsion_matches_operator", "tensor", 1e-10, _chk_tensor_contorsion),
    ("tensor.conjugate_commutes_with_derivative", "tensor", 1e-9, _chk_tensor_conjugate_derivative),
    ("forms.linear_structure_agreement", "forms", 1e-9, _chk_forms_linear),
    ("forms.wedge_agreement", "forms", 1e-9, _chk_forms_wedge),
    ("forms.derivative_agreement", "forms", 1e-9, _chk_forms_derivative),
    ("forms.metric_blindness", "forms", 1e-10, _chk_forms_metric_blind),
    ("maxwell.potential_field_source", "maxwell", 1e-10, _chk_maxwell),
    ("algebra.dual_inverse", "algebra", 1e-10, _chk_alg_dual_inverse),
    ("expr.program_matches_walk", "expr", 0.0, _chk_program_matches_walk),
)

SUITE_NAMES = ("expr", "algebra", "frames", "connection", "mdd", "exterior",
               "tensor", "forms", "maxwell")


def suite_names():
    return SUITE_NAMES + ("all",)


def run_checks(suite="all", samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
               tol=DEFAULT_TOL):
    """Run one suite (or all of them) and return a report dictionary."""
    if suite not in suite_names():
        raise UnknownSuite(f"no suite named {suite!r}; choose one of "
                           + ", ".join(suite_names()))
    samples = int(samples)
    if samples < 1:
        raise DomainError("samples must be a positive integer")
    seed = int(seed)
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    tol = float(tol)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    scale = tol / DEFAULT_TOL
    if not all(math.isfinite(pinned * scale) for _, _, pinned, _ in CHECKS):
        raise DomainError(f"tol {tol!r} is too large: a scaled tolerance is "
                          f"not finite")

    wanted = set(SUITE_NAMES) if suite == "all" else {suite}
    checks = []
    for idx, (name, sname, pinned, fn) in enumerate(CHECKS):
        if sname not in wanted:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        dev, used, extra = fn(rng, samples)
        eff = pinned * scale
        row = {"name": name,
               "tolerance": float(eff),
               "max_deviation": float(dev),
               "samples": int(used),
               "status": "pass" if dev <= eff else "fail"}
        if extra:
            row.update(extra)
        checks.append(row)
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"suite": suite,
            "seed": seed,
            "samples": samples,
            "tolerance_scale": float(scale),
            "checks": checks,
            "status": status}
