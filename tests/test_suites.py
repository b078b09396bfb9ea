"""The suites build their expressions as trees; text is an input format only.

The trees the random generators return must be the mathematics the text
they print to would parse to, bit for bit, and the suites outside ``expr``
must not parse per sample.
"""

import numpy as np
import pytest

from gcalc import expr as ex
from gcalc import suites
from gcalc.manifest import builtin, builtin_names
from gcalc.manifold import lie_bracket, sample_point


def _same_jet(a, b, point):
    """Order-2 jets of two trees agree bit for bit at ``point``."""
    ja, jb = ex.eval_jet(a, point, 2), ex.eval_jet(b, point, 2)
    return (ja.value == jb.value and np.array_equal(ja.grad, jb.grad)
            and np.array_equal(ja.hess, jb.hess))


def _generated_trees(rng, chart):
    """Every kind of tree the suites compose: scalar expressions, contorsion
    entries, and the bracket and scaling combinations."""
    n = chart.n
    fa = [suites._rand_scalar_expr(rng, chart) for _ in range(n)]
    fb = [suites._rand_scalar_expr(rng, chart) for _ in range(n)]
    al, be = suites._rc(rng), suites._rc(rng)
    al_t = suites._rand_scalar_expr(rng, chart)
    yield from fa
    yield from (e for (_, _, _, e) in suites._rand_chi(rng, chart))
    yield from (ex.Num(al) * a + ex.Num(be) * b for a, b in zip(fa, fb))
    yield from (al_t * t for t in fb)


@pytest.mark.parametrize("name", builtin_names())
def test_generator_trees_evaluate_like_their_text(name):
    chart = builtin(name).chart
    rng = np.random.default_rng(2027)
    for _ in range(8):
        point = sample_point(chart, rng)
        for tree in _generated_trees(rng, chart):
            text = ex.to_text(tree, chart.coords)
            assert _same_jet(tree, chart.parse(text), point), text


def _scalar_expr_text(rng, chart):
    """Reference text form of ``_rand_scalar_expr``, drawing from rng in
    the same order: c0 + c1*u + c2*v*w + c3*f(z)."""
    c = chart.coords

    def coord():
        return c[int(rng.integers(0, len(c)))]

    terms = [repr(suites._rc(rng)),
             f"{suites._rc(rng)!r}*{coord()}",
             f"{suites._rc(rng)!r}*{coord()}*{coord()}"]
    fn = ("sin", "cos")[int(rng.integers(0, 2))]
    terms.append(f"{suites._rc(rng)!r}*{fn}({coord()})")
    return " + ".join(terms)


def test_scalar_tree_draws_like_the_text_generator():
    chart = builtin("sphere2").chart
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        tree = suites._rand_scalar_expr(a, chart)
        text = _scalar_expr_text(b, chart)
        point = sample_point(chart, a)
        assert point == sample_point(chart, b)
        assert _same_jet(tree, chart.parse(text), point), text


@pytest.fixture
def parse_calls(monkeypatch):
    calls = [0]
    parse = ex.parse

    def counting(text, coords):
        calls[0] += 1
        return parse(text, coords)

    monkeypatch.setattr(ex, "parse", counting)
    return calls


def test_parse_budget(parse_calls):
    # a cold run parses the builtin manifests and the expr suite's texts
    suites.run_checks("all", samples=16, seed=1001)
    assert parse_calls[0] <= 400
    # the run above warmed the builtin charts; what is left is per run
    for suite in suites.SUITE_NAMES:
        if suite == "expr":
            continue
        counts = []
        for samples in (4, 64):
            parse_calls[0] = 0
            suites.run_checks(suite, samples=samples, seed=3)
            counts.append(parse_calls[0])
        assert counts[1] <= counts[0], (suite, counts)


def _shifted(point, l, step):
    return tuple(p + step if k == l else p for k, p in enumerate(point))


def _nested_bracket_fd(chart, fa, fb, fc, point, h=1e-3):
    """[a, [b, c]] with the inner bracket differentiated by central
    differences, Richardson extrapolated once."""
    n = chart.n
    a_jets = [ex.eval_jet(t, point, 1) for t in fa]
    inner0 = lie_bracket(chart, fb, fc, point)

    def central(l, step):
        up = lie_bracket(chart, fb, fc, _shifted(point, l, step))
        dn = lie_bracket(chart, fb, fc, _shifted(point, l, -step))
        return (up - dn) / (2 * step)

    dh = np.zeros((n, n))
    for l in range(n):
        dh[l] = (4.0 * central(l, h / 2) - central(l, h)) / 3.0
    out = np.zeros(n)
    for k in range(n):
        out[k] = sum(a_jets[l].value * dh[l, k] - inner0[l] * a_jets[k].grad[l]
                     for l in range(n))
    return out


@pytest.mark.parametrize("name", ["sphere2", "polar2", "euclid3"])
def test_nested_bracket_matches_finite_differences(name):
    chart = builtin(name).chart
    rng = np.random.default_rng(808)
    for _ in range(6):
        point = sample_point(chart, rng)
        fa, fb, fc = ([suites._rand_scalar_expr(rng, chart) for _ in range(chart.n)]
                      for _ in range(3))
        got = suites._nested_bracket(chart, fa, fb, fc, point)
        want = _nested_bracket_fd(chart, fa, fb, fc, point)
        assert np.max(np.abs(got)) > 1e-3
        assert suites._rel_arr(got, want) < 1e-10
