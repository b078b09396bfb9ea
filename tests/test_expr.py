import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalc import expr
from gcalc.errors import (DomainError, GcalcError, JetBudgetExhausted, ParseError,
                          UnknownIdentifier)
from gcalc.expr import (Add, Call, Coord, Div, Mul, Neg, Num, Pow, Sub, Tape,
                        eval_jet, eval_value, parse, to_text)
from gcalc.jets import FUNCTIONS, Jet, apply_function, function_coeffs
from gcalc.suites import _rand_expr_text


class TestParse:
    def test_power_of_call(self):
        t = parse("sin(theta)^2", ["theta", "phi"])
        assert t == Pow(Call("sin", Coord(0)), Num(2.0))

    def test_product_plus_one(self):
        t = parse("x*y + 1", ["x", "y"])
        assert t == Add(Mul(Coord(0), Coord(1)), Num(1.0))

    def test_precedence_unary_vs_power(self):
        # ^ binds tighter than unary minus
        assert parse("-x^2", ["x"]) == Neg(Pow(Coord(0), Num(2.0)))

    def test_power_right_associative(self):
        assert parse("2^3^2", []) == Pow(Num(2.0), Pow(Num(3.0), Num(2.0)))
        assert eval_value(parse("2^3^2", []), ()) == 512.0

    def test_left_associative_sub_and_div(self):
        assert eval_value(parse("8 - 3 - 2", []), ()) == 3.0
        assert eval_value(parse("8/2/2", []), ()) == 2.0

    def test_unclosed_call_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("sin(", ["x"])
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("x + q", ["x", "y"])
        with pytest.raises(UnknownIdentifier):
            parse("foo(x)", ["x"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + ", ["x"])
        with pytest.raises(ParseError):
            parse("x 2", ["x"])
        with pytest.raises(ParseError):
            parse("x @ 2", ["x"])

    def test_scientific_notation(self):
        assert eval_value(parse("1.5e2 + .25", []), ()) == 150.25


COORDS = ["x", "y", "z"]


def _random_tree(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if rng.random() < 0.5:
            return Num(float(rng.integers(0, 5)))
        return Coord(int(rng.integers(0, len(COORDS))))
    pick = rng.integers(0, 7)
    if pick == 0:
        return Add(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if pick == 1:
        return Sub(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if pick == 2:
        return Mul(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if pick == 3:
        return Div(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if pick == 4:
        return Neg(_random_tree(rng, depth - 1))
    if pick == 5:
        return Pow(_random_tree(rng, depth - 1), Num(float(rng.integers(0, 4))))
    name = ["sin", "cos", "exp", "tanh", "sqrt", "log", "abs"][rng.integers(0, 7)]
    return Call(name, _random_tree(rng, depth - 1))


class TestPrintRoundTrip:
    def test_random_trees_reparse_identically(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            tree = _random_tree(rng, 4)
            text = to_text(tree, COORDS)
            assert parse(text, COORDS) == tree

    @given(st.text(alphabet="xy1+-*/^(). ", min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_parse_is_total_and_stable(self, text):
        # every input either parses or raises ParseError; on success the
        # canonical form is a fixed point of parse . print
        try:
            tree = parse(text, ["x", "y"])
        except ParseError:
            return
        assert parse(to_text(tree, ["x", "y"]), ["x", "y"]) == tree


def _levels(node):
    """Reference tree height: a leaf is one level."""
    children = [getattr(node, f) for f in node.__slots__]
    return 1 + max((_levels(c) for c in children if isinstance(c, expr.Expr)),
                   default=0)


_DEPTH_MESSAGE = "expression nests deeper than 100 levels"


def _chain(levels):
    return "x" + " + x" * (levels - 1)


def _nested(opener, levels):
    return opener * (levels - 1) + "x" + ")" * (levels - 1)


class TestDepthLimit:
    def test_height_measured_while_building(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            tree = _random_tree(rng, 6)
            node, height = expr._Parser(to_text(tree, COORDS), COORDS).expr()
            assert node == tree
            assert height == _levels(tree)

    # (text of n levels, deepest n accepted, its tree height, position of
    # the error one level deeper).  A flat chain, or a run of signs, is a tall
    # tree built without deep recursion, so the height check after the whole
    # text is read refuses it, at position 0.  Nesting in the text meets the
    # recursion guard first, at the token one level too deep.
    @pytest.mark.parametrize("build, deepest, height, position", [
        (_chain, 100, 100, 0),
        (lambda n: "-" * (n - 1) + "x", 100, 100, 0),
        (lambda n: _nested("(", n), 100, 1, 100),
        (lambda n: _nested("-(", n), 100, 100, 200),
        (lambda n: "^".join(["x"] * n), 100, 100, 200),
        (lambda n: _nested("sin(", n), 100, 100, 400),
    ], ids=["chain", "signs", "parentheses", "negation", "power", "call"])
    def test_limit_and_position(self, build, deepest, height, position):
        assert _levels(parse(build(deepest), ["x"])) == height
        with pytest.raises(ParseError) as err:
            parse(build(deepest + 1), ["x"])
        assert str(err.value) == f"{_DEPTH_MESSAGE} (at position {position})"
        assert err.value.position == position

    def test_trailing_token_reported_before_height(self):
        with pytest.raises(ParseError) as err:
            parse(_chain(101) + " )", ["x"])
        assert err.value.position == len(_chain(101)) + 1
        assert "unexpected ')'" in str(err.value)


class TestTokenize:
    @pytest.mark.parametrize("text, tokens", [
        ("x\n", [("name", "x", 0), ("end", "", 2)]),
        ("x\n\n", [("name", "x", 0), ("end", "", 3)]),
        ("  x", [("name", "x", 2), ("end", "", 3)]),
        (".5", [("num", ".5", 0), ("end", "", 2)]),
        ("1.", [("num", "1.", 0), ("end", "", 2)]),
        ("1e-3", [("num", "1e-3", 0), ("end", "", 4)]),
        ("1.e5", [("num", "1.e5", 0), ("end", "", 4)]),
        ("1e", [("num", "1", 0), ("name", "e", 1), ("end", "", 2)]),
        ("sin(x)^2", [("name", "sin", 0), ("(", "(", 3), ("name", "x", 4),
                      (")", ")", 5), ("^", "^", 6), ("num", "2", 7),
                      ("end", "", 8)]),
    ])
    def test_tokens(self, text, tokens):
        assert expr._tokenize(text) == tokens

    # a tail of blanks of any kind is skipped, as trailing newlines are
    @pytest.mark.parametrize("text", ["x  ", "x\t", "x \n", "x\n "],
                             ids=["spaces", "tab", "space-newline", "newline-space"])
    def test_trailing_blanks(self, text):
        assert expr._tokenize(text) == [("name", "x", 0), ("end", "", len(text))]
        assert parse(text, ["x"]) == parse("x", ["x"])

    @pytest.mark.parametrize("text, char, position", [
        ("x + $y", "$", 4),
        ("x@", "@", 1),
    ])
    def test_errors(self, text, char, position):
        with pytest.raises(ParseError) as err:
            expr._tokenize(text)
        assert str(err.value) == \
            f"unexpected character {char!r} (at position {position})"


class TestJets:
    def test_product_jet(self):
        j = eval_jet(parse("x*y", ["x", "y"]), (2.0, 3.0), 2)
        assert j.value == 6.0
        assert np.allclose(j.grad, [3.0, 2.0])
        assert np.allclose(j.hess, [[0.0, 1.0], [1.0, 0.0]])

    def test_sin_squared(self):
        j = eval_jet(parse("sin(theta)^2", ["theta"]), (math.pi / 4,), 2)
        assert abs(j.value - 0.5) < 1e-15
        assert abs(j.grad[0] - 1.0) < 1e-15
        assert abs(j.hess[0, 0]) < 1e-15

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_jet(parse("1/x", ["x"]), (0.0,), 2)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            eval_value(parse("log(x)", ["x"]), (-1.0,))

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            eval_value(parse("sqrt(x)", ["x"]), (-4.0,))

    def test_integer_power_with_negative_base(self):
        j = eval_jet(parse("x^3", ["x"]), (-2.0,), 2)
        assert j.value == -8.0
        assert j.grad[0] == 12.0
        assert j.hess[0, 0] == -12.0

    def test_negative_integer_exponent(self):
        j = eval_jet(parse("x^-2", ["x"]), (2.0,), 2)
        assert abs(j.value - 0.25) < 1e-15
        assert abs(j.grad[0] + 0.25) < 1e-15

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            eval_value(parse("(-2)^0.5", []), ())
        assert abs(eval_value(parse("4^0.5", []), ()) - 2.0) < 1e-14

    def test_variable_exponent(self):
        j = eval_jet(parse("x^y", ["x", "y"]), (2.0, 3.0), 2)
        assert abs(j.value - 8.0) < 1e-12
        assert abs(j.grad[0] - 12.0) < 1e-11          # y x^(y-1)
        assert abs(j.grad[1] - 8.0 * math.log(2.0)) < 1e-11

    def test_constant_expression_promoted(self):
        j = eval_jet(parse("2 + 3", []), (), 2)
        assert j.value == 5.0
        assert j.grad.shape == (0,)


SMOOTH_TEMPLATES = [
    "sin(x)*cos(y) + x^2*y",
    "exp(x/2)*tanh(y) - y^3",
    "sqrt(1 + x^2 + y^2)",
    "log(2 + sin(x) + y^2)",
    "x^4 - 3*x*y + y^2/(2 + cos(x))",
    "sinh(x/3) + cosh(y/3)",
    "tan(x/2)*y + x",
    "1/(1 + x^2) + exp(-y^2)",
]


def _fd_grad(f, x, h):
    n = len(x)
    g = np.zeros(n)
    for k in range(n):
        xp = list(x); xp[k] += h
        xm = list(x); xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2 * h)
    return g


def _fd_hess(f, x, h):
    n = len(x)
    H = np.zeros((n, n))
    f0 = f(x)
    for k in range(n):
        xp = list(x); xp[k] += h
        xm = list(x); xm[k] -= h
        H[k, k] = (f(xp) - 2 * f0 + f(xm)) / h ** 2
        for l in range(k + 1, n):
            xpp = list(x); xpp[k] += h; xpp[l] += h
            xpm = list(x); xpm[k] += h; xpm[l] -= h
            xmp = list(x); xmp[k] -= h; xmp[l] += h
            xmm = list(x); xmm[k] -= h; xmm[l] -= h
            H[k, l] = H[l, k] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h ** 2)
    return H


class TestJetsAgainstFiniteDifferences:
    def test_random_expressions(self):
        # first derivatives checked with the 1e-5 step; second derivatives
        # use a wider 5e-4 step because the float64 noise floor of a
        # second-order central difference at h=1e-5 sits near 1e-5 relative,
        # which would drown the comparison
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(256):
            text = SMOOTH_TEMPLATES[rng.integers(0, len(SMOOTH_TEMPLATES))]
            tree = parse(text, ["x", "y"])
            point = tuple(rng.uniform(-1.2, 1.2, size=2))
            f = lambda p: eval_value(tree, p)
            jet = eval_jet(tree, point, 2)
            fg = _fd_grad(f, point, 1e-5)
            fh = _fd_hess(f, point, 5e-4)
            scale_g = max(1.0, float(np.max(np.abs(jet.grad))), float(np.max(np.abs(fg))))
            scale_h = max(1.0, float(np.max(np.abs(jet.hess))), float(np.max(np.abs(fh))))
            worst = max(worst,
                        float(np.max(np.abs(jet.grad - fg))) / scale_g,
                        float(np.max(np.abs(jet.hess - fh))) / scale_h)
        assert worst < 1e-6

    def test_hessian_is_symmetric(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            text = SMOOTH_TEMPLATES[rng.integers(0, len(SMOOTH_TEMPLATES))]
            tree = parse(text, ["x", "y"])
            j = eval_jet(tree, tuple(rng.uniform(-1, 1, size=2)), 2)
            assert np.allclose(j.hess, j.hess.T, atol=1e-14)


class TestExprComposition:
    def test_operator_overloads_build_trees(self):
        x = Coord(0)
        t = (x * x + 1.0) / (2.0 - x)
        assert eval_value(t, (3.0,)) == -10.0

    def test_dim_check_helper(self):
        from gcalc.errors import DimMismatch
        with pytest.raises(DimMismatch):
            expr.check_point((1.0,), 2)


# -- the dense walk that the sparse evaluator replaced, kept as its oracle --
#
# Every node builds a scalar Jet with dense (n,) and (n, n) Taylor arrays,
# and the arithmetic is Jet's own.  The sparse evaluator must reproduce it
# bit for bit, up to the sign of zero.

def _dense_constant(value, n, order):
    return Jet(value, *(np.zeros((n,) * d) for d in range(1, order + 1)))


def _dense_variable(value, n, k, order):
    if order == 0:
        return Jet(value)
    g = np.zeros(n)
    g[k] = 1.0
    return Jet(value, g) if order == 1 else Jet(value, g, np.zeros((n, n)))


def _dense_value(x):
    return x.value if isinstance(x, Jet) else float(x)


def _dense_apply(name, u):
    if isinstance(u, Jet):
        return apply_function(name, u)
    return function_coeffs(name, float(u), 0)[0]


def _dense_int_power(u, m):
    if m < 0 and _dense_value(u) == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        if not isinstance(u, Jet):
            return float(u) ** m
        v = u.value
        if m == 0:
            return Jet(1.0, np.zeros_like(u.grad),
                       None if u.hess is None else np.zeros_like(u.hess))
        f0 = v ** m
        f1 = m * v ** (m - 1)
        f2 = m * (m - 1) * v ** (m - 2) if m != 1 else 0.0
    except OverflowError:
        raise DomainError(f"integer power of {_dense_value(u)!r} overflows") from None
    if u.grad is None:
        return Jet(f0)
    g = f1 * u.grad
    if u.hess is None:
        return Jet(f0, g)
    return Jet(f0, g, f1 * u.hess + f2 * np.outer(u.grad, u.grad))


def _dense_general_power(base, expo):
    if _dense_value(base) <= 0.0:
        raise DomainError("power with a non-integer exponent needs a positive base")
    return _dense_apply("exp", expo * _dense_apply("log", base))


def _dense_eval(e, point, n, order):
    t = type(e)
    if t is Num:
        return e.value
    if t is Coord:
        return _dense_variable(point[e.index], n, e.index, order) if order \
            else point[e.index]
    if t is Neg:
        return -_dense_eval(e.arg, point, n, order)
    if t is Add:
        return _dense_eval(e.left, point, n, order) + _dense_eval(e.right, point, n, order)
    if t is Sub:
        return _dense_eval(e.left, point, n, order) - _dense_eval(e.right, point, n, order)
    if t is Mul:
        return _dense_eval(e.left, point, n, order) * _dense_eval(e.right, point, n, order)
    if t is Div:
        num = _dense_eval(e.left, point, n, order)
        den = _dense_eval(e.right, point, n, order)
        if _dense_value(den) == 0.0:
            raise DomainError("division by zero")
        return num / den
    if t is Pow:
        base = _dense_eval(e.base, point, n, order)
        if expr._is_constant(e.expo):
            c = _dense_value(_dense_eval(e.expo, point, n, 0))
            if not math.isfinite(c):
                raise DomainError(f"exponent {c!r} is not finite")
            if abs(c - round(c)) < 1e-12:
                return _dense_int_power(base, int(round(c)))
            return _dense_general_power(base, c)
        return _dense_general_power(base, _dense_eval(e.expo, point, n, order))
    assert t is Call
    return _dense_apply(e.name, _dense_eval(e.arg, point, n, order))


def _dense_eval_jet(e, point, order):
    point = tuple(point)
    out = _dense_eval(e, point, len(point), order)
    return out if isinstance(out, Jet) else _dense_constant(out, len(point), order)


def _outcome(fn):
    try:
        return fn()
    except GcalcError as err:
        return type(err), str(err)


def _same_bits(a, b) -> bool:
    """Equal errors, or jets whose coefficients match bit for bit, the sign
    of zero included."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.order == b.order and all(
        type(x) is type(y) and np.shape(x) == np.shape(y)
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(a.coeffs, b.coeffs))


def _assert_tape_same(trees, point, order):
    """A tape of ``trees`` gives the walker's jet, or its error, bit for bit.
    Only trees whose walk fails at every point build no tape."""
    point = tuple(map(float, point))
    walked = _outcome(lambda: eval_jet(trees, point, order))
    try:
        tape = Tape(trees, len(point), order)
    except Exception:
        assert isinstance(walked, tuple), "a tree that walks built no tape"
        return
    assert _same_bits(_outcome(lambda: tape(point)), walked)


def _assert_same(tree, point, order):
    want = _outcome(lambda: _dense_eval_jet(tree, point, order))
    got = _outcome(lambda: eval_jet(tree, point, order))
    _assert_tape_same(tree, point, order)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Jet) and got.order == want.order == order
    assert isinstance(got.value, float)
    for a, b in zip(got.coeffs, want.coeffs):
        # array_equal counts +0 and -0 as equal
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
    if order == 0:
        value = _outcome(lambda: eval_value(tree, point))
        assert value == want.value or (math.isnan(value) and math.isnan(want.value))


COORD_NAMES = ("x", "y", "z", "w")

# Every whitelisted function, division of every operand kind, negation and
# powers with integer, negative, zero, non-integer and tree exponents.
ORACLE_TEMPLATES = [f"{name}(0.3*x - 0.2*y)" for name in FUNCTIONS] + [
    "log(2 + x*y)", "sqrt(3 + x - y)", "abs(x - 0.3*y) + 1",
    "x/y", "x/2", "2/x", "(x + y)/(x - 2)", "3/4 + x", "-x", "-(x*y) + -2",
    "x^3", "x^-2", "x^0", "x^1", "y^2.5", "2^x", "x^y", "(x + 2)^(y*x)",
    "(x*x + 1)^(1/2)", "x^(4/2)", "y^(3 - 3)", "(2 + y)^-1.5", "x^2*y^2 - x*y",
    "exp(x)*sin(y)/(2 + cos(x*y))", "tanh(x)^3 - cosh(y)/sinh(2 + x)",
    "tan(x/3)*log(4 + y)", "2*3 + 4", "x - x", "(x - x)^2",
]


class TestSparseAgainstDenseWalk:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_random_trees(self, order):
        rng = np.random.default_rng(2208 + order)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            tree = parse(_rand_expr_text(rng, COORD_NAMES[:n]), COORD_NAMES[:n])
            point = tuple(float(p) for p in rng.uniform(-1.5, 1.5, size=n))
            _assert_same(tree, point, order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("text", ORACLE_TEMPLATES)
    def test_every_node_kind(self, text, order):
        rng = np.random.default_rng(len(text))
        for n in (2, 3, 4):
            tree = parse(text, COORD_NAMES[:n])
            for _ in range(4):
                point = tuple(float(p) for p in rng.uniform(0.1, 1.2, size=n))
                _assert_same(tree, point, order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("text, point, message", [
        ("1/x", (0.0,), "division by zero"),
        ("x/(x - x)", (0.5,), "division by zero"),
        ("log(x)", (-1.0,), "log of a nonpositive number"),
        ("sqrt(x)", (-4.0,), "sqrt of a negative number"),
        ("sqrt(x)", (0.0,), "sqrt is not differentiable at 0"),
        ("abs(x)", (0.0,), "abs is not differentiable at 0"),
        ("exp(1000*x)", (1.0,), "exp(1000.0) overflows"),
        ("0^-1 + x", (1.0,), "zero raised to a negative power"),
        ("x^(1e308*10)", (1.0,), "exponent inf is not finite"),
        ("x^1000", (10,), "integer power of 10.0 overflows"),
        ("(-x)^0.5", (1.0,), "power with a non-integer exponent needs a positive base"),
    ])
    def test_errors_unchanged(self, text, point, message, order):
        tree = parse(text, ["x"])
        _assert_same(tree, point, order)
        got = _outcome(lambda: eval_jet(tree, point, order))
        differentiable = "differentiable" not in message
        if order or differentiable:
            assert got == (DomainError, message)
        else:
            assert isinstance(got, Jet)

    def test_array_entry_matches_single_trees(self):
        texts = [["x*y", "sin(x)"], ["3", "y^2/(1 + x^2)"], ["x - y", "exp(y)"]]
        trees = [[parse(t, ["x", "y"]) for t in row] for row in texts] + [[None, Num(2.0)]]
        point = (0.4, -0.7)
        for order in (0, 1, 2):
            _assert_tape_same(trees, point, order)
            jet = eval_jet(trees, point, order)
            assert jet.value.shape == (4, 2) and jet.order == order
            for i, row in enumerate(trees):
                for k, tree in enumerate(row):
                    want = eval_jet(tree if tree is not None else Num(0.0), point, order)
                    for a, b in zip(jet.take((i, k)).coeffs, want.coeffs):
                        assert np.array_equal(a, b)

    def test_first_error_in_c_order(self):
        trees = [parse("log(x)", ["x"]), parse("1/(x + 1)", ["x"])]
        with pytest.raises(DomainError, match="log of a nonpositive"):
            eval_jet(trees, (-1.0,), 1)
        with pytest.raises(DomainError, match="division by zero"):
            eval_jet(trees[::-1], (-1.0,), 1)
        for grid in (trees, trees[::-1]):
            _assert_tape_same(grid, (-1.0,), 1)
        # a constant error after a point-dependent one, in the same tree and
        # in a later tree: the tape keeps the walker, which raises the first
        for grid in ([parse("log(x) + 0^-1", ["x"])], trees + [parse("1/0", ["x"])]):
            for x in (-1.0, 2.0):
                _assert_tape_same(grid, (x,), 1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_tape_reruns(self, order):
        """One tape at many points, each equal to the walk there."""
        trees = [parse(t, ["x", "y"]) for t in ("x*y/(1 + x^2)", "sqrt(x)", "y^x")]
        tape = Tape(trees, 2, order)
        rng = np.random.default_rng(order)
        for point in rng.uniform(-1.0, 1.0, size=(20, 2)):
            point = tuple(map(float, point))
            assert _same_bits(_outcome(lambda: tape(point)),
                              _outcome(lambda: eval_jet(trees, point, order)))


class TestCoordinateIndex:
    """The walk, a tape and a program agree on coordinate indexes: a
    negative one cannot be built, and one the point lacks raises IndexError
    in each."""

    def test_negative_index_is_refused(self):
        with pytest.raises(IndexError, match="negative"):
            Coord(-1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_index_past_the_point(self, order):
        trees = [Coord(0), Coord(1) * Coord(2)]
        point = (0.5, -0.25)
        with pytest.raises(IndexError):
            eval_jet(trees, point, order)
        with pytest.raises(IndexError):
            Tape(trees, 2, order)
        program = expr.Program(lambda n: trees)
        for _ in range(4):      # two walks, the build that fails, a walk
            with pytest.raises(IndexError):
                program.jet(point, order)


@pytest.mark.parametrize("order", [3, -1])
def test_order_outside_zero_to_two_is_refused(order):
    """Jets carry derivatives to order two; the walk, a tape and a program
    refuse any other order with the same error."""
    trees = [Coord(0) * Coord(1), Num(2.0)]
    point = (0.5, -0.25)
    with pytest.raises(JetBudgetExhausted):
        eval_jet(trees, point, order)
    with pytest.raises(JetBudgetExhausted):
        Tape(trees, 2, order)
    program = expr.Program(lambda n: trees)
    for _ in range(4):      # two walks, the build that fails, a walk
        with pytest.raises(JetBudgetExhausted):
            program.jet(point, order)


def test_readme_names_every_function():
    """The README's expression-language paragraph lists the whitelist."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = re.search(r"and the functions `([a-z ]+)`", readme).group(1).split()
    assert sorted(names) == sorted(FUNCTIONS)
