"""Command line surface: verbs, exit codes, output format, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalc.cli import EVAL_OPS, main, render_json
from gcalc.errors import DomainError
from gcalc.manifest import ManifestError, load_manifest

PI4 = "0.7853981633974483"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "gcalc.cli", *argv],
                          capture_output=True, text=True)


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestRenderJson:
    def test_float_precision(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(2.0) == "2"
        assert render_json(1e-10) == "1e-10"

    def test_sorted_keys_and_types(self):
        out = render_json({"b": 1, "a": [True, None, "x"]})
        assert json.loads(out) == {"a": [True, None, "x"], "b": 1}
        assert out.index('"a"') < out.index('"b"')

    def test_numpy_scalars(self):
        assert render_json(np.float64(0.5)) == "0.5"
        assert render_json(np.int64(3)) == "3"

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            render_json(float("nan"))

    def test_main_returns_two_on_bad_input(self, capsys):
        rc = main(["eval", "euclid2", "--op", "grad", "--field", "nope",
                   "--point", "x=0,y=0"])
        assert rc == 2
        assert "no field" in capsys.readouterr().err


ORIENTATION_Q = json.dumps({"name": "q", "coordinates": ["u", "v"],
                            "metric": [["1", "0"], ["0", "1"]],
                            "orientation": "q"})


def _line_doc(**extra):
    """A one-coordinate manifest text with ``extra`` entries."""
    return json.dumps({"name": "m", "coordinates": ["x"], "metric": [["1"]],
                       **extra})


_MALFORMED = {"frames-list": {"frames": [1]},
              "field-number": {"fields": {"f": 1}},
              "components-list": {"fields": {"f": {"components": [1]}}},
              "domain-number": {"domain": [1]},
              "orientation-overflow": {"orientation": 1e400},
              "orientation-bool": {"orientation": True}}

# one coordinate more than the derivative operators accept
_WIDE_DOC = json.dumps({"name": "wide", "coordinates": [f"x{i}" for i in range(13)],
                        "metric": [["1" if i == j else "0" for j in range(13)]
                                   for i in range(13)]})


@pytest.mark.parametrize("argv", [
    ["eval", "euclid2", "--op", "grad", "--field", "A: 3 = x",
     "--point", "x=0,y=0"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: exp(1000*x)",
     "--point", "x=1,y=0"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x^1e400",
     "--point", "x=1,y=0"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x^(1e300*1e300)",
     "--point", "x=1,y=0"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x^(10^400)",
     "--point", "x=1,y=0"],
    ["eval", ORIENTATION_Q, "--op", "grad", "--field", "phi: u",
     "--point", "u=0,v=0"],
    ["parse", "--coords", "x", "--text", "(" * 5000 + "x" + ")" * 5000],
    ["parse", "--coords", "x", "--text", "x" + " + x" * 5000],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x",
     "--point", "x=1,y=0,x=2"],
    *(["eval", "euclid2", "--op", "grad", "--field", f"A: {key} = x",
       "--point", "x=0,y=0"]
      for key in ("2,1", "1,1", "0", "-1", "a", "1,,2", "1e0")),
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x",
     "--point", "x=nan,y=0"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: sin(x)",
     "--point", "x=inf,y=1"],
    ["connection", "sphere2", "--point", "theta=1,phi=-inf"],
    ["eval", "euclid2", "--op", "mdd", "--field", "phi: x",
     "--point", "x=0,y=0", "--dir", "1=nan"],
    ["eval", "euclid2", "--op", "grad", "--field", "phi: x",
     "--point", "x=0,y=0", "--dir", "garbage"],
    ["eval", "euclid2", "--op", "div", "--field", "v: 1 = x",
     "--point", "x=0,y=0", "--dir", "1=1"],
    *(["eval", _line_doc(**extra), "--op", "grad", "--field", "p: x",
       "--point", "x=0.5"] for extra in _MALFORMED.values()),
    ["eval", _WIDE_DOC, "--op", "grad", "--field", "p: x0",
     "--point", ",".join(f"x{i}=0.5" for i in range(13))],
], ids=["blade-out-of-range", "exp-overflow", "literal-overflow",
        "infinite-exponent", "power-overflow", "orientation", "nesting",
        "long-chain", "repeated-coordinate",
        "key-descending", "key-repeated", "key-zero", "key-negative",
        "key-letter", "key-empty-part", "key-exponent",
        "point-nan", "point-inf", "connection-point-inf", "direction-nan",
        "dir-with-grad", "dir-with-div", *_MALFORMED, "operator-dim-limit"])
def test_bad_input_exits_two_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gcalc: error: ")


_VALUES = st.one_of(
    st.sampled_from(["0", "0.5", "-1.25", "nan", "-inf", "inf", "1e308",
                     "1e-320", "", "x", "1,2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_KEYS = st.sampled_from(["", "1", "2", "1,2", "2,1", "1,1", "0", "-1", "a",
                         "1,,2", "1e0", "3", " 1 , 2 "])
_TEXT = st.one_of(
    st.text(alphabet="xyr0123456789.e+-*/^() ,", max_size=16),
    st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs", "tanh"])
    .flatmap(lambda f: st.text(alphabet="xy0123456789.+-*/^", max_size=8)
             .map(lambda arg: f"{f}({arg})")))


@st.composite
def _cli_argv(draw):
    verb = draw(st.sampled_from(["parse", "eval", "connection"]))
    if verb == "parse":
        return ["parse", "--coords", draw(st.sampled_from(["x", "x,y", ""])),
                f"--text={draw(_TEXT)}"]
    chart, (c1, c2) = draw(st.sampled_from([("euclid2", ("x", "y")),
                                            ("sphere2", ("theta", "phi"))]))
    point = f"{c1}={draw(_VALUES)},{c2}={draw(_VALUES)}"
    if verb == "connection":
        return ["connection", chart, "--point", point]
    argv = ["eval", chart, "--op", draw(st.sampled_from(EVAL_OPS)),
            "--point", point]
    entries = draw(st.lists(st.tuples(_KEYS, _TEXT), max_size=3))
    if entries and draw(st.booleans()):
        body = "; ".join(f"{k} = {e}" for k, e in entries)
    else:
        body = draw(_TEXT)
    argv += ["--field", f"A: {body}"]
    if draw(st.booleans()):
        argv += ["--dir", f"{draw(_KEYS)}={draw(_VALUES)}"]
    return argv


@given(_cli_argv())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_fuzzed_argv_exits_zero_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    assert status in (0, 2), (argv, err.getvalue())


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from(["x", "1", "x^2", "", "identity", "coord"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["1", "1,2", "i", "j", "k", "expr",
                                         "frame", "components"]),
                        inner, max_size=3)),
    max_leaves=6)
_GOOD_DOC = {"name": "m", "coordinates": ["x", "y"],
             "metric": [["1", "0"], ["0", "1"]],
             "frames": {"f": [["1", "0"], ["0", "1"]]},
             "fields": {"p": {"components": {"": "x"}}},
             "domain": [[0, 1], [0, 1]], "orientation": 1,
             "contorsion": [{"i": 1, "j": 1, "k": 2, "expr": "x"},
                            {"i": 1, "j": 2, "k": 1, "expr": "-x"}]}


@st.composite
def _manifest_argv(draw):
    """An eval request on an inline manifest with one or two of its entries,
    or an item inside one, replaced by arbitrary JSON."""
    doc = dict(_GOOD_DOC)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1,
                             max_size=2, unique=True)):
        entry = doc[key]
        if isinstance(entry, (dict, list)) and draw(st.booleans()):
            entry = type(entry)(entry)
            slot = draw(st.sampled_from(sorted(entry) if isinstance(entry, dict)
                                        else range(len(entry))))
            entry[slot] = draw(_JSON)
            doc[key] = entry
        else:
            doc[key] = draw(_JSON)
    return ["eval", json.dumps(doc), "--op",
            draw(st.sampled_from(["grad", "div", "curl"])),
            "--field", draw(st.sampled_from(["p", "q: x*y", "A: 1 = x"])),
            "--point", "x=0.5,y=0.25"]


@given(_manifest_argv())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_fuzzed_manifest_exits_zero_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 2), (argv, err.getvalue())
    if status == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("gcalc: error: ")


class TestEval:
    def test_gradient_of_inline_scalar(self):
        out = run_json("eval", "euclid2", "--op", "grad",
                       "--field", "phi: x^2 + y^2", "--point", "x=1,y=2")
        assert out == {"1": 2.0, "2": 4.0}

    def test_directional_derivative_of_basis_field(self):
        out = run_json("eval", "sphere2", "--op", "mdd", "--field", "e_phi",
                       "--dir", "1=1", "--point", f"theta={PI4},phi=0.3")
        assert set(out) == {"2"}
        assert abs(out["2"] - 1.0) < 1e-9

    def test_divergence_matches_hand_value(self):
        # div(x e_1 + y e_2) = 2 on the flat plane
        out = run_json("eval", "euclid2", "--op", "div",
                       "--field", "v: 1 = x; 2 = y", "--point", "x=0.3,y=-0.7")
        assert abs(out[""] - 2.0) < 1e-12

    def test_curl_of_rotation_field(self):
        out = run_json("eval", "euclid2", "--op", "curl",
                       "--field", "v: 1 = -y; 2 = x", "--point", "x=0.2,y=0.5")
        assert set(out) == {"1,2"}
        assert abs(out["1,2"] - 2.0) < 1e-12

    def test_extd_and_codiff_run(self):
        out = run_json("eval", "sphere2", "--op", "extd",
                       "--field", "w: 2 = sin(theta)^2",
                       "--point", f"theta={PI4},phi=0.1")
        assert "1,2" in out
        out = run_json("eval", "sphere2", "--op", "codiff",
                       "--field", "w: 1,2 = 1",
                       "--point", f"theta={PI4},phi=0.1")
        assert out  # nonzero vector on the curved chart

    def test_mdd_without_direction_fails(self):
        proc = run_cli("eval", "euclid2", "--op", "mdd",
                       "--field", "phi: x", "--point", "x=0,y=0")
        assert proc.returncode == 2
        assert "--dir" in proc.stderr

    def test_frame_mismatch_rejected(self):
        proc = run_cli("eval", "sphere2", "--op", "grad", "--field", "e_phi",
                       "--frame", "ortho", "--point", f"theta={PI4},phi=0")
        assert proc.returncode == 2
        assert "frame" in proc.stderr

    def test_unknown_frame_rejected(self):
        proc = run_cli("eval", "euclid2", "--op", "grad",
                       "--field", "phi: x", "--frame", "ortho",
                       "--point", "x=0,y=0")
        assert proc.returncode == 2

    def test_incomplete_point_rejected(self):
        proc = run_cli("eval", "euclid2", "--op", "grad",
                       "--field", "phi: x", "--point", "x=1")
        assert proc.returncode == 2
        assert "missing coordinates" in proc.stderr

    def test_unknown_coordinate_rejected(self):
        proc = run_cli("eval", "euclid2", "--op", "grad",
                       "--field", "phi: x", "--point", "x=1,q=2")
        assert proc.returncode == 2

    def test_ortho_frame_inline_field(self):
        # unit-speed phi derivative of a scalar: (1/sin theta) d/dphi
        out = run_json("eval", "sphere2", "--op", "mdd",
                       "--field", "phi: sin(theta)*sin(phi)",
                       "--frame", "ortho", "--dir", "2=1",
                       "--point", f"theta={PI4},phi=0.4")
        assert abs(out[""] - np.cos(0.4)) < 1e-12


class TestConnection:
    def test_sphere_closed_form(self):
        out = run_json("connection", "sphere2",
                       "--point", f"theta={PI4},phi=0.3")
        gbar = out["gammabar"]
        assert len(gbar) == 8
        assert abs(gbar["2,2,1"] - (-0.5)) < 1e-12
        assert abs(gbar["1,2,2"] - 0.5) < 1e-12
        assert abs(gbar["2,1,2"] - 0.5) < 1e-12
        assert all(v == 0.0 for v in out["chi"].values())
        # no contorsion, so the full coefficients match the metric part
        assert out["gamma"] == gbar
        assert out["frame"] == "coord"

    def test_flat_chart_all_zero(self):
        out = run_json("connection", "euclid3", "--point", "x=0.3,y=0.1,z=-1")
        assert len(out["gammabar"]) == 27
        for tab in ("gammabar", "chi", "gamma"):
            assert all(v == 0.0 for v in out[tab].values())

    def test_skew_frame_runs(self):
        out = run_json("connection", "polar2", "--frame", "skew",
                       "--point", "r=1.3,theta=0.4")
        assert out["frame"] == "skew"
        assert any(v != 0.0 for v in out["gammabar"].values())

    def test_contorsion_violation_exits_two(self, tmp_path):
        doc = {
            "name": "badchi",
            "coordinates": ["u", "v"],
            "metric": [["1", "0"], ["0", "1"]],
            "contorsion": [
                {"i": 1, "j": 1, "k": 2, "expr": "u"},
                {"i": 1, "j": 2, "k": 1, "expr": "u"},
            ],
        }
        path = tmp_path / "badchi.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("connection", str(path), "--point", "u=0.3,v=0.2")
        assert proc.returncode == 2
        assert "contorsion antisymmetry violated" in proc.stderr


class TestCheck:
    def test_small_run_passes(self):
        out = run_json("check", "--suite", "mdd", "--samples", "2")
        assert out["status"] == "pass"
        assert out["seed"] == 42
        assert out["samples"] == 2
        for row in out["checks"]:
            assert row["status"] == "pass"
            assert row["max_deviation"] <= row["tolerance"]

    def test_byte_determinism(self):
        a = run_cli("check", "--suite", "all", "--samples", "2")
        b = run_cli("check", "--suite", "all", "--samples", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_absurd_tolerance_fails(self):
        proc = run_cli("check", "--suite", "algebra", "--samples", "2",
                       "--tol", "1e-30")
        assert proc.returncode == 1
        out = json.loads(proc.stdout)
        assert out["status"] == "fail"
        assert any(r["status"] == "fail" for r in out["checks"])

    def test_unknown_suite_rejected(self):
        proc = run_cli("check", "--suite", "bogus")
        assert proc.returncode == 2

    def test_parser_reused_after_usage_error(self, capsys):
        """The parser is built once per process; a usage error must leave
        it fit for the next call."""
        argv = ["eval", "sphere2", "--op", "curl", "--field", "A: 1 = phi",
                "--point", "theta=0.5,phi=0.25"]
        with pytest.raises(SystemExit) as exc:
            main(["eval", "sphere2", "--op", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout

    def test_takes_no_manifest(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "chart.json", "--suite", "expr"])
        assert exc.value.code == 2

    def test_suite_rows_match_full_run(self):
        sub = run_json("check", "--suite", "tensor", "--samples", "2")
        full = run_json("check", "--suite", "all", "--samples", "2")
        picked = [r for r in full["checks"]
                  if r["name"].startswith("tensor.")]
        assert picked == sub["checks"]


class TestMaxwell:
    def test_quadratic_potential(self):
        out = run_json("maxwell", "--potential", "3:x^2/2",
                       "--point", "t=0,x=0.5,y=0,z=0")
        assert abs(out["F"]["2,3"] - 0.5) < 1e-12
        assert out["max_curl_F"] <= 1e-10
        assert set(out["J"]) == {"3"}
        assert abs(out["J"]["3"] - 1.0) < 1e-10

    def test_linear_potential_is_source_free(self):
        out = run_json("maxwell", "--potential", "3:x")
        assert abs(out["F"]["2,3"] - 1.0) < 1e-12
        assert out["max_curl_F"] <= 1e-10
        assert out["J"] == {}

    def test_zero_potential(self):
        out = run_json("maxwell", "--potential", "2:0")
        assert out["F"] == {}
        assert out["J"] == {}
        assert out["max_curl_F"] == 0.0

    def test_bivector_potential_rejected(self):
        proc = run_cli("maxwell", "--potential", "1,2:x")
        assert proc.returncode == 2
        assert "1-form" in proc.stderr

    def test_bad_index_rejected(self):
        proc = run_cli("maxwell", "--potential", "7:x")
        assert proc.returncode == 2


class TestParse:
    def test_ast_and_canonical_text(self):
        out = run_json("parse", "--coords", "x,y", "--text", "x*(x + y)^2")
        assert out["canonical"] == "x*(x + y)^2"
        ast = out["ast"]
        assert ast["op"] == "mul"
        assert ast["args"][0] == {"op": "coord", "name": "x"}
        assert ast["args"][1]["op"] == "pow"

    def test_call_and_neg_nodes(self):
        out = run_json("parse", "--coords", "u", "--text=-sin(u)")
        assert out["ast"]["op"] == "neg"
        assert out["ast"]["args"][0] == {
            "op": "call", "fn": "sin",
            "args": [{"op": "coord", "name": "u"}],
        }

    def test_syntax_error_exits_two(self):
        proc = run_cli("parse", "--coords", "x", "--text", "x +")
        assert proc.returncode == 2

    def test_unknown_name_exits_two(self):
        proc = run_cli("parse", "--coords", "x", "--text", "x + y")
        assert proc.returncode == 2


class TestManifestFiles:
    def test_gradient_on_file_chart(self, tmp_path):
        doc = {
            "name": "para",
            "coordinates": ["u", "v"],
            "metric": [["1 + 4*u^2", "4*u*v"], ["4*u*v", "1 + 4*v^2"]],
            "fields": {"h": {"components": {"": "u^2 + v^2"}}},
            "domain": [[-1, 1], [-1, 1]],
        }
        path = tmp_path / "para.json"
        path.write_text(json.dumps(doc))
        out = run_json("eval", str(path), "--op", "grad", "--field", "h",
                       "--point", "u=0.2,v=-0.4")
        # g^{-1} (0.4, -0.8) with det g = 1.8 gives (2/9, -4/9)
        assert abs(out["1"] - 2.0 / 9.0) < 1e-12
        assert abs(out["2"] + 4.0 / 9.0) < 1e-12

    def test_inline_json_manifest(self):
        doc = json.dumps({
            "name": "inline",
            "coordinates": ["u", "v"],
            "metric": [["1", "0"], ["0", "1"]],
        })
        out = run_json("eval", doc, "--op", "grad", "--field", "phi: u*v",
                       "--point", "u=3,v=5")
        assert out == {"1": 5.0, "2": 3.0}

    def test_field_blade_beyond_dimension(self):
        doc = {"name": "flat", "coordinates": ["u", "v"],
               "metric": [["1", "0"], ["0", "1"]],
               "fields": {"A": {"components": {"1,3": "u"}}}}
        with pytest.raises(ManifestError, match="'A'.*exceeds dimension 2"):
            load_manifest(doc)

    @pytest.mark.parametrize("key", ["2,1", "a", "1,,2"])
    def test_field_blade_key_malformed(self, key):
        doc = {"name": "flat", "coordinates": ["u", "v"],
               "metric": [["1", "0"], ["0", "1"]],
               "fields": {"A": {"components": {key: "u"}}}}
        with pytest.raises(ManifestError, match="'A'.*ascending and 1-based"):
            load_manifest(doc)

    def test_missing_file_exits_two(self):
        proc = run_cli("eval", "/nonexistent/chart.json", "--op", "grad",
                       "--field", "phi: x", "--point", "x=0")
        assert proc.returncode == 2
