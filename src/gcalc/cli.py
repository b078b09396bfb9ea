"""Command line front end.

Five verbs:

``gcalc eval``        apply a derivative operator to a field at a point
``gcalc connection``  print connection coefficient tables at a point
``gcalc check``       run the seeded property suites
``gcalc maxwell``     field strength and source of a vector potential
``gcalc parse``       parse an expression and print its tree

Results go to stdout as JSON with floats rendered to 17 significant
digits, so repeated runs with the same inputs produce byte-identical
output.  Diagnostics go to stderr.  Exit status: 0 on success, 1 when a
property check fails, 2 on bad input.
"""

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import expr as ex
from . import mdd as md
from .connection import conn_spec, connection_at, levi_civita
from .errors import DomainError, GcalcError
from .manifest import builtin, builtin_names, load_manifest
from .manifold import MultivectorField, sample_point
from .suites import (DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, run_checks,
                     suite_names)

EVAL_OPS = ("mdd", "grad", "div", "curl", "extd", "codiff")

# Covariant components of the Minkowski potential map to vector
# components through the diagonal metric diag(+1, -1, -1, -1).
_MINKOWSKI_SIGNS = (1.0, -1.0, -1.0, -1.0)


def render_json(obj, indent=0):
    """Serialize to JSON with sorted keys and 17 significant digits.

    The stock json module formats floats with repr, which is shortest
    round-trip rather than fixed precision; rendering by hand keeps the
    output format pinned.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: '
                f'{render_json(obj[k], indent + 2)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # + 0.0 prints a zero as 0 whatever its sign, which the order of
        # exactly-zero terms may flip
        x = float(obj) + 0.0
        if not np.isfinite(x):
            raise DomainError(f"non-finite value {x!r} in output")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _emit(obj):
    sys.stdout.write(render_json(obj) + "\n")


def _load_bundle(source):
    """Builtin chart name, path to a manifest file, or inline JSON text."""
    if source in builtin_names():
        return builtin(source)
    try:
        return load_manifest(source)
    except OSError as exc:
        raise DomainError(f"cannot read manifest {source!r}: {exc}") from exc


def _parse_point(chart, text):
    """``name=value,...`` with every chart coordinate present."""
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep:
            raise DomainError(f"point entry {part!r} is not name=value")
        if name not in chart.coords:
            raise DomainError(f"chart {chart.name!r} has no coordinate "
                              f"{name!r} (coords: {', '.join(chart.coords)})")
        if name in values:
            raise DomainError(f"coordinate {name!r} is given twice")
        try:
            values[name] = float(raw)
        except ValueError:
            raise DomainError(f"coordinate value {raw!r} is not a number") \
                from None
        if not math.isfinite(values[name]):
            raise DomainError(f"coordinate value {raw!r} is not finite")
    missing = [c for c in chart.coords if c not in values]
    if missing:
        raise DomainError(f"point is missing coordinates: "
                          f"{', '.join(missing)}")
    return tuple(values[c] for c in chart.coords)


def _parse_direction(n, text):
    """``i=value,...`` giving frame components, 1-based, zeros implied."""
    a = np.zeros(n)
    given = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        idx, sep, raw = part.partition("=")
        if not sep:
            raise DomainError(f"direction entry {part!r} is not index=value")
        try:
            i = int(idx)
            a[i - 1] = float(raw)
        except (ValueError, IndexError):
            raise DomainError(f"bad direction entry {part!r}; indices run "
                              f"1..{n}") from None
        if i < 1:
            raise DomainError(f"direction index {i} out of range 1..{n}")
        if i in given:
            raise DomainError(f"direction index {i} is given twice")
        given.add(i)
        if not math.isfinite(a[i - 1]):
            raise DomainError(f"direction component {raw!r} is not finite")
    if not given:
        raise DomainError("direction has no components")
    return a


def _resolve_field(bundle, text, frame_flag):
    """A named manifest field, or an inline definition.

    Inline fields look like ``phi: x^2 + y^2`` for a scalar, or
    ``A: 1 = x; 1,2 = sin(y)`` with semicolon-separated blade entries.
    """
    chart = bundle.chart
    if ":" in text:
        name, _, spec = text.partition(":")
        name = name.strip()
        spec = spec.strip()
        if not spec:
            raise DomainError(f"inline field {name!r} has no expression")
        frame = frame_flag or "coord"
        if "=" in spec:
            comps = {}
            for entry in spec.split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                key, sep, body = entry.partition("=")
                if not sep:
                    raise DomainError(f"field entry {entry!r} is not "
                                      "key = expression")
                key = key.strip().replace(" ", "")
                if key in comps:
                    raise DomainError(f"blade key {key!r} is given twice")
                comps[key] = body.strip()
            field = MultivectorField.parse(chart, comps, frame)
        else:
            field = MultivectorField.scalar(chart, spec, frame)
        return field, frame
    field = bundle.field(text.strip())
    if frame_flag is not None and frame_flag != field.frame:
        raise DomainError(f"field {text.strip()!r} lives in frame "
                          f"{field.frame!r}, not {frame_flag!r}")
    return field, field.frame


def cmd_eval(args):
    bundle = _load_bundle(args.manifest)
    chart = bundle.chart
    field, frame = _resolve_field(bundle, args.field, args.frame)
    if frame not in chart.frames:
        raise DomainError(f"chart {chart.name!r} has no frame {frame!r}")
    point = _parse_point(chart, args.point)
    if (args.op == "mdd") != (args.dir is not None):
        raise DomainError("--dir is required by --op mdd and taken by no "
                          "other operator")
    if args.op == "mdd":
        a = _parse_direction(chart.n, args.dir)
        out = md.mdd(conn_spec(chart, frame), a, field, point)
    elif args.op == "grad":
        out = md.gradient(conn_spec(chart, frame), field, point)
    elif args.op == "div":
        out = md.divergence(conn_spec(chart, frame), field, point)
    elif args.op == "curl":
        out = md.curl(conn_spec(chart, frame), field, point)
    elif args.op == "extd":
        out = md.ext_d(chart, frame, field, point)
    else:
        out = md.codifferential(conn_spec(chart, frame), field, point)
    _emit(out.to_blade_map())
    return 0


def cmd_connection(args):
    bundle = _load_bundle(args.manifest)
    chart = bundle.chart
    frame = args.frame or "coord"
    if frame not in chart.frames:
        raise DomainError(f"chart {chart.name!r} has no frame {frame!r}")
    point = _parse_point(chart, args.point)
    conn = connection_at(chart, frame, point)
    n = chart.n

    def table(arr):
        return {f"{i + 1},{j + 1},{k + 1}": float(arr[i, j, k])
                for i in range(n) for j in range(n) for k in range(n)}

    _emit({
        "chart": chart.name,
        "frame": frame,
        "point": list(point),
        "gammabar": table(conn.gammabar.value),
        "chi": table(conn.chi.value),
        "gamma": table(conn.gamma.value),
    })
    return 0


def cmd_check(args):
    report = run_checks(suite=args.suite, samples=args.samples,
                        seed=args.seed, tol=args.tol)
    _emit(report)
    return 0 if report["status"] == "pass" else 1


def _parse_potential(chart, text):
    """Covariant 1-form entries ``index:expr,...`` on the Minkowski chart."""
    comps = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, body = entry.partition(":")
        key = key.strip()
        if not sep and key.isdigit():
            # a stray "2" came from splitting a blade key like "1,2:..."
            raise DomainError("potential entries must be single indices; "
                              "the potential must be a 1-form")
        if not sep or not body.strip():
            raise DomainError(f"potential entry {entry!r} is not index:expr")
        try:
            nu = int(key)
        except ValueError:
            raise DomainError(f"potential index {key!r} is not an integer; "
                              "the potential must be a 1-form") from None
        if not 1 <= nu <= chart.n:
            raise DomainError(f"potential index {nu} out of range "
                              f"1..{chart.n}")
        if str(nu) in comps:
            raise DomainError(f"potential index {nu} is given twice")
        tree = chart.parse(body)
        comps[str(nu)] = tree if _MINKOWSKI_SIGNS[nu - 1] > 0 else -tree
    if not comps:
        comps = {"1": "0"}
    return MultivectorField.parse(chart, comps)


def cmd_maxwell(args):
    chart = builtin("minkowski4").chart
    a_field = _parse_potential(chart, args.potential)
    spec = levi_civita(chart, "coord")
    f_field = md.curl_field(spec, a_field)
    point = _parse_point(chart, args.point)

    rng = np.random.default_rng(0)
    max_curl_f = 0.0
    for _ in range(32):
        p = sample_point(chart, rng)
        max_curl_f = max(max_curl_f, md.curl(spec, f_field, p).norm_inf())

    _emit({
        "point": list(point),
        "F": md.eval_field(f_field, point).to_blade_map(),
        "max_curl_F": max_curl_f,
        "J": md.divergence(spec, f_field, point).to_blade_map(),
    })
    return 0


def _ast(node, coords):
    if isinstance(node, ex.Num):
        return {"op": "num", "value": float(node.value)}
    if isinstance(node, ex.Coord):
        return {"op": "coord", "name": coords[node.index]}
    if isinstance(node, ex.Neg):
        return {"op": "neg", "args": [_ast(node.arg, coords)]}
    if isinstance(node, ex.Call):
        return {"op": "call", "fn": node.name,
                "args": [_ast(node.arg, coords)]}
    if isinstance(node, ex.Pow):
        return {"op": "pow", "args": [_ast(node.base, coords),
                                      _ast(node.expo, coords)]}
    for cls, tag in ((ex.Add, "add"), (ex.Sub, "sub"), (ex.Mul, "mul"),
                     (ex.Div, "div")):
        if isinstance(node, cls):
            return {"op": tag, "args": [_ast(node.left, coords),
                                        _ast(node.right, coords)]}
    raise TypeError(f"unknown expression node {type(node).__name__}")


def cmd_parse(args):
    coords = tuple(c.strip() for c in args.coords.split(",") if c.strip())
    if not coords or len(set(coords)) != len(coords):
        raise DomainError("--coords must name distinct coordinates")
    node = ex.parse(args.text, coords)
    _emit({
        "canonical": ex.to_text(node, coords),
        "ast": _ast(node, coords),
    })
    return 0


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: its help text names only
    the builtin charts and the suites, which are fixed."""
    parser = argparse.ArgumentParser(
        prog="gcalc",
        description="Multivector calculus on charts: derivative operators, "
                    "connection tables, property checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    manifest_help = ("builtin chart name (%s) or a manifest file path"
                     % ", ".join(builtin_names()))

    p = sub.add_parser("eval", help="apply a derivative operator at a point")
    p.add_argument("manifest", help=manifest_help)
    p.add_argument("--op", required=True, choices=EVAL_OPS,
                   help="operator to apply")
    p.add_argument("--field", required=True,
                   help="manifest field name, or inline 'name: expr' / "
                        "'name: key = expr; ...'")
    p.add_argument("--point", required=True,
                   help="evaluation point as 'coord=value,...'")
    p.add_argument("--frame", default=None,
                   help="frame for inline fields and operators "
                        "(default: the field's frame, or coord)")
    p.add_argument("--dir", default=None,
                   help="direction frame components 'i=value,...' "
                        "(mdd only)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("connection",
                       help="connection coefficient tables at a point")
    p.add_argument("manifest", help=manifest_help)
    p.add_argument("--point", required=True,
                   help="evaluation point as 'coord=value,...'")
    p.add_argument("--frame", default=None, help="frame (default coord)")
    p.set_defaults(handler=cmd_connection)

    p = sub.add_parser("check", help="run the seeded property suites")
    p.add_argument("--suite", default="all", choices=sorted(suite_names()),
                   help="which suite to run (default all)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="random instances per check (default %d)"
                        % DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="base seed echoed in the report (default %d)"
                        % DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="rescales every check's pinned tolerance by "
                        "tol / %.0e (default leaves them unchanged)"
                        % DEFAULT_TOL)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("maxwell",
                       help="field strength and source of a potential on "
                            "the Minkowski chart")
    p.add_argument("--potential", required=True,
                   help="covariant 1-form entries 'index:expr,...', "
                        "e.g. '3:x^2/2' for (x^2/2) dy")
    p.add_argument("--point", default="t=0,x=0.5,y=0,z=0",
                   help="evaluation point (default t=0,x=0.5,y=0,z=0)")
    p.set_defaults(handler=cmd_maxwell)

    p = sub.add_parser("parse", help="parse an expression")
    p.add_argument("--coords", required=True,
                   help="comma separated coordinate names")
    p.add_argument("--text", required=True,
                   help="expression text (write --text=-x when it starts "
                        "with a dash)")
    p.set_defaults(handler=cmd_parse)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings stay off: an overflow reaches the
        # output as a non-finite value, which render_json refuses in one line
        with np.errstate(all="ignore"):
            return args.handler(args)
    except GcalcError as exc:
        print(f"gcalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
