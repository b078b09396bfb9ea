"""Chart manifests (JSON) and the built-in example charts.

A manifest describes one chart: coordinate names, metric expressions, named
frames, optional contorsion entries, optional multivector fields, orientation
and per-coordinate sampling bounds.  Built-in charts cover the flat planes,
polar and spherical coordinate patches (each with an extra non-coordinate
frame), and a Minkowski patch for the electromagnetic demo.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr as ex
from .errors import (BladeKeyError, DimMismatch, FrameMismatch, GcalcError,
                     ParseError)
from .manifold import Chart, MultivectorField


class ManifestError(GcalcError):
    """Raised when a manifest document fails validation."""


class Bundle:
    """A chart together with its named multivector fields."""

    def __init__(self, chart: Chart, fields: dict):
        self.chart = chart
        self.fields = fields

    def field(self, name: str) -> MultivectorField:
        try:
            return self.fields[name]
        except KeyError:
            raise ManifestError(f"chart {self.chart.name!r} has no field {name!r}") from None


def _check_metric_symmetry(chart: Chart) -> None:
    n = chart.n
    rng = np.random.default_rng(20260816)
    pts = [tuple(float(rng.uniform(lo, hi)) for lo, hi in chart.domain)
           for _ in range(8)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = chart.metric[i][j], chart.metric[j][i]
            if ex.to_text(a, chart.coords) == ex.to_text(b, chart.coords):
                continue
            for p in pts:
                try:
                    va = ex.eval_value(a, p)
                    vb = ex.eval_value(b, p)
                except GcalcError:
                    continue
                if abs(va - vb) > 1e-10 * max(1.0, abs(va), abs(vb)):
                    raise ManifestError(
                        f"metric entry ({i + 1},{j + 1}) is not symmetric at {p}")


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number"}


def _expect(value, kinds, what: str):
    """``value`` if it has one of the JSON ``kinds`` (dict, list, str, int,
    float), else a ManifestError.  float admits integers; booleans are
    neither."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool) or not any(
            isinstance(value, (int, float) if k is float else k) for k in kinds):
        raise ManifestError(f"{what} must be "
                            + " or ".join(_KINDS[k] for k in kinds)
                            + f", got {value!r}")
    return value


def _matrix(rows, what: str) -> list:
    """Rows of expression entries, text or numbers."""
    return [[_expect(e, (str, float), f"{what} entry")
             for e in _expect(row, list, f"{what} row")]
            for row in _expect(rows, list, what)]


def load_manifest(doc) -> Bundle:
    """Build a chart bundle from a manifest document (dict, JSON text, or path)."""
    if isinstance(doc, str):
        text = doc
        if not doc.lstrip().startswith("{"):
            with open(doc, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    doc = _expect(doc, dict, "manifest")

    try:
        name = _expect(doc["name"], str, "name")
        coords = [_expect(c, str, "coordinate")
                  for c in _expect(doc["coordinates"], list, "coordinates")]
        metric = _matrix(doc["metric"], "metric")
    except KeyError as exc:
        raise ManifestError(f"manifest missing required key {exc.args[0]!r}") from None
    if not coords or len(set(coords)) != len(coords):
        raise ManifestError("coordinates must be nonempty and distinct")

    frames = {fname: rows if rows == "identity" else _matrix(rows, f"frame {fname!r}")
              for fname, rows in _expect(doc.get("frames", {}), dict, "frames").items()}
    contorsion = []
    for entry in _expect(doc.get("contorsion", []), list, "contorsion"):
        try:
            contorsion.append(tuple(_expect(entry[k], int, f"contorsion {k}")
                                    for k in "ijk")
                              + (_expect(entry["expr"], (str, float), "contorsion expr"),))
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"bad contorsion entry {entry!r}") from exc
    orientation = _expect(doc.get("orientation", 1), float, "orientation")
    if orientation not in (1, -1):
        raise ManifestError(f"orientation must be +1 or -1, got {orientation!r}")
    domain = [tuple(_expect(v, float, "domain bound")
                    for v in _expect(b, list, "domain entry"))
              for b in _expect(doc.get("domain", []), list, "domain")]
    if domain and (len(domain) != len(coords) or {len(b) for b in domain} != {2}):
        raise ManifestError("domain must list one (lo, hi) pair per coordinate")
    if not all(math.isfinite(v) for b in domain for v in b):
        raise ManifestError("domain bounds must be finite")

    try:
        chart = Chart(name=name, coords=tuple(coords), metric=metric,
                      frames=frames, contorsion=tuple(contorsion),
                      orientation=int(orientation), domain=tuple(domain))
    except (ParseError, DimMismatch, ValueError) as exc:
        raise ManifestError(f"bad chart definition: {exc}") from exc
    _check_metric_symmetry(chart)

    fields = {}
    for fld_name, spec in _expect(doc.get("fields", {}), dict, "fields").items():
        spec = _expect(spec, dict, f"field {fld_name!r}")
        frame = _expect(spec.get("frame", "coord"), str, f"field {fld_name!r} frame")
        if frame not in chart.frames:
            raise ManifestError(f"field {fld_name!r} references unknown frame {frame!r}")
        comps = _expect(spec.get("components", {}), dict, f"field {fld_name!r} components")
        for e in comps.values():
            _expect(e, (str, float), f"field {fld_name!r} component")
        try:
            fields[fld_name] = MultivectorField.parse(chart, comps, frame)
        except (ParseError, DimMismatch, BladeKeyError) as exc:
            raise ManifestError(f"bad field {fld_name!r}: {exc}") from exc
    return Bundle(chart, fields)


_PI = math.pi

_BUILTIN_DOCS = {
    "euclid2": {
        "name": "euclid2",
        "coordinates": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    },
    "euclid3": {
        "name": "euclid3",
        "coordinates": ["x", "y", "z"],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "domain": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    },
    "polar2": {
        "name": "polar2",
        "coordinates": ["r", "theta"],
        "metric": [["1", "0"], ["0", "r^2"]],
        "frames": {
            # invertible on the sampling box, neither orthonormal nor holonomic
            "skew": [["1", "0.3*theta"], ["0.2*r", "1.1"]],
        },
        "domain": [[0.1, 2.5], [-3.0, 3.0]],
    },
    "sphere2": {
        "name": "sphere2",
        "coordinates": ["theta", "phi"],
        "metric": [["1", "0"], ["0", "sin(theta)^2"]],
        "frames": {
            "ortho": [["1", "0"], ["0", "1/sin(theta)"]],
        },
        "domain": [[0.1, _PI - 0.1], [-3.0, 3.0]],
        "fields": {
            "e_theta": {"frame": "coord", "components": {"1": "1"}},
            "e_phi": {"frame": "coord", "components": {"2": "1"}},
        },
    },
    "minkowski4": {
        "name": "minkowski4",
        "coordinates": ["t", "x", "y", "z"],
        "metric": [["1", "0", "0", "0"],
                   ["0", "-1", "0", "0"],
                   ["0", "0", "-1", "0"],
                   ["0", "0", "0", "-1"]],
        "domain": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    },
}

_BUILTINS: dict = {}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTIN_DOCS))


def builtin(name: str) -> Bundle:
    """The named built-in chart bundle (cached, so chart identity is stable)."""
    if name not in _BUILTINS:
        if name not in _BUILTIN_DOCS:
            raise ManifestError(f"no builtin chart named {name!r}; "
                                f"available: {', '.join(builtin_names())}")
        _BUILTINS[name] = load_manifest(_BUILTIN_DOCS[name])
    return _BUILTINS[name]
