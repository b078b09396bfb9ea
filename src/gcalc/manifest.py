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
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")

    try:
        name = doc["name"]
        coords = list(doc["coordinates"])
        metric = doc["metric"]
    except KeyError as exc:
        raise ManifestError(f"manifest missing required key {exc.args[0]!r}") from None
    if not coords or len(set(coords)) != len(coords):
        raise ManifestError("coordinates must be nonempty and distinct")

    frames = {}
    for fname, rows in doc.get("frames", {}).items():
        frames[fname] = rows
    contorsion = []
    for entry in doc.get("contorsion", []):
        try:
            contorsion.append((entry["i"], entry["j"], entry["k"], entry["expr"]))
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"bad contorsion entry {entry!r}") from exc
    try:
        orientation = int(doc.get("orientation", 1))
    except (TypeError, ValueError):
        raise ManifestError(f"orientation must be +1 or -1, got "
                            f"{doc['orientation']!r}") from None
    domain = [tuple(b) for b in doc.get("domain", [])]
    if domain and len(domain) != len(coords):
        raise ManifestError("domain must list one (lo, hi) pair per coordinate")

    try:
        chart = Chart(name=name, coords=tuple(coords), metric=metric,
                      frames=frames, contorsion=tuple(contorsion),
                      orientation=orientation, domain=tuple(domain))
    except (ParseError, DimMismatch, ValueError) as exc:
        raise ManifestError(f"bad chart definition: {exc}") from exc
    _check_metric_symmetry(chart)

    fields = {}
    for fld_name, spec in doc.get("fields", {}).items():
        frame = spec.get("frame", "coord")
        if frame not in chart.frames:
            raise ManifestError(f"field {fld_name!r} references unknown frame {frame!r}")
        comps = spec.get("components", {})
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
