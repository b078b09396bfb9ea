"""In-memory span tracer that wraps gcalc functions from outside the package.

A span has a name, a start, an end, a parent span and a request id.  Spans are
kept in flat typed arrays (about 33 bytes each) and written out once, at the
end of a traced run.  A span's self time is its duration minus the part of it
covered by its direct children; one thread runs everything, so children never
overlap and that part is the sum of their durations.

``install`` rebinds every ``gcalc.*`` module attribute that refers to a wrapped
function, and ``uninstall`` rebinds the originals.  Every reference matters
because ``mdd``, ``connection``, ``tensor``, ``forms`` and ``suites`` import
``frame_jets``/``gamma_jets`` by name: patching only the defining module would
miss those call sites.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

NOT_CACHED, MISS, HIT = -1, 0, 1

# (module, attribute, tag) for every boundary the benchmark records.  ``tag``
# is (prefix, position, keyword) of the argument whose value splits the span
# name, so that frame_jets at order 2 is "manifold.frame_jets.o2".
LAYER_BOUNDARIES = (
    ("expr", "eval_jet", None),
    ("expr", "parse", None),
    ("jets", "mat_det_inv", None),
    ("manifold", "frame_jets", ("o", 3, "order")),
    ("connection", "gamma_jets", ("o", 2, "order")),
    ("connection", "connection_at", None),
    ("mdd", "_mdd_basis_jets", None),
    ("mdd", "field_jets", None),
    ("blades", "gp_generic", None),
    ("blades", "dot_generic", None),
    ("blades", "wedge_generic", None),
    ("algebra", "gp", ("n", 0, "A")),
    ("algebra", "dot", ("n", 0, "A")),
    ("algebra", "wedge", ("n", 0, "A")),
    ("algebra", "dual", ("n", 0, "A")),
    ("manifest", "load_manifest", None),
    ("cli", "main", None),
    ("cli", "render_json", None),
    ("suites", "run_checks", ("suite", 0, "suite")),
)


def frame_key(args):
    """The point a frame_jets call looks up: (chart name, frame, point)."""
    chart, frame, point = args[0], args[1], args[2]
    return (chart.name, frame, point)


def _tag_value(prefix, value):
    if prefix == "n":
        return f"n{value.dim}"
    if prefix == "o":
        return f"o{value}"
    return str(value)


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.cache = array("b")
        self.keys: dict = {}
        self.request_id = -1
        self._stack: list = []
        self._bindings: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, tag=None, key=None):
        """A wrapper recording one span per call of ``fn``.

        When ``fn`` has ``cache_info`` (an ``lru_cache``), each call is
        classified as a hit or a miss from the change of the hit counter
        across the call.  ``key(args)`` is stored per span when given.
        """
        tracer = self
        cached = hasattr(fn, "cache_info")
        base_id = self._id(name)
        tag_ids: dict = {}

        def wrapper(*args, **kwargs):
            nid = base_id
            if tag is not None:
                prefix, pos, kw = tag
                value = args[pos] if len(args) > pos else kwargs.get(kw, "all")
                label = _tag_value(prefix, value)
                nid = tag_ids.get(label)
                if nid is None:
                    nid = tag_ids[label] = tracer._id(f"{name}.{label}")
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.request_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.cache.append(NOT_CACHED)
            if key is not None:
                tracer.keys[idx] = key(args)
            hits0 = fn.cache_info().hits if cached else 0
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if cached:
                    tracer.cache[idx] = HIT if fn.cache_info().hits > hits0 else MISS

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every boundary and rebind every gcalc.* reference to it.

        The wrappers are made on the first call; a later call, after
        ``uninstall``, rebinds the same wrappers.
        """
        if not self._bindings:
            modules = [m for n, m in sorted(sys.modules.items())
                       if (n == "gcalc" or n.startswith("gcalc.")) and m is not None]
            for mod_name, attr, tag in LAYER_BOUNDARIES:
                original = getattr(sys.modules["gcalc." + mod_name], attr)
                name = f"{mod_name}.{attr}"
                key = frame_key if name == "manifold.frame_jets" else None
                wrapper = self.wrap(original, name, tag, key)
                for mod in modules:
                    for ref, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, ref, original, wrapper))
        for mod, ref, _, wrapper in self._bindings:
            setattr(mod, ref, wrapper)

    def uninstall(self):
        """Rebind the original functions, so gcalc runs with no wrapper at all."""
        for mod, ref, original, _ in self._bindings:
            setattr(mod, ref, original)

    def spans(self) -> dict:
        """Span columns as numpy arrays, with duration and self time in seconds."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "request": np.array(self.request, dtype=np.int32),
                "cache": np.array(self.cache, dtype=np.int8),
                "dur": dur, "self": dur - covered}

    def save(self, path: str) -> None:
        cols = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: cols[k] for k in ("name_id", "start", "end", "parent", "request",
                                 "cache")})
