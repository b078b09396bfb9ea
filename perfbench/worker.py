"""One measurement process of the benchmark.

Usage: python3 perfbench/worker.py '<job json>'

A job names a workload, a seed, a process index, a mode, and either a
number of rounds or a time budget.  The process imports gcalc from ``src/``
of the checkout it sits in, sets the workload up, runs it and prints one
JSON line with its timings, its oracle verdicts and, in traced modes, its
per-layer metrics.  Each process starts with empty
``frame_jets``/``gamma_jets`` caches, which is why ``run.py`` starts a new
one for every repetition of ``check_all`` and ``eval_cold``.

Modes: ``setup`` (set up and exit), ``measure`` (untraced timing),
``base`` (untraced run whose wall time the traced run is compared with) and
``trace`` (the same work with spans recorded).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Pinned tolerances of the matching property checks; none is looser.
EVAL_TOL = 1e-10        # connection.*_closed_form, mdd.connection_restriction
ALGEBRA_TOL = 1e-10     # algebra.fundamental_identity, algebra.product_associativity
WARM_TOL = 1e-10        # maxwell.potential_field_source

SUITES = ("expr", "algebra", "frames", "connection", "mdd", "exterior",
          "tensor", "forms", "maxwell")
OPS = ("grad", "div", "curl", "mdd", "extd", "codiff", "connection")
ALGEBRA_OPS = ("gp", "dot", "wedge", "dual")
# Products of each op per Gram and round, by dimension.  Twice as many at
# n = 3 puts the median of the mix inside the n = 3 gp/dual block instead of
# in the gap between two blocks.
ALGEBRA_COUNTS = {2: 1, 3: 2, 4: 1}
# Seed of the field_warm fields, fixed across runs.
FIELD_WARM_FIELDS = 20261017


def import_gcalc():
    """Import gcalc from this checkout's src/ and load the builtin charts."""
    if not os.path.isfile(os.path.join(SRC, "gcalc", "cli.py")):
        raise SystemExit(f"no gcalc sources under {SRC}")
    sys.path.insert(0, SRC)
    import gcalc.cli  # noqa: F401  (imports every other module)
    from gcalc import manifest
    if not os.path.abspath(gcalc.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gcalc was imported from {gcalc.cli.__file__}, not {SRC}")
    for name in manifest.builtin_names():
        manifest.builtin(name)
    return sys.modules["gcalc"]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_rng(job):
    """The inputs of a run, the same in each of its processes.

    Every process of a run makes the same requests, each new to the process
    on check_all and eval_cold, so ``run.py`` can take each request's
    fastest repetition across the processes.
    """
    import numpy as np
    return np.random.default_rng([job["seed"], sum(map(ord, job["workload"]))])


# ---------------------------------------------------------------------------
# check_all


def check_all_oracle(report) -> list:
    """Names of rows that did not pass; the report status must agree."""
    bad = [row["name"] for row in report["checks"] if row["status"] != "pass"]
    if (report["status"] == "pass") != (not bad):
        bad.append("report.status")
    return bad


class CheckAll:
    """run_checks("all", samples=16, seed): the repo's headline command.

    It runs with 16 samples per check, not the command's default of 64.  A
    suite is the smallest piece run_checks times, and at 64 samples the
    dearest (maxwell, 2.3 to 4 s) outlasts the quiet spells of the host this
    was written on; at 16 it takes under a second, and a run repeats it 12
    times instead of 4.

    One round per process, so every round starts with empty caches.  The
    round runs the nine suites one at a time, and each suite is one request.
    That makes the same calls in the same order as "all", because every check
    seeds itself from its registry index, and it gives each suite its own
    latency and, in trace mode, its own span.
    """

    period = None  # rounds before the requests repeat; None: they never do

    def __init__(self, job, tracer=None):
        from gcalc import suites
        self.suites = suites
        self.samples = 2 if job.get("tiny") else 16
        self.seed = job["seed"]

    def prepare(self):
        return 0, []

    def round(self, k):
        lat, reports = [], []
        for suite in SUITES:
            t0 = time.perf_counter()
            reports.append(self.suites.run_checks(suite, self.samples, self.seed))
            lat.append(time.perf_counter() - t0)
        bad = [name for rep in reports for name in check_all_oracle(rep)]
        # attempted counts checks: a failed row is one check
        return lat, bad, sum(len(r["checks"]) for r in reports)


# ---------------------------------------------------------------------------
# eval_cold


class EvalRequest:
    """One CLI request and what the reference needs to check its output."""

    def __init__(self, argv, chart, op, field=None, point=None, direction=None):
        self.argv, self.chart, self.op = argv, chart, op
        self.field, self.point, self.direction = field, point, direction


def _point_text(chart, x):
    return ",".join(f"{c}={v!r}" for c, v in zip(chart.coords, x))


def _field_for(rng, op, n):
    from reference import Field
    vectors = [1 << i for i in range(n)]
    i, j = sorted(rng.choice(n, size=2, replace=False))
    bivector = (1 << int(i)) | (1 << int(j))
    # The blade layout per op is fixed, so every round costs about the same;
    # only the terms and the bivector's indices are drawn.
    masks = {"grad": [0], "div": vectors, "curl": vectors, "extd": vectors,
             "mdd": [0] + vectors + [bivector],
             "codiff": vectors + [bivector]}[op]
    return Field.random(rng, n, masks)


def make_eval_round(rng, seen: set) -> list:
    """48 requests: each op once per builtin chart, twice on the two 2-D
    charts, and 6 on inline manifests, 1 request in 8.

    Sorted by cost, the requests form three blocks: those on 2-D charts
    (about 2 ms each), on euclid3 (4 ms) and on minkowski4 (10 ms).  With
    each op once per chart, the 2-D block would hold 18 of 32 requests and
    the median would sit two requests per round below its edge, jumping to
    the euclid3 block whenever a few 2-D requests ran slow.  With two
    passes over the 2-D charts it holds 34 of 48, and the median sits in its
    upper middle.

    Every point is drawn fresh and checked against ``seen``, so no point is
    ever looked up twice in one process.
    """
    import reference as ref
    reqs = []

    def fresh_point(chart):
        while True:
            x = chart.sample(rng)
            if (chart.name, x) not in seen:
                seen.add((chart.name, x))
                return x

    for name in ("sphere2", "polar2", "sphere2", "polar2", "euclid3", "minkowski4"):
        chart = ref.CHARTS[name]
        for op in OPS:
            x = fresh_point(chart)
            if op == "connection":
                reqs.append(EvalRequest(["connection", name, "--point", _point_text(chart, x)],
                                        chart, op, point=x))
                continue
            argv = ["eval", name, "--op", op]
            if name == "sphere2" and op in ("div", "mdd"):
                # the chart's named fields: e_theta for div, e_phi for mdd
                named = "e_theta" if op == "div" else "e_phi"
                field = ref.Field({1 << (0 if op == "div" else 1): [ref.Term("const", 1.0)]})
                argv += ["--field", named]
            else:
                field = _field_for(rng, op, chart.n)
                argv += ["--field", field.inline(chart.coords)]
            argv += ["--point", _point_text(chart, x)]
            direction = None
            if op == "mdd":
                direction = [float(v) for v in rng.uniform(-1.0, 1.0, chart.n)]
                argv += ["--dir", ",".join(f"{i + 1}={v!r}" for i, v in enumerate(direction))]
            reqs.append(EvalRequest(argv, chart, op, field, x, direction))

    # A new Chart is built per inline-manifest request, so its cache entries never hit.
    for op, named in (("grad", True), ("grad", False), ("connection", False)) * 2:
        a = float(rng.uniform(0.2, 1.5))
        chart = ref.warp_chart(a)
        h = ref.Field.random(rng, 2, [0])
        doc = json.dumps(ref.warp_manifest(a, h))
        x = fresh_point(chart)
        if op == "connection":
            reqs.append(EvalRequest(["connection", doc, "--point", _point_text(chart, x)],
                                    chart, op, point=x))
            continue
        field = h if named else ref.Field.random(rng, 2, [0])
        text = "h" if named else field.inline(chart.coords, "phi")
        reqs.append(EvalRequest(["eval", doc, "--op", "grad", "--field", text,
                                 "--point", _point_text(chart, x)], chart, op, field, x))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def eval_oracle(req: EvalRequest, status: int, text: str) -> float:
    """Largest relative deviation of the CLI output from the closed form."""
    import reference as ref
    if status != 0:
        return float("inf")
    doc = json.loads(text)
    chart, x = req.chart, req.point
    if req.op == "connection":
        g1, _ = chart.christoffel(x)
        n = chart.n
        want = {f"{i + 1},{j + 1},{k + 1}": float(g1[i, j, k])
                for i in range(n) for j in range(n) for k in range(n)}
        zero = {k: 0.0 for k in want}
        return max(ref.rel_dev(doc["gammabar"], want), ref.rel_dev(doc["gamma"], want),
                   ref.rel_dev(doc["chi"], zero))
    got = {ref.mask_of_key(k): v for k, v in doc.items()}
    if req.op == "mdd":
        want = ref.mdd(chart, req.field, x, req.direction)
    elif chart.name == "warp":
        want = ref.scalar_gradient(chart, req.field, x)
    else:
        op = {"grad": "gp", "div": "dot", "codiff": "dot", "curl": "wedge",
              "extd": "wedge"}[req.op]
        want = ref.contract(chart, req.field, x, op)
    return ref.rel_dev(got, want)


class EvalCold:
    """Closed loop of in-process ``gcalc.cli.main`` requests at new points."""

    period = None

    def __init__(self, job, tracer=None):
        from gcalc import cli
        self.cli = cli
        self.tracer = tracer
        self.rng = make_rng(job)
        self.seen: set = set()
        self.sent = 0

    def prepare(self):
        return 0, []

    def round(self, k):
        lat, bad = [], []
        for req in make_eval_round(self.rng, self.seen):
            buf = io.StringIO()
            if self.tracer is not None:
                self.tracer.request_id = self.sent
            self.sent += 1
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                status = self.cli.main(req.argv)
                lat.append(time.perf_counter() - t0)
            dev = eval_oracle(req, status, buf.getvalue())
            if not dev <= EVAL_TOL:
                bad.append(f"{req.chart.name} {req.op}: deviation {dev:.3g}")
        return lat, bad, len(lat)


# ---------------------------------------------------------------------------
# field_warm


def warm_oracle(cold, warm) -> bool:
    """A warm result must equal its cold first pass bit for bit."""
    return cold.dim == warm.dim and cold.coeffs == warm.coeffs


class FieldWarm:
    """Library operators over a fixed point grid, revisited with warm caches."""

    # Points per chart.  Sorted by cost, the five operators form blocks that
    # span a factor of about eighty.  With 8 points each, the median of the
    # 40 latencies would lie at the edge between the minkowski4 gradient
    # block and the euclid3 div∘grad block and jump between them.  24 euclid3
    # points (of 56 per round) put it in the middle of the euclid3 block.
    GRID = {"sphere2": 8, "minkowski4": 8, "euclid3": 24}
    period = 1

    def __init__(self, job, tracer=None):
        import reference as ref
        from gcalc import mdd as md
        from gcalc.connection import conn_spec
        from gcalc.manifest import builtin
        from gcalc.manifold import MultivectorField
        import numpy as np
        rng = make_rng(job)
        self.ops = []
        charts = {name: ref.CHARTS[name] for name in ("sphere2", "minkowski4", "euclid3")}
        grids = {name: [c.sample(rng) for _ in range(self.GRID[name])]
                 for name, c in charts.items()}
        specs = {name: conn_spec(builtin(name).chart, "coord") for name in charts}

        def lib_field(name, f):
            return MultivectorField.parse(builtin(name).chart, f.components(charts[name].coords))

        # The fields are the same in every run; only the grid follows the
        # seed.  With one field per chart, a field drawn per seed would move
        # the cost of the whole run.
        fixed = np.random.default_rng(FIELD_WARM_FIELDS)
        phi = ref.Field.random(fixed, 2, [0], terms=3)
        A = ref.Field.random(fixed, 4, [1, 2, 4, 8])
        psi = ref.Field.random(fixed, 3, [0], terms=3)
        sph, mk, e3 = specs["sphere2"], specs["minkowski4"], specs["euclid3"]
        phi_f, A_f, psi_f = lib_field("sphere2", phi), lib_field("minkowski4", A), \
            lib_field("euclid3", psi)
        F = md.curl_field(mk, A_f)
        G = md.gradient_field(e3, psi_f)
        cs, cm, ce = charts["sphere2"], charts["minkowski4"], charts["euclid3"]
        # (label, chart, call at a point, closed form at a point); curl∘curl is 0
        table = [
            ("sphere2.gradient", "sphere2", lambda p: md.gradient(sph, phi_f, p),
             lambda x: ref.scalar_gradient(cs, phi, x)),
            ("minkowski4.gradient", "minkowski4", lambda p: md.gradient(mk, A_f, p),
             lambda x: ref.contract(cm, A, x, "gp")),
            ("minkowski4.curl_curl", "minkowski4", lambda p: md.curl(mk, F, p),
             lambda x: {}),
            ("minkowski4.div_curl", "minkowski4", lambda p: md.divergence(mk, F, p),
             lambda x: ref.flat_curl_div(cm, A, x)),
            ("euclid3.div_grad", "euclid3", lambda p: md.divergence(e3, G, p),
             lambda x: ref.flat_laplacian(ce, psi, x)),
        ]
        for label, chart, call, want in table:
            for x in grids[chart]:
                self.ops.append([label, call, x, want, None])
        # The cold pass fills the caches; it is part of set-up.
        for op in self.ops:
            op[4] = op[1](op[2])

    def prepare(self):
        """Check the cold pass against the closed forms, outside the timing."""
        import reference as ref
        bad = []
        for label, _, x, want, cold in self.ops:
            dev = ref.rel_dev(cold.coeffs, want(x))
            if not dev <= WARM_TOL:
                bad.append(f"{label}: deviation {dev:.3g} from closed form")
        return len(self.ops), bad

    def round(self, k):
        lat, bad = [], []
        for label, call, x, _, cold in self.ops:
            t0 = time.perf_counter()
            got = call(x)
            lat.append(time.perf_counter() - t0)
            if not warm_oracle(cold, got):
                bad.append(f"{label}: warm result differs from cold at {x}")
        return lat, bad, len(lat)


# ---------------------------------------------------------------------------
# algebra_dense


def _random_gram(rng, signs):
    import numpy as np
    n = len(signs)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.array(signs) * rng.uniform(0.5, 2.0, n)
    return (q * lam) @ q.T


def algebra_reference(op, A, B, gram, n):
    """The same product by the ring-generic grade recursion in gcalc.blades."""
    from gcalc import blades as bl
    if op == "gp":
        return bl.gp_generic(A.coeffs, B.coeffs, gram, n)
    if op == "dot":
        return bl.dot_generic(A.coeffs, B.coeffs, gram, n)
    if op == "wedge":
        out: dict = {}
        for ma, ca in A.coeffs.items():
            for mb, cb in B.coeffs.items():
                k = ma.bit_count() + mb.bit_count()
                bl.add_into(out, bl.grade_select(bl.gp_generic({ma: ca}, {mb: cb}, gram, n), k))
        return out
    top = (1 << n) - 1
    rev = -1.0 if (n * (n - 1) // 2) & 1 else 1.0
    mag2 = bl.gp_generic({top: 1.0}, {top: rev}, gram, n).get(0, 0.0)
    unit = {top: 1.0 / abs(mag2) ** 0.5}
    square = bl.gp_generic(unit, unit, gram, n).get(0, 0.0)
    return bl.gp_generic(A.coeffs, {top: unit[top] / square}, gram, n)


class AlgebraDense:
    """Dense gp/dot/wedge/dual at n = 2, 3, 4 over definite and indefinite Grams."""

    POOL = 4
    period = POOL

    def __init__(self, job, tracer=None):
        from gcalc import algebra as al
        rng = make_rng(job)
        self.al = al
        self.blocks = []
        for n, reps in ALGEBRA_COUNTS.items():
            for signs in ([1] * n, [1] * (n - 1) + [-1], [-1] * n):
                mat = _random_gram(rng, signs)
                gram = al.Gram(mat)
                pool = [tuple(al.Multivector(n, {m: float(rng.uniform(-1, 1))
                                                 for m in range(1 << n)})
                              for _ in range(2)) for _ in range(self.POOL)]
                for op in ALGEBRA_OPS:
                    for _ in range(reps):
                        self.blocks.append([op, n, gram, mat, pool])
        order = rng.permutation(len(self.blocks))
        self.blocks = [self.blocks[i] for i in order]

    def call(self, op, A, B, gram):
        al = self.al
        if op == "gp":
            return al.gp(A, B, gram)
        if op == "dot":
            return al.dot(A, B, gram)
        if op == "wedge":
            return al.wedge(A, B)
        return al.dual(A, gram)

    def prepare(self):
        """Expected product per (op, Gram, pool entry), computed outside the timing."""
        self.want = {}
        for op, n, gram, mat, pool in self.blocks:
            for k, (A, B) in enumerate(pool):
                self.want[op, id(gram), k] = algebra_reference(op, A, B, mat, n)
        return 0, []

    def round(self, k):
        import reference as ref
        lat, bad = [], []
        k %= self.POOL
        for op, n, gram, _, pool in self.blocks:
            A, B = pool[k]
            t0 = time.perf_counter()
            got = self.call(op, A, B, gram)
            lat.append(time.perf_counter() - t0)
            dev = ref.rel_dev(got.coeffs, self.want[op, id(gram), k])
            if not dev <= ALGEBRA_TOL:
                bad.append(f"{op} n={n}: deviation {dev:.3g}")
        return lat, bad, len(lat)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(tracer, gcalc) -> dict:
    import numpy as np
    cols = tracer.spans()
    names = np.array(tracer.names + [""])
    span_names = names[cols["name_id"]] if len(cols["name_id"]) else np.array([], dtype=str)
    out = {}

    def pick(name, exact=True):
        return (span_names == name) if exact else np.char.startswith(span_names, name)

    caches = {"manifold.frame_jets": (gcalc.manifold.frame_jets, (0, 1, 2)),
              "connection.gamma_jets": (gcalc.connection.gamma_jets, (0, 1))}
    for name, (fn, orders) in caches.items():
        sel = pick(name + ".", exact=False)
        hits = int((cols["cache"][sel] == 1).sum())
        misses = int((cols["cache"][sel] == 0).sum())
        calls = int(sel.sum())
        out[f"{name}.calls"] = calls
        out[f"{name}.hits"] = hits
        out[f"{name}.misses"] = misses
        # with no lookups, none missed
        out[f"{name}.hit_ratio"] = hits / calls if calls else 1.0
        out[f"{name}.currsize"] = int(cache_info(fn).currsize)
        for o in orders:
            s = pick(f"{name}.o{o}")
            out[f"{name}.o{o}.misses"] = int((cols["cache"][s] == 0).sum())
            out[f"{name}.o{o}.self_ms"] = float(cols["self"][s].sum() * 1e3)

    for name in ("jets.mat_det_inv", "connection.connection_at", "mdd._mdd_basis_jets",
                 "mdd.field_jets", "blades.gp_generic", "blades.dot_generic",
                 "blades.wedge_generic", "expr.eval_jet", "expr.parse",
                 "manifest.load_manifest"):
        sel = pick(name)
        out[f"{name}.calls"] = int(sel.sum())
        out[f"{name}.self_ms"] = float(cols["self"][sel].sum() * 1e3)
    sel = pick("cli.main")
    out["cli.main.calls"] = int(sel.sum())
    out["cli.main.total_ms"] = float(cols["dur"][sel].sum() * 1e3)
    out["cli.render_json.self_ms"] = float(cols["self"][pick("cli.render_json")].sum() * 1e3)

    # Algebra calls made from outside the algebra module; dot and dual call gp
    # internally, and those inner calls would blur gp's per-call cost.
    parent_names = np.where(cols["parent"] >= 0, span_names[cols["parent"]], "") \
        if len(span_names) else span_names
    outer = ~np.char.startswith(parent_names, "algebra.")
    for op in ALGEBRA_OPS:
        for n in (2, 3, 4):
            s = pick(f"algebra.{op}.n{n}") & outer
            out[f"algebra.{op}.n{n}.us_per_call"] = \
                float(cols["dur"][s].mean() * 1e6) if s.any() else 0.0
    for suite in SUITES:
        out[f"suites.{suite}.s"] = float(cols["dur"][pick(f"suites.run_checks.{suite}")].sum())

    # Points that frame_jets saw in more than one request.
    owners: dict = {}
    for idx, key in tracer.keys.items():
        req = int(cols["request"][idx])
        if req >= 0:
            owners.setdefault(key, set()).add(req)
    out["manifold.frame_jets.cross_request_points"] = \
        sum(1 for reqs in owners.values() if len(reqs) > 1)
    return out


def cache_info(fn):
    """cache_info() of an lru_cache, also through a tracer wrapper around it."""
    return (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()


# ---------------------------------------------------------------------------
# process entry


WORKLOADS = {"check_all": CheckAll, "eval_cold": EvalCold, "field_warm": FieldWarm,
             "algebra_dense": AlgebraDense}


def run_rounds(work, seconds, tracer=None, rounds=None) -> dict:
    """``rounds`` rounds, or else rounds until ``seconds`` have passed, at least one.

    ``lat`` holds one list of request latencies per round.  With a tracer the
    rounds alternate untraced and traced, in even number, so both halves see
    the same machine conditions; ``wall`` is then the traced half and
    ``base_wall`` the untraced half.  The tracer is uninstalled for the
    untraced rounds, so they run gcalc with no wrapper, as a process without
    a tracer does.
    """
    lat, bad = [], []
    wall = base_wall = 0.0
    attempted = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < rounds) if rounds else (
            k == 0 or time.perf_counter() < deadline or (tracer is not None and k % 2)):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        round_lat, round_bad, checked = work.round(k)
        if traced:
            tracer.uninstall()
        bad += round_bad
        attempted += checked
        if tracer is not None and not traced:
            base_wall += sum(round_lat)
        else:
            lat.append(round_lat)
            wall += sum(round_lat)
        k += 1
    return {"lat": lat, "wall": wall, "base_wall": base_wall, "period": work.period,
            "rounds": k, "attempted": attempted, "bad": bad}


def run_job(job) -> dict:
    gcalc = import_gcalc()
    sys.path.insert(0, HERE)
    tracer = None
    mode, name = job["mode"], job["workload"]
    if mode == "trace" and name == "check_all":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[name](job, tracer)
    out = {"setup_s": time.perf_counter() - T_START, "attempted": 0, "failed": 0,
           "errors": []}
    if mode != "setup":
        attempted, bad = work.prepare()
        if mode == "trace" and name != "check_all":
            from tracer import Tracer
            tracer = work.tracer = Tracer()
            res = run_rounds(work, job["seconds"], tracer)
        else:
            res = run_rounds(work, job["seconds"], rounds=job.get("rounds"))
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, gcalc)
            save_trace(tracer, job)
        bad += res.pop("bad")
        out.update(res, attempted=attempted + res["attempted"], failed=len(bad),
                   errors=bad[:5])
    out["rss_mb"] = rss_mb()
    out["caches"] = {"frame_jets": cache_info(gcalc.manifold.frame_jets)._asdict(),
                     "gamma_jets": cache_info(gcalc.connection.gamma_jets)._asdict()}
    return out


def save_trace(tracer, job):
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"trace-{job['workload']}-{job['seed']}-{job['proc']}.npz"))


def main(argv):
    job = json.loads(argv[1])
    real_stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        out = run_job(job)
    real_stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
