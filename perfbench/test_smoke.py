"""Smoke test of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_smoke.py``
or ``python3 perfbench/test_smoke.py``.  It runs every workload at a tiny
size, traced and untraced, and checks that each metric BENCHMARK.json names
is reported with its unit, and that the tracer's ``uninstall`` restores every
reference it rebound.  It then hands each oracle a deliberately wrong result
and checks that the oracle rejects it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

worker.import_gcalc()

import reference as ref  # noqa: E402
from gcalc import algebra as al  # noqa: E402
from gcalc import cli  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_metric_reported_with_its_unit():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result = run.run(workload, 5, 0.3, traced, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, key)
            assert result["correct"] and result["failed"] == 0, (workload, result["notes"])
            assert result["attempted"] >= 1
            if not traced:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_tracer_uninstall_restores_every_reference():
    from tracer import Tracer

    def refs():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("gcalc") and mod is not None
                for attr, value in vars(mod).items() if callable(value)}

    before = refs()
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        # mdd imports frame_jets by name; that reference is wrapped too
        from gcalc import manifold, mdd
        assert mdd.frame_jets.__wrapped__ is before["gcalc.manifold", "frame_jets"]
        assert manifold.frame_jets is mdd.frame_jets
        tracer.uninstall()
        assert refs() == before


def test_check_all_oracle_rejects_a_failed_row():
    from gcalc import suites
    report = suites.run_checks("expr", samples=2, seed=1)
    assert worker.check_all_oracle(report) == []
    report["checks"][0]["status"] = "fail"
    assert worker.check_all_oracle(report) != []


def _call(argv):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def test_eval_oracle_rejects_a_perturbed_output():
    rng = np.random.default_rng(3)
    reqs = worker.make_eval_round(rng, set())
    assert len(reqs) == 48
    for req in reqs:
        status, text = _call(req.argv)
        assert worker.eval_oracle(req, status, text) <= worker.EVAL_TOL, req.argv
        doc = json.loads(text)
        table = doc["gamma"] if req.op == "connection" else doc
        key = sorted(table)[0] if table else "1"
        table[key] = table.get(key, 0.0) + 1e-6
        assert worker.eval_oracle(req, 0, json.dumps(doc)) > worker.EVAL_TOL, req.argv
        assert worker.eval_oracle(req, 2, text) > worker.EVAL_TOL


def test_warm_oracles_reject_a_changed_result():
    job = {"workload": "field_warm", "seed": 2, "proc": 0, "mode": "measure",
           "seconds": 0.0}
    work = worker.FieldWarm(job)
    assert work.prepare()[1] == []
    lat, bad, _ = work.round(0)
    assert bad == [] and len(lat) == len(work.ops)
    for op in work.ops:
        cold = op[4]
        mask, value = next(iter(cold.coeffs.items())) if cold.coeffs else (0, 0.0)
        changed = al.Multivector(cold.dim, {**cold.coeffs,
                                            mask: float(np.nextafter(value, np.inf))})
        assert worker.warm_oracle(cold, cold)
        assert not worker.warm_oracle(cold, changed), op[0]
    # A wrong cold value must also fail its closed form or identity.
    work.ops[0][4] = al.Multivector(work.ops[0][4].dim, {0: 1.0})
    assert work.prepare()[1] != []


def test_algebra_oracle_rejects_a_perturbed_product():
    job = {"workload": "algebra_dense", "seed": 4, "proc": 0, "mode": "measure",
           "seconds": 0.0}
    work = worker.AlgebraDense(job)
    work.prepare()
    assert work.round(0)[1] == []
    for op, n, gram, mat, pool in work.blocks:
        A, B = pool[0]
        got = work.call(op, A, B, gram).coeffs
        want = worker.algebra_reference(op, A, B, mat, n)
        assert ref.rel_dev(got, want) <= worker.ALGEBRA_TOL, (op, n)
        wrong = dict(got)
        mask = max(wrong, key=lambda m: abs(wrong[m]))
        wrong[mask] *= 1.0 + 1e-6
        assert ref.rel_dev(wrong, want) > worker.ALGEBRA_TOL, (op, n)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
