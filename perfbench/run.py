"""gcalc's benchmark: one command that runs a workload, checks it and prints metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {check_all,eval_cold,field_warm,algebra_dense}
                             --seed N --seconds S --trace {0,1}

Every repetition runs in a fresh worker process (``worker.py``), one at a
time, so each starts with empty caches and its peak RSS is its own.
``--seconds`` sets the amount of work, as a number of processes per 20 s;
the work does not grow or shrink with the speed of the machine or of gcalc.
Every process of a run makes the same requests, and each request's latency is
its fastest repetition in the run (``request_minima``).  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed; with
``--trace 1`` the per-layer metrics from spans recorded around gcalc's
functions, plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Full results, and the
spans of a traced run, go to ``.bench_out/``.

Exit status 0 when the run completed (``correct`` says whether every output
was right), 1 when a worker failed, 2 when the checkout has no gcalc sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUDGET_S = 170.0

WORKLOADS = ("check_all", "eval_cold", "field_warm", "algebra_dense")
# Set-up samples per run, whose median is setup_s: every measuring process
# gives one, and set-up-only processes make up the rest.
SETUP_SAMPLES = 5
# Work per run: (rounds per process, processes per 20 seconds of --seconds).
# The work is fixed, whatever the speed of the machine, so that every
# statistic is taken over the same number of samples on a slow commit and on
# a fast one.  Each process starts with empty caches; check_all and eval_cold
# need that for every repetition.  Every process makes the same requests, so
# each request is timed once per process on check_all and eval_cold, and
# once per round on field_warm and algebra_dense.  On the machine the
# benchmark was written on, a 20-second run takes 15 to 45 s, the most on
# check_all, where one run_checks("all", samples=16) takes 2 to 3 s.
WORK = {"check_all": (1, 12), "eval_cold": (6, 12), "field_warm": (24, 3),
        "algebra_dense": (150, 2)}
# Tail percentile per workload, among the distinct requests of a run: 288 on
# eval_cold, 56 on field_warm, 192 on algebra_dense and the 9 suites on
# check_all.  Each is the highest whole or half percentile with at least ten
# requests beyond it, except on check_all, whose tail is its slowest suite.
TAIL = {"check_all": 100.0, "eval_cold": 96.5, "field_warm": 82.0, "algebra_dense": 94.5}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, seconds, tiny=False):
        self.workload, self.seed, self.seconds, self.tiny = workload, seed, seconds, tiny
        self.deadline = time.monotonic() + BUDGET_S

    def spawn(self, mode, proc, seconds=0.0, **extra) -> dict:
        job = {"workload": self.workload, "seed": self.seed, "proc": proc, "mode": mode,
               "seconds": seconds, "tiny": self.tiny, **extra}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("time budget exhausted")
        try:
            done = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker timed out") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise WorkerFailed(f"{mode} worker exited with status {done.returncode}")
        return json.loads(lines[-1])


def request_minima(runs: list) -> tuple:
    """Each distinct request's latency, as its fastest repetition; and the rounds.

    Every process of a run makes the same requests (``worker.make_rng``), and
    a round repeats after ``period`` rounds in a process (never, for
    None).  A request's repetitions are spread over the whole run, so its
    fastest one is its cost when the host was quiet.  The shared host this
    was written on switches between a quiet state and contended ones, in
    which all of gcalc runs up to 1.8 times slower; a state lasts from a
    second to more than a minute, so the share of a run spent contended, and
    with it any statistic over every repetition, moves from run to run.
    Returns the sorted minima and the number of distinct rounds.
    """
    best: dict = {}
    for out in runs:
        period = out["period"]
        for k, round_lat in enumerate(out["lat"]):
            for i, x in enumerate(round_lat):
                key = (k % period if period else k, i)
                best[key] = min(x, best.get(key, x))
    return sorted(best.values()), len({k for k, _ in best})


def measure(r: Runner) -> tuple:
    """Untraced run: returns (metrics, worker outputs, notes)."""
    rounds, per_20s = WORK[r.workload]
    procs = max(2, round(per_20s * r.seconds / 20.0))
    setups = [r.spawn("setup", 100 + k) for k in range(max(0, SETUP_SAMPLES - procs))]
    runs = [r.spawn("measure", k, rounds=1 if r.tiny else rounds) for k in range(procs)]
    lat, distinct_rounds = request_minima(runs)
    p = TAIL[r.workload]
    tail = lat[max(0, math.ceil(p / 100.0 * len(lat)) - 1)]  # nearest rank
    metrics = {
        "setup_s": (statistics.median(o["setup_s"] for o in setups + runs), "s"),
        "wall_s": (sum(lat) / distinct_rounds, "s"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in runs), "MB"),
    }
    notes = {"latency_tail": {"percentile": p,
                              "samples": len(lat),
                              "beyond": sum(1 for x in lat if x > tail)},
             "timed": {"requests": len(lat),
                       "latencies": sum(len(rl) for o in runs for rl in o["lat"])},
             "setup_samples": len(setups) + len(runs), "processes": len(runs),
             "wall_unit": {"check_all": "one run_checks('all')"}.get(r.workload, "one round"),
             "caches": [o["caches"] for o in runs]}
    return metrics, setups + runs, notes


def trace(r: Runner) -> tuple:
    """Traced run: per-layer metrics and the tracing overhead."""
    if r.workload == "check_all":
        # Each needs empty caches, so the untraced run is a process of its own.
        base = r.spawn("base", 0)
        traced = r.spawn("trace", 0)
        outs, base_wall = [base, traced], base["wall"]
    else:
        # One process whose rounds alternate untraced and traced.
        traced = r.spawn("trace", 0, r.seconds)
        outs, base_wall = [traced], traced["base_wall"]
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = (value, layer_unit(name))
    metrics["trace.overhead_frac"] = (traced["wall"] / base_wall - 1.0, "frac")
    return metrics, outs, {"spans_written_to": OUT_DIR}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def run(workload, seed, seconds, traced, tiny=False) -> dict:
    """Run one workload; returns the result object plus a 'notes' entry."""
    r = Runner(workload, abs(int(seed)), float(seconds), tiny)
    r.spawn("setup", 999)  # untimed: compiles bytecode and warms the file cache
    metrics, outs, notes = trace(r) if traced else measure(r)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    notes["errors"] = [e for o in outs for e in o["errors"]][:10]
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gcalc", "cli.py")):
        print(f"perfbench: no gcalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    notes = result.pop("notes")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": notes}, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if "latency_tail" in notes:
        t = notes["latency_tail"]
        print(f"latency_tail_ms is p{t['percentile']:g} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
    print(f"attempted {result['attempted']}, failed {result['failed']}"
          + "".join(f"\n  {e}" for e in notes["errors"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
