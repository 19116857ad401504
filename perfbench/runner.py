"""One workload run, in the pinned-environment child process started by run.py.

Usage: python3 perfbench/runner.py --workload NAME --seed N --seconds S
       --trace 0|1 --result PATH

Repetitions of the workload's input set run back to back (a closed loop with
one client) until the next one would end after ``--seconds``; at least one
runs.  With ``--trace 1`` untraced and traced repetitions alternate, at least
one of each, and the tracing overhead is the difference of their median wall
times.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

import layers
import workloads
from stats import median, tail
from tracer import Tracer, busy_and_calls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference")

clock = time.perf_counter


def import_qvpmaps():
    """Import qvpmaps from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import qvpmaps

    where = os.path.dirname(os.path.abspath(qvpmaps.__file__))
    if where != os.path.join(SRC, "qvpmaps"):
        raise SystemExit(f"qvpmaps imported from {where}, not from {SRC}")
    return qvpmaps


def environment():
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        **{k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")},
    }


def run_rep(wl, tracer=None):
    """One repetition: ops timed one after the other, then checked."""
    wl.clean()
    latencies, outcomes = [], []
    start = clock()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            out = workloads.Outcome(error=f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        outcomes.append(out)
    wall = clock() - start
    failures = wl.check(outcomes)
    return {
        "wall": wall,
        "latencies": latencies,
        "failures": failures,
        "identical": wl.identical_outputs(),
    }


def rep_loop(wl, window, tracer=None, targets=None):
    """Repetitions until the next one would end after ``window`` seconds.

    With a tracer, repetitions alternate between untraced and traced, so
    that slow drifts of the machine fall on both; a traced repetition gets
    its per-layer metrics under "layers".
    """
    reps = []
    start = clock()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            with tracer.installed(targets):
                rep = run_rep(wl, tracer)
            rep["layers"] = traced_metrics(tracer)
            rep["layers"]["normalform.to_normal_form.refused"] = sum(
                f.refusal for f in rep["failures"])
            tracer.reset()
        else:
            rep = run_rep(wl)
        rep["traced"] = traced
        reps.append(rep)
        walls = sorted(r["wall"] for r in reps)
        done = tracer is None or len(reps) >= 2
        if done and clock() - start + walls[len(walls) // 2] > window:
            return reps


def traced_metrics(tracer):
    busy, calls = busy_and_calls(tracer.spans)
    return layers.metrics(busy, calls, tracer.counts)


def summarize(reps, per_op_latency, part_of_op=None):
    parts = {}
    for name in dict.fromkeys(part_of_op or ()):
        parts[name] = median([
            sum(x for x, p in zip(r["latencies"], part_of_op) if p == name) for r in reps])
    out = {
        "parts": parts,
        "wall_s": median([r["wall"] for r in reps]),
        "op_count": len(reps[0]["latencies"]),
        "reps": len(reps),
    }
    if per_op_latency:
        p50s, tails = [], []
        for r in reps:
            ms = [1e3 * x for x in r["latencies"]]
            p50s.append(median(ms))
            q, v = tail(ms)
            tails.append(v)
        out.update(op_p50_ms=median(p50s), op_tail_ms=median(tails), op_tail_percentile=q)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import_qvpmaps()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)

    cls = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(REFERENCE, args.workload)
    wl = cls(args.seed, reference)
    warm = workloads.cli_call(["fixed-points", *workloads.F2_FLAGS, "--out", "warmup.csv"])
    if warm.rc != 0:
        raise SystemExit(f"warm-up call failed: {warm.stderr}")

    part_of_op = wl.part_of_op() if isinstance(wl, workloads.Figures) else None
    result = {"environment": environment(), "workload": args.workload, "seed": args.seed}
    if args.trace == 0:
        all_reps = rep_loop(wl, args.seconds)
        result["summary"] = summarize(all_reps, wl.per_op_latency, part_of_op)
        result["summary"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        tracer = Tracer()
        all_reps = rep_loop(wl, args.seconds, tracer, layers.targets(tracer))
        untraced = [r for r in all_reps if not r["traced"]]
        traced = [r for r in all_reps if r["traced"]]
        per_layer = {
            name: median([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]
        }
        per_layer["trace.overhead_s"] = (
            median([r["wall"] for r in traced]) - median([r["wall"] for r in untraced]))
        per_layer["cli.outputs"] = len(wl.outputs())
        per_layer["cli.outputs_identical"] = min(r["identical"] for r in all_reps)
        result["per_layer"] = per_layer
        result["summary"] = summarize(untraced, wl.per_op_latency, part_of_op)
        result["summary"]["traced_reps"] = len(traced)
    failures = [f for r in all_reps for f in r["failures"]]
    result["attempted"] = sum(len(r["latencies"]) for r in all_reps)
    result["failed"] = len(failures)
    result["refused"] = sum(f.refusal for f in failures)
    result["known_refused"] = sum(f.known for f in failures)
    result["correct"] = workloads.is_correct(failures)
    result["failures"] = sorted({f.reason for f in failures})[:20]
    result["outputs"] = len(wl.outputs())
    result["outputs_identical"] = min(r["identical"] for r in all_reps)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
