"""Benchmark of qvpmaps' figure pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {figures,algebra,all} \
        --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics; ``--workload
all`` runs both workloads in turn, each ending with its JSON line.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones from a traced run.  The workload runs in a child process with
BLAS/OpenMP pinned to one thread and a fixed PYTHONHASHSEED.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from layers import PER_LAYER
from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("figures", "algebra")

#: Fresh processes timed for setup_s, after one untimed process that
#: compiles the bytecode.
SETUP_PROBES = 5

#: Every workload run, set-up included, must end within this many seconds.
DEADLINE_S = 170

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def setup_times(env, deadline):
    out = os.path.join(WORK, "probe.csv")
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), out],
            env=env, capture_output=True, text=True, check=False,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip() or f"probe exit {proc.returncode}")
        times.append(float(proc.stdout.strip()))
    return times[1:]


def report(res, setup):
    env = res["environment"]
    s = res["summary"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    traced = f" and {s['traced_reps']} traced" if "traced_reps" in s else ""
    print(f"workload {res['workload']} seed {res['seed']}: {s['reps']} untraced{traced} "
          f"repetitions of {s['op_count']} operations, closed loop, one client")
    if setup is not None:
        print(f"setup_s = {setup:.4f} s (median of {SETUP_PROBES} fresh processes)")
    print(f"wall_s = {s['wall_s']:.4f} s (median of {s['reps']} repetitions)")
    for name, secs in s["parts"].items():
        print(f"  of which {name}: {secs:.4f} s (median over repetitions)")
    if "peak_rss_mib" in s:
        print(f"peak_rss_mib = {s['peak_rss_mib']:.1f} MiB")
    if "op_p50_ms" in s:
        print(f"op_p50_ms = {s['op_p50_ms']:.4f} ms (median per repetition of "
              f"{s['op_count']} operations, median over repetitions)")
        print(f"op_tail_ms = {s['op_tail_ms']:.4f} ms (p{s['op_tail_percentile']:g} of "
              f"{s['op_count']} operations per repetition, the highest percentile with "
              "at least 10 beyond it; median over repetitions)")
    share = res["failed"] / res["attempted"]
    print(f"failed_share = {share:.6f} ({res['failed']} of {res['attempted']} operations "
          f"failed; {res['refused']} of them normal-form refusals, {res['known_refused']} "
          "of those of maps refused at the reference commit too)")
    for reason in res["failures"]:
        print(f"  failed: {reason}")
    print(f"cli.outputs_identical = {res['outputs_identical']} of {res['outputs']} "
          f"output files byte-identical to the reference commit (informational)")


def run_one(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **PINNED)
    os.makedirs(WORK, exist_ok=True)
    setup = median(setup_times(env, deadline)) if trace == 0 else None
    result_path = os.path.join(WORK, f"{workload}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "runner.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--result", result_path],
        env=env, check=False, timeout=max(1.0, deadline - time.monotonic()),
    )
    if child.returncode != 0 or not os.path.exists(result_path):
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        res = json.load(fh)

    report(res, setup)
    if trace == 0:
        values = dict(res["summary"], setup_s=setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": res["per_layer"][name], "unit": unit}
            print(f"{name} = {res['per_layer'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="a workload, or all workloads in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qvpmaps", "cli.py")):
        print(f"error: no qvpmaps source under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(w, args.seed, args.seconds, args.trace) for w in names)


if __name__ == "__main__":
    sys.exit(main())
