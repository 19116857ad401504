"""Write a BENCH_*.json file from the saved stdout of paired perfbench runs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py RUN_DIR --description TEXT --out BENCH_N.json

RUN_DIR holds one file per run of ``perfbench/run.py --workload W --seed N``,
named ``W.N.SIDE.out`` for ``--trace 0`` and ``W.N.SIDE.trace.out`` for
``--trace 1``, where SIDE is ``parent`` or ``change``.  Untraced runs of the
same workload and seed on both sides form a pair; the side whose file was
last written first ran first.  A traced pair gives the workload's per-layer
rows.  Every summarised metric is lower-is-better; quartiles interpolate
linearly between order statistics, as perfbench/stats.py does.  Standard
library only.

Each summarised metric gets ``claim_holds``: true only when there are at
least MIN_PAIRS pairs, the change is better in at least nine tenths of them
(ties count for neither side), and the parent's median exceeds the change's
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload W --seed N --seconds 55 --trace T, "
           "from a fresh checkout of each commit; pairs alternate which side runs first")
#: Untraced metrics summarised per workload, when the runs print them.
SUMMARY = ("wall_s", "setup_s", "peak_rss_mib", "op_p50_ms", "op_tail_ms")
#: The gain rule: at least this many pairs ...
MIN_PAIRS = 10
#: ... of which the change wins at least WINS[0] in WINS[1].
WINS = (9, 10)
CLAIM_RULE = (f"at least {MIN_PAIRS} pairs, the change better in at least "
              f"{WINS[0]}/{WINS[1]} of them (ties count for neither), and the median "
              "gap larger than the parent's q3 - q1")
NAME = re.compile(r"^(?P<workload>[\w-]+)\.(?P<seed>\d+)\.(?P<side>parent|change)"
                  r"(?P<trace>\.trace)?\.out$")


def parse_run(path):
    """The facts one run printed: its host, end-to-end or per-layer metrics,
    figures parts and counts."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty output")
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: last line is not the run's JSON object: {exc}") from None
    run = {
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "correct": last["correct"],
        "failed": last["failed"],
        "attempted": last["attempted"],
        "parts": {},
    }
    for line in lines:
        if line.startswith("environment: "):
            run["host"] = dict(kv.split("=", 1) for kv in line[len("environment: "):].split())
        elif m := re.match(r"workload \S+ seed \d+: (\d+) untraced", line):
            run["reps"] = int(m.group(1))
        elif m := re.match(r"\s+of which (\S+): ([\d.]+) s", line):
            run["parts"][m.group(1)] = float(m.group(2))
        elif m := re.match(r"(op_p50_ms|op_tail_ms) = ([\d.]+) ms", line):
            run["metrics"][m.group(1)] = float(m.group(2))
        elif m := re.match(r"cli\.outputs_identical = (\d+) of (\d+)", line):
            run["outputs_identical"] = f"{m.group(1)}/{m.group(2)}"
    return run


def spread(values):
    """Median, quartiles and count of values."""
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load(run_dir):
    """{(workload, seed, traced): {side: (mtime, run)}} of every run file."""
    found = {}
    for name in sorted(os.listdir(run_dir)):
        m = NAME.match(name)
        if not m:
            continue
        path = os.path.join(run_dir, name)
        key = (m["workload"], int(m["seed"]), bool(m["trace"]))
        found.setdefault(key, {})[m["side"]] = (os.path.getmtime(path), parse_run(path))
    return found


def build(run_dir, description):
    found = load(run_dir)
    pairs = {k: v for k, v in found.items() if set(v) == set(SIDES)}
    for key in sorted(set(found) - set(pairs)):
        print(f"warning: {key[0]} seed {key[1]} has no pair, left out", file=sys.stderr)
    if not pairs:
        raise ValueError(f"{run_dir}: no paired runs")
    host = next(iter(pairs.values()))["parent"][1].get("host", {})
    out = {
        "description": description,
        "command": COMMAND,
        "quartiles": "linear interpolation between order statistics "
                     "(perfbench/stats.py percentile)",
        "host": host,
        "claim_rule": CLAIM_RULE,
        "summary": {},
        "figures_parts": {},
        "runs": {},
        "per_layer": {},
    }
    for (workload, seed, traced), sides in sorted(pairs.items()):
        if traced:
            out["per_layer"][workload] = {
                "seed": seed, **{s: sides[s][1]["metrics"] for s in SIDES}}
            continue
        row = {"seed": seed}
        for s in SIDES:
            run = sides[s][1]
            row[s] = {
                **{k: run["metrics"][k] for k in SUMMARY if k in run["metrics"]},
                "reps": run.get("reps"),
                "correct": run["correct"],
                "failed": run["failed"],
                "attempted": run["attempted"],
                **({"parts": run["parts"]} if run["parts"] else {}),
                "outputs_identical": run.get("outputs_identical"),
            }
        row["first"] = min(SIDES, key=lambda s: sides[s][0])
        out["runs"].setdefault(workload, []).append(row)
    for workload, rows in out["runs"].items():
        summary = out["summary"][workload] = {}
        for metric in SUMMARY:
            if not all(metric in r[s] for r in rows for s in SIDES):
                continue
            both = {s: spread([r[s][metric] for r in rows]) for s in SIDES}
            better = sum(r["change"][metric] < r["parent"][metric] for r in rows)
            parent = both["parent"]
            summary[metric] = {
                **both,
                "change_better_pairs": better,
                "change_worse_pairs": sum(r["change"][metric] > r["parent"][metric] for r in rows),
                "median_ratio": both["change"]["median"] / parent["median"],
                "claim_holds": (len(rows) >= MIN_PAIRS and better * WINS[1] >= WINS[0] * len(rows)
                                and parent["median"] - both["change"]["median"]
                                > parent["q3"] - parent["q1"]),
            }
        if workload == "figures":
            out["figures_parts"] = {
                s: {name: spread([r[s]["parts"][name] for r in rows])
                    for name in rows[0][s]["parts"]}
                for s in SIDES
            }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_dir", help="directory of W.N.SIDE[.trace].out files")
    ap.add_argument("--description", required=True, help="what the change is, and the commits")
    ap.add_argument("--out", help="file to write (default: standard output)")
    args = ap.parse_args(argv)
    try:
        result = build(args.run_dir, args.description)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
