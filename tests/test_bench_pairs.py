import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run_output(wall, symline, failed=0, layer=None):
    """The stdout of one perfbench/run.py run of figures, as it prints it."""
    if layer is None:
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": 0.2, "unit": "s"},
                   "peak_rss_mib": {"value": 50.0, "unit": "MiB"}}
    else:
        metrics = {"dynamics.step.calls": {"value": layer, "unit": "count"}}
    return "\n".join([
        "environment: nproc=2 python=3.11.7 numpy=2.4.6 longdouble_nmant=63",
        "workload figures seed 5: 7 untraced repetitions of 8 operations, closed loop, one client",
        f"wall_s = {wall:.4f} s (median of 7 repetitions)",
        "  of which fig2-mesh: 0.3000 s (median over repetitions)",
        f"  of which symline: {symline:.4f} s (median over repetitions)",
        "cli.outputs_identical = 11 of 12 output files byte-identical to the reference commit",
        json.dumps({"correct": not failed, "attempted": 56, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def write(tmp_path, name, text, mtime):
    path = tmp_path / name
    path.write_text(text)
    os.utime(path, (mtime, mtime))


def test_pairs_summary(tmp_path, capsys):
    write(tmp_path, "figures.1.parent.out", run_output(3.0, 2.0), 1)
    write(tmp_path, "figures.1.change.out", run_output(2.0, 1.0), 2)
    write(tmp_path, "figures.2.change.out", run_output(2.2, 1.2, failed=1), 3)
    write(tmp_path, "figures.2.parent.out", run_output(2.1, 2.1), 4)
    write(tmp_path, "figures.3.parent.out", run_output(2.9, 1.9), 5)  # no pair
    write(tmp_path, "figures.4.parent.trace.out", run_output(3.0, 2.0, layer=30000), 6)
    write(tmp_path, "figures.4.change.trace.out", run_output(2.0, 1.0, layer=300), 7)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path), "--description", "d", "--out", str(out)]) == 0
    assert "figures seed 3 has no pair" in capsys.readouterr().err
    bench = json.loads(out.read_text())
    assert bench["host"]["longdouble_nmant"] == "63"
    wall = bench["summary"]["figures"]["wall_s"]
    assert wall["parent"] == {"median": 2.55, "q1": 2.325, "q3": 2.775, "n": 2}
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (1, 1)
    assert wall["median_ratio"] == pytest.approx(2.1 / 2.55)
    assert bench["figures_parts"]["change"]["symline"]["median"] == pytest.approx(1.1)
    runs = bench["runs"]["figures"]
    assert [(r["seed"], r["first"]) for r in runs] == [(1, "parent"), (2, "change")]
    assert runs[1]["change"]["failed"] == 1 and runs[0]["parent"]["outputs_identical"] == "11/12"
    assert runs[0]["parent"]["reps"] == 7
    assert bench["per_layer"]["figures"] == {
        "seed": 4, "parent": {"dynamics.step.calls": 30000}, "change": {"dynamics.step.calls": 300}}


def test_no_pairs_is_an_error(tmp_path, capsys):
    write(tmp_path, "figures.1.parent.out", run_output(3.0, 2.0), 1)
    assert bench_pairs.main([str(tmp_path), "--description", "d"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def claim(tmp_path, walls):
    """claim_holds of wall_s over pairs of (parent, change) walls."""
    for seed, (parent, change) in enumerate(walls, 1):
        write(tmp_path, f"figures.{seed}.parent.out", run_output(parent, 1.0), 2 * seed)
        write(tmp_path, f"figures.{seed}.change.out", run_output(change, 1.0), 2 * seed + 1)
    return bench_pairs.build(str(tmp_path), "d")["summary"]["figures"]["wall_s"]["claim_holds"]


@pytest.mark.parametrize("walls, holds", [
    # nine wins in ten, median gap 0.335 against the parent's q3 - q1 of 0.045
    ([(3.0 + 0.01 * i, 2.7) for i in range(9)] + [(3.0, 3.1)], True),
    # the same rule over 9 pairs: too few
    ([(3.0 + 0.01 * i, 2.7) for i in range(9)], False),
    # eight wins in ten
    ([(3.0 + 0.01 * i, 2.7) for i in range(8)] + [(3.0, 3.1), (3.0, 3.0)], False),
    # ten wins, but the gap 0.1 is inside the parent's spread (q3 - q1 = 0.45)
    ([(2.5 + 0.1 * i, 2.5 + 0.1 * i - 0.1) for i in range(10)], False),
])
def test_claim_holds(tmp_path, walls, holds):
    assert claim(tmp_path, walls) is holds
