"""The benchmark's own tests.  They are kept out of the repository's test
suite (the file name does not match test_*.py); run them with

    python3 -m pytest -q perfbench/check_bench.py
"""

import json
import os

import pytest

import layers
import maps
import run
import runner
import workloads
from stats import tail, tail_percentile
from tracer import Tracer, busy_and_calls, self_times

runner.import_qvpmaps()


# --------------------------------------------------------------------------
# statistics and spans


@pytest.mark.parametrize("n, q", [(19, None), (20, 50.0), (199, 90.0), (200, 95.0),
                                  (700, 98.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_tail_value_has_ten_samples_beyond():
    values = [float(i) for i in range(700)]
    q, v = tail(values)
    assert q == 98.0
    assert sum(x > v for x in values) >= 10
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tr.open("root")          # 0 .. 10
    a = tr.open("a")                # 1 .. 4
    g = tr.open("grandchild")       # 2 .. 3
    tr.close(g)
    tr.close(a)
    b = tr.open("b")                # 5 .. 6
    tr.close(b)
    tr.close(root)
    assert self_times(tr.spans) == [6, 2, 1, 1]
    busy, calls = busy_and_calls(tr.spans)
    assert busy["root"] == 6 and calls["a"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c", 2.0, 6.0, 0, 0], ["c", 4.0, 8.0, 0, 0],
             ["c", 9.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_generator_gets_one_span_per_resume():
    tr = Tracer()

    def gen():
        yield 1
        yield 2

    wrapped = tr.wrap_generator(gen, "g")
    assert list(wrapped()) == [1, 2]
    assert [s[0] for s in tr.spans] == ["g", "g", "g"]
    assert tr.counts["g.items"] == 2


def test_tracer_replaces_every_alias_and_restores_them():
    from qvpmaps import cli, dynamics, manifold, normalform, polymap

    before = (cli.grow_2d, manifold.grow_2d, normalform.compose, polymap.compose,
              dynamics.GenericMapParams.step)
    tr = Tracer()
    with tr.installed(layers.targets(tr)):
        assert cli.grow_2d is manifold.grow_2d is not before[0]
        assert normalform.compose is polymap.compose is not before[2]
        dynamics.GenericMapParams.make(0.0, -0.3).step([0.1, 0.2, 0.3])
        assert tr.counts == {} and [s[0] for s in tr.spans] == ["dynamics.step"]
    after = (cli.grow_2d, manifold.grow_2d, normalform.compose, polymap.compose,
             dynamics.GenericMapParams.step)
    assert all(x is y for x, y in zip(before, after))


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# --------------------------------------------------------------------------
# inputs


def test_same_seed_gives_the_same_maps(tmp_path, monkeypatch):
    assert maps.input_set(5) == maps.input_set(5)
    assert maps.input_set(5) != maps.input_set(6)
    small = {c: (n, 3) for c, (n, _) in maps.CATEGORIES.items()}
    texts = []
    for d in ("a", "b"):
        os.makedirs(tmp_path / d)
        monkeypatch.chdir(tmp_path / d)
        workloads.Algebra(11, {}, small)
        texts.append({f: open(os.path.join("maps", f)).read() for f in os.listdir("maps")})
    assert texts[0] == texts[1] and len(texts[0]) == 15


# --------------------------------------------------------------------------
# smoke configurations, with each gate shown to fire on a corrupted reference


def reasons(wl, reference, outcomes):
    wl.reference = reference
    return [f.reason for f in wl.check(outcomes)]


def run_once(wl):
    wl.clean()
    return [op.run() for op in wl.ops]


def corrupt(ref, *path, value):
    out = json.loads(json.dumps(ref))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_fig2_mesh_gates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ref = workloads.load_reference(runner.REFERENCE, "fig2-mesh")
    wl = workloads.Fig2Mesh(3, ref)
    outcomes = run_once(wl)
    assert reasons(wl, ref, outcomes) == []
    assert wl.identical_outputs() == len(wl.outputs())
    assert reasons(wl, corrupt(ref, "curves", value=4), outcomes)
    assert reasons(wl, corrupt(ref, "stable", "vertices", value=1), outcomes)
    assert reasons(wl, corrupt(ref, "unstable", "subrings", value=1), outcomes)
    far = corrupt(ref, "heteroclinic_points", value=[[5.0, 5.0, 5.0]])
    assert "heteroclinic points" in reasons(wl, far, outcomes)[0]
    outcomes[2].value = 1e3
    assert "Hausdorff" in reasons(wl, ref, outcomes)[0]


def test_symline_gates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Symline(1, {}, het_samples=40, period_samples=400)
    outcomes = run_once(wl)
    ref = wl.observe()
    assert ref["heteroclinic"]
    assert reasons(wl, ref, outcomes) == []
    moved = [list(p) for p in ref["heteroclinic"]]
    moved[0][0] += 1e-6
    assert reasons(wl, dict(ref, heteroclinic=moved), outcomes)
    assert reasons(wl, dict(ref, heteroclinic=moved[1:]), outcomes)
    assert reasons(wl, dict(ref, period4=[[0.0, 0.15, 0.15]]), outcomes)


def test_diagrams_gates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Diagrams(2, {}, n=8)
    outcomes = run_once(wl)
    ref = wl.observe()
    assert reasons(wl, ref, outcomes) == []
    for label, col in (("fig3", "count"), ("fig4", "class_plus"),
                       ("fig3", "class_minus"), ("t_s", "classification")):
        rows = list(ref[label][col])
        rows[3] = "?" + rows[3][1:]
        assert reasons(wl, corrupt(ref, label, col, value=rows), outcomes), (label, col)


def test_algebra_gates_and_refusals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    small = {c: (n, 2) for c, (n, _) in maps.CATEGORIES.items()}
    wl = workloads.Algebra(4, {}, small)
    outcomes = run_once(wl)
    assert reasons(wl, {}, outcomes) == []
    for path, (kind, category, index) in list(wl.expected.items()):
        wrong = "II" if category != "II" else "III"
        if kind != "symplectic":
            wl.expected[path] = (kind, wrong, index)
    assert len(reasons(wl, {}, outcomes)) == 2 * 3 * 2
    refused = workloads.Outcome(rc=1, stderr="error: conjugacy oracle residual 5e-09 exceeds 1e-09")
    generic = workloads.Outcome(
        rc=1, stderr="error: generic-reduction oracle residual 5e-09 exceeds 1e-09")
    other = workloads.Outcome(rc=1, stderr="error: something else")
    wl.ops, outs = wl.ops[:3], [refused, generic, other]
    fails = wl.check(outs)
    assert [f.refusal for f in fails] == [True, False, False]
    # a refusal the reference does not list is a wrong answer
    assert not any(f.known for f in fails) and not workloads.is_correct(fails)
    wl.known_refusals = {wl.ops[0].label}
    fails = wl.check(outs)
    assert [f.known for f in fails] == [True, False, False]
    assert workloads.is_correct(fails[:1]) and not workloads.is_correct(fails)


def test_figures_maps_part_failures_to_its_own_ops(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Figures(0, {})
    assert [p.name for p in wl.parts] == ["fig2-mesh", "symline", "diagrams"]
    for part in wl.parts:
        monkeypatch.setattr(part, "gates", lambda outcomes: [(len(outcomes) - 1, "bad")])
    fails = wl.check([workloads.Outcome()] * len(wl.ops))
    assert [f.op for f in fails] == [2, 4, 7]
    assert wl.part_of_op() == ["fig2-mesh"] * 3 + ["symline"] * 2 + ["diagrams"] * 3


def test_refused_pool_map_counts_as_a_failed_operation(tmp_path, monkeypatch):
    """Pool map I-0274 is refused by to_normal_form at the reference commit:
    its conjugacy oracle residual (5.7e-9) exceeds ORACLE_TOL.  The benchmark
    counts it as a failed operation and as a refusal in the traced run, but,
    being listed in the reference, not as a wrong answer.  A change that
    makes to_normal_form accept it changes this test and perfbench/README.md."""
    monkeypatch.chdir(tmp_path)
    wl = workloads.Algebra(0, workloads.load_reference(runner.REFERENCE, "algebra"), {})
    assert wl.known_refusals == {"normal-form I-0274"}
    os.makedirs("maps", exist_ok=True)
    with open("maps/I-0274.json", "w") as fh:
        json.dump(maps.map_dict("I", 274), fh)
    wl._add(["normal-form", "maps/I-0274.json"], "normal-form", "I", 274)
    tracer = Tracer()
    reps = runner.rep_loop(wl, 0.0, tracer, layers.targets(tracer))
    assert [r["traced"] for r in reps] == [False, True]
    for rep in reps:
        assert [(f.refusal, f.known) for f in rep["failures"]] == [(True, True)]
        assert workloads.is_correct(rep["failures"])
    assert reps[1]["layers"]["normalform.to_normal_form.refused"] == 1
    assert reps[1]["layers"]["normalform.to_normal_form.calls"] == 1
