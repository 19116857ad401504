import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvpmaps
from qvpmaps import build_shear, cli
from qvpmaps.cli import main
from qvpmaps.dynamics import DynamicsError
from util import random_case_map, random_shear_data, random_symplectic_quadmap

# the directory this qvpmaps is imported from, first on the child's path
SRC_DIR = str(Path(qvpmaps.__file__).resolve().parent.parent)


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qvpmaps", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def write_map(path, m):
    path.write_text(json.dumps(m.to_dict()))
    return path


@pytest.fixture()
def shear_file(tmp_path):
    rng = np.random.default_rng(90)
    return write_map(tmp_path / "shear.json", build_shear(random_shear_data(rng)))


def test_help_runs():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "classify" in cp.stdout


def test_usage_error_is_exit_1():
    cp = run_cli("no-such-command")
    assert cp.returncode == 1


def test_missing_file_is_exit_1(tmp_path):
    cp = run_cli("classify", tmp_path / "nope.json")
    assert cp.returncode == 1


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3, "const": [0, 0, 0], }')
    cp = run_cli("classify", bad)
    assert cp.returncode == 1
    assert "line" in cp.stderr


@pytest.mark.parametrize(
    "field, index, token", [("quad", (0, 2, 2), "NaN"), ("linear", (1, 0), "Infinity")]
)
def test_non_finite_map_file_is_one_error_line(shear_file, tmp_path, field, index, token):
    data = json.loads(shear_file.read_text())
    row = data[field]
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@"', token))
    out = tmp_path / "rep.json"
    cp = run_cli("classify", bad, "--out", out)
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0], cp.stderr
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "params", "heteroclinic"])
def test_non_finite_parameters_are_one_error_line(tmp_path, source):
    argv = {
        "flags": ["fixed-points", "--alpha", "nan", "--tau", "0"],
        "params": ["fixed-points", "--params", tmp_path / "nf.json"],
        "heteroclinic": ["symmetric", "--alpha", "nan", "--tau", "-0.3", "--heteroclinic"],
    }[source]
    (tmp_path / "nf.json").write_text(
        '{"generic": {"alpha": NaN, "tau": 0.0, "a": 0.5, "b": 0.0, "c": 0.5}}'
    )
    cp = run_cli(*argv, "--out", tmp_path / "out.csv")
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "alpha" in lines[0], cp.stderr
    assert not (tmp_path / "out.csv").exists()


def test_classify_shear(shear_file, tmp_path):
    out = tmp_path / "report.json"
    cp = run_cli("classify", shear_file, "--out", out)
    assert cp.returncode == 0, cp.stderr
    rep = json.loads(out.read_text())
    assert rep["volume_preserving"]["value"] is True
    assert rep["quadratic_inverse"]["value"] is True
    assert rep["shear"]["value"] == "shear"
    assert "v" in rep["shear"] and "P" in rep["shear"]


def test_classify_non_vp_skips_later_predicates(tmp_path):
    quad = np.zeros((3, 3, 3))
    quad[0] = np.eye(3)
    from qvpmaps import QuadMap

    f = QuadMap.standard_form(quad)
    path = write_map(tmp_path / "ball.json", f)
    out = tmp_path / "rep.json"
    cp = run_cli("classify", path, "--out", out)
    assert cp.returncode == 2
    rep = json.loads(out.read_text())
    assert rep["volume_preserving"]["value"] is False
    assert rep["quadratic_inverse"]["skipped"] is True


def test_classify_symplectic(tmp_path):
    from util import random_symplectic_quadmap

    rng = np.random.default_rng(91)
    f, *_ = random_symplectic_quadmap(rng, 2)
    path = write_map(tmp_path / "symp.json", f)
    out = tmp_path / "rep.json"
    cp = run_cli("classify", path, "--symplectic", "--out", out)
    assert cp.returncode == 0, cp.stderr
    rep = json.loads(out.read_text())
    assert rep["symplectic"] is True
    B = np.asarray(rep["B"])
    assert B.shape == (2, 2, 2)
    lam = np.asarray(rep["lambda"])
    assert lam.shape == (4, 4)


def test_normal_form_file(tmp_path):
    rng = np.random.default_rng(92)
    f, _, _, _ = random_case_map(rng, 3)
    path = write_map(tmp_path / "m.json", f)
    out = tmp_path / "nf.json"
    cp = run_cli("normal-form", path, "--out", out)
    assert cp.returncode == 0, cp.stderr
    nf = json.loads(out.read_text())
    assert nf["case"] == "I"
    assert set(nf["conjugacy"]) == {"linear", "const"}
    assert nf["shear"] is not None
    assert nf["generic"] is not None
    assert abs(nf["generic"]["a"] + nf["generic"]["b"] + nf["generic"]["c"] - 1) < 1e-9


def test_normal_form_rejects_non_shear(tmp_path):
    from qvpmaps import QuadMap

    quad = np.zeros((3, 3, 3))
    quad[0, 1, 1] = 1.0
    quad[1, 2, 2] = 1.0
    path = write_map(tmp_path / "ns.json", QuadMap.standard_form(quad))
    cp = run_cli("normal-form", path, "--out", tmp_path / "o.json")
    assert cp.returncode == 2


def test_fixed_points_csv(tmp_path):
    out = tmp_path / "fps.csv"
    cp = run_cli(
        "fixed-points", "--alpha", -1.0, "--tau", 0.0, "--out", out
    )
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",")[0] == "which"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2


def test_fixed_points_from_normal_form_file(tmp_path):
    rng = np.random.default_rng(93)
    f, _, _, _ = random_case_map(rng, 3)
    mpath = write_map(tmp_path / "m.json", f)
    nfpath = tmp_path / "nf.json"
    assert run_cli("normal-form", mpath, "--out", nfpath).returncode == 0
    cp = run_cli("fixed-points", "--params", nfpath, "--out", tmp_path / "f.csv")
    assert cp.returncode == 0, cp.stderr


def test_conflicting_parameter_sources(tmp_path):
    cp = run_cli(
        "fixed-points", "--alpha", 0.0, "--params", tmp_path / "x.json"
    )
    assert cp.returncode == 1


def test_overflowing_parameters_are_one_error_line(tmp_path):
    cp = run_cli("fixed-points", "--alpha=-1e300", "--tau=0", "--out", tmp_path / "f.csv")
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), cp.stderr
    assert not (tmp_path / "f.csv").exists()


def test_iterate_escape_metadata(tmp_path):
    out = tmp_path / "orbit.csv"
    cp = run_cli(
        "iterate",
        "--alpha", 0.0, "--tau", 0.0,
        "--x0", 10.0, "--y0", 0.0, "--z0", 0.0,
        "--steps", 50, "--out", out,
    )
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    assert "# verdict = escaped-forward" in text
    assert "# asymptotic-axis = +x" in text



def _iterate_escaping(tmp_path, monkeypatch, error):
    def direction(orbit):
        raise error

    monkeypatch.setattr(cli, "asymptotic_direction", direction)
    out = tmp_path / "orbit.csv"
    argv = ["iterate", "--alpha", "0", "--tau", "0", "--x0", "10", "--y0", "0",
            "--z0", "0", "--steps", "50", "--out", str(out)]
    return main(argv), out


def test_iterate_unsettled_direction_omits_axis(tmp_path, monkeypatch):
    rc, out = _iterate_escaping(tmp_path, monkeypatch, DynamicsError("not settled"))
    assert rc == 0
    text = out.read_text()
    assert "# verdict = escaped-forward" in text
    assert "asymptotic-axis" not in text


def test_iterate_direction_bug_propagates(tmp_path, monkeypatch):
    # only DynamicsError means "no axis"; any other error is a fault to report
    with pytest.raises(RuntimeError, match="bug"):
        _iterate_escaping(tmp_path, monkeypatch, RuntimeError("bug"))

def test_diagram_deterministic_and_svg(tmp_path):
    args = [
        "diagram", "--a", 0.5, "--b", 0.0, "--c", 0.5, "--sigma", 0.0,
        "--nx", 12, "--ny", 10,
        "--tau-min", -3, "--tau-max", 3, "--alpha-min", -2, "--alpha-max", 2,
    ]
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    svg = tmp_path / "d.svg"
    assert run_cli(*args, "--out", out1, "--svg", svg).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg.read_text().startswith("<!--")
    assert "<svg" in svg.read_text()
    header = [
        l for l in out1.read_text().splitlines() if not l.startswith("#")
    ][0]
    assert header == "tau,alpha,count,class_plus,class_minus,phase_plus"


def test_manifold_outputs(tmp_path):
    prefix = tmp_path / "fig2"
    cp = run_cli(
        "manifold",
        "--alpha", 0.0, "--tau", -0.3, "--a", 0.5, "--b", 0.0, "--c", 0.5,
        "--eps", 0.36, "--depth", 8, "--prefix", prefix,
    )
    assert cp.returncode == 0, cp.stderr
    for suffix in ("_stable.obj", "_unstable.obj", "_stable.json", "_curves.csv"):
        assert (tmp_path / ("fig2" + suffix)).exists()
    obj = (tmp_path / "fig2_stable.obj").read_text().splitlines()
    assert obj[0].startswith("#")
    assert any(l.startswith("v ") for l in obj)
    assert any(l.startswith("f ") for l in obj)


def test_symmetric_search_cli(tmp_path):
    out = tmp_path / "sym.csv"
    cp = run_cli(
        "symmetric",
        "--alpha", 0.16, "--tau", 0.8, "--a", 0.5, "--b", 0.0, "--c", 0.5,
        "--period", 1, "--s-min", -2, "--s-max", 2, "--samples", 800,
        "--out", out,
    )
    assert cp.returncode == 0, cp.stderr
    assert "# found = " in out.read_text()


def test_symmetric_not_reversible(tmp_path):
    cp = run_cli(
        "symmetric", "--alpha", 0.0, "--tau", 0.0,
        "--a", 0.6, "--b", 0.0, "--c", 0.4,
    )
    assert cp.returncode == 2


def test_main_callable_in_process(tmp_path, shear_file):
    out = tmp_path / "rep.json"
    assert main(["classify", str(shear_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["shear"]["value"] == "shear"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, shear_file, capsys):
    assert cli.build_parser() is cli.build_parser()
    f, *_ = random_symplectic_quadmap(np.random.default_rng(94), 2)
    symp = write_map(tmp_path / "symp.json", f)
    assert main(["classify", str(symp), "--symplectic", "--out", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err == run_cli("no-such-command").stderr
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert main(["classify", str(shear_file)]) == 0
    out = capsys.readouterr().out
    assert out == run_cli("classify", shear_file).stdout
    assert "symplectic" not in json.loads(out)
