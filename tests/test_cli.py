import hashlib
import importlib
import json
import os
import pkgutil
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qvpmaps
from qvpmaps import AffineMap, QvpmapsError, build_shear, cli
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


@pytest.mark.parametrize("text, name", [
    ('[{"alpha": 0.0, "tau": 0.0, "a": 0.5, "b": 0.0, "c": 0.5}]', "parameters"),
    ('{"generic": {"alpha": 0.0, "a": 0.5, "b": 0.0, "c": 0.5}}', "tau"),
    ('{"generic": {"alpha": "x", "tau": 0.0, "a": 0.5, "b": 0.0, "c": 0.5}}', "alpha"),
], ids=["list", "no-tau", "alpha-string"])
def test_malformed_params_file_is_one_error_line(tmp_path, text, name):
    (tmp_path / "nf.json").write_text(text)
    cp = run_cli("fixed-points", "--params", tmp_path / "nf.json", "--out", tmp_path / "out.csv")
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], cp.stderr
    assert not (tmp_path / "out.csv").exists()


def test_params_file_numbers_may_be_strings(tmp_path):
    # every parameter goes through float(), the quadratic form's too
    outs = []
    for a in ("0.5", 0.5):
        (tmp_path / "nf.json").write_text(json.dumps(
            {"generic": {"alpha": -1.0, "tau": "0", "a": a, "b": 0, "c": 0.5}}))
        cp = run_cli("fixed-points", "--params", tmp_path / "nf.json", "--out", "-")
        assert cp.returncode == 0, cp.stderr
        outs.append(cp.stdout)
    assert outs[0] == outs[1]


def test_import_leaves_numpy_polynomial_unloaded():
    # symmetric_orbit_search reaches np.polynomial on first use; importing it
    # up front would cost every CLI call its load time
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    code = "import sys, qvpmaps.cli; print('numpy.polynomial' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": path})
    assert cp.stdout.strip() == "False", cp.stderr


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


def test_classify_symplectic_certifies_once(tmp_path, monkeypatch):
    # one is_symplectic certificate and one M(x)^2 = 0 residual per map
    from qvpmaps import symplectic

    calls = []

    def counted(name):
        real = getattr(symplectic, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(symplectic, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)

    counted("is_symplectic")
    counted("shear_square_residual")
    f, *_ = random_symplectic_quadmap(np.random.default_rng(91), 2)
    path = write_map(tmp_path / "symp.json", f)
    out = tmp_path / "rep.json"
    assert main(["classify", str(path), "--symplectic", "--out", str(out)]) == 0
    assert sorted(calls) == ["is_symplectic", "shear_square_residual"]
    assert np.asarray(json.loads(out.read_text())["B"]).shape == (2, 2, 2)


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


@pytest.mark.parametrize("excess, codes", [(1.5e-10, (2, 1)), (5e-11, (0, 0))])
def test_classify_and_normal_form_share_the_volume_threshold(tmp_path, excess, codes):
    # scaling the first output by 1 + excess moves det L alone: the
    # standard-form part, so its nilpotency residual, stays the same
    f, _, _, _ = random_case_map(np.random.default_rng(92), 3)
    f = f.after_affine(AffineMap(np.diag([1.0 + excess, 1.0, 1.0]), np.zeros(3)))
    path = str(write_map(tmp_path / "m.json", f))
    out = str(tmp_path / "o.json")
    assert (main(["classify", path, "--out", out]), main(["normal-form", path, "--out", out])) == codes


def test_every_error_derives_from_one_root():
    modules = [importlib.import_module(f"qvpmaps.{m.name}")
               for m in pkgutil.iter_modules(qvpmaps.__path__) if m.name != "__main__"]
    errors = {obj for mod in modules for obj in vars(mod).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)
              and obj.__module__.startswith("qvpmaps.")}
    assert len(errors) > 10
    assert [e.__qualname__ for e in errors
            if e is not cli.PredicateFailure and not issubclass(e, QvpmapsError)] == []


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


@pytest.mark.parametrize("argv, corner", [
    (["--nx", "1", "--ny", "3"], 'x="0.00"'),
    (["--nx", "3", "--ny", "1"], 'y="0.00"'),
    (["--plane", "t_s", "--nx", "1", "--ny", "1"], 'x="0.00" y="0.00"'),
], ids=["one-column", "one-row", "one-cell"])
def test_diagram_svg_of_a_one_point_axis(tmp_path, argv, corner):
    # a one-point axis puts its cells at the centre, so they span the image
    svg = tmp_path / "d.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagram", *argv, "--out", str(tmp_path / "d.csv"), "--svg", str(svg)]) == 0
    text = svg.read_text()
    rects = [line for line in text.splitlines() if line.startswith("<rect")]
    assert rects and all(corner in line for line in rects)
    assert "nan" not in text


@pytest.mark.parametrize("argv", [["--nx", "0"], ["--nx", "-3"], ["--plane", "t_s", "--ny", "0"]],
                         ids=["nx=0", "nx=-3", "t_s-ny=0"])
def test_diagram_empty_grid_is_one_error_line(tmp_path, argv):
    out = tmp_path / "d.csv"
    cp = run_cli("diagram", *argv, "--out", out)
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "nx" in lines[0], cp.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("argv, name", [
    (["manifold", "--ring-points", "0"], "ring_points"),
    (["manifold", "--ring-points", "-3"], "ring_points"),
    (["manifold", "--eps", "nan"], "eps"),
    (["manifold", "--refine", "inf"], "refine"),
    (["manifold", "--depth", "-1"], "depth"),
    (["symmetric", "--heteroclinic", "--samples", "-4"], "samples"),
    (["symmetric", "--period", "4", "--samples", "-4"], "samples"),
], ids=["ring-points=0", "ring-points=-3", "eps=nan", "refine=inf", "depth=-1",
        "heteroclinic-samples=-4", "period-samples=-4"])
def test_out_of_range_inputs_are_one_error_line(tmp_path, argv, name):
    out = tmp_path / "out.csv"
    where = ["--prefix", tmp_path / "m"] if argv[0] == "manifold" else ["--out", out]
    cp = run_cli(*argv, "--alpha", 0.0, "--tau", -0.3, *where)
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], cp.stderr
    assert list(tmp_path.iterdir()) == []


def test_symmetric_period_above_16_is_one_error_line(tmp_path):
    out = tmp_path / "out.csv"
    cp = run_cli("symmetric", "--alpha", 0.0, "--tau", 2.0, "--period", 17, "--out", out)
    assert cp.returncode == 1
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: period 17"), cp.stderr
    assert not out.exists()


def test_manifold_depth_zero_with_one_subring_names_the_ring_count(tmp_path):
    # real multipliers: one sub-ring per generation, so one ring and no band
    cp = run_cli("manifold", "--alpha", -0.3, "--tau", -2.6, "--a", 0.5, "--b", 0, "--c", 0.5,
                 "--depth", 0, "--prefix", tmp_path / "m")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: depth 0 grows 1 ring") and "box" not in cp.stderr
    assert list(tmp_path.iterdir()) == []


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


# --------------------------------------------------------------------------
# Writer parity: the block %-format writers against per-cell reference copies


def _ref_fmt(x):
    return format(float(x), ".17g")


def _ref_csv_text(meta, header, rows):
    """The CSV writer formatted one cell at a time."""
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(
            ",".join(_ref_fmt(c) if isinstance(c, (int, float, np.floating)) else str(c)
                     for c in row)
        )
    return "\n".join(lines) + "\n"


def _ref_mesh_obj(mesh, meta):
    """The OBJ writer formatted one vertex and one face at a time."""
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    for v in mesh.vertices:
        lines.append("v " + " ".join(_ref_fmt(c) for c in v))
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    return "\n".join(lines) + "\n"


def _ref_diagram_svg(diag, width=640, height=640):
    """The SVG writer with one f-string per rect."""
    xs, ys = diag.xs, diag.ys
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])

    def sx(x):
        return (x - x0) / (x1 - x0) * width

    def sy(y):
        return height - (y - y0) / (y1 - y0) * height

    palette = {
        "": "#bbbbbb",
        "type_A": "#4477aa",
        "type_B": "#ee6677",
        "elliptic_pair": "#ccbb44",
        "saddle_node_boundary": "#aa3377",
        "period_doubling_boundary": "#66ccee",
        "none": "#dddddd",
    }
    cw = width / len(xs)
    ch = height / len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if diag.plane == "tau_alpha":
        labels = diag.label_plus
        counts = diag.count
    else:
        labels = diag.label
        counts = None
    for i in range(len(ys)):
        for j in range(len(xs)):
            if counts is not None and counts[i, j] == 0:
                color = palette["none"]
            else:
                color = palette.get(labels[i, j], "#999999")
            x = sx(xs[j]) - cw / 2
            y = sy(ys[i]) - ch / 2
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                f'height="{ch:.2f}" fill="{color}"/>'
            )
    for name, arcs in sorted(diag.curves.items()):
        for arc in arcs:
            pts = [(sx(t), sy(a)) for t, a in arc if x0 <= t <= x1 and y0 <= a <= y1]
            if len(pts) < 2:
                continue
            path = "M " + " L ".join(f"{u:.2f} {v:.2f}" for u, v in pts)
            parts.append(
                f'<path d="{path}" fill="none" stroke="black" '
                f'stroke-width="1.2"><title>{name}</title></path>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ref_diagram_rows(diag):
    rows = []
    if diag.plane == "tau_alpha":
        for i, alpha in enumerate(diag.ys):
            for j, tau in enumerate(diag.xs):
                rows.append([tau, alpha, int(diag.count[i, j]),
                             diag.label_plus[i, j] or "none",
                             diag.label_minus[i, j] or "none", diag.phase_plus[i, j]])
    else:
        for i, s in enumerate(diag.ys):
            for j, t in enumerate(diag.xs):
                rows.append([t, s, diag.label[i, j]])
    return rows


def _assert_same_text(got, want):
    """got == want, reporting the first differing line (pytest's own diff of
    texts this long takes minutes)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        k = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {k + 1} differs: {g[k:k + 1]} != {w[k:k + 1]} "
                    f"({len(g)} against {len(w)} lines)")


def _spy(monkeypatch, name):
    """Record the (args, result) of every call of cli.<name>."""
    calls, real = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, spy)
    return calls


class TestWriterParity:
    """Every file the block writers produce equals the per-cell writers' text."""

    @pytest.mark.parametrize("plane", [
        ["--a", "0.5", "--b", "0", "--c", "0.5"],
        ["--a", "-0.5", "--b", "1", "--c", "0.5"],
        ["--plane", "t_s"],
    ], ids=["fig3", "fig4", "t_s"])
    def test_diagram(self, tmp_path, monkeypatch, plane):
        diags, texts = _spy(monkeypatch, "stability_diagram"), _spy(monkeypatch, "_csv_text")
        out, svg = tmp_path / "d.csv", tmp_path / "d.svg"
        argv = ["diagram", *plane, "--nx", "37", "--ny", "23", "--sigma", "0.3",
                "--out", str(out), "--svg", str(svg)]
        assert main(argv) == 0
        diag = diags[0][1]
        (meta, header, _), _ = texts[0]
        _assert_same_text(out.read_text(), _ref_csv_text(meta, header, _ref_diagram_rows(diag)))
        _assert_same_text(svg.read_text(), "<!-- " + json.dumps(meta, sort_keys=True) + " -->\n"
                          + _ref_diagram_svg(diag))

    def test_fig2_mesh(self, tmp_path, monkeypatch):
        objs = _spy(monkeypatch, "_mesh_obj")
        curves, texts = _spy(monkeypatch, "intersect_meshes"), _spy(monkeypatch, "_csv_text")
        prefix = tmp_path / "m"
        argv = ["manifold", "--alpha", "0", "--tau", "-0.3", "--eps", "0.36", "--depth", "8",
                "--ring-points", "16", "--prefix", str(prefix)]
        assert main(argv) == 0
        assert len(objs) == 2
        for (mesh, meta), text in objs:
            _assert_same_text(text, _ref_mesh_obj(mesh, meta))
            _assert_same_text((tmp_path / f"m_{meta['kind']}.obj").read_text(), text)
        (meta, header, _), _ = texts[0]
        rows = [[cid, *pt] for cid, c in enumerate(curves[0][1]) for pt in c.points]
        assert rows
        _assert_same_text((tmp_path / "m_curves.csv").read_text(), _ref_csv_text(meta, header, rows))

    @pytest.mark.parametrize("argv, path, status", [
        (["fixed-points", "--alpha", "5", "--tau", "0", "--out", "o.csv"], "o.csv", 0),
        (["symmetric", "--alpha", "0", "--tau", "-0.3", "--period", "4", "--samples", "400",
          "--out", "o.csv"], "o.csv", 0),
        (["manifold", "--alpha", "0", "--tau", "-0.3", "--eps", "0.05", "--depth", "1",
          "--ring-points", "8", "--prefix", "o"], "o_curves.csv", 2),
    ], ids=["fixed-points", "symmetric", "manifold"])
    def test_header_only(self, tmp_path, monkeypatch, argv, path, status):
        monkeypatch.chdir(tmp_path)
        texts = _spy(monkeypatch, "_csv_text")
        assert main(argv) == status
        (meta, header, _), text = texts[0]
        _assert_same_text(text, _ref_csv_text(meta, header, []))
        assert text.count("\n") == len(meta) + 1
        _assert_same_text((tmp_path / path).read_text(), text)

    def test_fixed_points_and_iterate(self, tmp_path, monkeypatch):
        fps, texts = _spy(monkeypatch, "fixed_points"), _spy(monkeypatch, "_csv_text")
        assert main(["fixed-points", "--alpha", "-1", "--tau", "0",
                     "--out", str(tmp_path / "f.csv")]) == 0
        rows = [[fp.which, *fp.location, fp.t, fp.s,
                 *[part for lam in fp.eigenvalues for part in (lam.real, lam.imag)],
                 fp.classification] for fp in fps[0][1]]
        (meta, header, _), text = texts[0]
        assert len(rows) == 2
        _assert_same_text(text, _ref_csv_text(meta, header, rows))
        orbits = _spy(monkeypatch, "iterate")
        assert main(["iterate", "--alpha", "0", "--tau", "-0.3", "--x0", "0.1", "--y0", "0.2",
                     "--z0", "0.05", "--steps", "300", "--out", str(tmp_path / "i.csv")]) == 0
        (meta, header, _), text = texts[1]
        rows = [[k, *pt] for k, pt in enumerate(orbits[0][1].points)]
        _assert_same_text(text, _ref_csv_text(meta, header, rows))

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 2048, 2500])
    def test_special_columns(self, n):
        rng = np.random.default_rng(1400 + n)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16,
                            1e300, -1e300, 1.0, 0.1, 2.0**53 + 2, 1e-300])
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(float)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        columns = [
            np.arange(n),
            np.resize(special, n),
            bits,
            scaled,
            np.resize(np.array(["type_A", "", "none", "a,b%s"], dtype=object), n),
            np.resize(np.array([True, False]), n),
            np.resize(np.array(["x", "%d"]), n),
            scaled.astype(np.longdouble) / 3,
        ]
        header = [f"c{k}" for k in range(len(columns))]
        rows = list(zip(*[c.tolist() if c.dtype != np.longdouble else list(c) for c in columns]))
        meta = {"tool": "qvpmaps", "n": n}
        _assert_same_text(cli._csv_text(meta, header, columns), _ref_csv_text(meta, header, rows))

    def test_percent_format_is_format(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hyp.given(st.floats())
        def check(x):
            assert "%.17g" % x == format(x, ".17g")
            assert "%.2f" % x == format(x, ".2f")

        check()


# --------------------------------------------------------------------------
# The figure outputs against the digests the benchmark recorded

BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
F2_FLAGS = ["--alpha", "0", "--tau", "-0.3", "--a", "0.5", "--b", "0", "--c", "0.5"]


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() in ("x86_64", "AMD64")),
    reason="the recorded digests are of x86-64 Linux outputs",
)
def test_figure_outputs_match_benchmark_digests(tmp_path, monkeypatch):
    """The benchmark's fig2 mesh, diagram and period-4 commands write the
    files it recorded, byte for byte (het.csv, one ulp off since its
    recording, is not run)."""
    argvs = [
        ["manifold", *F2_FLAGS, "--eps", "0.36", "--depth", "8", "--ring-points", "64",
         "--prefix", "fig2"],
        ["diagram", "--a", "0.5", "--b", "0", "--c", "0.5", "--nx", "100", "--ny", "100",
         "--out", "fig3.csv", "--svg", "fig3.svg"],
        ["diagram", "--a", "-0.5", "--b", "1", "--c", "0.5", "--nx", "100", "--ny", "100",
         "--out", "fig4.csv", "--svg", "fig4.svg"],
        ["diagram", "--plane", "t_s", "--nx", "100", "--ny", "100", "--out", "t_s.csv"],
        ["symmetric", *F2_FLAGS, "--period", "4", "--s-min", "-2", "--s-max", "2",
         "--samples", "10000", "--out", "period4.csv"],
    ]
    want = {}
    for name in ("fig2-mesh", "diagrams", "symline"):
        want.update(json.loads((BENCH_REFERENCE / f"{name}.json").read_text())["digests"])
    del want["het.csv"]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0, argv
    got = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()[:12] for path in want}
    assert got == want


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() in ("x86_64", "AMD64")),
    reason="the recorded digests are of x86-64 Linux outputs",
)
def test_algebra_outputs_match_benchmark_digests(tmp_path, monkeypatch):
    """Every 10th map of each pool category of the benchmark's algebra
    workload gives the classify, normal-form and classify --symplectic files
    it recorded, byte for byte; a command whose recorded digest is null is
    refused and writes no file."""
    spec = importlib.util.spec_from_file_location("bench_maps", BENCH_REFERENCE.parent / "maps.py")
    maps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maps)
    ref = json.loads((BENCH_REFERENCE / "algebra.json").read_text())
    assert ref["pool_seed"] == maps.POOL_SEED
    monkeypatch.chdir(tmp_path)
    (tmp_path / "maps").mkdir()
    (tmp_path / "out").mkdir()
    got, want = {}, {}
    for category, (size, _) in maps.CATEGORIES.items():
        if category in maps.CASE_DIM_Z:
            kinds = {"classify": ["classify"], "normal-form": ["normal-form"]}
        else:
            kinds = {"symplectic": ["classify", "--symplectic"]}
        for index in range(0, size, 10):
            stem = maps.stem(category, index)
            path = f"maps/{stem}.json"
            (tmp_path / path).write_text(json.dumps(maps.map_dict(category, index)))
            for kind, (cmd, *flags) in kinds.items():
                out = tmp_path / "out" / f"{stem}.{kind}.json"
                rc = main([cmd, path, *flags, "--out", str(out.relative_to(tmp_path))])
                want[out.name] = ref["digests"][category][kind][index]
                got[out.name] = (hashlib.sha256(out.read_bytes()).hexdigest()[:12]
                                 if out.exists() else None)
                assert (rc == 0) == (want[out.name] is not None), out.name
    assert len(got) == 660
    assert got == want


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() in ("x86_64", "AMD64")),
    reason="the recorded points are of x86-64 Linux outputs, with 80-bit long double",
)
def test_symline_outputs_pass_the_benchmark_gates(tmp_path, monkeypatch):
    """The benchmark's symline part, run once, passes its own gates: the 12
    het.csv points within 1e-7 of the recorded ones and an empty period-4
    set.  het.csv has no byte-identical digest, so this is its tier-1 check."""
    bench = BENCH_REFERENCE.parent
    modules = {}
    for name in ("maps", "workloads"):
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        # workloads.py imports maps.py as a top-level module, and its
        # dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    ref = json.loads((BENCH_REFERENCE / "symline.json").read_text())
    assert len(ref["heteroclinic"]) == 12 and ref["period4"] == []
    monkeypatch.chdir(tmp_path)
    symline = modules["workloads"].Symline(0, ref)
    outcomes = [op.run() for op in symline.ops]
    assert symline.check(outcomes) == []
