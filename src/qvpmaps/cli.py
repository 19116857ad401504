"""Command-line interface.

Subcommands cover the full pipeline: classify a map file, reduce it to
normal form, and compute fixed points, stability diagrams, orbits,
invariant-manifold meshes, and symmetric-orbit searches for the generic
family.  Outputs (JSON/CSV/SVG/OBJ) are deterministic for a fixed
configuration: every file embeds the effective options, numbers are written
with 17 significant digits, and files are written atomically.

Exit codes: 0 success, 2 predicate-failure results (e.g. not a shear),
1 errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .dynamics import (
    DynamicsError,
    GenericMapParams,
    asymptotic_direction,
    fixed_points,
    iterate,
    reversor_for,
    stability_diagram,
    symmetric_orbit_search,
)
from .manifold import grow_2d, heteroclinic_from_symmetry, intersect_meshes
from .normalform import (
    NotAShearError,
    QuadraticForm2,
    reduce_generic,
    to_normal_form,
    z_dimension,
)
from .polymap import DEFAULT_TOL, QuadMap, QvpmapsError
from .polymap import has_quadratic_inverse, is_volume_preserving
from .shear import AFFINE, NOT_A_SHEAR, extract_shear
from .symplectic import is_symplectic, shear_to_gradient_form

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PREDICATE = 2


class CliError(QvpmapsError):
    pass


class PredicateFailure(Exception):
    """Well-formed negative result (e.g. NotAShear) -> exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


#: Rows per % call in _body; one call per file holds every value of the
#: file and its template at once, and its peak memory showed.
_FORMAT_BLOCK = 1024


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qvpmaps-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _meta(args, keys):
    meta = {"tool": "qvpmaps", "version": __version__}
    for k in keys:
        v = getattr(args, k, None)
        meta[k.replace("_", "-")] = v
    return meta


def _body(line, columns):
    """`line % row` for each row of columns, each ended by a newline, with
    one % call per _FORMAT_BLOCK rows; columns are equal-length 1-D arrays
    (or the rows of one 2-D array)."""
    m, n = len(columns), len(columns[0])
    blocks = []
    for lo in range(0, n, _FORMAT_BLOCK):
        k = min(_FORMAT_BLOCK, n - lo)
        values = [None] * (k * m)
        for c, col in enumerate(columns):
            values[c::m] = col[lo:lo + k].tolist()
        blocks.append("\n".join([line] * k) % tuple(values) + "\n")
    return "".join(blocks)


def _csv_text(meta, header, columns):
    """CSV text: `# key = value` lines for meta in key order, the header, and
    one row per index of the columns (equal-length sequences).

    A column of bools, integers or floats is written cell by cell as
    format(float(x), ".17g") (by "%.17g", which gives the same text), any
    other column as str(x).
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join("%.17g" if a.dtype.kind in "biuf" else "%s" for a in columns)
    head = "".join(f"# {k} = {v}\n" for k, v in sorted(meta.items()))
    return head + ",".join(header) + "\n" + _body(line, columns)


def _load_map(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        )
    except OSError as exc:
        raise CliError(str(exc))
    try:
        return QuadMap.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: invalid map file: {exc}")


def _params_from_args(args):
    sources = [args.params is not None, args.alpha is not None]
    if sum(sources) != 1:
        raise CliError(
            "provide exactly one parameter source: --params FILE or "
            "--alpha/--tau/--sigma/--a/--b/--c"
        )
    if args.params is not None:
        try:
            with open(args.params) as fh:
                nf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"{args.params}: {exc}")
        block = nf.get("generic") or nf.get("params")
        if not block or "alpha" not in block:
            raise CliError(f"{args.params}: no usable generic/case-I parameters")
        return GenericMapParams.make(
            alpha=block["alpha"],
            tau=block["tau"],
            sigma=block.get("sigma", 0.0),
            a=block["a"],
            b=block["b"],
            c=block["c"],
        )
    return GenericMapParams.make(
        alpha=args.alpha,
        tau=args.tau,
        sigma=args.sigma,
        a=args.a,
        b=args.b,
        c=args.c,
    )


def _add_param_flags(sub):
    sub.add_argument("--params", help="normal-form JSON file with map parameters")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--sigma", type=float, default=0.0)
    sub.add_argument("--a", type=float, default=0.5)
    sub.add_argument("--b", type=float, default=0.0)
    sub.add_argument("--c", type=float, default=0.5)
    sub.add_argument(
        "--seed", type=int, default=0,
        help="seed for property-sampling checks (echoed into outputs)",
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_classify(args):
    m = _load_map(args.map_file)
    report = {"meta": _meta(args, ["map_file", "symplectic", "tol"])}
    tol = args.tol
    cert = is_volume_preserving(m, tol=tol)
    report["volume_preserving"] = {
        "value": bool(cert),
        "condition": cert.condition,
        "det_linear": cert.det_linear,
        "residual": cert.residual,
    }
    predicate_failed = not cert
    if cert:
        quad_inv = has_quadratic_inverse(m, tol=tol)
        report["quadratic_inverse"] = {"value": bool(quad_inv)}
        predicate_failed = predicate_failed or not quad_inv
        if quad_inv and m.dim == 3:
            T, s_part = m.standard_part()
            res = extract_shear(s_part)
            if res is AFFINE:
                report["shear"] = {"value": "affine"}
            elif res is NOT_A_SHEAR:
                report["shear"] = {"value": "not_a_shear"}
                predicate_failed = True
            else:
                report["shear"] = {"value": "shear", **res.to_dict()}
                report["case_tag"] = {
                    "dim_z": z_dimension(res.v, T.linear)
                }
        elif quad_inv:
            report["shear"] = {
                "value": "skipped",
                "reason": f"(v, P) extraction supports n=3 only (map has n={m.dim})",
            }
    else:
        report["quadratic_inverse"] = {"value": None, "skipped": True}
        report["shear"] = {"value": None, "skipped": True}
    if args.symplectic:
        if m.dim % 2:
            report["symplectic"] = False
            report["symplectic_note"] = "odd dimension"
            predicate_failed = True
        else:
            ok = is_symplectic(m)
            report["symplectic"] = bool(ok)
            if ok:
                form = shear_to_gradient_form(m.standard_part()[1])
                report["B"] = form.bcoef.tolist()
                report["lambda"] = form.lam.tolist()
            else:
                predicate_failed = True
    _emit(args.out, _json_text(report))
    return EXIT_PREDICATE if predicate_failed else EXIT_OK


def cmd_normal_form(args):
    m = _load_map(args.map_file)
    try:
        nf = to_normal_form(m)
    except NotAShearError as exc:
        _emit(args.out, _json_text({"error": "not_a_shear", "detail": str(exc)}))
        return EXIT_PREDICATE
    if nf.case == "I" and not args.no_generic:
        nf = reduce_generic(nf)
    payload = nf.to_dict()
    payload["meta"] = _meta(args, ["map_file", "no_generic"])
    _emit(args.out, _json_text(payload))
    return EXIT_OK


def cmd_fixed_points(args):
    p = _params_from_args(args)
    fps = fixed_points(p)
    loc = np.reshape([fp.location for fp in fps], (-1, 3))
    lam = np.reshape([fp.eigenvalues for fp in fps], (-1, 3))
    columns = [[fp.which for fp in fps], *loc.T, [fp.t for fp in fps], [fp.s for fp in fps]]
    for k in range(3):
        columns += [lam[:, k].real, lam[:, k].imag]
    columns.append([fp.classification for fp in fps])
    meta = _meta(args, ["alpha", "tau", "sigma", "a", "b", "c", "params", "seed"])
    meta["count"] = len(fps)
    text = _csv_text(
        meta,
        [
            "which",
            "x",
            "y",
            "z",
            "t",
            "s",
            "lambda1_re",
            "lambda1_im",
            "lambda2_re",
            "lambda2_im",
            "lambda3_re",
            "lambda3_im",
            "classification",
        ],
        columns,
    )
    _emit(args.out, text)
    return EXIT_OK


def _axis_px(v, lo, hi, size):
    """Pixel offset of v on the axis [lo, hi] drawn size pixels long; on a
    one-point axis (lo == hi) every v is at the centre."""
    if hi == lo:
        return 0.0 * v + size / 2
    return (v - lo) / (hi - lo) * size


def _diagram_svg(diag):
    width = height = 640
    xs, ys = diag.xs, diag.ys
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])

    def sx(x):
        return _axis_px(x, x0, x1, width)

    def sy(y):
        return height - _axis_px(y, y0, y1, height)

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
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    if diag.plane == "tau_alpha":
        labels = diag.label_plus
        counts = diag.count
    else:
        labels = diag.label
        counts = None
    colors = np.array([palette.get(c, "#999999") for c in labels.ravel().tolist()])
    if counts is not None:
        colors = np.where(counts.ravel() == 0, palette["none"], colors)
    rects = _body(
        f'<rect x="%.2f" y="%.2f" width="{cw:.2f}" height="{ch:.2f}" fill="%s"/>',
        [np.tile(sx(xs) - cw / 2, len(ys)), np.repeat(sy(ys) - ch / 2, len(xs)), colors],
    )
    paths = []
    for name, arcs in sorted(diag.curves.items()):
        for arc in arcs:
            pts = [
                (sx(t), sy(a))
                for t, a in arc
                if x0 <= t <= x1 and y0 <= a <= y1
            ]
            if len(pts) < 2:
                continue
            path = "M " + " L ".join(f"{u:.2f} {v:.2f}" for u, v in pts)
            paths.append(
                f'<path d="{path}" fill="none" stroke="black" '
                f'stroke-width="1.2"><title>{name}</title></path>\n'
            )
    return "".join([header, rects, *paths, "</svg>\n"])


def cmd_diagram(args):
    p = _params_from_args(args) if args.alpha is not None or args.params else None
    quad = (
        p.quad
        if p is not None
        else QuadraticForm2(args.a, args.b, args.c)
    )
    sigma = p.sigma if p is not None else args.sigma
    diag = stability_diagram(
        (args.tau_min, args.tau_max),
        (args.alpha_min, args.alpha_max),
        nx=args.nx,
        ny=args.ny,
        quad=quad,
        sigma=sigma,
        plane=args.plane,
    )
    meta = _meta(
        args,
        [
            "plane",
            "tau_min",
            "tau_max",
            "alpha_min",
            "alpha_max",
            "nx",
            "ny",
            "sigma",
            "a",
            "b",
            "c",
        ],
    )
    grid = [np.tile(diag.xs, len(diag.ys)), np.repeat(diag.ys, len(diag.xs))]
    if diag.plane == "tau_alpha":
        header = ["tau", "alpha", "count", "class_plus", "class_minus", "phase_plus"]
        columns = [
            *grid,
            diag.count.ravel(),
            np.where(diag.label_plus == "", "none", diag.label_plus).ravel(),
            np.where(diag.label_minus == "", "none", diag.label_minus).ravel(),
            diag.phase_plus.ravel(),
        ]
    else:
        header = ["t", "s", "classification"]
        columns = [*grid, diag.label.ravel()]
    _emit(args.out, _csv_text(meta, header, columns))
    if args.svg:
        _atomic_write(args.svg, "<!-- " + json.dumps(meta, sort_keys=True) + " -->\n" + _diagram_svg(diag))
    return EXIT_OK


def cmd_iterate(args):
    p = _params_from_args(args)
    x0 = np.array([args.x0, args.y0, args.z0])
    orbit = iterate(p, x0, args.steps, direction=args.direction)
    meta = _meta(
        args,
        ["alpha", "tau", "sigma", "a", "b", "c", "x0", "y0", "z0", "steps",
         "direction", "seed"],
    )
    meta["verdict"] = orbit.verdict
    meta["escape-time"] = orbit.escape_time
    meta["overflow"] = orbit.overflow
    if orbit.verdict != "bounded-so-far" and not orbit.overflow:
        try:
            rep = asymptotic_direction(orbit)
            meta["asymptotic-axis"] = rep.axis
        except DynamicsError:
            pass
    columns = [np.arange(len(orbit.points)), *orbit.points.T]
    _emit(args.out, _csv_text(meta, ["step", "x", "y", "z"], columns))
    return EXIT_OK


def _mesh_obj(mesh, meta):
    return (
        "# " + json.dumps(meta, sort_keys=True) + "\n"
        + _body("v %.17g %.17g %.17g", mesh.vertices.T)
        + _body("f %d %d %d", mesh.triangles.reshape(-1, 3).T + 1)
    )


def cmd_manifold(args):
    p = _params_from_args(args)
    fps = fixed_points(p)
    if len(fps) < 2:
        raise PredicateFailure("fewer than two fixed points; no heteroclinic pair")
    by_type = {fp.classification: fp for fp in fps}
    if "type_A" not in by_type or "type_B" not in by_type:
        raise PredicateFailure(
            "fixed points are not a type A / type B pair at these parameters"
        )
    fp_a, fp_b = by_type["type_A"], by_type["type_B"]
    meta = _meta(
        args,
        ["alpha", "tau", "sigma", "a", "b", "c", "eps", "depth", "refine",
         "ring_points", "prefix", "seed"],
    )
    stable = grow_2d(
        p, fp_a, "stable", eps=args.eps, depth=args.depth, refine=args.refine,
        ring_points=args.ring_points,
    )
    unstable = grow_2d(
        p, fp_b, "unstable", eps=args.eps, depth=args.depth, refine=args.refine,
        ring_points=args.ring_points,
    )
    curves = intersect_meshes(unstable, stable, reversor=reversor_for(p, seed=args.seed))
    prefix = args.prefix
    for name, mesh in (("stable", stable), ("unstable", unstable)):
        m = dict(meta)
        m["kind"] = name
        m["fixed-point"] = mesh.fixed_point.which
        _atomic_write(f"{prefix}_{name}.obj", _mesh_obj(mesh, m))
        sidecar = {
            "meta": m,
            "generations": mesh.generation.tolist(),
            "subrings": mesh.subrings,
            "eps": mesh.eps,
            "truncated": mesh.truncated,
        }
        _atomic_write(f"{prefix}_{name}.json", _json_text(sidecar))
    ids = np.repeat(np.arange(len(curves)), [len(c.points) for c in curves])
    xyz = np.vstack([np.empty((0, 3)), *(c.points for c in curves)])
    meta["curves"] = len(curves)
    _atomic_write(f"{prefix}_curves.csv",
                  _csv_text(meta, ["curve_id", "x", "y", "z"], [ids, *xyz.T]))
    if not curves:
        return EXIT_PREDICATE
    return EXIT_OK


def cmd_symmetric(args):
    p = _params_from_args(args)
    r = reversor_for(p, seed=args.seed)
    if r is None:
        raise PredicateFailure("map is not reversible (a != c)")
    if args.heteroclinic:
        pts = heteroclinic_from_symmetry(
            p, r, (args.s_min, args.s_max), samples=args.samples
        )
        pts = [pt.point for pt in pts]
    else:
        pts = symmetric_orbit_search(
            p, r, args.period, (args.s_min, args.s_max), samples=args.samples
        )
    xyz = np.reshape(pts, (-1, 3))
    meta = _meta(
        args,
        ["alpha", "tau", "sigma", "a", "b", "c", "period", "s_min", "s_max",
         "samples", "heteroclinic", "seed"],
    )
    meta["eta"] = r.eta
    meta["found"] = len(xyz)
    _emit(args.out, _csv_text(meta, ["x", "y", "z"], xyz.T))
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI parser, built once per process and shared; callers must not change it."""
    parser = _Parser(
        prog="qvpmaps",
        description=(
            "Quadratic volume-preserving maps: classification, normal forms, "
            "stability diagrams, orbits, and invariant manifolds."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="predicate chain for a map file")
    c.add_argument("map_file")
    c.add_argument("--symplectic", action="store_true")
    c.add_argument("--tol", type=float, default=DEFAULT_TOL)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("normal-form", help="reduce a map file to normal form")
    c.add_argument("map_file")
    c.add_argument("--no-generic", action="store_true")
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_normal_form)

    c = sub.add_parser("fixed-points", help="fixed points and stability")
    _add_param_flags(c)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_fixed_points)

    c = sub.add_parser("diagram", help="stability diagram over a parameter grid")
    _add_param_flags(c)
    c.add_argument("--plane", choices=["tau_alpha", "t_s"], default="tau_alpha")
    c.add_argument("--tau-min", type=float, default=-4.0)
    c.add_argument("--tau-max", type=float, default=4.0)
    c.add_argument("--alpha-min", type=float, default=-3.0)
    c.add_argument("--alpha-max", type=float, default=3.0)
    c.add_argument("--nx", type=int, default=50)
    c.add_argument("--ny", type=int, default=50)
    c.add_argument("--svg", default=None, help="also write an SVG rendering here")
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_diagram)

    c = sub.add_parser("iterate", help="orbit of the generic map")
    _add_param_flags(c)
    c.add_argument("--x0", type=float, required=True)
    c.add_argument("--y0", type=float, required=True)
    c.add_argument("--z0", type=float, required=True)
    c.add_argument("--steps", type=int, default=1000)
    c.add_argument("--direction", choices=["forward", "backward"], default="forward")
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_iterate)

    c = sub.add_parser("manifold", help="2D manifold meshes and intersections")
    _add_param_flags(c)
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--depth", type=int, default=6)
    c.add_argument("--refine", type=float, default=None)
    c.add_argument("--ring-points", type=int, default=64)
    c.add_argument("--prefix", default="manifold")
    c.set_defaults(func=cmd_manifold)

    c = sub.add_parser("symmetric", help="search along the reversor's fixed line")
    _add_param_flags(c)
    c.add_argument("--period", type=int, default=2)
    c.add_argument("--heteroclinic", action="store_true")
    c.add_argument("--s-min", type=float, default=-2.0)
    c.add_argument("--s-max", type=float, default=2.0)
    c.add_argument("--samples", type=int, default=400)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_symmetric)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PredicateFailure as exc:
        print(f"predicate failure: {exc}", file=sys.stderr)
        return EXIT_PREDICATE
    except QvpmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
