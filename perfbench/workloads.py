"""The workloads: their inputs, operations and correctness gates.

A workload object is built inside its working directory.  ``ops`` lists the
operations of one repetition of the input set, run one after the other; each
is one CLI invocation through ``qvpmaps.cli.main`` or one library call.
``check`` compares the outputs of the last repetition with semantic
reference data recorded at the reference commit and returns one ``Failure``
per failed operation.  ``observe`` extracts that semantic data, and is what
``record_reference.py`` stores.

Library functions are looked up on their module at call time, so a traced
run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

import maps

F2 = dict(alpha=0.0, tau=-0.3, a=0.5, b=0.0, c=0.5)
F2_FLAGS = ["--alpha", "0", "--tau", "-0.3", "--a", "0.5", "--b", "0", "--c", "0.5"]

HET_TOL = 1e-7
PERIODIC_TOL = 1e-9
#: What a normal-form refusal by to_normal_form's conjugacy oracle prints.
REFUSAL_MARK = "conjugacy oracle residual"

LABEL_CODES = {
    "none": ".",
    "type_A": "A",
    "type_B": "B",
    "elliptic_pair": "E",
    "saddle_node_boundary": "S",
    "period_doubling_boundary": "P",
}


@dataclass
class Outcome:
    """What one operation returned: a CLI exit code and its stderr, or a value."""

    rc: int | None = None
    stderr: str = ""
    value: object = None
    error: str | None = None


class Failure(NamedTuple):
    op: int
    reason: str
    #: a normal-form refusal: exit 1 with REFUSAL_MARK on stderr
    refusal: bool = False
    #: a refusal of an operation that was refused at the reference commit
    known: bool = False


def is_correct(failures):
    """No wrong output: every failure is a refusal known from the reference."""
    return all(f.known for f in failures)


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    outputs: list = field(default_factory=list)


def cli_call(argv):
    from qvpmaps import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return Outcome(rc=rc, stderr=err.getvalue())


def digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def read_csv(path):
    """(meta, header, rows) of a qvpmaps CSV file."""
    meta, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                k, _, v = line[2:].partition(" = ")
                meta[k] = v
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def read_obj(path):
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:]])
            elif line.startswith("f "):
                tris.append([int(x) - 1 for x in line.split()[1:]])
    return np.array(verts), np.array(tris, dtype=int)


def edge_bound(verts, tris):
    corners = verts[tris]
    return max(
        float(np.linalg.norm(corners[:, i] - corners[:, (i + 1) % 3], axis=1).max())
        for i in range(3)
    )


def match_points(found, ref, tol):
    """Reason the point sets differ (one-to-one within tol), or None."""
    if len(found) != len(ref):
        return f"{len(found)} points, reference has {len(ref)}"
    left = [np.asarray(r, dtype=float) for r in ref]
    for pt in found:
        d = [float(np.max(np.abs(pt - r))) for r in left]
        if not d or min(d) > tol:
            return f"point {pt.tolist()} is not within {tol:g} of a reference point"
        left.pop(int(np.argmin(d)))
    return None


class Workload:
    name = ""
    per_op_latency = False

    def __init__(self, seed, reference):
        self.seed = seed
        self.reference = reference
        self.ops = []
        self.known_refusals = set()

    def outputs(self):
        return [p for op in self.ops for p in op.outputs]

    def clean(self):
        for path in self.outputs():
            if os.path.exists(path):
                os.remove(path)

    def digests(self):
        return {path: digest(path) for path in self.outputs()}

    def identical_outputs(self):
        ref = self.reference.get("digests", {})
        return sum(1 for p, d in self.digests().items() if d is not None and ref.get(p) == d)

    def check(self, outcomes):
        """Failures of one repetition: a non-zero exit, an exception, or an
        output that fails its correctness gate."""
        failures = []
        for i, (op, out) in enumerate(zip(self.ops, outcomes)):
            if out.error is not None:
                failures.append(Failure(i, f"{op.label}: {out.error}"))
            elif out.rc not in (None, 0):
                refusal = out.rc == 1 and REFUSAL_MARK in out.stderr
                failures.append(Failure(
                    i, f"{op.label}: exit {out.rc}: {out.stderr.strip()}", refusal,
                    refusal and op.label in self.known_refusals))
        failed_ops = {f.op for f in failures}
        for i, reason in self.gates(outcomes):
            if i not in failed_ops:
                failures.append(Failure(i, f"{self.ops[i].label}: {reason}"))
                failed_ops.add(i)
        return failures

    def gates(self, outcomes):
        """(op index, reason) for each failed semantic check."""
        raise NotImplementedError

    def observe(self):
        raise NotImplementedError


class Fig2Mesh(Workload):
    """Fig. 2: invariant manifold meshes, their intersection curves, and the
    criterion-12 cross-check h(W^u) ~ W^s on the OBJ files written."""

    name = "fig2-mesh"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.files = {k: f"fig2_{k}" for k in ("stable", "unstable")}
        self.curves_csv = "fig2_curves.csv"
        argv = ["manifold", *F2_FLAGS, "--eps", "0.36", "--depth", "8",
                "--ring-points", "64", "--prefix", "fig2"]
        self.state = {}
        self.ops = [
            Op("manifold", lambda: cli_call(argv),
               [f"{f}.{ext}" for f in self.files.values() for ext in ("obj", "json")]
               + [self.curves_csv]),
            Op("reversor_for", self._reversor),
            Op("hausdorff_distance", self._hausdorff),
        ]

    def clean(self):
        self.state.clear()
        super().clean()

    def _reversor(self):
        from qvpmaps import dynamics

        p = dynamics.GenericMapParams.make(**F2)
        h = dynamics.reversor_for(p, seed=self.seed)
        if h is None:
            return Outcome(error="reversor_for returned None")
        vs, _ = read_obj(self.files["stable"] + ".obj")
        vu, _ = read_obj(self.files["unstable"] + ".obj")
        self.state.update(ws=vs, hu=np.array([h(v) for v in vu]))
        return Outcome(value=h.eta)

    def _hausdorff(self):
        from qvpmaps import manifold

        if "hu" not in self.state:
            return Outcome(error="no reversed unstable mesh")
        return Outcome(value=float(manifold.hausdorff_distance(self.state["hu"], self.state["ws"])))

    def observe(self):
        out = {}
        for kind, base in self.files.items():
            verts, tris = read_obj(base + ".obj")
            with open(base + ".json") as fh:
                side = json.load(fh)
            out[kind] = {"vertices": len(verts), "triangles": len(tris),
                         "subrings": side["subrings"]}
        _, _, rows = read_csv(self.curves_csv)
        out["curves"] = len({r[0] for r in rows})
        return out

    def gates(self, outcomes):
        ref = self.reference
        try:
            seen = self.observe()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            yield 0, f"outputs unreadable: {exc}"
            return
        for key in ("stable", "unstable", "curves"):
            if seen[key] != ref[key]:
                yield 0, f"{key} {seen[key]} != reference {ref[key]}"
                return
        meshes = [read_obj(f + ".obj") for f in self.files.values()]
        edge = max(edge_bound(v, t) for v, t in meshes)
        _, _, rows = read_csv(self.curves_csv)
        pts = np.array([[float(x) for x in r[1:]] for r in rows])
        agree = min(float(np.linalg.norm(pts - np.asarray(q), axis=1).min())
                    for q in ref["heteroclinic_points"])
        if not agree < edge:
            yield 0, f"curves {agree:.3g} from the heteroclinic points, edge bound {edge:.3g}"
        haus = outcomes[2].value
        if haus is not None and not haus < 2 * edge:
            yield 2, f"Hausdorff {haus:.3g} not below 2 x edge bound {edge:.3g}"


class Symline(Workload):
    """Searches along the reversor's fixed line: the heteroclinic points in
    extended precision, and the period-4 symmetric orbits."""

    name = "symline"

    def __init__(self, seed, reference, het_samples=200, period_samples=10000):
        super().__init__(seed, reference)
        het = ["symmetric", *F2_FLAGS, "--heteroclinic", "--s-min", "-0.35",
               "--s-max", "0.45", "--samples", str(het_samples), "--out", "het.csv"]
        per = ["symmetric", *F2_FLAGS, "--period", "4", "--s-min", "-2", "--s-max", "2",
               "--samples", str(period_samples), "--out", "period4.csv"]
        self.ops = [
            Op("symmetric --heteroclinic", lambda: cli_call(het), ["het.csv"]),
            Op("symmetric --period 4", lambda: cli_call(per), ["period4.csv"]),
        ]
        random.Random(seed).shuffle(self.ops)

    #: output file -> (reference key, tolerance)
    KEYS = {"het.csv": ("heteroclinic", HET_TOL), "period4.csv": ("period4", PERIODIC_TOL)}

    @staticmethod
    def _points(path):
        _, _, rows = read_csv(path)
        return [np.array([float(x) for x in r]) for r in rows]

    def observe(self):
        return {key: [p.tolist() for p in self._points(path)]
                for path, (key, _) in self.KEYS.items()}

    def gates(self, outcomes):
        for i, op in enumerate(self.ops):
            key, tol = self.KEYS[op.outputs[0]]
            try:
                found = self._points(op.outputs[0])
            except (OSError, ValueError) as exc:
                yield i, f"output unreadable: {exc}"
                continue
            reason = match_points(found, self.reference[key], tol)
            if reason:
                yield i, reason


class Diagrams(Workload):
    """Figs. 3-4: stability diagrams in (tau, alpha) for a definite and an
    indefinite Q, and the direct (t, s) classification."""

    name = "diagrams"

    FORMS = {"fig3": ("0.5", "0", "0.5"), "fig4": ("-0.5", "1", "0.5")}

    def __init__(self, seed, reference, n=100):
        super().__init__(seed, reference)
        grid = ["--nx", str(n), "--ny", str(n)]
        self.ops = []
        for name, (a, b, c) in self.FORMS.items():
            argv = ["diagram", "--a", a, "--b", b, "--c", c, *grid,
                    "--out", f"{name}.csv", "--svg", f"{name}.svg"]
            self.ops.append(Op(name, lambda argv=argv: cli_call(argv),
                               [f"{name}.csv", f"{name}.svg"]))
        argv = ["diagram", "--plane", "t_s", *grid, "--out", "t_s.csv"]
        self.ops.append(Op("t_s", lambda: cli_call(argv), ["t_s.csv"]))
        random.Random(seed).shuffle(self.ops)

    @staticmethod
    def _grids(path):
        _, header, rows = read_csv(path)
        n_x = len({r[0] for r in rows})
        cols = ["count", "class_plus", "class_minus"] if "count" in header else ["classification"]
        grids = {}
        for col in cols:
            k = header.index(col)
            cells = [r[k] if col == "count" else LABEL_CODES.get(r[k], "?") for r in rows]
            grids[col] = ["".join(cells[i:i + n_x]) for i in range(0, len(cells), n_x)]
        return grids

    def observe(self):
        return {op.label: self._grids(op.outputs[0]) for op in self.ops}

    def gates(self, outcomes):
        for i, op in enumerate(self.ops):
            try:
                seen = self._grids(op.outputs[0])
            except (OSError, ValueError) as exc:
                yield i, f"output unreadable: {exc}"
                continue
            ref = self.reference[op.label]
            for col, rows in ref.items():
                got = seen.get(col, [])
                bad = sum(a != b for r1, r2 in zip(rows, got) for a, b in zip(r1, r2))
                bad += abs(sum(map(len, rows)) - sum(map(len, got)))
                if bad:
                    yield i, f"{col}: {bad} cells differ from the reference"
                    break


class Algebra(Workload):
    """Map files through the predicate chain and the normal-form reduction
    (R^3 cases I/II/III) and the symplectic splitting (R^4, R^6)."""

    name = "algebra"
    #: many small operations of few kinds, so a latency distribution exists
    per_op_latency = True

    def __init__(self, seed, reference, categories=maps.CATEGORIES):
        super().__init__(seed, reference)
        os.makedirs("maps", exist_ok=True)
        os.makedirs("out", exist_ok=True)
        self.expected = {}
        # entries read "<op label>: <stderr>"
        self.known_refusals = {
            entry.partition(": ")[0] for entry in reference.get("refused_at_record", [])}
        for category, index in maps.input_set(seed, categories):
            stem = maps.stem(category, index)
            path = f"maps/{stem}.json"
            with open(path, "w") as fh:
                json.dump(maps.map_dict(category, index), fh)
            if category in maps.CASE_DIM_Z:
                self._add(["classify", path], "classify", category, index)
                self._add(["normal-form", path], "normal-form", category, index)
            else:
                self._add(["classify", path, "--symplectic"], "symplectic", category, index)

    def _add(self, argv, kind, category, index):
        stem = maps.stem(category, index)
        out = f"out/{stem}.{kind}.json"
        argv = [*argv, "--out", out]
        self.ops.append(Op(f"{kind} {stem}", lambda: cli_call(argv), [out]))
        self.expected[out] = (kind, category, index)

    def identical_outputs(self):
        ref = self.reference.get("digests", {})
        n = 0
        for path, d in self.digests().items():
            kind, category, index = self.expected[path]
            table = ref.get(category, {}).get(kind)
            n += d is not None and table is not None and table[index] == d
        return n

    def gates(self, outcomes):
        for i, op in enumerate(self.ops):
            if outcomes[i].rc != 0:
                continue
            path = op.outputs[0]
            kind, category, _ = self.expected[path]
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                yield i, f"output unreadable: {exc}"
                continue
            if kind == "normal-form":
                if doc.get("case") != category:
                    yield i, f"case {doc.get('case')!r}, constructed as {category}"
                elif category == "I" and not doc.get("generic"):
                    yield i, "case I without the generic reduction"
                continue
            if not (doc.get("volume_preserving", {}).get("value")
                    and doc.get("quadratic_inverse", {}).get("value")):
                yield i, "not recognised as volume preserving with a quadratic inverse"
            elif kind == "classify":
                got = doc.get("case_tag", {}).get("dim_z")
                if got != maps.CASE_DIM_Z[category]:
                    yield i, f"dim_z {got}, constructed as case {category}"
            elif doc.get("symplectic") is not True:
                yield i, "symplectic map not recognised as symplectic"


class Figures(Workload):
    """The three figure pipelines as one input set: the Fig. 2 meshes, the
    symmetry-line searches and the stability diagrams, in this order."""

    name = "figures"
    PARTS = (Fig2Mesh, Symline, Diagrams)

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.parts = [cls(seed, reference.get(cls.name, {})) for cls in self.PARTS]
        self.ops = [op for part in self.parts for op in part.ops]

    def part_of_op(self):
        return [part.name for part in self.parts for _ in part.ops]

    def clean(self):
        for part in self.parts:
            part.clean()

    def identical_outputs(self):
        return sum(part.identical_outputs() for part in self.parts)

    def gates(self, outcomes):
        start = 0
        for part in self.parts:
            n = len(part.ops)
            for i, reason in part.gates(outcomes[start:start + n]):
                yield start + i, reason
            start += n


WORKLOADS = {w.name: w for w in (Figures, Algebra)}


def load_reference(ref_dir, name):
    def load(n):
        with open(os.path.join(ref_dir, f"{n}.json")) as fh:
            return json.load(fh)

    if name == Figures.name:
        return {cls.name: load(cls.name) for cls in Figures.PARTS}
    return load(name)
