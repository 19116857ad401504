"""Stable/unstable manifolds of the generic map's fixed points.

2D manifolds are grown ring by ring from a seed circle in the invariant
eigenplane (with fractional sub-rings so the strong rotation of complex
pairs does not shear the bands), 1D manifolds from a fundamental segment
along the eigenvector.  Mesh pairs are intersected triangle by triangle and
the segments stitched into heteroclinic polylines; the reversor gives an
independent one-dimensional search for heteroclinic points on its fixed
line, used to cross-validate the meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DynamicsError,
    FixedPointReport,
    GenericMapParams,
    escape_bound,
    fixed_points,
)
from .normalform import QuadraticForm2

HYPERBOLIC_TOL = 1e-9
STITCH_TOL = 1e-9


class ManifoldError(DynamicsError):
    pass


class NonHyperbolicError(ManifoldError):
    pass


@dataclass(frozen=True)
class InvariantSplit:
    """Real bases of the stable/unstable invariant subspaces at a fixed point."""

    stable_values: np.ndarray
    stable_basis: np.ndarray  # (3, dim_stable)
    unstable_values: np.ndarray
    unstable_basis: np.ndarray

    def subspace(self, kind):
        if kind == "stable":
            return self.stable_values, self.stable_basis
        if kind == "unstable":
            return self.unstable_values, self.unstable_basis
        raise ManifoldError("kind must be 'stable' or 'unstable'")


def linear_data(p, fp, tol=HYPERBOLIC_TOL):
    """Eigen-split of the linearization at a hyperbolic fixed point.

    Complex pairs contribute the real 2-plane spanned by the real and
    imaginary parts of one eigenvector; dimensions add up to 3.
    """
    J = p.jacobian(fp.location)
    vals, vecs = np.linalg.eig(J)
    if np.any(np.abs(np.abs(vals) - 1.0) <= tol):
        raise NonHyperbolicError(
            f"fixed point is not hyperbolic (moduli {np.abs(vals)})"
        )
    groups = {"stable": ([], []), "unstable": ([], [])}
    used = np.zeros(3, dtype=bool)
    for i in range(3):
        if used[i]:
            continue
        lam, w = vals[i], vecs[:, i]
        side = "stable" if abs(lam) < 1.0 else "unstable"
        if abs(lam.imag) > tol:
            j = next(
                k
                for k in range(3)
                if not used[k] and k != i and abs(vals[k] - np.conj(lam)) < 1e-8 * (1 + abs(lam))
            )
            used[i] = used[j] = True
            u, v = np.real(w), np.imag(w)
            groups[side][0].extend([lam, np.conj(lam)])
            groups[side][1].extend([u / np.linalg.norm(u), v / np.linalg.norm(v)])
        else:
            used[i] = True
            wr = np.real(w)
            groups[side][0].append(lam)
            groups[side][1].append(wr / np.linalg.norm(wr))
    def pack(side):
        vals_s, vecs_s = groups[side]
        basis = np.column_stack(vecs_s) if vecs_s else np.zeros((3, 0))
        return np.asarray(vals_s, dtype=complex), basis
    sv, sb = pack("stable")
    uv, ub = pack("unstable")
    return InvariantSplit(sv, sb, uv, ub)


@dataclass
class ManifoldMesh:
    """Triangulated 2D invariant manifold grown from a fixed point."""

    vertices: np.ndarray
    triangles: np.ndarray
    generation: np.ndarray
    phi: np.ndarray
    ring_of_vertex: np.ndarray
    fixed_point: FixedPointReport
    kind: str
    eps: float
    depth: int
    subrings: int
    truncated: bool = False
    params: GenericMapParams | None = None

    def edge_length_bound(self):
        t = self.triangles
        v = self.vertices
        worst = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            d = np.linalg.norm(v[t[:, a]] - v[t[:, b]], axis=1)
            worst = max(worst, float(d.max())) if d.size else worst
        return worst

    def generation_area(self, g):
        """Total triangle area of the band whose inner ring has generation g."""
        v, t = self.vertices, self.triangles
        sel = self.generation[t].min(axis=1) == g
        tt = t[sel]
        if not len(tt):
            return 0.0
        cr = np.cross(v[tt[:, 1]] - v[tt[:, 0]], v[tt[:, 2]] - v[tt[:, 0]])
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())


def _frac_power_2x2(B, t):
    """Principal fractional power of a real 2x2 matrix with no negative-real
    eigenvalues."""
    vals, vecs = np.linalg.eig(B.astype(complex))
    if np.any((vals.real <= 0) & (np.abs(vals.imag) < 1e-14)):
        raise ManifoldError("fractional power undefined for negative eigenvalues")
    P = vecs @ np.diag(vals**t) @ np.linalg.inv(vecs)
    return np.real(P)


def _default_box(p, scale=1.5):
    if p.quad.is_positive_definite():
        k = escape_bound(p.quad, p.alpha, p.tau, p.sigma)
        return scale * k
    return None


def grow_2d(
    p,
    fp,
    kind,
    eps=None,
    depth=6,
    refine=None,
    ring_points=64,
    box=None,
    max_ring_points=4096,
):
    """Grow a triangulated 2D stable/unstable manifold mesh.

    The seed annulus is one fundamental domain of the linearized dynamics in
    the invariant plane, sampled by ``subrings`` intermediate circles so
    consecutive rings differ by a small rotation/scaling; ring k + subrings is
    the exact image of ring k under the map (unstable) or its inverse
    (stable).  Ring edges longer than ``refine`` are split by inserting the
    seed-parameter midpoint and pushing it forward.  Growth is truncated with
    a flag when a ring leaves the bounding box (default: the escape cube
    scaled by 1.5 when Q is positive definite).
    """
    split = linear_data(p, fp)
    vals, basis = split.subspace(kind)
    if basis.shape[1] != 2:
        raise ManifoldError(f"{kind} subspace is not two-dimensional")
    step = p.step if kind == "unstable" else p.step_back
    J = p.jacobian(fp.location)
    A = J if kind == "unstable" else np.linalg.inv(J)
    B = np.linalg.lstsq(basis, A @ basis, rcond=None)[0]
    lam_growth = np.linalg.eigvals(B)
    rho = float(np.max(np.abs(lam_growth)))
    if eps is None:
        eps = 1e-4 * (1.0 + float(np.max(np.abs(fp.location))))
    if box is None:
        box = _default_box(p)
    if refine is None:
        refine = 2.5 * (2 * math.pi / ring_points) * eps * rho ** (depth + 1)

    complex_pair = abs(lam_growth[0].imag) > 1e-12
    negative_real = np.any(
        (np.abs(lam_growth.imag) < 1e-12) & (lam_growth.real < 0)
    )
    if negative_real:
        m = 1
    elif complex_pair:
        theta = abs(np.angle(lam_growth[0]))
        m = max(1, int(math.ceil(theta / 0.35)))
    else:
        m = max(1, int(math.ceil(math.log(max(rho, 1.0 + 1e-12)) / math.log(1.6))))
    fracs = None
    if m > 1:
        fracs = [_frac_power_2x2(B, j / m) for j in range(m)]

    x_star = fp.location

    def ring(k, phis):
        """Vertices of ring k at seed parameters phis: the seeds on sub-ring
        k % m, pushed k // m steps together."""
        seeds = []
        for phi in phis:
            c = eps * np.array([math.cos(phi), math.sin(phi)])
            if fracs is not None:
                c = fracs[k % m] @ c
            seeds.append(x_star + basis @ c)
        pts = np.array(seeds)
        for _ in range(k // m):
            pts = step(pts)
        return pts

    # rotation of the seed parameter per sub-ring, so bands are stitched
    # between physically adjacent vertices despite the spiral
    one = fracs[1] if (fracs is not None and m > 1) else B
    spin = math.atan2(one[1, 0], one[0, 0]) if complex_pair else 0.0
    if fracs is None and complex_pair:
        spin = float(np.angle(lam_growth[0]))

    n_rings = m * (depth + 1)
    rings_phi = []
    rings_pts = []
    truncated = False
    for k in range(n_rings):
        phis = list(np.linspace(0.0, 2 * math.pi, ring_points, endpoint=False))
        pts = ring(k, phis)
        # split long edges by seed-parameter midpoints
        changed = True
        while changed and len(phis) < max_ring_points:
            changed = False
            out_phis = []
            for i in range(len(phis)):
                nxt = (i + 1) % len(phis)
                out_phis.append(phis[i])
                gap = np.linalg.norm(pts[nxt] - pts[i])
                if gap > refine:
                    dphi = (phis[nxt] - phis[i]) % (2 * math.pi)
                    if dphi > 1e-12:
                        out_phis.append(phis[i] + dphi / 2.0)
                        changed = True
            if changed:
                phis = sorted(f % (2 * math.pi) for f in out_phis)
                pts = ring(k, phis)
        if box is not None and np.max(np.abs(pts)) > box:
            truncated = True
            break
        rings_phi.append(np.asarray(phis))
        rings_pts.append(pts)

    if len(rings_pts) < 2:
        raise ManifoldError("bounding box truncated the mesh before one band")

    offsets = np.cumsum([0] + [len(r) for r in rings_pts])
    vertices = np.vstack(rings_pts)
    phi_all = np.concatenate(rings_phi)
    ring_idx = np.concatenate(
        [np.full(len(r), k) for k, r in enumerate(rings_pts)]
    )
    gen = ring_idx // m
    tris = []
    for k in range(len(rings_pts) - 1):
        adj_a = (rings_phi[k] + k * spin) % (2 * math.pi)
        adj_b = (rings_phi[k + 1] + (k + 1) * spin) % (2 * math.pi)
        order_a = np.argsort(adj_a, kind="stable")
        order_b = np.argsort(adj_b, kind="stable")
        tris.extend(
            _stitch_band(
                adj_a[order_a],
                offsets[k] + order_a,
                adj_b[order_b],
                offsets[k + 1] + order_b,
            )
        )
    return ManifoldMesh(
        vertices=vertices,
        triangles=np.asarray(tris, dtype=int),
        generation=gen,
        phi=phi_all,
        ring_of_vertex=ring_idx,
        fixed_point=fp,
        kind=kind,
        eps=float(eps),
        depth=int(depth),
        subrings=m,
        truncated=truncated,
        params=p,
    )


def _stitch_band(pa, idx_a, pb, idx_b):
    """Triangle strip between two angle-sorted rings.

    pa/pb are sorted angles, idx_a/idx_b the matching global vertex indices;
    the walk advances whichever ring has the smaller next angle, producing
    len(pa) + len(pb) triangles covering the band.
    """
    na, nb = len(pa), len(pb)
    tris = []
    ia = ib = 0
    ca = cb = 0
    while ca < na or cb < nb:
        pa_next = pa[(ia + 1) % na] + (2 * math.pi if ia + 1 >= na else 0.0)
        pb_next = pb[(ib + 1) % nb] + (2 * math.pi if ib + 1 >= nb else 0.0)
        if ca < na and (cb >= nb or pa_next <= pb_next):
            tris.append(
                (idx_a[ia % na], idx_b[ib % nb], idx_a[(ia + 1) % na])
            )
            ia += 1
            ca += 1
        else:
            tris.append(
                (idx_a[ia % na], idx_b[ib % nb], idx_b[(ib + 1) % nb])
            )
            ib += 1
            cb += 1
    return tris


@dataclass
class ManifoldBranch:
    """Polyline branch of a 1D invariant manifold."""

    points: np.ndarray
    generation: np.ndarray
    sign: int
    kind: str
    fixed_point: FixedPointReport
    double_step: bool = False
    truncated: bool = False


def grow_1d(p, fp, kind, eps=None, depth=8, refine=None, seed_points=8, box=None,
            max_points=20000):
    """Grow the two branches of a 1D stable/unstable manifold.

    Each branch starts from a fundamental segment [eps, |lambda| eps] along
    the eigenvector (geometric spacing) and is extended generation by
    generation; gaps longer than ``refine`` insert seed-parameter midpoints.
    A negative multiplier swaps the branches under one step, so growth then
    uses the second iterate per branch.
    """
    split = linear_data(p, fp)
    vals, basis = split.subspace(kind)
    if basis.shape[1] != 1:
        raise ManifoldError(f"{kind} subspace is not one-dimensional")
    w = basis[:, 0]
    lam = vals[0].real
    step = p.step if kind == "unstable" else p.step_back
    growth = lam if kind == "unstable" else 1.0 / lam
    double = growth < 0
    if double:
        base_step = step
        step = lambda pt: base_step(base_step(pt))
        growth = growth * growth
    growth = abs(growth)
    if eps is None:
        eps = 1e-4 * (1.0 + float(np.max(np.abs(fp.location))))
    if box is None:
        box = _default_box(p)
    if refine is None:
        refine = 0.25 * eps * growth ** (depth + 1)

    branches = []
    for sign in (+1, -1):
        def push(entries):
            """The points of (g, s) entries: the seeds at s stepped in
            lockstep, each row stopping at its own generation g."""
            gens = np.array([g for g, _ in entries])
            pts = np.array([fp.location + sign * eps * growth**s * w for _, s in entries])
            for g in range(1, gens.max() + 1):
                live = gens >= g
                pts[live] = step(pts[live])
            return pts

        entries = []  # (g, s)
        for g in range(depth + 1):
            for s in np.linspace(0.0, 1.0, seed_points, endpoint=False):
                entries.append((g, float(s)))
        pts = push(entries)
        truncated = False
        # refinement on the chained polyline
        changed = True
        while changed and len(entries) < max_points:
            changed = False
            new_entries = []
            for i in range(len(entries)):
                new_entries.append(entries[i])
                if i + 1 >= len(entries):
                    break
                if np.linalg.norm(pts[i + 1] - pts[i]) > refine:
                    g1, s1 = entries[i]
                    g2, s2 = entries[i + 1]
                    if g1 == g2:
                        new_entries.append((g1, 0.5 * (s1 + s2)))
                    else:
                        new_entries.append((g1, 0.5 * (s1 + 1.0)))
                    changed = True
            if changed:
                entries = sorted(set(new_entries))
                pts = push(entries)
        if box is not None:
            inside = np.max(np.abs(pts), axis=1) <= box
            if not inside.all():
                cut = int(np.argmin(inside))
                pts = pts[:cut]
                entries = entries[:cut]
                truncated = True
        branches.append(
            ManifoldBranch(
                points=pts,
                generation=np.asarray([g for g, _ in entries]),
                sign=sign,
                kind=kind,
                fixed_point=fp,
                double_step=double,
                truncated=truncated,
            )
        )
    return branches[0], branches[1]


# ---------------------------------------------------------------------------
# triangle-triangle intersection and polyline extraction


def _plane_chord(tri, dists):
    pts = []
    for i in range(3):
        j = (i + 1) % 3
        di, dj = dists[i], dists[j]
        if di == 0.0 and dj == 0.0:
            continue
        if di == 0.0:
            pts.append(tri[i])
        elif di * dj < 0.0:
            t = di / (di - dj)
            pts.append(tri[i] + t * (tri[j] - tri[i]))
    if len(pts) < 2:
        return None
    return pts[0], pts[1]


def _tri_tri_segment(t1, t2, min_len=1e-12):
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    d1 = (t1 - t2[0]) @ n2
    if np.all(d1 > 0) or np.all(d1 < 0):
        return None
    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    d2 = (t2 - t1[0]) @ n1
    if np.all(d2 > 0) or np.all(d2 < 0):
        return None
    direction = np.cross(n1, n2)
    norm = np.linalg.norm(direction)
    if norm < 1e-14 * max(np.linalg.norm(n1) * np.linalg.norm(n2), 1e-30):
        return None  # near-coplanar pair: no transversal segment
    direction = direction / norm
    c1 = _plane_chord(t1, d1)
    c2 = _plane_chord(t2, d2)
    if c1 is None or c2 is None:
        return None
    s1 = sorted((float(direction @ c1[0]), float(direction @ c1[1])))
    s2 = sorted((float(direction @ c2[0]), float(direction @ c2[1])))
    lo, hi = max(s1[0], s2[0]), min(s1[1], s2[1])
    if hi - lo <= min_len:
        return None
    base = c1[0]
    s_base = float(direction @ base)
    return base + (lo - s_base) * direction, base + (hi - s_base) * direction


def _tri_aabbs(vertices, triangles):
    corners = vertices[triangles]
    return corners.min(axis=1), corners.max(axis=1)


def _candidate_pairs(mesh_a, mesh_b):
    amin, amax = _tri_aabbs(mesh_a.vertices, mesh_a.triangles)
    bmin, bmax = _tri_aabbs(mesh_b.vertices, mesh_b.triangles)
    cell = max(mesh_a.edge_length_bound(), mesh_b.edge_length_bound(), 1e-9)
    grid = {}
    for idx in range(len(amin)):
        lo = np.floor(amin[idx] / cell).astype(int)
        hi = np.floor(amax[idx] / cell).astype(int)
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    grid.setdefault((i, j, k), []).append(idx)
    for idx in range(len(bmin)):
        lo = np.floor(bmin[idx] / cell).astype(int)
        hi = np.floor(bmax[idx] / cell).astype(int)
        seen = set()
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                for k in range(lo[2], hi[2] + 1):
                    for a_idx in grid.get((i, j, k), ()):
                        if a_idx in seen:
                            continue
                        seen.add(a_idx)
                        if np.all(amin[a_idx] <= bmax[idx]) and np.all(
                            bmin[idx] <= amax[a_idx]
                        ):
                            yield a_idx, idx


def _stitch_segments(segments, tol=STITCH_TOL):
    """Join segments sharing endpoints (within tol) into ordered polylines."""
    def key(pt):
        return tuple(np.round(pt / tol).astype(np.int64))

    nodes = {}
    for sid, (a, b) in enumerate(segments):
        nodes.setdefault(key(a), []).append((sid, 0))
        nodes.setdefault(key(b), []).append((sid, 1))
    used = [False] * len(segments)
    polylines = []

    def walk(sid, end):
        pts = [segments[sid][1 - end], segments[sid][end]]
        used[sid] = True
        while True:
            k = key(pts[-1])
            nxt = [
                (s, e) for s, e in nodes.get(k, ()) if not used[s]
            ]
            if not nxt:
                break
            s, e = nxt[0]
            used[s] = True
            pts.append(segments[s][1 - e])
        return pts

    # open chains first: endpoints of degree 1
    for k, ends in nodes.items():
        live = [(s, e) for s, e in ends if not used[s]]
        if len(live) == 1:
            s, e = live[0]
            polylines.append(walk(s, 1 - e))
    for sid in range(len(segments)):
        if not used[sid]:
            polylines.append(walk(sid, 1))
    return [np.asarray(p) for p in polylines]


@dataclass
class HeteroclinicCurve:
    """Oriented polyline in the intersection of two manifold meshes."""

    points: np.ndarray
    closed: bool
    crosses_fix: bool = False
    fix_point: np.ndarray | None = None
    tangent_at_fix: np.ndarray | None = None
    endpoint_info: dict = field(default_factory=dict)

    def length(self):
        return float(
            np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1))
        )

    def min_distance_to(self, pt):
        return float(
            np.min(np.linalg.norm(self.points - np.asarray(pt), axis=1))
        )


def _mesh_normal_near(mesh, pt):
    d = np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1) - pt, axis=1)
    tri = mesh.triangles[int(np.argmin(d))]
    v = mesh.vertices
    n = np.cross(v[tri[1]] - v[tri[0]], v[tri[2]] - v[tri[0]])
    nn = np.linalg.norm(n)
    return n / nn if nn > 0 else n


def intersect_meshes(mesh_a, mesh_b, reversor=None, stitch_tol=STITCH_TOL):
    """Heteroclinic (or homoclinic) polylines from triangle-pair intersections.

    Segments from straddling triangle pairs are stitched by shared endpoints;
    when a reversor is supplied, each polyline is checked for a crossing of
    Fix(h) and the tangent direction n x Dh(x) n is attached there, with n
    the normal of the stable-side mesh.
    """
    segments = []
    va, ta = mesh_a.vertices, mesh_a.triangles
    vb, tb = mesh_b.vertices, mesh_b.triangles
    for ia, ib in _candidate_pairs(mesh_a, mesh_b):
        seg = _tri_tri_segment(va[ta[ia]], vb[tb[ib]])
        if seg is not None:
            segments.append(seg)
    if not segments:
        return []
    polylines = _stitch_segments(segments, stitch_tol)
    edge_bound = max(mesh_a.edge_length_bound(), mesh_b.edge_length_bound())
    curves = []
    for pts in polylines:
        closed = bool(np.linalg.norm(pts[0] - pts[-1]) <= 10 * stitch_tol)
        info = {}
        if not closed:
            for name, end in (("start", pts[0]), ("end", pts[-1])):
                d_a = float(np.linalg.norm(end - mesh_a.fixed_point.location))
                d_b = float(np.linalg.norm(end - mesh_b.fixed_point.location))
                info[name] = {
                    "point": end.tolist(),
                    f"dist_{mesh_a.kind}_fp": d_a,
                    f"dist_{mesh_b.kind}_fp": d_b,
                }
        curve = HeteroclinicCurve(points=pts, closed=closed, endpoint_info=info)
        if reversor is not None:
            _flag_fix_crossing(curve, reversor, mesh_a, mesh_b, edge_bound)
        curves.append(curve)
    curves.sort(key=lambda c: -c.length())
    return curves


def _flag_fix_crossing(curve, reversor, mesh_a, mesh_b, edge_bound):
    pts = curve.points
    c1 = pts[:, 0] + pts[:, 2] + reversor.eta
    c2 = pts[:, 1] + reversor.eta / 2.0
    score = np.hypot(c1, c2)
    i = int(np.argmin(score))
    best = pts[i]
    best_score = score[i]
    # refine on the segments adjacent to the best vertex: zero of c1
    for j in (i - 1, i):
        if 0 <= j < len(pts) - 1:
            a, b = c1[j], c1[j + 1]
            if a != b and a * b <= 0:
                t = a / (a - b)
                cand = pts[j] + t * (pts[j + 1] - pts[j])
                s = math.hypot(
                    cand[0] + cand[2] + reversor.eta,
                    cand[1] + reversor.eta / 2.0,
                )
                if s < best_score:
                    best, best_score = cand, s
    if best_score <= 2.0 * edge_bound:
        curve.crosses_fix = True
        curve.fix_point = best
        stable_mesh = mesh_a if mesh_a.kind == "stable" else mesh_b
        if stable_mesh.kind == "stable":
            n = _mesh_normal_near(stable_mesh, best)
            tangent = np.cross(n, reversor.jacobian() @ n)
            norm = np.linalg.norm(tangent)
            if norm > 0:
                curve.tangent_at_fix = tangent / norm


def point_mesh_distance(pt, mesh):
    """Distance from a point to the triangulated surface."""
    pt = np.asarray(pt, dtype=float)
    v, t = mesh.vertices, mesh.triangles
    centers = v[t].mean(axis=1)
    d = np.linalg.norm(centers - pt, axis=1)
    cut = np.sort(d)[: min(len(d), 64)]
    cand = np.where(d <= cut[-1] + mesh.edge_length_bound())[0]
    best = np.inf
    for idx in cand:
        best = min(best, _point_triangle_distance(pt, v[t[idx]]))
    return float(best)


def _point_triangle_distance(p, tri):
    a, b, c = tri
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return np.linalg.norm(ap)
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return np.linalg.norm(bp)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        t = d1 / (d1 - d3)
        return np.linalg.norm(ap - t * ab)
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return np.linalg.norm(cp)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        t = d2 / (d2 - d6)
        return np.linalg.norm(ap - t * ac)
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return np.linalg.norm(p - (b + t * (c - b)))
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return np.linalg.norm(p - (a + v * ab + w * ac))


def hausdorff_distance(pts_a, pts_b):
    """Symmetric Hausdorff distance between two vertex clouds."""
    def directed(x, y):
        worst = 0.0
        for p in x:
            worst = max(worst, float(np.min(np.linalg.norm(y - p, axis=1))))
        return worst

    return max(directed(pts_a, pts_b), directed(pts_b, pts_a))


#: Bisection levels that heteroclinic_from_symmetry evaluates per lockstep
#: round: every dyadic midpoint this many levels below each live bracket.
_SPECULATION_DEPTH = 6
#: Halvings after which a heteroclinic bracket stops, converged or not.
_BISECTION_CAP = 160
#: heteroclinic_from_symmetry drops finished orbits from its lockstep arrays
#: in blocks of this many rows.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class HeteroclinicPoint:
    """Certified heteroclinic point on the reversor's fixed line."""

    point: np.ndarray
    s: float
    forward_distance: float
    backward_distance: float


def heteroclinic_from_symmetry(
    p,
    r,
    bracket,
    samples=600,
    capture_radius=0.15,
    exit_radius=0.3,
    conv_tol=1e-6,
    budget=2500,
):
    """Heteroclinic points on Fix(h), found by a one-dimensional search.

    Forward orbits from the fixed line that shadow the stable manifold of
    the type-A fixed point approach it and then depart along its 1D unstable
    eigenvector; the departure side flips across each intersection of Fix(h)
    with the stable manifold.  The side is taken on a uniform sample of the
    bracket, and each sign change is bisected in np.longdouble until the
    midpoint equals an end or after _BISECTION_CAP halvings.  Each root is
    certified by forward convergence to one fixed point and backward
    convergence to the other, both below conv_tol.

    Each stage runs all its orbits in lockstep and drops them as they
    finish: the sample scan, the bisection and the certification.  Its
    orbits are the rows of one (N, 3) np.longdouble array that starts on
    r.fix_line and is moved by GenericMapParams.step (step_back for the
    backward certification) with p's coefficients in long double.  A
    bisection round evaluates, in one lockstep call, every dyadic midpoint
    down to _SPECULATION_DEPTH levels below each live bracket, then walks
    each bracket's tree of midpoints with the one-at-a-time rule.  The roots
    are bitwise those of bisecting one midpoint at a time, with one round
    per _SPECULATION_DEPTH halvings: each round lasts as long as its slowest
    orbit, and near a root that orbit shadows the stable manifold for
    thousands of steps.

    The cube-root conditioning of the closest approach puts the
    double-precision floor near 1e-6 for contraction rates of a few percent,
    so the certificate relies on np.longdouble being the 80-bit x87 format
    (as on x86-64 Linux); where it is float64 the search runs in double.
    """
    fps = fixed_points(p)
    if len(fps) != 2:
        raise ManifoldError("need two distinct fixed points")
    target = next((f for f in fps if f.classification == "type_A"), None)
    other = next((f for f in fps if f is not target), None)
    if target is None:
        raise ManifoldError("no type-A fixed point: forward convergence target missing")
    split = linear_data(p, target)
    if split.stable_basis.shape[1] != 2:
        raise ManifoldError("target fixed point has no 2D stable manifold")
    w_u = split.unstable_basis[:, 0]
    kappa = None
    if p.quad.is_positive_definite():
        kappa = escape_bound(p.quad, p.alpha, p.tau, p.sigma)
    escape_lim = 1.000001 * kappa if kappa is not None else 1e6

    # Orbits are (N, 3) long-double arrays moved by p_ld, which is p with its
    # coefficients as long doubles: the same values, but no step converts a
    # Python float to long double (about 0.6 us per operation).  Sums over
    # the last axis associate left, and every distance is rounded to double
    # before it is compared.
    ld = np.longdouble
    q = p.quad
    p_ld = GenericMapParams(
        ld(p.alpha), ld(p.tau), ld(p.sigma), QuadraticForm2(ld(q.a), ld(q.b), ld(q.c))
    )
    x_t = target.location.astype(ld)
    x_o = other.location.astype(ld)
    w_u_ld = w_u.astype(ld)

    def distance(pt, c):
        return np.sqrt(((pt - c) ** 2).sum(axis=-1)).astype(float)

    def escaped(pt):
        return np.abs(pt).max(axis=-1).astype(float) > escape_lim

    def episode_sides(s):
        """Sign of the unstable component of each orbit at its first exit from
        its first close-approach episode; nan when it never comes close."""
        sides = np.full(len(s), np.nan)
        rows = np.arange(len(s))  # the entry of sides each lockstep row fills
        running = np.ones(len(s), dtype=bool)
        caught = np.zeros(len(s), dtype=bool)
        pt = r.fix_line(np.asarray(s, dtype=ld))
        # Finished orbits leave the arrays in blocks of _ROW_BLOCK rows; until
        # then they are masked.  Dropping them one by one would make arrays of
        # every length, and numpy keeps freed buffers under 1 KiB for each
        # length, which stays resident.  A finished orbit is parked at the
        # target, as special values are slow in x87 arithmetic; nothing reads
        # it, so if it drifts off and overflows, that is not reported.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(budget):
                if not len(rows):
                    break
                pt = p_ld.step(pt)
                d = distance(pt, x_t)
                near = d < capture_radius
                gone = running & ~caught & ~near & escaped(pt)
                out = running & caught & (d > exit_radius)
                if out.any():
                    proj = ((pt[out] - x_t) @ w_u_ld).astype(float)
                    sides[rows[out]] = np.where(proj != 0, np.copysign(1.0, proj), np.nan)
                caught |= near
                done = gone | out
                if done.any():
                    running &= ~done
                    pt[done] = x_t
                    n = np.count_nonzero(running)
                    size = -(-n // _ROW_BLOCK) * _ROW_BLOCK
                    if size < len(rows):
                        # the running rows, padded with finished ones
                        keep = np.argsort(~running, kind="stable")[:size]
                        rows, running, caught = rows[keep], running[keep], caught[keep]
                        pt = pt[keep]
        return sides

    def bisect(lo, hi, flo):
        """Root of each bracket [lo, hi] whose lower end has side flo."""
        lo, hi = lo.astype(ld), hi.astype(ld)
        halvings = np.zeros(len(lo), dtype=int)
        live = np.arange(len(lo))
        while len(live):
            # levels[k][i, j]: midpoint of node j at depth k below bracket live[i];
            # the children of node j are nodes 2j (lower half) and 2j + 1.
            ends_lo, ends_hi = lo[live, None], hi[live, None]
            levels = []
            for _ in range(_SPECULATION_DEPTH):
                mid = (ends_lo + ends_hi) / 2
                levels.append(mid)
                ends_lo = np.stack([ends_lo, mid], axis=-1).reshape(len(live), -1)
                ends_hi = np.stack([mid, ends_hi], axis=-1).reshape(len(live), -1)
            mids = np.concatenate(levels, axis=1)
            sides = episode_sides(mids.ravel()).reshape(mids.shape)
            still = []
            for i, b in enumerate(live):
                node = 0
                for k in range(_SPECULATION_DEPTH):
                    if halvings[b] == _BISECTION_CAP:
                        break
                    halvings[b] += 1
                    mid = levels[k][i, node]
                    if mid == lo[b] or mid == hi[b]:
                        break
                    if sides[i, 2**k - 1 + node] == flo[b]:
                        lo[b] = mid
                        node = 2 * node + 1
                    else:  # a nan side shrinks too; the flank re-resolves later
                        hi[b] = mid
                        node = 2 * node
                else:
                    still.append(b)
            live = np.array(still, dtype=int)
        return (lo + hi) / 2

    def closest_approach(pt, step, c):
        """Least distance to c over each orbit's first budget steps, stopping
        after the step that leaves the escape box."""
        best = np.full(len(pt), np.inf)
        live = np.arange(len(best))
        for _ in range(budget):
            if not len(live):
                break
            pt = step(pt)
            d = distance(pt, c)
            best[live] = np.where(d < best[live], d, best[live])
            gone = escaped(pt)
            if gone.any():
                keep = ~gone
                live = live[keep]
                pt = pt[keep]
        return best

    grid = np.linspace(bracket[0], bracket[1], int(samples))
    sides = episode_sides(grid)
    lower, upper = sides[:-1], sides[1:]
    flips = np.flatnonzero(np.isfinite(lower) & np.isfinite(upper) & (lower != upper))
    roots = bisect(grid[flips], grid[flips + 1], lower[flips])
    fwd = closest_approach(r.fix_line(roots), p_ld.step, x_t)
    bwd = closest_approach(r.fix_line(roots), p_ld.step_back, x_o)
    hits = []
    for s_root, f, b in zip(roots, fwd, bwd):
        if f < conv_tol and b < conv_tol:
            pt = r.fix_line(s_root).astype(float)
            if not any(np.linalg.norm(pt - h.point) < 1e-7 for h in hits):
                hits.append(
                    HeteroclinicPoint(
                        point=pt,
                        s=float(s_root),
                        forward_distance=float(f),
                        backward_distance=float(b),
                    )
                )
    return hits
