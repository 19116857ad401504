"""Stable/unstable manifolds of the generic map's fixed points.

2D manifolds are grown ring by ring from a seed circle in the invariant
eigenplane (with fractional sub-rings so the strong rotation of complex
pairs does not shear the bands), 1D manifolds from a fundamental segment
along the eigenvector.  Mesh pairs are intersected over arrays: a uniform
grid joins the triangles' bounding boxes into candidate pairs, one batched
triangle-triangle test turns them into segments, and the segments are
stitched into heteroclinic polylines.  The reversor gives an independent
one-dimensional search for heteroclinic points on its fixed line, used to
cross-validate the meshes, whose vertex clouds are compared by an exact
pruned Hausdorff distance.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .dynamics import (
    DynamicsError,
    FixedPointReport,
    GenericMapParams,
    _fix_line_grid,
    _libm_pow,
    bisect_sign_changes,
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


def linear_data(p, fp):
    """Eigen-split of the linearization at a hyperbolic fixed point.

    Complex pairs contribute the real 2-plane spanned by the real and
    imaginary parts of one eigenvector; dimensions add up to 3.
    """
    J = p.jacobian(fp.location)
    vals, vecs = np.linalg.eig(J)
    if np.any(np.abs(np.abs(vals) - 1.0) <= HYPERBOLIC_TOL):
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
        if abs(lam.imag) > HYPERBOLIC_TOL:
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


def _default_box(p):
    if p.quad.is_positive_definite():
        k = escape_bound(p.quad, p.alpha, p.tau, p.sigma)
        return 1.5 * k
    return None


def grow_2d(p, fp, kind, eps=None, depth=6, refine=None, ring_points=64):
    """Grow a triangulated 2D stable/unstable manifold mesh.

    The seed annulus is one fundamental domain of the linearized dynamics in
    the invariant plane, sampled by ``subrings`` intermediate circles so
    consecutive rings differ by a small rotation/scaling; ring k + subrings is
    the exact image of ring k under the map (unstable) or its inverse
    (stable).  Ring edges longer than ``refine`` are split by inserting the
    seed-parameter midpoint and pushing the ring forward again, in passes
    over the whole ring.  No pass starts at 4096 points or more, so the last
    one can leave up to nearly twice that.  Growth is truncated with a flag
    when a ring leaves the bounding box (the escape cube scaled by 1.5 when
    Q is positive definite, none otherwise).
    """
    if depth < 0:
        raise ManifoldError(f"depth must be at least 0 (got {depth})")
    if ring_points < 1:
        raise ManifoldError(f"ring_points must be at least 1 (got {ring_points})")
    for name, value in (("eps", eps), ("refine", refine)):
        if value is not None and not 0.0 < value < math.inf:
            raise ManifoldError(f"{name} must be finite and positive (got {value})")
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
        k % m, pushed k // m steps together.  The seeds are (n, 2, 1) and
        (n, 3, 1) stacks, so each row is the one-point product bit for bit;
        TestGrowParity checks that np.cos and np.sin give math.cos and
        math.sin, which the seeds were built from one point at a time."""
        c = eps * np.stack([np.cos(phis), np.sin(phis)], -1)[..., None]
        if fracs is not None:
            c = fracs[k % m] @ c
        pts = x_star + (basis @ c)[..., 0]
        for _ in range(k // m):
            pts = step(pts)
        return pts

    # rotation of the seed parameter per sub-ring, so bands are stitched
    # between physically adjacent vertices despite the spiral
    spin = 0.0
    if complex_pair and m > 1:
        spin = math.atan2(fracs[1][1, 0], fracs[1][0, 0])
    elif complex_pair:
        spin = float(np.angle(lam_growth[0]))

    n_rings = m * (depth + 1)
    if n_rings < 2:
        raise ManifoldError(
            f"depth {depth} grows {n_rings} ring ({m} per generation) and no band; "
            "raise depth")
    rings_phi = []
    rings_pts = []
    truncated = False
    for k in range(n_rings):
        phis = np.linspace(0.0, 2 * math.pi, ring_points, endpoint=False)
        pts = ring(k, phis)
        # split long edges by seed-parameter midpoints
        while len(phis) < 4096:
            edge = np.roll(pts, -1, axis=0) - pts
            dphi = (np.roll(phis, -1) - phis) % (2 * math.pi)
            # np.vecdot is the per-edge np.linalg.norm bit for bit
            split = (np.sqrt(np.vecdot(edge, edge)) > refine) & (dphi > 1e-12)
            if not split.any():
                break
            phis = np.sort(np.concatenate([phis, phis[split] + dphi[split] / 2.0]) % (2 * math.pi))
            pts = ring(k, phis)
        if box is not None and np.max(np.abs(pts)) > box:
            truncated = True
            break
        rings_phi.append(np.asarray(phis))
        rings_pts.append(pts)

    if len(rings_pts) < 2:
        raise ManifoldError("bounding box truncated the mesh before one band")

    sizes = [len(r) for r in rings_pts]
    offsets = np.cumsum([0] + sizes)
    vertices = np.vstack(rings_pts)
    phi_all = np.concatenate(rings_phi)
    ring_idx = np.repeat(np.arange(len(sizes)), sizes)
    gen = ring_idx // m
    bands = []
    for k in range(len(rings_pts) - 1):
        adj_a = (rings_phi[k] + k * spin) % (2 * math.pi)
        adj_b = (rings_phi[k + 1] + (k + 1) * spin) % (2 * math.pi)
        order_a = np.argsort(adj_a, kind="stable")
        order_b = np.argsort(adj_b, kind="stable")
        bands.append(_stitch_band(
            adj_a[order_a], offsets[k] + order_a, adj_b[order_b], offsets[k + 1] + order_b,
        ))
    return ManifoldMesh(
        vertices=vertices, triangles=np.concatenate(bands), generation=gen, phi=phi_all,
        ring_of_vertex=ring_idx, fixed_point=fp, kind=kind, eps=float(eps), depth=int(depth),
        subrings=m, truncated=truncated, params=p,
    )


def _stitch_band(pa, idx_a, pb, idx_b):
    """Triangle strip between two angle-sorted rings, as an (n, 3) array.

    pa/pb are sorted angles, idx_a/idx_b the matching global vertex indices.
    A walk round the band advances whichever ring has the smaller next angle
    (ring a on ties), producing len(pa) + len(pb) triangles covering it: so
    the steps are one stable merge of the two rings' next angles, and each
    ring's position at a step is the count of its earlier steps.
    """
    na, nb = len(pa), len(pb)
    nxt = np.concatenate([pa[1:], pa[:1] + 2 * math.pi, pb[1:], pb[:1] + 2 * math.pi])
    is_a = np.argsort(nxt, kind="stable") < na
    ia = np.cumsum(is_a) - is_a
    ib = np.arange(na + nb) - ia
    third = np.where(is_a, idx_a[(ia + 1) % na], idx_b[(ib + 1) % nb])
    return np.column_stack([idx_a[ia % na], idx_b[ib % nb], third])


@dataclass
class ManifoldBranch:
    """Polyline branch of a 1D invariant manifold."""

    points: np.ndarray
    generation: np.ndarray
    sign: int
    kind: str
    fixed_point: FixedPointReport
    truncated: bool = False


def grow_1d(p, fp, kind, eps=None, depth=8, seed_points=8):
    """Grow the two branches of a 1D stable/unstable manifold.

    Each branch starts from a fundamental segment [eps, |lambda| eps] along
    the eigenvector (geometric spacing) and is extended generation by
    generation; gaps longer than 0.25 eps times the growth over depth + 1
    steps insert seed-parameter midpoints, in passes over the whole branch.
    No pass starts at 20000 points or more, so the last one can leave up to
    nearly twice that.  A branch is cut at its first point outside grow_2d's
    bounding box.  A negative multiplier swaps the branches under one step,
    so growth then uses the second iterate per branch.
    """
    if depth < 0:
        raise ManifoldError(f"depth must be at least 0 (got {depth})")
    if seed_points < 1:
        raise ManifoldError(f"seed_points must be at least 1 (got {seed_points})")
    split = linear_data(p, fp)
    vals, basis = split.subspace(kind)
    if basis.shape[1] != 1:
        raise ManifoldError(f"{kind} subspace is not one-dimensional")
    w = basis[:, 0]
    lam = vals[0].real
    step = p.step if kind == "unstable" else p.step_back
    growth = lam if kind == "unstable" else 1.0 / lam
    if growth < 0:
        base_step = step
        step = lambda pt: base_step(base_step(pt))
        growth = growth * growth
    growth = abs(growth)
    if eps is None:
        eps = 1e-4 * (1.0 + float(np.max(np.abs(fp.location))))
    box = _default_box(p)
    refine = 0.25 * eps * growth ** (depth + 1)

    branches = []
    for sign in (+1, -1):
        def push(gens, s):
            """The points at generations gens and seed parameters s: the
            seeds at s stepped in lockstep, each row stopping at its own
            generation.  The seeds take growth ** s by the C library's pow,
            as a Python float does."""
            pts = fp.location + (sign * eps * _libm_pow(growth, s))[:, None] * w
            for g in range(1, gens.max() + 1):
                live = gens >= g
                pts[live] = step(pts[live])
            return pts

        gens = np.repeat(np.arange(depth + 1), seed_points)
        s = np.tile(np.linspace(0.0, 1.0, seed_points, endpoint=False), depth + 1)
        pts = push(gens, s)
        truncated = False
        # refinement on the chained polyline: a midpoint in each long gap,
        # the next generation's start standing at s = 1 of the one before
        while len(s) < 20000:
            gap = pts[1:] - pts[:-1]
            long = np.sqrt(np.vecdot(gap, gap)) > refine
            if not long.any():
                break
            mid_g = gens[:-1][long]
            mid = 0.5 * (s[:-1] + np.where(gens[:-1] == gens[1:], s[1:], 1.0))[long]
            entries, first = np.unique(np.rec.fromarrays(
                [np.concatenate([gens, mid_g]), np.concatenate([s, mid])], names="g, s",
            ), return_index=True)
            if len(entries) == len(s):  # every midpoint rounds onto an entry
                break
            gens, s = entries["g"], entries["s"]
            # push works row by row, so the entries kept keep their points
            # bit for bit and only the midpoints are pushed
            pts = np.concatenate([pts, push(mid_g, mid)])[first]
        if box is not None:
            inside = np.max(np.abs(pts), axis=1) <= box
            if not inside.all():
                cut = int(np.argmin(inside))
                pts, gens = pts[:cut], gens[:cut]
                truncated = True
        branches.append(ManifoldBranch(
            points=pts, generation=gens, sign=sign, kind=kind, fixed_point=fp,
            truncated=truncated))
    return branches[0], branches[1]


# ---------------------------------------------------------------------------
# triangle-triangle intersection and polyline extraction


#: Rows handled at once by the cell joins and the exact Hausdorff minima:
#: 2**13 rows of float64 triples is 192 KiB, so that the few such arrays
#: alive at a time stay under about 1 MiB together.
_JOIN_BLOCK = 1 << 13
#: Triangle pairs per narrowphase call: two (n, 3, 3) stacks of 288 KiB.
_PAIR_BLOCK = 1 << 12

# Row-wise dot products and norms below use np.vecdot, which is the one-row
# u @ v and np.linalg.norm(u) bit for bit; (u * v).sum(-1) and
# np.linalg.norm(axis=1) differ in the last bit on some rows.


def _plane_chord(tris, dists):
    """Chord of each triangle in the other triangle's plane, from the signed
    distances of its vertices: the first two of, edge by edge, a vertex on
    the plane or a crossing of an edge that straddles it.  Returns
    (ok, p, q): rows with fewer than two such points are not ok."""
    found, pts = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(3):
            j = (i + 1) % 3
            di, dj = dists[:, i, None], dists[:, j, None]
            on = di == 0.0
            found.append(~(on & (dj == 0.0)) & (on | (di * dj < 0.0)))
            t = di / (di - dj)
            pts.append(np.where(on, tris[:, i], tris[:, i] + t * (tris[:, j] - tris[:, i])))
    found = np.column_stack(found)
    pts = np.stack(pts, axis=1)
    rank = np.cumsum(found, axis=1)
    rows = np.arange(len(tris))
    first = pts[rows, np.argmax(rank >= 1, axis=1)]
    second = pts[rows, np.argmax(rank >= 2, axis=1)]
    return rank[:, 2] >= 2, first, second


def _tri_tri_segment(t1, t2):
    """Intersection segments of the triangle pairs (t1[n], t2[n]), over
    (N, 3, 3) stacks.

    Each pair is rejected when one triangle lies strictly on one side of the
    other's plane (Moller, JGT 1997), when the planes are near parallel, or
    when the two chords on their common line overlap by at most 1e-12.
    Returns (hit, segments): the (N,) mask of the pairs that intersect and
    their (hit.sum(), 2, 3) segments, in pair order.
    """
    # signed plane distances by a stacked matmul, which is the one-pair
    # (3, 3) @ (3,) product bit for bit (a vecdot is not)
    n2 = np.cross(t2[:, 1] - t2[:, 0], t2[:, 2] - t2[:, 0])
    d1 = ((t1 - t2[:, :1]) @ n2[:, :, None])[..., 0]
    n1 = np.cross(t1[:, 1] - t1[:, 0], t1[:, 2] - t1[:, 0])
    d2 = ((t2 - t1[:, :1]) @ n1[:, :, None])[..., 0]
    hit = ~((d1 > 0).all(axis=1) | (d1 < 0).all(axis=1))
    hit &= ~((d2 > 0).all(axis=1) | (d2 < 0).all(axis=1))
    direction = np.cross(n1, n2)
    norm = np.sqrt(np.vecdot(direction, direction))
    scale = np.sqrt(np.vecdot(n1, n1)) * np.sqrt(np.vecdot(n2, n2))
    hit &= ~(norm < 1e-14 * np.where(1e-30 > scale, 1e-30, scale))  # near-coplanar
    ok1, p1, q1 = _plane_chord(t1, d1)
    ok2, p2, q2 = _plane_chord(t2, d2)
    hit &= ok1 & ok2
    direction, p1, q1, p2, q2 = (a[hit] for a in (direction, p1, q1, p2, q2))
    direction /= norm[hit, None]
    # the chords as parameter intervals on the common line, sorted stably
    s_base, u = np.vecdot(direction, p1), np.vecdot(direction, q1)
    v, w = np.vecdot(direction, p2), np.vecdot(direction, q2)
    lo1, hi1 = np.where(u < s_base, u, s_base), np.where(u < s_base, s_base, u)
    lo2, hi2 = np.where(w < v, w, v), np.where(w < v, v, w)
    lo, hi = np.where(lo2 > lo1, lo2, lo1), np.where(hi2 < hi1, hi2, hi1)
    long = ~(hi - lo <= 1e-12)
    hit[hit] = long
    seg = np.stack([p1 + (lo - s_base)[:, None] * direction,
                    p1 + (hi - s_base)[:, None] * direction], axis=1)
    return hit, seg[long]


def _tri_aabbs(vertices, triangles):
    corners = vertices[triangles]
    return corners.min(axis=1), corners.max(axis=1)


def _runs(start, count):
    """start[n], start[n] + 1, ..., start[n] + count[n] - 1 for every n, in
    one array."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(count.sum())


def _box_cells(lo, hi, shape):
    """(box, key) of every cell of the integer boxes lo <= cell <= hi, box
    by box and in (i, j, k) order within a box; a cell's key is its C-order
    flat index in a grid of this shape."""
    ext = np.maximum(hi - lo + 1, 0)
    count = ext.prod(axis=1)
    box = np.repeat(np.arange(len(lo)), count)
    rank = _runs(np.zeros_like(count), count)
    key = np.zeros_like(rank)
    for ax in range(3):
        coord = lo[box, ax] + rank // ext[box, ax + 1:].prod(axis=1) % ext[box, ax]
        key = key * shape[ax] + coord
    return box, key


def _cell_join(cell, index_lo, index_hi, query_lo, query_hi):
    """Pairs of boxes, one of each set, that share a cell of the grid of
    cubes of side cell.

    Yields (q, i) arrays, query box q and index box i: by q, then by the
    rank of the shared cell in q's (i, j, k) order, then by i, once per
    shared cell.  The index boxes' cells are sorted once, as one array of
    key * n + box for n index boxes; the query boxes, clipped to the index
    grid, are expanded and matched by binary search, about _JOIN_BLOCK pairs
    at a time, and a block never splits the pairs of one query box (spatial
    hashing, Teschner et al., VMV 2003).
    """
    n = len(index_lo)
    if not n:
        return
    origin = np.floor(index_lo.min(axis=0) / cell)
    top = np.floor(index_hi.max(axis=0) / cell)
    shape = (top - origin + 1).astype(int).tolist()
    if math.prod(shape) * n >= 2**63:
        raise ManifoldError("the boxes span too many grid cells")
    step = _JOIN_BLOCK // 8

    def cells(lo, hi, s):
        """_box_cells of boxes s, s + 1, ... in grid cells from origin; a
        box outside the grid on some axis gets lo > hi there."""
        lo = np.clip(np.floor(lo[s:s + step] / cell), origin, top + 1) - origin
        hi = np.clip(np.floor(hi[s:s + step] / cell), origin - 1, top) - origin
        box, key = _box_cells(lo.astype(int), hi.astype(int), shape)
        return box + s, key

    index = np.concatenate([
        key * n + box for box, key in (cells(index_lo, index_hi, s) for s in range(0, n, step))
    ])
    index.sort()
    for s in range(0, len(query_lo), step):
        q, q_key = cells(query_lo, query_hi, s)
        if not len(q):
            continue
        lo = np.searchsorted(index, q_key * n)
        count = np.searchsorted(index, (q_key + 1) * n) - lo
        # blocks end between query boxes, after about _JOIN_BLOCK matches
        ends = np.append(np.flatnonzero(q[1:] != q[:-1]) + 1, len(q))
        done = np.cumsum(count)[ends - 1]  # matches up to the end of each box
        g = 0  # the boxes before ends[g] are yielded
        while g < len(ends):
            e0, before = (ends[g - 1], done[g - 1]) if g else (0, 0)
            g = max(int(np.searchsorted(done, before + _JOIN_BLOCK, "right")), g + 1)
            e1 = ends[g - 1]
            c = count[e0:e1]
            yield np.repeat(q[e0:e1], c), index[_runs(lo[e0:e1], c)] % n


def _candidate_pairs(mesh_a, mesh_b):
    """Triangle pairs (a, b) whose bounding boxes overlap, found through a
    uniform grid of cells one longest edge wide.

    The pairs come by b, then by the first cell of b, in (i, j, k) order,
    that a shares with it, then by a; _stitch_segments reads the segments in
    this order.
    """
    amin, amax = _tri_aabbs(mesh_a.vertices, mesh_a.triangles)
    bmin, bmax = _tri_aabbs(mesh_b.vertices, mesh_b.triangles)
    cell = max(mesh_a.edge_length_bound(), mesh_b.edge_length_bound(), 1e-9)
    for b, a in _cell_join(cell, amin, amax, bmin, bmax):
        # each pair at the first cell the two share
        first = np.sort(np.unique(b * len(amin) + a, return_index=True)[1])
        b, a = b[first], a[first]
        near = (amin[a] <= bmax[b]).all(axis=1) & (bmin[b] <= amax[a]).all(axis=1)
        yield from zip(a[near].tolist(), b[near].tolist())


def _stitch_segments(segments):
    """Join segments sharing endpoints (within STITCH_TOL) into ordered polylines."""
    def key(pt):
        return tuple(np.round(pt / STITCH_TOL).astype(np.int64))

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
    crosses_fix: bool = False
    fix_point: np.ndarray | None = None
    tangent_at_fix: np.ndarray | None = None

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


def intersect_meshes(mesh_a, mesh_b, reversor=None):
    """Heteroclinic (or homoclinic) polylines from triangle-pair intersections.

    Segments from straddling triangle pairs are stitched by shared endpoints;
    when a reversor is supplied, each polyline is checked for a crossing of
    Fix(h) and the tangent direction n x Dh(x) n is attached there, with n
    the normal of the stable-side mesh.
    """
    pairs = np.array(list(_candidate_pairs(mesh_a, mesh_b)), dtype=int).reshape(-1, 2)
    if not len(pairs):
        return []
    ta, tb = mesh_a.triangles[pairs[:, 0]], mesh_b.triangles[pairs[:, 1]]
    segments = np.concatenate([
        _tri_tri_segment(mesh_a.vertices[ta[s:s + _PAIR_BLOCK]],
                         mesh_b.vertices[tb[s:s + _PAIR_BLOCK]])[1]
        for s in range(0, len(pairs), _PAIR_BLOCK)
    ])
    if not len(segments):
        return []
    polylines = _stitch_segments(segments)
    edge_bound = max(mesh_a.edge_length_bound(), mesh_b.edge_length_bound())
    curves = []
    for pts in polylines:
        curve = HeteroclinicCurve(points=pts)
        if reversor is not None:
            _flag_fix_crossing(curve, reversor, mesh_a, mesh_b, edge_bound)
        curves.append(curve)
    curves.sort(key=lambda c: -c.length())
    return curves


def _flag_fix_crossing(curve, reversor, mesh_a, mesh_b, edge_bound):
    pts = curve.points
    c1, c2 = reversor.fix_defects(pts)
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
                s = math.hypot(*reversor.fix_defects(cand))
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
    return float(np.fmin.reduce(_point_triangle_distance(pt, v[t[cand]]), initial=np.inf))


def _point_triangle_distance(p, tris):
    """Distances from p to each triangle of an (N, 3, 3) stack, by the
    Voronoi region of the closest point (vertex, edge or face)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, ap, bp, cp = b - a, c - a, p - a, p - b, p - c
    d1, d2, d3, d4, d5, d6 = (np.vecdot(u, w) for w in (ap, bp, cp) for u in (ab, ac))
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = (d1 / (d1 - d3))[:, None]
        t_ac = (d2 / (d2 - d6))[:, None]
        t_bc = ((d4 - d3) / ((d4 - d3) + (d5 - d6)))[:, None]
        denom = va + vb + vc
        v, w = (vb / denom)[:, None], (vc / denom)[:, None]
        gap = np.select(
            [
                ((d1 <= 0) & (d2 <= 0))[:, None],
                ((d3 >= 0) & (d4 <= d3))[:, None],
                ((vc <= 0) & (d1 >= 0) & (d3 <= 0))[:, None],
                ((d6 >= 0) & (d5 <= d6))[:, None],
                ((vb <= 0) & (d2 >= 0) & (d6 <= 0))[:, None],
                ((va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0))[:, None],
            ],
            [ap, bp, ap - t_ab * ab, cp, ap - t_ac * ac, p - (b + t_bc * (c - b))],
            p - (a + v * ab + w * ac),
        )
    return np.sqrt(np.vecdot(gap, gap))


def _directed_hausdorff(x, y):
    """max over the rows of x of the distance to the nearest row of y.

    Exact, with an early break (Taha & Hanbury, IEEE TPAMI 37(11), 2015):
    a row's distance to the rows of y in its own grid cell bounds its
    nearest distance from above.  The rows' exact minima are taken in order
    of decreasing bound, _JOIN_BLOCK differences at a time, until no bound
    left exceeds the running maximum.  Every distance is sqrt(sum of
    squares) in the order of np.linalg.norm(y - p, axis=1), so the result is
    bitwise the row-by-row maximum; rows whose minimum is nan are ignored,
    as there.  Clouds with non-finite coordinates get no bounds.
    """
    bound = np.full(len(x), np.inf)  # squared, as all distances below
    if len(y) and np.isfinite(x).all() and np.isfinite(y).all():
        # about len(y) ** (1/3) cells per axis over the box of y
        origin = y.min(axis=0)
        cell = float((y.max(axis=0) - origin).max()) / np.cbrt(len(y))
        yo, xo = y - origin, x - origin
        for e, i in _cell_join(cell if cell > 0 else 1.0, yo, yo, xo, xo):
            d = y[i]
            d -= x[e]
            d *= d
            run = np.flatnonzero(np.diff(e, prepend=-1))
            bound[e[run]] = np.minimum.reduceat(np.add.reduce(d, axis=-1), run)
    worst = 0.0
    order = np.argsort(-bound, kind="stable")
    rows = max(1, _JOIN_BLOCK // max(len(y), 1))
    for s in range(0, len(x), rows):
        take = order[s:s + rows]
        if bound[take[0]] <= worst:
            break
        d = y - x[take, None]
        d *= d
        best = np.add.reduce(d, axis=-1).min(axis=1)
        best = best[best > worst]
        if len(best):
            worst = float(best.max())
    return math.sqrt(worst)


def hausdorff_distance(pts_a, pts_b):
    """Symmetric Hausdorff distance between two vertex clouds."""
    a, b = np.asarray(pts_a, dtype=float), np.asarray(pts_b, dtype=float)
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


#: heteroclinic_from_symmetry: an orbit is caught by the target fixed point
#: within CAPTURE_RADIUS and has left it beyond EXIT_RADIUS.
CAPTURE_RADIUS = 0.15
EXIT_RADIUS = 0.3
#: A heteroclinic root is certified by a forward closest approach to the
#: target below this.
HETEROCLINIC_TOL = 1e-6
#: Steps after which a heteroclinic orbit stops, caught or not.
ORBIT_BUDGET = 2500
#: heteroclinic_from_symmetry drops finished orbits from its lockstep arrays
#: in blocks of this many rows.
_ROW_BLOCK = 32
#: heteroclinic_from_symmetry steps its orbits this many times between two
#: passes of its capture, exit and escape tests.
_CHUNK = 12


@dataclass(frozen=True)
class HeteroclinicPoint:
    """Certified heteroclinic point on the reversor's fixed line."""

    point: np.ndarray
    s: float
    forward_distance: float


def _heteroclinic_stages(p, r):
    """The lockstep stages of heteroclinic_from_symmetry for p and its
    reversor r, over arrays of long-double s: episode_sides(s), the side of
    each orbit from r.fix_line(s), and certify(s), its closest approach
    forward to the type-A fixed point."""
    fps = fixed_points(p)
    if len(fps) != 2:
        raise ManifoldError("need two distinct fixed points")
    target = next((f for f in fps if f.classification == "type_A"), None)
    if target is None:
        raise ManifoldError("no type-A fixed point: forward convergence target missing")
    split = linear_data(p, target)
    if split.stable_basis.shape[1] != 2:
        raise ManifoldError("target fixed point has no 2D stable manifold")
    escape_lim = 1e6
    if p.quad.is_positive_definite():
        escape_lim = 1.000001 * escape_bound(p.quad, p.alpha, p.tau, p.sigma)

    # p_ld is p with its coefficients as 0-d long-double arrays: the same
    # values, but no step converts a Python float (about 0.6 us per
    # operation) or a long-double scalar.  Distances are rounded to double
    # before they are compared.  A fixed point (x, x, x) has the exact centre x.
    ld = np.longdouble
    p_ld = GenericMapParams(*(np.array(v, dtype=ld) for v in (p.alpha, p.tau, p.sigma)),
                            QuadraticForm2(*(np.array(v, dtype=ld) for v in astuple(p.quad))))
    x_t = target.location.astype(ld)
    w_u = split.unstable_basis[:, 0].astype(ld)

    def lockstep(s, settle):
        """Run the orbits from r.fix_line(s) forward for up to ORBIT_BUDGET
        steps and call settle(rows, buf, d, esc) every _CHUNK steps.  Column
        j follows s[rows[j]]; after the chunk's step k + 1 its x values are
        buf[k + 1:k + 4], oldest first, d[k] is their distance to the target
        (c, c, c) and esc[k] whether they left the escape box (nan and False
        once j has finished).  settle returns which columns finish in this
        chunk."""
        rows, live = np.arange(len(s)), np.ones(len(s), dtype=bool)
        buf = np.empty((_CHUNK + 3, len(s)), dtype=ld)
        buf[:3] = r.fix_line(np.asarray(s, dtype=ld)).T[::-1]
        c, t = x_t[0], 0
        # A finished column is stepped to the end of its chunk and then parked
        # at c, as special values are slow in x87 arithmetic.  Finished
        # columns leave in blocks of _ROW_BLOCK: numpy keeps freed buffers
        # under 1 KiB for each array length, and they stay resident.
        with np.errstate(over="ignore", invalid="ignore"):
            while len(rows) and t < ORBIT_BUDGET:
                steps = min(_CHUNK, ORBIT_BUDGET - t)
                t += steps
                b = buf[:, : len(rows)]
                for k in range(steps):
                    p_ld._ahead(b[k + 2], b[k + 1], b[k], out=b[k + 3])
                sq = (b[1 : steps + 3] - c) ** 2
                d = (sq[2:] + sq[1:-1]) + sq[:-2]  # summed in the point's order
                d = np.where(live, np.sqrt(d).astype(float), np.nan)
                # The escape test on one boolean per x value, or-ed over each
                # point's three.  Rounding is monotone, so the cast commutes
                # with the max, and this is the point's max cast and compared,
                # except on a point holding a nan beside a value above
                # escape_lim (its max is nan and does not escape).  A nan comes
                # only from an inf or an overflowing value, whose own point
                # escaped at an earlier step, and settle reads only a column's
                # first event.
                e = np.abs(b[1 : steps + 3]).astype(float) > escape_lim
                live &= ~settle(rows, b, d, (e[:-2] | e[1:-1] | e[2:]) & live)
                b[:3] = b[steps : steps + 3]
                b[:3, ~live] = c
                size = -(-np.count_nonzero(live) // _ROW_BLOCK) * _ROW_BLOCK
                if size < len(rows):  # keep the running columns, padded
                    keep = np.argsort(~live, kind="stable")[:size]
                    rows, live = rows[keep], live[keep]
                    buf[:3, :size] = b[:3, keep]

    def first(events):
        """Per column: whether events has a True, and the step of the first."""
        k = events.argmax(axis=0)
        return events[k, np.arange(len(k))], k

    def episode_sides(s):
        """Sign of the unstable component of each orbit at its first exit from
        its first close-approach episode; nan when it never comes close, or
        leaves the escape box before it does."""
        sides, caught = np.full(len(s), np.nan), np.zeros(len(s), dtype=bool)

        def settle(rows, buf, d, esc):
            # caught by the end of each step; a capture step has no exit, as
            # EXIT_RADIUS > CAPTURE_RADIUS, so this is caught before the step
            now = np.logical_or.accumulate(d < CAPTURE_RADIUS, axis=0) | caught[rows]
            done, k = first(~now & esc | now & (d > EXIT_RADIUS))
            j = np.flatnonzero(done & now[k, np.arange(len(k))])
            if len(j):
                proj = ((buf[[k[j] + 3, k[j] + 2, k[j] + 1], j].T - x_t) @ w_u).astype(float)
                sides[rows[j]] = np.where(proj != 0, np.copysign(1.0, proj), np.nan)
            caught[rows] = now[-1]
            return done

        lockstep(s, settle)
        return sides

    def closest_approach(s):
        """Least distance to the target over each orbit's first ORBIT_BUDGET
        steps, stopping after the step that leaves the escape box."""
        best = np.full(len(s), np.inf)

        def settle(rows, buf, d, esc):
            done, k = first(esc)
            upto = np.arange(len(d))[:, None] <= np.where(done, k, len(d))
            best[rows] = np.fmin(best[rows], np.fmin.reduce(np.where(upto, d, np.inf)))
            return done

        lockstep(s, settle)
        return best

    return episode_sides, closest_approach


def heteroclinic_from_symmetry(p, r, bracket, samples=600):
    """Heteroclinic points on Fix(h), found by a one-dimensional search.

    Forward orbits from the fixed line that shadow the stable manifold of
    the type-A fixed point approach it and then depart along its 1D unstable
    eigenvector; the departure side flips across each intersection of Fix(h)
    with the stable manifold.  The side (nan unless the orbit comes within
    CAPTURE_RADIUS of the target and then leaves beyond EXIT_RADIUS, within
    ORBIT_BUDGET steps) is taken on a uniform sample of the bracket, and
    each sign change is bisected in np.longdouble by bisect_sign_changes,
    with no width tolerance.  Each root is certified by its forward closest
    approach to the type-A fixed point, below HETEROCLINIC_TOL.  No backward
    pass is needed: for x on Fix(h), f^-n(x) = h(f^n(x)), and h is an
    isometry that swaps the two fixed points, so the backward distance to the
    other fixed point is the forward one again, up to rounding (Lamb &
    Roberts, Physica D 112, 1998).

    Each stage runs its orbits in lockstep and drops them as they finish:
    the sample scan, every bisection round and the certification.  An
    orbit is a column of a (_CHUNK + 3, N) np.longdouble buffer holding the
    normal form's scalar recurrence: x_{n-2}, x_{n-1}, x_n and the next
    _CHUNK values, by the formula of GenericMapParams.step.
    Then one array pass runs the capture, exit, escape and distance tests of
    those steps and takes each orbit's first event, bitwise as if (N, 3)
    points were tested after every step.  A round lasts as long as its
    slowest orbit; near a root, that one shadows the stable manifold for
    thousands of steps while most orbits settle within hundreds.  So
    bisect_sign_changes sizes each round by its live brackets: the fewer
    there are, the more halvings one round makes, at the same roots.

    The cube-root conditioning of the closest approach puts the
    double-precision floor near 1e-6 for contraction rates of a few percent,
    so the certificate relies on np.longdouble being the 80-bit x87 format
    (as on x86-64 Linux); where it is float64 the search runs in double.
    """
    episode_sides, certify = _heteroclinic_stages(p, r)
    grid = _fix_line_grid(bracket, samples).astype(np.longdouble)
    roots = bisect_sign_changes(episode_sides, grid, episode_sides(grid))
    hits = []
    for s_root, f in zip(roots, certify(roots)):
        if f < HETEROCLINIC_TOL:
            pt = r.fix_line(s_root).astype(float)
            if not any(np.linalg.norm(pt - h.point) < 1e-7 for h in hits):
                hits.append(HeteroclinicPoint(pt, float(s_root), float(f)))
    return hits
