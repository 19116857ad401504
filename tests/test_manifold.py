import math

import numpy as np
import pytest

from qvpmaps import GenericMapParams, escape_bound, fixed_points, reversor_for
from qvpmaps import dynamics, manifold
from qvpmaps.dynamics import DynamicsError
from qvpmaps.manifold import (
    ManifoldError,
    ManifoldMesh,
    NonHyperbolicError,
    _candidate_pairs,
    _point_triangle_distance,
    _stitch_segments,
    _tri_tri_segment,
    grow_1d,
    grow_2d,
    hausdorff_distance,
    heteroclinic_from_symmetry,
    intersect_meshes,
    linear_data,
    point_mesh_distance,
)


def fig2_params():
    return GenericMapParams.make(0.0, -0.3, 0.0, 0.5, 0.0, 0.5)


@pytest.fixture(scope="module")
def fig2():
    p = fig2_params()
    fps = {fp.which: fp for fp in fixed_points(p)}
    return p, fps


class TestLinearData:
    def test_type_a_split(self, fig2):
        p, fps = fig2
        split = linear_data(p, fps["plus"])
        assert split.unstable_basis.shape == (3, 1)
        assert split.stable_basis.shape == (3, 2)

    def test_opposite_types_by_reversibility(self, fig2):
        p, fps = fig2
        assert fps["plus"].classification == "type_A"
        assert fps["minus"].classification == "type_B"
        split_m = linear_data(p, fps["minus"])
        assert split_m.unstable_basis.shape == (3, 2)

    def test_subspaces_invariant(self, fig2):
        p, fps = fig2
        split = linear_data(p, fps["minus"])
        J = p.jacobian(fps["minus"].location)
        V = split.unstable_basis
        # J V stays in the column span of V
        proj = V @ np.linalg.lstsq(V, J @ V, rcond=None)[0]
        assert np.max(np.abs(J @ V - proj)) < 1e-10

    def test_non_hyperbolic_rejected(self):
        # on the saddle-node boundary one eigenvalue is exactly 1
        p = GenericMapParams.make(0.25, 1.0, 0.0, 0.5, 0.0, 0.5)
        fp = fixed_points(p)[0]
        with pytest.raises(NonHyperbolicError):
            linear_data(p, fp)


class TestGrow2D:
    def test_seed_ring_in_eigenplane(self, fig2):
        p, fps = fig2
        eps = 1e-4 * (1 + 0.3)
        mesh = grow_2d(p, fps["plus"], "stable", depth=1, ring_points=16)
        split = linear_data(p, fps["plus"])
        B = split.stable_basis
        n = np.cross(B[:, 0], B[:, 1])
        n /= np.linalg.norm(n)
        seed = mesh.vertices[mesh.generation == 0]
        dist_plane = np.abs((seed - fps["plus"].location) @ n)
        assert np.max(dist_plane) < 100 * eps**2

    def test_first_generation_is_exact_image(self, fig2):
        p, fps = fig2
        mesh = grow_2d(p, fps["minus"], "unstable", depth=2, ring_points=16)
        m = mesh.subrings
        r0 = mesh.vertices[mesh.ring_of_vertex == 0]
        rm = mesh.vertices[mesh.ring_of_vertex == m]
        assert len(r0) == len(rm)
        mapped = np.array([p.step(v) for v in r0])
        assert np.max(np.abs(mapped - rm)) < 1e-12

    def test_invariance_residual(self, fig2):
        p, fps = fig2
        mesh = grow_2d(
            p, fps["minus"], "unstable", eps=0.05, depth=3, ring_points=32
        )
        refine = 2.5 * (2 * np.pi / 32) * 0.05 * 1.05**4
        rng = np.random.default_rng(80)
        inner = np.flatnonzero(mesh.generation < mesh.generation.max())
        for idx in rng.choice(inner, size=25, replace=False):
            img = p.step(mesh.vertices[idx])
            assert point_mesh_distance(img, mesh) < 10 * refine

    def test_unstable_band_areas_grow(self, fig2):
        p, fps = fig2
        mesh = grow_2d(p, fps["minus"], "unstable", eps=0.02, depth=5, ring_points=48)
        areas = [mesh.generation_area(g) for g in range(5)]
        assert all(a2 >= a1 * 0.999 for a1, a2 in zip(areas, areas[1:]))

    def test_one_ring_is_not_a_box_truncation(self):
        # real multipliers give one sub-ring per generation, so depth 0 grows
        # a single ring, and no band, without reaching the bounding box
        p = GenericMapParams.make(-0.3, -2.6, 0.0, 0.5, 0.0, 0.5)
        fp = next(f for f in fixed_points(p) if f.classification == "type_A")
        with pytest.raises(ManifoldError, match="no band") as err:
            grow_2d(p, fp, "stable", depth=0)
        assert "box" not in str(err.value)
        assert grow_2d(p, fp, "stable", depth=1).subrings == 1

    def test_wrong_dimension_rejected(self, fig2):
        p, fps = fig2
        with pytest.raises(ManifoldError):
            grow_2d(p, fps["plus"], "unstable")  # unstable is 1D at x+

    @pytest.mark.parametrize("kwargs, name", [
        (dict(ring_points=0), "ring_points"), (dict(ring_points=-3), "ring_points"),
        (dict(eps=math.nan), "eps"), (dict(eps=-0.1), "eps"), (dict(eps=0.0), "eps"),
        (dict(refine=math.inf), "refine"), (dict(refine=0.0), "refine"),
        (dict(depth=-1), "depth"),
    ])
    def test_out_of_range_inputs_rejected(self, fig2, kwargs, name):
        p, fps = fig2
        with pytest.raises(ManifoldError, match=name):
            grow_2d(p, fps["plus"], "stable", **{"depth": 1, **kwargs})


class TestGrow1D:
    def test_seed_points(self, fig2):
        p, fps = fig2
        plusb, minusb = grow_1d(p, fps["plus"], "unstable", eps=1e-3, depth=0,
                                seed_points=2)
        assert plusb.sign == 1 and minusb.sign == -1
        split = linear_data(p, fps["plus"])
        w = split.unstable_basis[:, 0]
        d = plusb.points[0] - fps["plus"].location
        assert np.linalg.norm(np.cross(d, w)) < 1e-12

    def test_branch_points_map_onto_branch(self, fig2):
        p, fps = fig2
        br, _ = grow_1d(p, fps["plus"], "unstable", eps=1e-3, depth=5,
                        seed_points=12)
        # images of non-final points interleave the sampled polyline
        pts = br.points
        for v in pts[br.generation < br.generation.max()][::5]:
            img = p.step(v)
            assert np.min(np.linalg.norm(pts - img, axis=1)) < 0.05 * max(
                1.0, np.linalg.norm(img - fps["plus"].location)
            )

    @pytest.mark.parametrize("kwargs, name", [
        (dict(depth=-1), "depth"), (dict(seed_points=0), "seed_points"),
        (dict(seed_points=-2), "seed_points"),
    ])
    def test_out_of_range_inputs_rejected(self, fig2, kwargs, name):
        p, fps = fig2
        with pytest.raises(ManifoldError, match=f"{name} must be at least"):
            grow_1d(p, fps["plus"], "unstable", **kwargs)

    def test_refinement_stops_when_no_midpoint_is_new(self):
        # the stable branch folds so sharply that its seed parameters run
        # out of bits: a pass whose every midpoint rounds onto an entry
        # would be repeated unchanged for ever
        p = GenericMapParams.make(-0.14, -1.33, 0.15, 0.61, -0.43, 0.82)
        fp = next(f for f in fixed_points(p) if f.which == "minus")
        _, branch = grow_1d(p, fp, "stable", eps=0.04, depth=10, seed_points=6)
        assert branch.truncated and len(branch.points) < 11 * 6

    def test_reversor_maps_unstable_to_stable_branch(self, fig2):
        p, fps = fig2
        h = reversor_for(p)
        bu_p, bu_m = grow_1d(p, fps["plus"], "unstable", eps=1e-3, depth=6,
                             seed_points=10)
        bs_p, bs_m = grow_1d(p, fps["minus"], "stable", eps=1e-3, depth=6,
                             seed_points=10)
        hu = h(np.vstack([bu_p.points, bu_m.points]))
        sv = np.vstack([bs_p.points, bs_m.points])
        # every h-image lies near the computed stable branch pair
        worst = max(np.min(np.linalg.norm(sv - q, axis=1)) for q in hu)
        assert worst < 2e-3


class TestIntersectAndSymmetry:
    def test_disjoint_meshes_empty(self, fig2):
        p, fps = fig2
        a = grow_2d(p, fps["plus"], "stable", eps=0.01, depth=1, ring_points=16)
        b = grow_2d(p, fps["minus"], "unstable", eps=0.01, depth=1, ring_points=16)
        assert intersect_meshes(a, b) == []

    def test_fig2_cross_validation(self, fig2):
        p, fps = fig2
        h = reversor_for(p)
        ws = grow_2d(p, fps["plus"], "stable", eps=0.36, depth=8, ring_points=64)
        wu = grow_2d(p, fps["minus"], "unstable", eps=0.36, depth=8, ring_points=64)
        curves = intersect_meshes(wu, ws, reversor=h)
        assert curves
        assert any(c.crosses_fix for c in curves)
        edge = max(ws.edge_length_bound(), wu.edge_length_bound())
        pts = heteroclinic_from_symmetry(p, h, (-0.2, -0.05), samples=60)
        assert pts
        best = min(
            min(c.min_distance_to(q.point) for c in curves) for q in pts
        )
        assert best < edge
        # reversor symmetry of the meshes
        hu = h(wu.vertices)
        assert hausdorff_distance(hu, ws.vertices) < 2 * edge

    def test_symmetry_points_certified(self, fig2):
        p, fps = fig2
        h = reversor_for(p)
        pts = heteroclinic_from_symmetry(p, h, (-0.2, -0.05), samples=60)
        assert pts
        for q in pts:
            assert q.forward_distance < 1e-6
            # the returned point is on Fix(h)
            assert abs(q.point[0] + q.point[2] + h.eta) < 1e-12
            assert abs(q.point[1] + h.eta / 2) < 1e-12

    def test_tangent_direction_at_crossing(self, fig2):
        p, fps = fig2
        h = reversor_for(p)
        ws = grow_2d(p, fps["plus"], "stable", eps=0.36, depth=8, ring_points=64)
        wu = grow_2d(p, fps["minus"], "unstable", eps=0.36, depth=8, ring_points=64)
        curves = [c for c in intersect_meshes(wu, ws, reversor=h) if c.crosses_fix]
        assert curves
        checked = False
        for c in curves:
            if c.tangent_at_fix is None or len(c.points) < 4:
                continue
            i = int(
                np.argmin(np.linalg.norm(c.points - c.fix_point, axis=1))
            )
            j = min(i + 2, len(c.points) - 1)
            k = max(i - 2, 0)
            chord = c.points[j] - c.points[k]
            chord = chord / np.linalg.norm(chord)
            cosang = abs(float(chord @ c.tangent_at_fix))
            # mesh-resolution limited: 25 degrees of slack on short curves
            assert cosang > np.cos(np.radians(25.0))
            checked = True
        assert checked


def scalar_heteroclinic_stages(p, r, capture_radius=0.15, exit_radius=0.3, budget=2500):
    """Reference stages: the one-orbit-at-a-time scan and certification that
    the lockstep heteroclinic_from_symmetry replaces, stepping (3,) long-double
    points.  episode(s) gives (side, capture step, exit or escape step) and
    certify(s) (forward distance, escape step); steps count from 1 and are
    None for events that do not happen."""
    fps = fixed_points(p)
    target = next(f for f in fps if f.classification == "type_A")
    w_u = linear_data(p, target).unstable_basis[:, 0]
    escape_lim = 1e6
    if p.quad.is_positive_definite():
        escape_lim = 1.000001 * escape_bound(p.quad, p.alpha, p.tau, p.sigma)

    ld = np.longdouble
    eta = ld(r.eta)
    x_t = target.location.astype(ld)
    w_u_ld = w_u.astype(ld)

    def line_ld(s):
        s = ld(s)
        return np.array([s, -eta / 2, -eta - s], dtype=ld)

    def episode(s):
        pt = line_ld(s)
        caught = None
        for n in range(1, budget + 1):
            pt = p.step(pt)
            d = float(np.sqrt(np.sum((pt - x_t) ** 2)))
            if caught is None:
                if d < capture_radius:
                    caught = n
                elif float(np.max(np.abs(pt))) > escape_lim:
                    return np.nan, None, n
            elif d > exit_radius:
                proj = float((pt - x_t) @ w_u_ld)
                return (math.copysign(1.0, proj) if proj else np.nan), caught, n
        return np.nan, caught, None

    def certify(s):
        best, pt = np.inf, line_ld(s)
        for n in range(1, budget + 1):
            pt = p.step(pt)
            best = min(best, float(np.sqrt(np.sum((pt - x_t) ** 2))))
            if float(np.max(np.abs(pt))) > escape_lim:
                return best, n
        return best, None

    return episode, certify


def scalar_heteroclinic_search(p, r, bracket, samples, conv_tol=1e-6):
    """Reference: the one-orbit-at-a-time search that the lockstep
    heteroclinic_from_symmetry replaces, as (point, s, fwd) tuples."""
    episode, certify = scalar_heteroclinic_stages(p, r)
    ld = np.longdouble
    eta = ld(r.eta)

    def bisect(lo, hi, flo, iters=160):
        lo, hi = ld(lo), ld(hi)
        for _ in range(iters):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            fmid = episode(mid)[0]
            if not np.isfinite(fmid):
                hi = mid
                continue
            if fmid == flo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    grid = np.linspace(bracket[0], bracket[1], int(samples))
    sides = [episode(s)[0] for s in grid]
    hits = []
    for i in range(len(grid) - 1):
        a, b = sides[i], sides[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a == b:
            continue
        s_root = bisect(grid[i], grid[i + 1], a)
        fwd, _ = certify(s_root)
        if fwd < conv_tol:
            pt = np.array([s_root, -eta / 2, -eta - s_root], dtype=ld).astype(float)
            if not any(np.linalg.norm(pt - h[0]) < 1e-7 for h in hits):
                hits.append((pt, float(s_root), fwd))
    return hits


class TestHeteroclinicLockstep:
    @pytest.mark.parametrize(
        "args, bracket, samples",
        [
            ((0.0, -0.3, 0.0, 0.5, 0.0, 0.5), (-0.2, -0.05), 60),
            # alpha, sigma != 0 and no power-of-two coefficients, so that the
            # association of every sum reaches the last bits
            ((0.05, -0.4, 0.1, 0.45, 0.1, 0.45), (0.0, 0.1), 15),
        ],
    )
    def test_bitwise_equal_to_scalar_search(self, args, bracket, samples):
        p = GenericMapParams.make(*args)
        h = reversor_for(p)
        got = heteroclinic_from_symmetry(p, h, bracket, samples=samples)
        want = scalar_heteroclinic_search(p, h, bracket, samples=samples)
        assert want
        assert len(got) == len(want)
        for g, (pt, s, fwd) in zip(got, want):
            assert g.s == s
            assert g.forward_distance == fwd
            assert np.array_equal(g.point, pt)

    def test_fig2_hits_pinned(self, fig2):
        # recorded values, so that a change in the kernel itself shows, which
        # the reference search above shares
        p, _ = fig2
        hits = heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=60)
        want = [-0.12360158135871481, -0.11422641272798166, -0.1121510631549391]
        assert len(hits) == len(want)
        for h, s in zip(hits, want):
            assert abs(h.s - s) <= 1e-12
            assert h.forward_distance < 1e-6

    def test_same_roots_at_any_depth(self, monkeypatch, fig2):
        # the bisection's depth per round changes its cost, not its walk
        p, _ = fig2
        got = {}
        for depth in (None, 3, 6):  # None: the live-bracket rule
            if depth is not None:
                monkeypatch.setattr(dynamics, "_speculation_depth", lambda n, d=depth: d)
            hits = heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=60)
            got[depth] = [(h.s, h.forward_distance) for h in hits]
        assert len(got[None]) == 3
        assert got[3] == got[None] == got[6]

    def test_empty_grid(self, fig2):
        p, _ = fig2
        assert heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=1) == []

    def test_sample_counts(self, fig2):
        p, _ = fig2
        assert heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=0) == []
        with pytest.raises(DynamicsError, match="samples"):
            heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=-4)


# The chunked kernel at its edges: a budget that is no multiple of the chunk
# length, captures carried into the next chunk or (with long chunks) exits in
# the chunk of the capture, orbits that escape before any capture or time
# out, and certification orbits that escape mid-chunk and are stepped on to
# the chunk's end (the indefinite Q escapes at |x| > 1e6, from where a dozen
# squarings overflow long double).
EDGE_BUDGET = 251
EDGE_MAPS = [
    ((0.0, -0.3, 0.0, 0.5, 0.0, 0.5), (-0.35, 0.45)),
    ((0.05, -0.4, 0.1, 0.45, 0.1, 0.45), (-0.5, 0.5)),
    ((0.0, -0.3, 0.0, -0.5, 2.0, -0.5), (-1.0, 1.0)),
]


@pytest.fixture(scope="module")
def edge_reference():
    """Per map: (p, h, s values, episode results, certification results) of
    the scalar stages at EDGE_BUDGET steps."""
    out = []
    for args, bracket in EDGE_MAPS:
        p = GenericMapParams.make(*args)
        h = reversor_for(p)
        episode, certify = scalar_heteroclinic_stages(p, h, budget=EDGE_BUDGET)
        s = np.linspace(*bracket, 41).astype(np.longdouble)
        out.append((p, h, s, [episode(x) for x in s], [certify(x) for x in s]))
    return out


class TestHeteroclinicChunkEdges:
    @pytest.mark.parametrize("chunk", [manifold._CHUNK, 5, 64])
    def test_sides_and_distances_bitwise(self, monkeypatch, edge_reference, chunk):
        assert EDGE_BUDGET % chunk
        monkeypatch.setattr(manifold, "ORBIT_BUDGET", EDGE_BUDGET)
        monkeypatch.setattr(manifold, "_CHUNK", chunk)
        seen = set()
        for p, h, s, episodes, certs in edge_reference:
            sides, certify = manifold._heteroclinic_stages(p, h)
            assert same_bits(sides(s), [e[0] for e in episodes])
            assert same_bits(certify(s), [c[0] for c in certs])
            for _, caught, end in episodes:
                if caught and end:
                    seen.add("exit, same chunk" if (caught - 1) // chunk == (end - 1) // chunk
                             else "exit, later chunk")
                seen.add("time out" if end is None else "escape" if caught is None else "exit")
            for _, escaped in certs:
                if escaped is None:
                    seen.add("certification time out")
                elif escaped % chunk:  # stepped on after the escape
                    seen.add("certification escape")
        want = {"exit", "exit, later chunk", "time out", "escape",
                "certification time out", "certification escape"}
        if chunk == 64:
            want.add("exit, same chunk")
        assert want <= seen


# Scalar references: the one-pair, one-row-at-a-time mesh layer that the
# array-level _candidate_pairs, _tri_tri_segment, _point_triangle_distance
# and hausdorff_distance replace.


def scalar_plane_chord(tri, dists):
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


def scalar_tri_tri_segment(t1, t2, min_len=1e-12):
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
        return None
    direction = direction / norm
    c1 = scalar_plane_chord(t1, d1)
    c2 = scalar_plane_chord(t2, d2)
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


def scalar_candidate_pairs(mesh_a, mesh_b):
    corners = mesh_a.vertices[mesh_a.triangles]
    amin, amax = corners.min(axis=1), corners.max(axis=1)
    corners = mesh_b.vertices[mesh_b.triangles]
    bmin, bmax = corners.min(axis=1), corners.max(axis=1)
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


def scalar_point_triangle_distance(p, tri):
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


def scalar_hausdorff_distance(pts_a, pts_b):
    def directed(x, y):
        worst = 0.0
        for p in x:
            worst = max(worst, float(np.min(np.linalg.norm(y - p, axis=1))))
        return worst

    return max(directed(pts_a, pts_b), directed(pts_b, pts_a))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def soup(vertices, triangles):
    """A triangle soup as a mesh, for the intersection layer."""
    return ManifoldMesh(
        vertices=np.asarray(vertices, dtype=float), triangles=np.asarray(triangles),
        generation=None, phi=None, ring_of_vertex=None, fixed_point=None,
        kind="stable", eps=0.0, depth=0, subrings=1,
    )


def random_soup(rng, n, lo, hi, size):
    centers = rng.uniform(lo, hi, (n, 1, 3))
    verts = (centers + rng.normal(scale=size, size=(n, 3, 3))).reshape(-1, 3)
    return soup(verts, np.arange(3 * n).reshape(n, 3))


@pytest.fixture(scope="module")
def fig2_meshes(fig2):
    p, fps = fig2
    ws = grow_2d(p, fps["plus"], "stable", eps=0.36, depth=8, ring_points=64)
    wu = grow_2d(p, fps["minus"], "unstable", eps=0.36, depth=8, ring_points=64)
    return wu, ws


def assert_narrowphase_matches(t1, t2):
    hit, seg = _tri_tri_segment(t1, t2)
    want = [scalar_tri_tri_segment(a, b) for a, b in zip(t1, t2)]
    assert hit.tolist() == [w is not None for w in want]
    hits = [w for w in want if w is not None]
    assert len(seg) == len(hits)
    for got, w in zip(seg, hits):
        assert same_bits(got[0], w[0]) and same_bits(got[1], w[1])
    return seg, hits


class TestMeshLayerParity:
    def test_fig2_pairs_segments_curves(self, fig2, fig2_meshes):
        wu, ws = fig2_meshes
        pairs = list(_candidate_pairs(wu, ws))
        assert pairs == list(scalar_candidate_pairs(wu, ws))
        assert len(pairs) == 1348
        ia, ib = np.array(pairs).T
        seg, hits = assert_narrowphase_matches(wu.vertices[wu.triangles[ia]],
                                               ws.vertices[ws.triangles[ib]])
        assert len(seg) == 139
        curves = intersect_meshes(wu, ws, reversor=reversor_for(fig2[0]))
        assert len(curves) == 3
        got, want = _stitch_segments(seg), _stitch_segments(hits)
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert sorted(len(c.points) for c in curves) == sorted(len(w) for w in want)

    @pytest.mark.parametrize("block", [None, 64])
    def test_random_soup_pairs(self, monkeypatch, block):
        if block:
            # many join blocks, each split between query boxes
            monkeypatch.setattr(manifold, "_JOIN_BLOCK", block)
        rng = np.random.default_rng(11)
        a = random_soup(rng, 600, 0.0, 1.0, 0.06)
        # b reaches past the grid of a on every side
        b = random_soup(rng, 600, -0.5, 1.5, 0.08)
        pairs = list(_candidate_pairs(a, b))
        assert len(pairs) > 100
        assert pairs == list(scalar_candidate_pairs(a, b))
        assert list(_candidate_pairs(b, a)) == list(scalar_candidate_pairs(b, a))

    def test_disjoint_and_empty_soups(self):
        rng = np.random.default_rng(12)
        a = random_soup(rng, 20, 0.0, 1.0, 0.03)
        far = random_soup(rng, 20, 10.0, 11.0, 0.03)
        empty = soup(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        assert list(_candidate_pairs(a, far)) == []
        assert list(_candidate_pairs(empty, a)) == []
        assert list(_candidate_pairs(a, empty)) == []

    def test_narrowphase_degenerate_pairs(self):
        base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        line = np.array([[0.2, 0.2, -1.0], [0.2, 0.2, 0.0], [0.2, 0.2, 1.0]])
        cases = [
            (base, base + [0.2, 0.2, 0.0]),  # coplanar
            (base, base),  # identical
            (np.array([[0.2, 0.2, 0.0], [0.3, 0.2, 1.0], [0.2, 0.3, 1.0]]), base),  # touches
            (np.array([[0.2, 0.2, 0.0], [0.3, 0.2, 1.0], [0.2, 0.3, -1.0]]), base),  # vertex on plane
            (base, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),  # shared edge
            (base, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])),  # shared edge, tilted
            (line, base),  # zero area
            (base, line),
            (line, line),
            (np.array([[0.1, 0.1, -1.0], [0.1, 0.1, -1.0], [0.3, 0.2, 1.0]]), base),  # repeated vertex
            (np.array([[0.2, 0.2, -1.0], [0.6, 0.2, 1.0], [0.2, 0.6, 1.0]]), base),  # transversal
        ]
        t1 = np.array([c[0] for c in cases])
        t2 = np.array([c[1] for c in cases])
        assert len(assert_narrowphase_matches(t1, t2)[0]) > 0
        assert_narrowphase_matches(t2, t1)

    def test_narrowphase_lattice_pairs(self):
        # small-integer vertices: many exact zeros, shared vertices and edges,
        # coplanar and zero-area triangles
        rng = np.random.default_rng(13)
        t1 = rng.integers(0, 3, (3000, 3, 3)).astype(float)
        t2 = rng.integers(0, 3, (3000, 3, 3)).astype(float)
        assert len(assert_narrowphase_matches(t1, t2)[0]) > 100

    def test_point_triangle_distance_regions(self):
        rng = np.random.default_rng(14)
        tris = rng.normal(size=(400, 3, 3))
        tris[:50, 2] = tris[:50, 1]  # zero area
        points = rng.normal(scale=2.0, size=(25, 3))
        # small-integer triangles and points hit every region boundary exactly
        lattice = rng.integers(0, 3, (400, 3, 3)).astype(float)
        for tris, points in ((tris, points), (lattice, rng.integers(-1, 4, (25, 3)))):
            for p in points.astype(float):
                got = _point_triangle_distance(p, tris)
                with np.errstate(divide="ignore", invalid="ignore"):
                    want = [scalar_point_triangle_distance(p, t) for t in tris]
                assert same_bits(got, want)

    def test_point_mesh_distance(self, fig2):
        p, fps = fig2
        mesh = grow_2d(p, fps["minus"], "unstable", eps=0.05, depth=3, ring_points=32)
        v, t = mesh.vertices, mesh.triangles
        rng = np.random.default_rng(15)
        for q in v[rng.choice(len(v), 10)] + rng.normal(scale=0.02, size=(10, 3)):
            d = np.linalg.norm(v[t].mean(axis=1) - q, axis=1)
            cand = np.where(d <= np.sort(d)[63] + mesh.edge_length_bound())[0]
            want = min(scalar_point_triangle_distance(q, v[t[i]]) for i in cand)
            assert point_mesh_distance(q, mesh) == want

    @pytest.mark.parametrize("block", [None, 500])
    def test_hausdorff_clouds(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(manifold, "_JOIN_BLOCK", block)
        rng = np.random.default_rng(16)
        a = rng.normal(size=(400, 3))
        b = rng.normal(size=(300, 3)) * [1.0, 2.0, 0.5]
        # on a surface, as mesh vertices are
        s = rng.uniform(-1, 1, (500, 2))
        c = np.column_stack([s, np.sin(3 * s[:, 0]) * s[:, 1]])
        d = c + rng.normal(scale=1e-3, size=c.shape)
        cases = [
            (a, b), (c, d), (d, c),
            (a, b + 100.0),  # far apart: no row has a same-cell bound
            (a[:1], b), (a, b[:1]), (a[:1], b[:1]),  # one point
            (np.repeat(a[:40], 5, axis=0), a[:40]),  # duplicates
            (c, c), (np.repeat(c[:3], 50, axis=0), np.repeat(c[:3], 50, axis=0)),
        ]
        for x, y in cases:
            assert hausdorff_distance(x, y) == scalar_hausdorff_distance(x, y)

    def test_hausdorff_clustered_clouds(self, monkeypatch):
        # one exact row per block, so that the break is tested after every
        # row; clusters of mixed spread give rows whose cell bound is loose
        monkeypatch.setattr(manifold, "_JOIN_BLOCK", 8)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            k = rng.integers(1, 6)
            centers = 3.0 * rng.normal(size=(k, 3))

            def draw(n):
                spread = rng.uniform(0.05, 1.0, (n, 1))
                return centers[rng.integers(0, k, n)] + spread * rng.normal(size=(n, 3))

            x, y = draw(rng.integers(1, 80)), draw(rng.integers(1, 80))
            assert hausdorff_distance(x, y) == scalar_hausdorff_distance(x, y)


# --------------------------------------------------------------------------
# Growth parity: grow_2d and grow_1d against copies of their per-vertex loops


def walk_stitch_band(pa, idx_a, pb, idx_b):
    """The band stitching as a walk that advances whichever ring has the
    smaller next angle, one triangle at a time."""
    na, nb = len(pa), len(pb)
    tris = []
    ia = ib = 0
    ca = cb = 0
    while ca < na or cb < nb:
        pa_next = pa[(ia + 1) % na] + (2 * math.pi if ia + 1 >= na else 0.0)
        pb_next = pb[(ib + 1) % nb] + (2 * math.pi if ib + 1 >= nb else 0.0)
        if ca < na and (cb >= nb or pa_next <= pb_next):
            tris.append((idx_a[ia % na], idx_b[ib % nb], idx_a[(ia + 1) % na]))
            ia += 1
            ca += 1
        else:
            tris.append((idx_a[ia % na], idx_b[ib % nb], idx_b[(ib + 1) % nb]))
            ib += 1
            cb += 1
    return tris


def reference_grow_2d(p, fp, kind, eps=None, depth=6, refine=None, ring_points=64):
    """grow_2d with every seed built point by point (math.cos, math.sin and
    2x2 products) and every band stitched by walk_stitch_band; returns the
    mesh's arrays and flags as a dict."""
    vals, basis = linear_data(p, fp).subspace(kind)
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
    box = manifold._default_box(p)
    if refine is None:
        refine = 2.5 * (2 * math.pi / ring_points) * eps * rho ** (depth + 1)
    complex_pair = abs(lam_growth[0].imag) > 1e-12
    negative_real = np.any((np.abs(lam_growth.imag) < 1e-12) & (lam_growth.real < 0))
    if negative_real:
        m = 1
    elif complex_pair:
        m = max(1, int(math.ceil(abs(np.angle(lam_growth[0])) / 0.35)))
    else:
        m = max(1, int(math.ceil(math.log(max(rho, 1.0 + 1e-12)) / math.log(1.6))))
    fracs = [manifold._frac_power_2x2(B, j / m) for j in range(m)] if m > 1 else None

    def ring(k, phis):
        seeds = []
        for phi in phis:
            c = eps * np.array([math.cos(phi), math.sin(phi)])
            if fracs is not None:
                c = fracs[k % m] @ c
            seeds.append(fp.location + basis @ c)
        pts = np.array(seeds)
        for _ in range(k // m):
            pts = step(pts)
        return pts

    one = fracs[1] if (fracs is not None and m > 1) else B
    spin = math.atan2(one[1, 0], one[0, 0]) if complex_pair else 0.0
    if fracs is None and complex_pair:
        spin = float(np.angle(lam_growth[0]))
    rings_phi, rings_pts, truncated = [], [], False
    for k in range(m * (depth + 1)):
        phis = np.linspace(0.0, 2 * math.pi, ring_points, endpoint=False)
        pts = ring(k, phis)
        while len(phis) < 4096:
            edge = np.roll(pts, -1, axis=0) - pts
            dphi = (np.roll(phis, -1) - phis) % (2 * math.pi)
            split = (np.sqrt(np.vecdot(edge, edge)) > refine) & (dphi > 1e-12)
            if not split.any():
                break
            phis = np.sort(np.concatenate([phis, phis[split] + dphi[split] / 2.0]) % (2 * math.pi))
            pts = ring(k, phis)
        if box is not None and np.max(np.abs(pts)) > box:
            truncated = True
            break
        rings_phi.append(phis)
        rings_pts.append(pts)
    if len(rings_pts) < 2:
        raise ManifoldError("bounding box truncated the mesh before one band")
    offsets = np.cumsum([0] + [len(r) for r in rings_pts])
    ring_idx = np.concatenate([np.full(len(r), k) for k, r in enumerate(rings_pts)])
    tris = []
    for k in range(len(rings_pts) - 1):
        adj_a = (rings_phi[k] + k * spin) % (2 * math.pi)
        adj_b = (rings_phi[k + 1] + (k + 1) * spin) % (2 * math.pi)
        order_a = np.argsort(adj_a, kind="stable")
        order_b = np.argsort(adj_b, kind="stable")
        tris.extend(walk_stitch_band(adj_a[order_a], offsets[k] + order_a,
                                     adj_b[order_b], offsets[k + 1] + order_b))
    return dict(vertices=np.vstack(rings_pts), triangles=np.asarray(tris, dtype=int),
                phi=np.concatenate(rings_phi), generation=ring_idx // m,
                ring_of_vertex=ring_idx, subrings=m, truncated=truncated)


def reference_grow_1d(p, fp, kind, eps=None, depth=8, seed_points=8):
    """grow_1d with its refinement pass as a loop over (generation, s)
    entries; returns (points, generation, truncated) per branch."""
    vals, basis = linear_data(p, fp).subspace(kind)
    if basis.shape[1] != 1:
        raise ManifoldError(f"{kind} subspace is not one-dimensional")
    w = basis[:, 0]
    lam = vals[0].real
    step = p.step if kind == "unstable" else p.step_back
    growth = lam if kind == "unstable" else 1.0 / lam
    if growth < 0:
        base_step = step
        step = lambda pt: base_step(base_step(pt))  # noqa: E731
        growth = growth * growth
    growth = abs(growth)
    if eps is None:
        eps = 1e-4 * (1.0 + float(np.max(np.abs(fp.location))))
    box = manifold._default_box(p)
    refine = 0.25 * eps * growth ** (depth + 1)
    branches = []
    for sign in (+1, -1):
        def push(entries):
            gens = np.array([g for g, _ in entries])
            pts = np.array([fp.location + sign * eps * growth**s * w for _, s in entries])
            for g in range(1, gens.max() + 1):
                live = gens >= g
                pts[live] = step(pts[live])
            return pts

        entries = [(g, float(s)) for g in range(depth + 1)
                   for s in np.linspace(0.0, 1.0, seed_points, endpoint=False)]
        pts = push(entries)
        truncated = False
        changed = True
        while changed and len(entries) < 20000:
            changed = False
            new_entries = []
            for i in range(len(entries)):
                new_entries.append(entries[i])
                if i + 1 >= len(entries):
                    break
                if np.linalg.norm(pts[i + 1] - pts[i]) > refine:
                    (g1, s1), (g2, s2) = entries[i], entries[i + 1]
                    new_entries.append((g1, 0.5 * (s1 + (s2 if g1 == g2 else 1.0))))
                    changed = True
            if changed:
                if len(set(new_entries)) == len(entries):  # no midpoint is new
                    break
                entries = sorted(set(new_entries))
                pts = push(entries)
        if box is not None:
            inside = np.max(np.abs(pts), axis=1) <= box
            if not inside.all():
                cut = int(np.argmin(inside))
                pts, entries, truncated = pts[:cut], entries[:cut], True
        branches.append((pts, np.asarray([g for g, _ in entries]), truncated))
    return branches


def outcome(grow, *args, **kwargs):
    """What grow returns, or the class and message of what it raises."""
    try:
        return grow(*args, **kwargs)
    except (ManifoldError, ValueError) as exc:
        return type(exc), str(exc)


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def assert_same_mesh(mesh, ref):
    if isinstance(ref, tuple):
        assert mesh == ref
        return
    for name in ("vertices", "triangles", "phi", "generation", "ring_of_vertex"):
        assert bits(getattr(mesh, name)) == bits(ref[name]), name
    assert (mesh.subrings, mesh.truncated) == (ref["subrings"], ref["truncated"])


def assert_same_branches(branches, ref):
    if isinstance(ref, list):
        assert [(bits(b.points), bits(b.generation), b.truncated, b.sign) for b in branches] == [
            (bits(pts), bits(gen), truncated, sign) for (pts, gen, truncated), sign in zip(ref, (1, -1))
        ]
    else:
        assert branches == ref


#: Parity cases: a parameter set with grow_2d and grow_1d keywords.  fig2's
#: meshes (complex pairs, so sub-rings) and a refining 1D branch; negative
#: multipliers (one sub-ring, double-step branches), once with rings refined
#: past 4096 points and branches refined and cut by the box, once with a
#: mesh cut by the box; no box at all (indefinite Q); a branch that
#: refines to its 20000-point budget before the box cuts it; and a stable
#: branch so folded that its refinement adds a point or two per pass until
#: no midpoint is new.
FIG2 = (0.0, -0.3, 0.0, 0.5, 0.0, 0.5)
NEGATIVE = (-0.3, -2.6, 0.0, 0.5, 0.0, 0.5)
ESCAPING = (-0.5, 1.5, 0.0, 0.5, 0.0, 0.5)
GROW_CASES = {
    "fig2": (FIG2, dict(eps=0.36, depth=8, ring_points=64), dict(eps=0.01, depth=40, seed_points=4)),
    "negative-refined": (NEGATIVE, dict(eps=0.05, depth=1, ring_points=24, refine=1e-4),
                         dict(eps=0.1, depth=3, seed_points=8)),
    "negative-boxed": (NEGATIVE, dict(eps=0.05, depth=10, ring_points=40), dict(depth=2)),
    "indefinite": ((0.0, -0.3, 0.0, -0.5, 1.0, 0.5), dict(eps=0.05, depth=3, ring_points=32),
                   dict(depth=12)),
    "escaping": (ESCAPING, dict(eps=0.05, depth=6, ring_points=40),
                 dict(eps=0.1, depth=8, seed_points=4)),
    "folded": ((-0.14, -1.33, 0.15, 0.61, -0.43, 0.82), dict(eps=0.05, depth=3, ring_points=16),
               dict(eps=0.04, depth=10, seed_points=6)),
}


def grow_case(case):
    prm, kw2, kw1 = GROW_CASES[case]
    p = GenericMapParams.make(*prm)
    return p, {fp.which: fp for fp in fixed_points(p)}, kw2, kw1


class TestGrowParity:
    @pytest.mark.parametrize("case", list(GROW_CASES))
    def test_every_fixed_point_and_kind(self, case):
        p, fps, kw2, kw1 = grow_case(case)
        for fp in fps.values():
            for kind in ("stable", "unstable"):
                assert_same_mesh(outcome(grow_2d, p, fp, kind, **kw2),
                                 outcome(reference_grow_2d, p, fp, kind, **kw2))
                assert_same_branches(outcome(grow_1d, p, fp, kind, **kw1),
                                     outcome(reference_grow_1d, p, fp, kind, **kw1))

    def test_branch_budget_without_box(self, monkeypatch):
        monkeypatch.setattr(manifold, "_default_box", lambda p: None)
        p, fps, _, kw1 = grow_case("escaping")
        branches = grow_1d(p, fps["plus"], "unstable", **kw1)
        assert len(branches[0].points) > 20000
        assert_same_branches(branches, reference_grow_1d(p, fps["plus"], "unstable", **kw1))

    def test_cases_reach_refinement_budgets_and_box(self):
        """The cases above run every path of the growth loops."""
        p, fps, kw2, kw1 = grow_case("fig2")
        branch = grow_1d(p, fps["plus"], "unstable", **kw1)[0]
        assert len(branch.points) > 41 * 4 and not branch.truncated  # refined
        p, fps, kw2, kw1 = grow_case("negative-refined")
        mesh = grow_2d(p, fps["plus"], "unstable", **kw2)
        assert np.bincount(mesh.ring_of_vertex).max() > 4096 and mesh.subrings == 1
        assert all(b.truncated for b in grow_1d(p, fps["plus"], "stable", **kw1))
        p, fps, kw2, kw1 = grow_case("negative-boxed")
        assert grow_2d(p, fps["plus"], "unstable", **kw2).truncated
        assert linear_data(p, fps["minus"]).unstable_values[0].real < 0  # double step

    def test_stitch_band_is_the_walk(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # angles from a few values, so that the rings tie often, or any in
        # [0, 2 pi]; rings of one point included
        angle = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 2 * math.pi - 1e-9]),
                          st.floats(0.0, 2 * math.pi))
        ring = st.lists(angle, min_size=1, max_size=12).map(lambda v: np.sort(np.array(v)))

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(ring, ring, st.integers(0, 50))
        def check(pa, pb, gap):
            idx_a = 7 + np.arange(len(pa))
            idx_b = idx_a[-1] + 1 + gap + np.arange(len(pb))
            got = manifold._stitch_band(pa, idx_a, pb, idx_b)
            want = np.asarray(walk_stitch_band(pa, idx_a, pb, idx_b), dtype=int)
            assert bits(got) == bits(want)

        check()
