import math

import numpy as np
import pytest

from qvpmaps import GenericMapParams, escape_bound, fixed_points, reversor_for
from qvpmaps.manifold import (
    ManifoldError,
    NonHyperbolicError,
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

    def test_wrong_dimension_rejected(self, fig2):
        p, fps = fig2
        with pytest.raises(ManifoldError):
            grow_2d(p, fps["plus"], "unstable")  # unstable is 1D at x+


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
            assert q.backward_distance < 1e-6
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


def scalar_heteroclinic_search(p, r, bracket, samples, capture_radius=0.15,
                               exit_radius=0.3, conv_tol=1e-6, budget=2500):
    """Reference: the one-orbit-at-a-time search that the lockstep
    heteroclinic_from_symmetry replaces, as (point, s, fwd, bwd) tuples."""
    fps = fixed_points(p)
    target = next(f for f in fps if f.classification == "type_A")
    other = next(f for f in fps if f is not target)
    w_u = linear_data(p, target).unstable_basis[:, 0]
    escape_lim = 1e6
    if p.quad.is_positive_definite():
        escape_lim = 1.000001 * escape_bound(p.quad, p.alpha, p.tau, p.sigma)

    ld = np.longdouble
    eta = ld(r.eta)
    x_t = target.location.astype(ld)
    x_o = other.location.astype(ld)
    w_u_ld = w_u.astype(ld)

    def line_ld(s):
        s = ld(s)
        return np.array([s, -eta / 2, -eta - s], dtype=ld)

    def episode_side(s):
        pt = line_ld(s)
        in_episode = False
        for _ in range(budget):
            pt = p.step(pt)
            d = float(np.sqrt(np.sum((pt - x_t) ** 2)))
            if not in_episode:
                if d < capture_radius:
                    in_episode = True
                elif float(np.max(np.abs(pt))) > escape_lim:
                    return np.nan
            elif d > exit_radius:
                proj = float((pt - x_t) @ w_u_ld)
                return math.copysign(1.0, proj) if proj else np.nan
        return np.nan

    def certified_dists(s):
        dists = []
        for step, centre in ((p.step, x_t), (p.step_back, x_o)):
            best = np.inf
            pt = line_ld(s)
            for _ in range(budget):
                pt = step(pt)
                best = min(best, float(np.sqrt(np.sum((pt - centre) ** 2))))
                if float(np.max(np.abs(pt))) > escape_lim:
                    break
            dists.append(best)
        return dists

    def bisect(lo, hi, flo, iters=160):
        lo, hi = ld(lo), ld(hi)
        for _ in range(iters):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            fmid = episode_side(mid)
            if not np.isfinite(fmid):
                hi = mid
                continue
            if fmid == flo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    grid = np.linspace(bracket[0], bracket[1], int(samples))
    sides = [episode_side(s) for s in grid]
    hits = []
    for i in range(len(grid) - 1):
        a, b = sides[i], sides[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a == b:
            continue
        s_root = bisect(grid[i], grid[i + 1], a)
        fwd, bwd = certified_dists(s_root)
        if fwd < conv_tol and bwd < conv_tol:
            pt = np.asarray(line_ld(s_root), dtype=float)
            if not any(np.linalg.norm(pt - h[0]) < 1e-7 for h in hits):
                hits.append((pt, float(s_root), fwd, bwd))
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
        for g, (pt, s, fwd, bwd) in zip(got, want):
            assert g.s == s
            assert g.forward_distance == fwd
            assert g.backward_distance == bwd
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
            assert h.backward_distance < 1e-6

    def test_empty_grid(self, fig2):
        p, _ = fig2
        assert heteroclinic_from_symmetry(p, reversor_for(p), (-0.2, -0.05), samples=1) == []
