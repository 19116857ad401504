import math

import numpy as np
import pytest

from qvpmaps import (
    GenericMapParams,
    QuadraticForm2,
    asymptotic_direction,
    classify_stability,
    escape_bound,
    fixed_points,
    invert_quadratic,
    is_volume_preserving,
    iterate,
    period2_line,
    periodic_count_bound,
    reversor_for,
    stability_diagram,
    symmetric_orbit_search,
)
from qvpmaps import dynamics
from qvpmaps.dynamics import (
    ELLIPTIC_PAIR,
    PERIOD_DOUBLING_BOUNDARY,
    SADDLE_NODE_BOUNDARY,
    TYPE_A,
    TYPE_B,
    DynamicsError,
    NonGenericError,
    NotPositiveDefiniteError,
    SYMMETRIC_CERTIFY_TOL,
    Reversor,
    _cubic_roots,
    _fixed_point_locations,
    _second_fix_defects,
    _speculation_depth,
    bisect_sign_changes,
)


def params(alpha, tau, sigma=0.0, a=0.5, b=0.0, c=0.5):
    return GenericMapParams.make(alpha, tau, sigma, a, b, c)


def random_normalized_quad(rng):
    a = rng.uniform(0.1, 1.2)
    b = rng.uniform(-0.5, 0.5)
    c = 1.0 - a - b
    return a, b, c


class TestFixedPoints:
    def test_symmetric_pair(self):
        fps = fixed_points(params(-1.0, 0.0))
        xs = sorted(fp.location[0] for fp in fps)
        assert np.allclose(xs, [-1.0, 1.0])

    def test_degenerate_boundary(self):
        fps = fixed_points(params(0.25, 1.0))  # (tau-sigma)^2 = 4 alpha
        assert len(fps) == 1
        assert abs(fps[0].location[0] + 0.5) < 1e-12

    def test_tau_one(self):
        fps = fixed_points(params(0.0, 1.0))
        xs = {fp.which: fp.location[0] for fp in fps}
        assert abs(xs["plus"] - 0.0) < 1e-14
        assert abs(xs["minus"] + 1.0) < 1e-14

    def test_none_inside_parabola(self):
        assert fixed_points(params(1.0, 0.0)) == []

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            a, b, c = random_normalized_quad(rng)
            p = params(rng.uniform(-2, 1), rng.uniform(-2, 2), rng.uniform(-1, 1), a, b, c)
            for fp in fixed_points(p):
                assert np.max(np.abs(p.step(fp.location) - fp.location)) < 1e-12

    def test_requires_normalization(self):
        with pytest.raises(DynamicsError):
            fixed_points(GenericMapParams.make(0.0, 0.0, 0.0, 1.0, 1.0, 1.0))

    def test_overflow_is_a_dynamics_error(self):
        # x = 1e150: x ** 3 overflows in the classification of the points
        with pytest.raises(DynamicsError, match="overflows float64"):
            fixed_points(params(-1e300, 0.0))

    def test_trace_identities(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            a, b, c = random_normalized_quad(rng)
            tau, sigma = rng.uniform(-2, 2), rng.uniform(-1, 1)
            alpha = rng.uniform(-3, 0.9 * 0.25 * (tau - sigma) ** 2)
            p = params(alpha, tau, sigma, a, b, c)
            fps = {fp.which: fp for fp in fixed_points(p)}
            if set(fps) != {"plus", "minus"}:
                continue
            root = math.sqrt((tau - sigma) ** 2 - 4 * alpha)
            assert abs(fps["plus"].t - fps["plus"].s - root) < 1e-10
            assert abs(fps["minus"].t - fps["minus"].s + root) < 1e-10
            assert abs(fps["plus"].t - fps["minus"].s - (a - c) * root) < 1e-10
            assert abs(fps["minus"].t - fps["plus"].s + (a - c) * root) < 1e-10

    def test_eigenvalue_cubic_and_product(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            a, b, c = random_normalized_quad(rng)
            p = params(rng.uniform(-2, 0), rng.uniform(-2, 2), 0.0, a, b, c)
            for fp in fixed_points(p):
                lam = fp.eigenvalues
                assert abs(np.prod(lam) - 1.0) < 1e-9
                for z in lam:
                    val = z**3 - fp.t * z**2 + fp.s * z - 1.0
                    assert abs(val) < 1e-10 * max(1.0, abs(z) ** 3)

    def test_reciprocal_spectra_when_symmetric(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            tau = rng.uniform(-2, 2)
            alpha = rng.uniform(-2, 0.9 * 0.25 * tau * tau)
            p = params(alpha, tau)
            fps = {fp.which: fp for fp in fixed_points(p)}
            lam_p = np.sort_complex(fps["plus"].eigenvalues)
            lam_m_inv = np.sort_complex(1.0 / fps["minus"].eigenvalues)
            assert np.max(np.abs(lam_p - lam_m_inv)) < 1e-8


class TestClassifyStability:
    def test_codim2_point(self):
        label, lam = classify_stability(-1.0, -1.0)
        assert sorted(np.real(lam)) == [-1.0, -1.0, 1.0]
        assert np.max(np.abs(np.imag(lam))) == 0.0

    def test_cusp_triple_root(self):
        label, lam = classify_stability(3.0, 3.0)
        assert np.max(np.abs(lam - 1.0)) < 1e-6
        assert label == SADDLE_NODE_BOUNDARY

    def test_double_root_curve(self):
        for r in np.concatenate([np.linspace(-3, -0.3, 40), np.linspace(0.3, 3, 40)]):
            t = 2 * r + 1.0 / r**2
            s = r * r + 2.0 / r
            _, lam = classify_stability(t, s)
            lam = sorted(lam, key=lambda z: abs(z - r))
            assert abs(lam[0] - lam[1]) < 1e-6

    def test_large_trace_type(self):
        label, lam = classify_stability(5.0, 5.2)
        outside = np.sum(np.abs(lam) > 1.0)
        assert label in (TYPE_A, TYPE_B)
        assert (label == TYPE_A) == (outside == 1)

    def test_saddle_node_with_real_roots(self):
        label, _ = classify_stability(4.0, 4.0)  # t = s > 3: roots 1, r, 1/r
        assert label == SADDLE_NODE_BOUNDARY

    def test_elliptic_segment(self):
        label, lam = classify_stability(0.5, 0.5)  # -1 < t = s < 3
        assert label == ELLIPTIC_PAIR
        assert np.sum(np.abs(np.abs(lam) - 1.0) < 1e-9) == 3

    def test_period_doubling_line(self):
        label, lam = classify_stability(1.0, -3.0)  # t + s = -2
        assert label == PERIOD_DOUBLING_BOUNDARY
        assert np.min(np.abs(lam + 1.0)) < 1e-9


class TestBatchedClassification:
    R = 0.7  # a point of the double-root curve t = 2r + 1/r^2, s = r^2 + 2/r
    ROWS = [
        (-3.0, -1.0),  # three real roots
        (-2.0, -3.5),
        (0.2, 0.3),  # a complex pair
        (6.0, 4.0),
        (3.0, 3.0),  # triple root
        (-1.0, -1.0),  # codimension two
        (2 * R + 1.0 / R**2, R * R + 2.0 / R),
        (1.0, -3.0),  # t + s = -2
        (0.5, 0.5),  # -1 < t = s < 3
    ]

    def test_batch_equals_rows_alone(self):
        rng = np.random.default_rng(75)
        ts = np.concatenate([self.ROWS, rng.uniform(-5, 5, (200, 2))])
        labels, lam = classify_stability(ts[:, 0], ts[:, 1])
        assert np.any(np.all(lam.imag == 0, axis=1)) and np.any(lam.imag != 0)
        assert lam.tobytes() == _cubic_roots(ts[:, 0], ts[:, 1]).tobytes()
        for (t, s), label, row in zip(ts, labels, lam):
            one_label, one = classify_stability(t, s)
            assert label == one_label
            assert row.tobytes() == one.tobytes()
            assert row.tobytes() == _cubic_roots(np.array([t]), np.array([s]))[0].tobytes()

    def test_real_roots_polished_in_float64(self):
        # recorded from the float64 polish; a complex polish moves the last bits
        _, lam = classify_stability(-3.0, -1.0)
        assert not np.any(lam.imag)
        want = ["-0x1.9b6ed45058c8dp+1", "0x1.59aac0e3351f4p-1", "-0x1.d7dedf43a3f88p-2"]
        assert [x.hex() for x in lam.real] == want

    def test_empty_batch(self):
        labels, lam = classify_stability(np.empty(0), np.empty(0))
        assert labels.shape == (0,) and lam.shape == (0, 3)
        assert _cubic_roots(np.empty(0), np.empty(0)).shape == (0, 3)

class TestEscapeBound:
    def test_reference_value(self):
        q = QuadraticForm2(0.5, 0.0, 0.5)
        assert escape_bound(q, 0.0, 0.0, 0.0) == 4.0

    def test_degenerate_form_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            escape_bound(QuadraticForm2(0.5, 1.0, 0.5), 0.0, 0.0, 0.0)

    def test_exceeds_fixed_points(self):
        rng = np.random.default_rng(74)
        count = 0
        while count < 50:
            a = rng.uniform(0.1, 1.0)
            c = rng.uniform(0.1, 1.0)
            b = 1.0 - a - c
            q = QuadraticForm2(a, b, c)
            if not q.is_positive_definite():
                continue
            tau, sigma = rng.uniform(-2, 2), rng.uniform(-1, 1)
            alpha = rng.uniform(-3, 0.2 * (tau - sigma) ** 2)
            p = params(alpha, tau, sigma, a, b, c)
            fps = fixed_points(p)
            if not fps:
                continue
            count += 1
            kappa = escape_bound(q, alpha, tau, sigma)
            for fp in fps:
                assert kappa > abs(fp.location[0])


class TestIterate:
    def test_fixed_point_constant_orbit(self):
        p = params(-1.0, 0.0)
        fp = fixed_points(p)[0]
        orb = iterate(p, fp.location, 50)
        assert orb.verdict == "bounded-so-far"
        assert np.max(np.abs(orb.points - fp.location)) < 1e-10

    def test_forward_backward_round_trip(self):
        p = params(0.0, -0.3)
        x0 = np.array([0.05, -0.02, 0.01])
        fwd = iterate(p, x0, 20)
        assert fwd.verdict == "bounded-so-far"
        back = iterate(p, fwd.points[-1], 20, direction="backward")
        assert np.max(np.abs(back.points[-1] - x0)) < 1e-8

    def test_escape_detection_and_monotonicity(self):
        p = params(0.0, 0.0)
        orb = iterate(p, np.array([10.0, 0.0, 0.0]), 200)
        assert orb.verdict == "escaped-forward"
        xs = orb.points[:, 0]
        assert np.all(np.diff(xs) > 0.0)

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(75)
        p = params(0.1, -0.4, 0.2, 0.3, 0.2, 0.5)
        orb = iterate(p, rng.standard_normal(3) * 0.1, 30)
        series = orb.scalar_series()
        for t in range(2, len(series) - 1):
            pred = (
                p.alpha
                + p.tau * series[t]
                - p.sigma * series[t - 1]
                + series[t - 2]
                + p.quad(series[t], series[t - 1])
            )
            assert abs(series[t + 1] - pred) < 1e-12 * max(1.0, abs(pred))

    def test_backward_series_recurrence(self):
        p = params(0.05, -0.2)
        orb = iterate(p, np.array([0.2, 0.1, -0.1]), 15, direction="backward")
        series = orb.scalar_series()
        for t in range(2, len(series) - 1):
            pred = (
                p.alpha
                + p.tau * series[t]
                - p.sigma * series[t - 1]
                + series[t - 2]
                + p.quad(series[t], series[t - 1])
            )
            assert abs(series[t + 1] - pred) < 1e-10 * max(1.0, abs(pred))

    def test_indefinite_runs_to_limit(self):
        p = params(0.0, 0.0, 0.0, 0.5, 0.7, -0.2)  # indefinite Q
        orb = iterate(p, np.array([0.3, 0.2, 0.1]), 40)
        assert orb.verdict == "bounded-so-far" or orb.overflow

    def test_overflow_flagged_as_escape(self):
        # indefinite Q: no escape cube, growth runs into float overflow
        p = params(0.0, 0.0, 0.0, 1.0, 0.5, -0.5)
        orb = iterate(p, np.array([50.0, 0.0, 0.0]), 500)
        assert orb.verdict == "escaped-forward"
        assert orb.overflow
        assert orb.escape_time is not None

    def test_volume_preserved(self):
        rng = np.random.default_rng(76)
        for _ in range(5):
            a, b, c = 0.4, 0.1, 0.5
            p = params(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), a, b, c)
            m = p.as_quadmap()
            assert is_volume_preserving(m)
            for x in rng.standard_normal((100, 3)):
                assert abs(abs(np.linalg.det(p.jacobian(x))) - 1.0) < 1e-10


class TestAsymptoticDirection:
    def test_forward_plus_x(self):
        p = params(0.0, 0.0)
        orb = iterate(p, np.array([10.0, 0.0, 0.0]), 400)
        rep = asymptotic_direction(orb)
        assert rep.axis == "+x"
        assert max(rep.ratios) < 0.1

    def test_backward_minus_z(self):
        p = params(0.0, 0.0)
        orb = iterate(p, np.array([0.0, 0.0, -10.0]), 400, direction="backward")
        rep = asymptotic_direction(orb)
        assert rep.axis == "-z"
        assert max(rep.ratios) < 0.1

    def test_bounded_orbit_rejected(self):
        p = params(-1.0, 0.0)
        orb = iterate(p, fixed_points(p)[0].location, 10)
        with pytest.raises(DynamicsError):
            asymptotic_direction(orb)


class TestReversor:
    def test_fig2_parameters(self):
        p = params(0.0, -0.3)
        h = reversor_for(p)
        assert h is not None
        assert abs(h.eta + 0.3) < 1e-14

    def test_tau_equals_sigma(self):
        p = params(0.1, 0.4, 0.4)
        h = reversor_for(p)
        assert h.eta == 0.0
        pt = np.array([0.3, -0.2, 0.7])
        assert np.allclose(h(pt), [-0.7, 0.2, -0.3])

    def test_asymmetric_not_reversible(self):
        assert reversor_for(params(0.0, 0.1, 0.0, 0.6, 0.0, 0.4)) is None

    def test_sum_zero_rejected(self):
        with pytest.raises(NonGenericError):
            reversor_for(GenericMapParams.make(0.0, 0.0, 0.0, 1.0, -2.0, 1.0))

    def test_involution_exact_in_coefficients(self):
        h = reversor_for(params(0.2, -0.7)).as_affine()
        L2 = h.linear @ h.linear
        b2 = h.linear @ h.const + h.const
        assert np.array_equal(L2, np.eye(3))
        assert np.array_equal(b2, np.zeros(3))

    def test_functional_equation(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            tau = rng.uniform(-2, 2)
            sigma = rng.uniform(-1, 1)
            a = rng.uniform(0.1, 0.8)
            b = 1.0 - 2 * a
            p = params(rng.uniform(-1, 1), tau, sigma, a, b, a)
            h = reversor_for(p)
            f_inv = invert_quadratic(p.as_quadmap())
            for pt in rng.standard_normal((20, 3)):
                lhs = h(p.step(pt))
                rhs = f_inv(h(pt))
                assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestFixSet:
    def test_line_points_fixed(self):
        p = params(0.0, -0.3)
        h = reversor_for(p)
        line = h.fix_line
        for s in (-1.0, 0.0, 0.7, 2.5):
            pt = line(s)
            assert np.max(np.abs(h(pt) - pt)) < 1e-14

    def test_example_point(self):
        h = reversor_for(params(0.0, -0.3))
        assert abs(h.eta + 0.3) < 1e-15
        pt = h.fix_line(1.0)
        assert np.allclose(pt, [1.0, 0.15, -0.7])

    def test_origin_for_eta_zero(self):
        h = reversor_for(params(0.0, 0.5, 0.5))
        assert np.allclose(h.fix_line(0.0), [0.0, 0.0, 0.0])
        assert np.allclose(h(np.zeros(3)), np.zeros(3))


class TestBatchedStep:
    def test_batch_matches_points(self):
        p = params(0.3, -0.7, 0.2, 0.4, 0.3, 0.3)
        rng = np.random.default_rng(3)
        # a (3, 3) batch is where unpacking the rows would go unnoticed
        for shape in ((3, 3), (7, 3), (2, 5, 3)):
            double = rng.standard_normal(shape)
            for pts in (double, double.astype(np.longdouble)):
                flat = pts.reshape(-1, 3)
                for f in (p.step, p.step_back, Reversor(eta=0.35)):
                    want = np.array([f(q) for q in flat]).reshape(shape)
                    assert np.array_equal(f(pts), want)

    def test_longdouble_round_trip(self):
        p = params(0.3, -0.7, 0.2, 0.4, 0.3, 0.3)
        pts = np.random.default_rng(5).standard_normal((7, 3)).astype(np.longdouble)
        img = p.step(pts)
        back = p.step_back(img)
        assert img.dtype == back.dtype == np.longdouble
        assert np.max(np.abs(back - pts)) <= 64 * np.finfo(np.longdouble).eps

    def test_defects_match_points(self):
        p = params(0.1, 0.4, 0.2)
        h = reversor_for(p)
        pts = np.random.default_rng(4).standard_normal((3, 3))
        for f in (h.fix_defects, lambda pt: _second_fix_defects(p, h, pt)):
            got = np.array(f(pts))
            want = np.array([f(q) for q in pts]).T
            assert np.array_equal(got, want)


SQRT2 = math.sqrt(2.0)


def grid_symmetric_search(p, r, period, bracket, samples=10_000):
    """Reference: the grid search that symmetric_orbit_search replaced.  The
    half orbits of a uniform sample of the bracket, with nan rows for orbits
    that stop being finite or leave the 1e12 box, have the sign changes of
    each defining function bisected by bisect_sign_changes; the roots are
    certified as by the library."""
    m = (period + 1) // 2
    if period % 2 == 0:
        defects = r.fix_defects
    else:
        defects = lambda pt: _second_fix_defects(p, r, pt)

    def half_orbit(s):
        pt = r.fix_line(np.atleast_1d(s))
        live = np.arange(len(pt))
        for _ in range(m):
            moved = p.step(pt[live])
            ok = np.all(np.isfinite(moved), axis=-1) & (np.max(np.abs(moved), axis=-1) <= 1e12)
            pt[live] = moved
            pt[live[~ok]] = np.nan
            live = live[ok]
        return pt

    grid = np.linspace(bracket[0], bracket[1], samples)
    scan = defects(half_orbit(grid))
    roots = np.concatenate([
        bisect_sign_changes(lambda s, idx=idx: defects(half_orbit(s))[idx], grid, scan[idx])
        for idx in range(2)
    ])
    start = r.fix_line(roots)
    with np.errstate(over="ignore", invalid="ignore"):
        on_line = np.max(np.abs(defects(half_orbit(roots))), axis=0)
        closed = np.max(np.abs(orbit_end(p, start, period) - start), axis=-1)
    certified = (on_line <= 10 * SYMMETRIC_CERTIFY_TOL) & (closed <= SYMMETRIC_CERTIFY_TOL)
    hits = []
    for x in start[certified]:
        if not any(np.max(np.abs(x - h)) < 1e-8 for h in hits):
            hits.append(x)
    return hits


def orbit_end(p, pt, n):
    for _ in range(n):
        pt = p.step(pt)
    return pt


class TestSymmetricOrbitSearch:
    @pytest.mark.parametrize(
        "period, alpha, tau, bracket, want",
        [
            pytest.param(
                4, 0.0, 2.0, (-3.0, 3.0),
                [[-1.0 - SQRT2, -1.0, SQRT2 - 1.0], [SQRT2 - 1.0, -1.0, -1.0 - SQRT2]],
                id="0.0-want0",
            ),
            # a root exactly at the end s = -3 of the bracket
            pytest.param(
                4, -1.0, 2.0, (-3.0, 3.0),
                [[-3.0, -1.0, 1.0], [1.0, -1.0, -3.0]],
                id="-1.0-want1",
            ),
            # odd period: the half orbit ends on Fix(f o h); at the saddle-node
            # boundary alpha = tau^2/4 the fixed point is the one hit
            pytest.param(
                1, 0.8 * 0.8 / 4.0, 0.8, (-2.0, 2.0), [[-0.4, -0.4, -0.4]],
                id="period1-tau0.8",
            ),
            pytest.param(
                1, -1.2 * -1.2 / 4.0, -1.2, (-2.0, 2.0), [[0.6, 0.6, 0.6]],
                id="period1-tau-1.2",
            ),
        ],
    )
    def test_period4_hits_exact(self, period, alpha, tau, bracket, want):
        # the closed forms to within 4 ulps in every coordinate
        p = params(alpha, tau)
        h = reversor_for(p)
        hits = np.array(symmetric_orbit_search(p, h, period, bracket))
        want = np.array(want)
        assert hits.shape == want.shape
        assert np.all(np.abs(hits - want) <= 4 * np.spacing(np.abs(want)))

    def test_reversed_bracket(self):
        p = params(0.0, 2.0)
        h = reversor_for(p)
        fwd = symmetric_orbit_search(p, h, 4, (-3.0, 3.0))
        back = symmetric_orbit_search(p, h, 4, (3.0, -3.0))
        assert len(back) == len(fwd) == 2
        for pt in back:
            assert min(np.max(np.abs(pt - f)) for f in fwd) < 1e-9

    def test_saddle_node_fixed_point_found(self):
        # at the saddle-node boundary the degenerate fixed point sits on Fix(h)
        tau = 0.8
        alpha = tau * tau / 4.0
        p = params(alpha, tau)
        h = reversor_for(p)
        hits = symmetric_orbit_search(p, h, 1, (-2.0, 2.0))
        assert hits
        x_star = -tau / 2.0
        assert any(np.max(np.abs(h_pt - x_star)) < 1e-6 for h_pt in hits)

    def test_generic_parameters_empty(self):
        p = params(-0.5, 0.3)
        h = reversor_for(p)
        assert symmetric_orbit_search(p, h, 2, (-1.5, 1.5)) == []

    def test_empty_bracket(self):
        p = params(0.0, -0.3)
        h = reversor_for(p)
        assert symmetric_orbit_search(p, h, 2, (50.0, 51.0)) == []

    def test_hits_in_increasing_s(self):
        p = params(0.0, 2.0)
        h = reversor_for(p)
        fwd = symmetric_orbit_search(p, h, 4, (-3.0, 3.0))
        back = symmetric_orbit_search(p, h, 4, (3.0, -3.0))
        assert np.all(np.diff([x[0] for x in fwd]) > 0)
        assert np.array_equal(fwd, back)

    def test_double_root_found(self):
        # at alpha = tau = sigma = 0 the fixed point 0 lies on Fix(h); the
        # period-3 defect touches 0 there without a sign change, so the grid
        # search misses what the roots of the polynomial hold
        p = params(0.0, 0.0)
        h = reversor_for(p)
        assert grid_symmetric_search(p, h, 3, (-3.0, 3.0)) == []
        hits = symmetric_orbit_search(p, h, 3, (-3.0, 3.0))
        assert [x.tolist() for x in hits] == [[0.0, 0.0, 0.0]]

    def test_high_periods(self):
        # at alpha = 0, tau = 2 the period-4 pair s = -1 -+ sqrt 2 is found at
        # period 12; at period 16 only s = sqrt 2 - 1: near s = -1 - sqrt 2
        # the degree-128 polynomial's coefficients lose the root to rounding
        # (the grid search with its old 1e-12 bisection width missed it too)
        p = params(0.0, 2.0)
        h = reversor_for(p)
        want = [-1.0 - SQRT2, SQRT2 - 1.0]
        for period, roots in ((12, want), (16, want[1:])):
            hits = symmetric_orbit_search(p, h, period, (-3.0, 3.0))
            assert len(hits) == len(roots)
            for x, s in zip(hits, roots):
                assert abs(x[0] - s) <= 4 * np.spacing(abs(s))

    @pytest.mark.parametrize("period", [0, 17, 32])
    def test_refused_periods(self, period):
        p = params(0.0, 2.0)
        with pytest.raises(DynamicsError, match="period"):
            symmetric_orbit_search(p, reversor_for(p), period, (-3.0, 3.0))

    def test_agrees_with_the_grid_search(self):
        # reversible maps (a = c), on the alpha = 0 and saddle-node slices
        # and at generic alpha: each hit of the grid search matched by one
        # hit within 1e-8, and each hit a periodic point on Fix(h).  A hit
        # may be new where the grid search saw no sign change (see
        # test_double_root_found).
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @hyp.given(
            a=st.floats(0.2, 0.8), tau=st.floats(-3.0, 3.0), sigma=st.floats(-0.5, 0.5),
            kind=st.sampled_from(["zero", "saddle-node", "generic"]),
            generic=st.floats(-1.0, 1.0),
        )
        def check(a, tau, sigma, kind, generic):
            alpha = {"zero": 0.0, "saddle-node": (tau - sigma) ** 2 / 4.0}.get(kind, generic)
            p = params(alpha, tau, sigma, a, 1.0 - 2.0 * a, a)
            h = reversor_for(p)
            for period in range(1, 7):
                got = symmetric_orbit_search(p, h, period, (-3.0, 3.0))
                want = grid_symmetric_search(p, h, period, (-3.0, 3.0))
                for y in want:
                    assert sum(np.max(np.abs(x - y)) < 1e-8 for x in got) == 1
                for x in got:
                    assert sum(np.max(np.abs(x - y)) < 1e-8 for y in want) <= 1
                    assert np.max(np.abs(h(x) - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))
                    assert np.max(np.abs(orbit_end(p, x, period) - x)) <= SYMMETRIC_CERTIFY_TOL

        check()


def bisect_one_at_a_time(side, grid, values):
    """Reference for bisect_sign_changes: each bracket bisected alone, one
    midpoint per call of side."""
    roots = []
    for i in range(len(grid) - 1):
        lo, hi, flo, fhi = grid[i], grid[i + 1], values[i], values[i + 1]
        if not (np.isfinite(flo) and np.isfinite(fhi) and flo * fhi <= 0):
            continue
        for _ in range(dynamics._BISECTION_CAP):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            fmid = side(np.array([mid]))[0]
            if fmid * flo > 0:
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append((lo + hi) / 2)
    return np.array(roots, dtype=grid.dtype)


#: staircase has nan on (NAN_FLANK, 0.32): below the root 3 pi / 29 =
#: 0.32499... of sin(29 s), between it and the lower end of its bracket
#: (0.3, 0.35) on the grid of the tests.
NAN_FLANK = 0.31


def staircase(s):
    """A cheap step function for bisect_sign_changes: the sign of sin(29 s),
    with a nan flank next to one root."""
    s = np.asarray(s)
    return np.where((s > NAN_FLANK) & (s < 0.32), np.nan, np.sign(np.sin(29 * s)))


class TestBisectSignChanges:
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_bitwise_at_every_depth(self, monkeypatch, dtype):
        grid = np.linspace(-1.0, 1.0, 41).astype(dtype)
        values = staircase(grid)
        want = bisect_one_at_a_time(staircase, grid, values)
        assert len(want) == 20  # 19 roots, and the sample at 0 brackets two
        got = {None: bisect_sign_changes(staircase, grid, values)}
        for depth in range(1, 9):
            monkeypatch.setattr(dynamics, "_speculation_depth", lambda n, d=depth: d)
            got[depth] = bisect_sign_changes(staircase, grid, values)
        for roots in got.values():
            # the same values and signs: bitwise, without long double's padding
            assert roots.dtype == want.dtype
            assert np.array_equal(roots, want)
            assert np.array_equal(np.signbit(roots), np.signbit(want))

    @pytest.mark.parametrize("n_live, depth", [(1, 8), (14, 5), (24, 4), (48, 3), (1000, 1)])
    def test_depth_rule(self, n_live, depth):
        assert _speculation_depth(n_live) == depth

    def test_depth_rule_is_the_largest_within_the_round_size(self):
        for n in range(1, 700):
            d = _speculation_depth(n)
            assert 1 <= d <= 8
            assert d == 1 or (2**d - 1) * n <= 512
            assert d == 8 or (2 ** (d + 1) - 1) * n > 512

    def test_first_round_evaluates_the_rule_depth(self):
        grid = np.linspace(-1.0, 1.0, 41)
        sizes = []

        def side(s):
            sizes.append(len(s))
            return staircase(s)

        bisect_sign_changes(side, grid, staircase(grid))
        assert sizes[0] == 20 * (2 ** _speculation_depth(20) - 1) == 20 * 15

    def test_nan_moves_hi(self):
        grid = np.linspace(-1.0, 1.0, 41)
        roots = bisect_sign_changes(staircase, grid, staircase(grid))
        # the bracket (0.3, 0.35) closes on the nan flank, not on 3 pi / 29
        k = np.flatnonzero((roots > 0.3) & (roots < 0.35))
        assert len(k) == 1
        assert abs(roots[k[0]] - NAN_FLANK) <= 1e-15
        assert abs(roots[k[0]] - 3 * math.pi / 29) > 0.01

    def test_halving_cap(self, monkeypatch):
        # towards 0 from (-1, 1) the midpoints never meet an end before the
        # cap: lo = -2^-(cap - 1) and hi = 0 after cap halvings
        side = lambda s: np.where(s < 0, -1.0, 1.0)
        grid = np.array([-1.0, 1.0])
        root = bisect_sign_changes(side, grid, side(grid))
        assert root.tolist() == [-(0.5 ** dynamics._BISECTION_CAP)]
        monkeypatch.setattr(dynamics, "_BISECTION_CAP", 7)
        assert bisect_sign_changes(side, grid, side(grid)).tolist() == [-(0.5**7)]

    def test_midpoint_equal_to_an_end(self):
        # adjacent doubles: the first midpoint rounds onto lo, which stops the
        # bracket after one call of side
        lo = 1.0
        grid = np.array([lo, np.nextafter(lo, 2.0)])
        calls = []

        def side(s):
            calls.append(s.copy())
            return np.where(s > lo, 1.0, -1.0)

        assert bisect_sign_changes(side, grid, side(grid)).tolist() == [lo]
        assert len(calls) == 2
        assert np.all(calls[1] == lo)

    def test_zero_brackets(self):
        def side(s):
            raise AssertionError("no bracket, so no midpoint to evaluate")

        for values in ([1.0, 2.0, 0.5], [-1.0, np.nan, 1.0], [np.nan, np.nan, np.nan]):
            roots = bisect_sign_changes(side, np.array([0.0, 1.0, 2.0]), np.array(values))
            assert roots.shape == (0,)
        assert bisect_sign_changes(side, np.array([]), np.array([])).shape == (0,)

    def test_roots_in_grid_order(self):
        grid = np.linspace(-1.0, 1.0, 41)
        up = bisect_sign_changes(staircase, grid, staircase(grid))
        down = bisect_sign_changes(staircase, grid[::-1], staircase(grid[::-1]))
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)
        assert len(up) == len(down)


class TestPeriod2Line:
    def test_oracle_roots(self):
        # a = c = 1/4, b = 1/2, tau = -2, sigma = 0, alpha = 0
        p = params(0.0, -2.0, 0.0, 0.25, 0.5, 0.25)
        lines = period2_line(p)
        assert lines is not None
        deltas = [d for d, _ in lines]
        assert np.allclose(sorted(deltas), [0.0, 4.0])
        for delta, line in lines:
            assert line.residual(np.linspace(-3, 3, 25)) < 1e-12

    def test_known_points(self):
        p = params(0.0, -2.0, 0.0, 0.25, 0.5, 0.25)
        pt = np.array([1.0, -1.0, 1.0])
        img = p.step(pt)
        assert np.allclose(img, [-1.0, 1.0, -1.0])
        assert np.allclose(p.step(img), pt)
        pt2 = np.array([0.0, 4.0, 0.0])
        img2 = p.step(pt2)
        assert np.allclose(img2, [4.0, 0.0, 4.0])
        assert np.allclose(p.step(img2), pt2)

    def test_double_root_single_line(self):
        # discriminant of a d^2 - (1+sigma) d + alpha: equal roots at alpha = 1/(4a)
        a = 0.25
        p = params(1.0 / (4 * a), -2.0, 0.0, a, 2 * a, a)
        lines = period2_line(p)
        assert lines is not None and len(lines) in (1, 2)
        deltas = sorted(d for d, _ in lines)
        assert np.allclose(deltas, [2.0] * len(deltas), atol=1e-6)
        for _, line in lines:
            assert line.residual(np.linspace(-2, 2, 9)) < 1e-10

    def test_not_applicable(self):
        assert period2_line(params(0.0, -2.0, 0.0, 0.3, 0.5, 0.2)) is None
        assert period2_line(params(0.0, -1.0, 0.0, 0.25, 0.5, 0.25)) is None

    def test_complex_delta_empty(self):
        p = params(5.0, -2.0, 0.0, 0.25, 0.5, 0.25)
        assert period2_line(p) == []


class TestPeriodicCountBound:
    def test_certified_case(self):
        q = QuadraticForm2(1.0, 0.0, 2.0)
        for n in (2, 3, 4):
            rep = periodic_count_bound(q, n)
            assert rep["bound_2n"] is True
            assert rep["violating_k"] == []

    def test_symmetric_violation(self):
        q = QuadraticForm2(0.5, 0.1, 0.5)
        for n in (2, 4, 6):
            rep = periodic_count_bound(q, n)
            assert n // 2 in rep["violating_k"]
        rep3 = periodic_count_bound(q, 3)
        assert rep3["bound_2n"] is True

    def test_unit_root_violation(self):
        # b = -(a+c) puts mu = 1 among the roots: k = n violates
        q = QuadraticForm2(0.7, -1.0, 0.3)
        rep = periodic_count_bound(q, 3)
        assert 3 in rep["violating_k"]

    def test_rejects_zero_form(self):
        with pytest.raises(DynamicsError):
            periodic_count_bound(QuadraticForm2(0.0, 1.0, 0.0), 2)


def _ref_grid(diag):
    """The diagram's grid classified one row per classify_stability call."""
    xs, ys = diag.xs, diag.ys
    if diag.plane == "t_s":
        label = np.empty((len(ys), len(xs)), dtype=object)
        for i, s in enumerate(ys):
            label[i], _ = classify_stability(xs, s)
        return {"label": label}
    quad, sigma = diag.quad, diag.sigma
    count = np.zeros((len(ys), len(xs)), dtype=int)
    label_plus = np.full((len(ys), len(xs)), "", dtype=object)
    label_minus = np.full((len(ys), len(xs)), "", dtype=object)
    phase_plus = np.full((len(ys), len(xs)), np.nan)
    for i, alpha in enumerate(ys):
        count[i], x_plus, x_minus = _fixed_point_locations(GenericMapParams(alpha, xs, sigma, quad))
        plus, minus = count[i] >= 1, count[i] == 2
        x = np.concatenate([x_plus[plus], x_minus[minus]])
        tau = np.concatenate([xs[plus], xs[minus]])
        labels, lam = classify_stability(
            tau + (2 * quad.a + quad.b) * x, sigma - (2 * quad.c + quad.b) * x
        )
        k = np.count_nonzero(plus)
        label_plus[i, plus], label_minus[i, minus] = labels[:k], labels[k:]
        imag = np.abs(lam[:k].imag)
        cplx = np.flatnonzero(np.max(imag, axis=1, initial=0.0) > 1e-9)
        z = lam[cplx, np.argmax(imag[cplx], axis=1)]
        phase_plus[i, np.flatnonzero(plus)[cplx]] = [abs(math.atan2(v.imag, v.real)) for v in z]
    return {"count": count, "label_plus": label_plus, "label_minus": label_minus,
            "phase_plus": phase_plus}


class TestGridBlocks:
    """Whole-row blocks of about _GRID_BLOCK cells classify every cell bitwise as
    one classify_stability call per row does."""

    @pytest.mark.parametrize("nx, ny", [(7, 600), (2500, 3), (1, 50), (100, 1), (1, 1)])
    @pytest.mark.parametrize("plane, quad", [
        ("tau_alpha", QuadraticForm2(0.5, 0.0, 0.5)),
        ("tau_alpha", QuadraticForm2(-0.5, 1.0, 0.5)),
        ("t_s", None),
    ], ids=["fig3", "fig4", "t_s"])
    def test_blocks_equal_rows(self, nx, ny, plane, quad):
        diag = stability_diagram((-4.0, 4.0), (-3.0, 3.0), nx=nx, ny=ny, quad=quad,
                                 sigma=0.3, plane=plane)
        ref = _ref_grid(diag)
        for name, want in ref.items():
            got = getattr(diag, name)
            assert got.shape == (ny, nx) and got.dtype == want.dtype
            if want.dtype == object:
                got, want = got.astype(str), want.astype(str)
            assert got.tobytes() == want.tobytes(), name
        if plane == "tau_alpha" and nx * ny >= 600:
            assert np.any(diag.count == 2) and np.any(diag.count == 0)
            assert np.any(np.isfinite(diag.phase_plus))


class TestStabilityDiagram:
    def test_tau_alpha_counts(self):
        diag = stability_diagram((-2, 2), (-1, 1), nx=21, ny=11)
        for i, alpha in enumerate(diag.ys):
            for j, tau in enumerate(diag.xs):
                expected = 0 if tau * tau < 4 * alpha else 2
                if abs(tau * tau - 4 * alpha) < 1e-12:
                    expected = 1
                assert diag.count[i, j] == expected

    def test_reciprocal_types_for_symmetric_form(self):
        diag = stability_diagram((-3, 3), (-2, 0.5), nx=25, ny=25)
        sel = diag.count == 2
        plus = diag.label_plus[sel]
        minus = diag.label_minus[sel]
        swap = {TYPE_A: TYPE_B, TYPE_B: TYPE_A}
        for lp, lm in zip(plus, minus):
            if lp in swap and lm in swap:
                assert lm == swap[lp]

    def test_tau_alpha_requires_normalization(self):
        with pytest.raises(DynamicsError):
            stability_diagram((-1, 1), (-1, 1), nx=3, ny=3, quad=QuadraticForm2(1, 1, 1))

    def test_t_s_plane(self):
        diag = stability_diagram((-4, 4), (-4, 4), nx=17, ny=17, plane="t_s")
        assert diag.label is not None
        assert {"saddle_node", "period_doubling", "double_root"} <= set(diag.curves)

    def test_type_switch_sign(self):
        # sign of 2 + tau + sigma + 2(a-c)x_pm decides same/different type
        rng = np.random.default_rng(78)
        for _ in range(30):
            a, c = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            b = 1.0 - a - c
            tau = rng.uniform(-3, 3)
            alpha = rng.uniform(-3, 0.2 * tau * tau)
            p = params(alpha, tau, 0.0, a, b, c)
            fps = {fp.which: fp for fp in fixed_points(p)}
            if set(fps) != {"plus", "minus"}:
                continue
            for fp in fps.values():
                val = 2.0 + tau + 0.0 + 2.0 * (a - c) * fp.location[0]
                assert abs((fp.t + fp.s + 2.0) - val) < 1e-10
