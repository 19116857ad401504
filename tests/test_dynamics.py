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
from qvpmaps.dynamics import (
    ELLIPTIC_PAIR,
    PERIOD_DOUBLING_BOUNDARY,
    SADDLE_NODE_BOUNDARY,
    TYPE_A,
    TYPE_B,
    DynamicsError,
    NonGenericError,
    NotPositiveDefiniteError,
    Reversor,
    _second_fix_defects,
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


class TestSymmetricOrbitSearch:
    @pytest.mark.parametrize(
        "alpha, want",
        [
            (0.0, [[-2.414213562372976, -1.0, 0.4142135623729759],
                   [0.4142135623730727, -1.0, -2.4142135623730727]]),
            (-1.0, [[-2.999999999998834, -1.0, 0.9999999999988338],
                    [1.0000000000000975, -1.0, -3.0000000000000977]]),
        ],
    )
    def test_period4_hits_exact(self, alpha, want):
        p = params(alpha, 2.0)
        h = reversor_for(p)
        hits = symmetric_orbit_search(p, h, 4, (-3.0, 3.0), samples=600)
        assert [hit.tolist() for hit in hits] == want

    def test_saddle_node_fixed_point_found(self):
        # at the saddle-node boundary the degenerate fixed point sits on Fix(h)
        tau = 0.8
        alpha = tau * tau / 4.0
        p = params(alpha, tau)
        h = reversor_for(p)
        hits = symmetric_orbit_search(p, h, 1, (-2.0, 2.0), samples=2000)
        assert hits
        x_star = -tau / 2.0
        assert any(np.max(np.abs(h_pt - x_star)) < 1e-6 for h_pt in hits)

    def test_generic_parameters_empty(self):
        p = params(-0.5, 0.3)
        h = reversor_for(p)
        assert symmetric_orbit_search(p, h, 2, (-1.5, 1.5), samples=500) == []

    def test_empty_bracket(self):
        p = params(0.0, -0.3)
        h = reversor_for(p)
        assert symmetric_orbit_search(p, h, 2, (50.0, 51.0), samples=50) == []


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
