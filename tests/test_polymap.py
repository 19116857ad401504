import numpy as np
import pytest

from qvpmaps import (
    AffineMap,
    QuadMap,
    compose,
    has_quadratic_inverse,
    invert_quadratic,
    is_volume_preserving,
)
from qvpmaps.polymap import (
    COMPOSE_TOL,
    DimensionMismatchError,
    MapError,
    NotVolumePreservingError,
    NoQuadraticInverseError,
    PolyMap,
    nilpotency_residual,
    triple_identity_residual,
)
from util import (
    random_gradient_shear,
    random_shear_data,
    random_symmetric,
    random_unit,
    random_vp_map,
)

from qvpmaps import build_shear


def shear_y2():
    """f(x, y, z) = (x + y^2/2, y, z)."""
    quad = np.zeros((3, 3, 3))
    quad[0, 1, 1] = 1.0
    return QuadMap.standard_form(quad)


def ball_map():
    """f(x) = x + (x^T x) e_1 / 2: volume is not preserved."""
    quad = np.zeros((3, 3, 3))
    quad[0] = np.eye(3)
    return QuadMap.standard_form(quad)


def eq5_map(alpha, tau, sigma, a, b, c):
    const = np.array([alpha, 0.0, 0.0])
    lin = np.array([[tau, -sigma, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    quad = np.zeros((3, 3, 3))
    quad[0] = [[2 * a, b, 0.0], [b, 2 * c, 0.0], [0.0, 0.0, 0.0]]
    return QuadMap(const, lin, quad)


class TestEvaluate:
    def test_identity(self):
        f = QuadMap.identity(3)
        assert np.array_equal(f(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_single_monomial(self):
        f = shear_y2()
        assert np.allclose(f(np.array([0.0, 2.0, 0.0])), [2.0, 2.0, 0.0])

    def test_eq5_hand_value(self):
        # alpha = tau = sigma = 0, Q = x^2 at (1, 0, 0): (z + x^2, x, y)
        f = eq5_map(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        assert np.allclose(f(np.array([1.0, 0.0, 0.0])), [1.0, 1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            shear_y2()(np.array([1.0, 2.0]))


class TestMOf:
    def test_shear_basis_vector(self):
        M = shear_y2().m_of(np.array([0.0, 1.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert np.array_equal(M, expected)

    def test_zero_point(self):
        f = build_shear(random_shear_data(np.random.default_rng(0)))
        assert np.array_equal(f.m_of(np.zeros(3)), np.zeros((3, 3)))

    def test_additivity(self):
        rng = np.random.default_rng(1)
        f = build_shear(random_shear_data(rng))
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(
                f.m_of(x + y), f.m_of(x) + f.m_of(y), atol=1e-13
            )

    def test_symmetry_exact_in_coefficients(self):
        # M(x)y - M(y)x has coefficients A[i,j,k] - A[i,k,j] == 0 exactly
        rng = np.random.default_rng(2)
        f, _, _ = random_vp_map(rng)
        assert np.array_equal(f.quad, f.quad.transpose(0, 2, 1))

    def test_jacobian_is_linear_plus_m(self):
        rng = np.random.default_rng(3)
        f, _, _ = random_vp_map(rng)
        x = rng.standard_normal(3)
        h = 1e-6
        num = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            num[:, j] = (f(x + e) - f(x - e)) / (2 * h)
        assert np.allclose(num, f.jacobian(x), atol=1e-8)


class TestVolumePreserving:
    def test_shear_true(self):
        cert = is_volume_preserving(shear_y2())
        assert cert
        assert "M(x)" in cert.condition

    def test_ball_map_false(self):
        cert = is_volume_preserving(ball_map())
        assert not cert

    def test_eq5_always_true(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            alpha, tau, sigma, a, b, c = rng.standard_normal(6)
            assert is_volume_preserving(eq5_map(alpha, tau, sigma, a, b, c))

    def test_det_at_random_points(self):
        rng = np.random.default_rng(5)
        f, _, _ = random_vp_map(rng)
        assert is_volume_preserving(f)
        for x in rng.standard_normal((100, 3)):
            assert abs(np.linalg.det(f.jacobian(x)) - 1.0) < 1e-12

    def test_non_unimodular_linear(self):
        cert = is_volume_preserving(AffineMap(2 * np.eye(3), np.zeros(3)).as_quadmap())
        assert not cert and cert.condition.startswith("det")

    def test_nan_coefficient_not_certified(self):
        quad = np.zeros((3, 3, 3))
        quad[0, 1, 1] = 1.0
        quad[0, 2, 2] = np.nan
        m = QuadMap.standard_form(quad)
        assert not is_volume_preserving(m)
        assert not has_quadratic_inverse(m)


class TestQuadraticInverse:
    def test_vp_shear_family(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sd = random_shear_data(rng)
            assert has_quadratic_inverse(build_shear(sd))

    def test_ball_map_false(self):
        assert not has_quadratic_inverse(ball_map())

    def test_identity_true(self):
        assert has_quadratic_inverse(QuadMap.identity(3))

    def test_non_unimodular_raises(self):
        bad = QuadMap(np.zeros(3), 2 * np.eye(3), np.zeros((3, 3, 3)))
        with pytest.raises(NotVolumePreservingError):
            has_quadratic_inverse(bad)

    @pytest.mark.parametrize("drift", [1.5e-9, 2e-10, -5e-9])
    def test_det_threshold_is_the_volume_threshold(self, drift):
        # det L off 1 by more than tol, but less than 1e-8: the map is not
        # volume preserving at tol, so it has no quadratic inverse either
        f, _, _ = random_vp_map(np.random.default_rng(9))
        m = QuadMap(f.const, f.linear * (1.0 + drift) ** (1.0 / 3.0), f.quad)
        cert = is_volume_preserving(m)
        assert not cert and cert.condition == "det(DF(0)) == 1"
        with pytest.raises(NotVolumePreservingError, match="det"):
            has_quadratic_inverse(m)
        with pytest.raises(NotVolumePreservingError):
            invert_quadratic(m)
        # at a looser tol both accept it
        assert is_volume_preserving(m, tol=1e-8)
        assert has_quadratic_inverse(m, tol=1e-8)


class TestInvert:
    def test_shear_inverse_coefficients(self):
        inv = invert_quadratic(shear_y2())
        assert np.allclose(inv.const, 0) and np.allclose(inv.linear, np.eye(3))
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 1] = -1.0
        assert np.allclose(inv.quad, expected)

    def test_permutation_example(self):
        # f = (z + x^2, x, y) inverts to (y, z, x - y^2)
        f = eq5_map(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        inv = invert_quadratic(f)
        assert np.allclose(inv.const, 0)
        assert np.allclose(
            inv.linear, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-14
        )
        expected = np.zeros((3, 3, 3))
        expected[2, 1, 1] = -2.0
        assert np.allclose(inv.quad, expected, atol=1e-14)

    def test_involution_on_random_shears(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = build_shear(random_shear_data(rng))
            g = invert_quadratic(invert_quadratic(f))
            assert np.allclose(g.quad, f.quad, atol=1e-12)

    def test_rejects_non_invertible(self):
        with pytest.raises((NoQuadraticInverseError, NotVolumePreservingError)):
            invert_quadratic(ball_map())

    def test_round_trip_general(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f, _, _ = random_vp_map(rng)
            g = invert_quadratic(f)
            ident = compose(f, g)
            assert isinstance(ident, QuadMap)
            assert np.max(np.abs(ident.const)) < 1e-12
            assert np.max(np.abs(ident.linear - np.eye(3))) < 1e-12
            assert np.max(np.abs(ident.quad)) < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(9)
        f, _, _ = random_vp_map(rng)
        g = compose(f, QuadMap.identity(3))
        assert isinstance(g, QuadMap)
        assert np.allclose(g.const, f.const, atol=1e-14)
        assert np.allclose(g.linear, f.linear, atol=1e-14)
        assert np.allclose(g.quad, f.quad, atol=1e-14)

    def test_shear_squared_doubles_quad(self):
        rng = np.random.default_rng(10)
        sd = random_shear_data(rng)
        f = build_shear(sd)
        f2 = compose(f, f)
        assert isinstance(f2, QuadMap)
        assert np.allclose(f2.quad, 2.0 * f.quad, atol=1e-12)

    def test_degree_four_result_is_polymap(self):
        f = ball_map()
        ff = compose(f, f)
        assert isinstance(ff, PolyMap)
        assert ff.degree() == 4
        x = np.array([0.3, -0.2, 0.5])
        assert np.allclose(ff(x), f(f(x)), atol=1e-13)


class TestStructuralIdentities:
    def test_injectivity_identity(self):
        rng = np.random.default_rng(11)
        S, _, _ = random_vp_map(rng, with_affine=False)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = S(x) - S(y)
            rhs = (np.eye(3) + S.m_of(0.5 * (x + y))) @ (x - y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_inverse_series_inverts_differences(self):
        rng = np.random.default_rng(12)
        S, _, _ = random_vp_map(rng, with_affine=False)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            M = S.m_of(0.5 * (x + y))
            series = np.eye(3) - M + M @ M  # nilpotent order 3
            assert np.max(np.abs(series @ (S(x) - S(y)) - (x - y))) < 1e-12

    def test_symmetrization_warns(self):
        quad = np.zeros((3, 3, 3))
        quad[0, 0, 1] = 1.0  # asymmetric slice
        with pytest.warns(UserWarning, match="symmetrizing"):
            m = QuadMap.standard_form(quad)
        assert np.allclose(m.quad[0], [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        f, _, _ = random_vp_map(rng)
        g = QuadMap.from_dict(f.to_dict())
        assert np.array_equal(g.const, f.const)
        assert np.array_equal(g.linear, f.linear)
        assert np.array_equal(g.quad, f.quad)


def _ref_basis_matrices(quad):
    n = quad.shape[0]
    mats = [quad[:, :, k] for k in range(n)]
    scale = max([1e-300] + [float(np.max(np.abs(M))) for M in mats])
    return [M / scale for M in mats]


def _ref_nilpotency_residual(quad):
    """Term-by-term dict expansion of [sum_k x_k M_k]^n, one matmul per term."""
    n = quad.shape[0]
    mats = _ref_basis_matrices(quad)
    acc = {}
    for k, M in enumerate(mats):
        e = [0] * n
        e[k] = 1
        acc[tuple(e)] = M.copy()
    for _ in range(n - 1):
        nxt = {}
        for e, A in acc.items():
            for k, M in enumerate(mats):
                e2 = list(e)
                e2[k] += 1
                key = tuple(e2)
                prod = A @ M
                if key in nxt:
                    nxt[key] += prod
                else:
                    nxt[key] = prod
        acc = nxt
    return max(float(np.max(np.abs(A))) for A in acc.values())


def _ref_triple_identity_residual(quad):
    """The cyclic identity checked one ordered basis triple at a time."""
    n = quad.shape[0]
    mats = _ref_basis_matrices(quad)
    prods = [[mats[i] @ mats[j] for j in range(n)] for i in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = prods[i][j][:, k] + prods[j][k][:, i] + prods[k][i][:, j]
                worst = max(worst, float(np.max(np.abs(r))))
    return worst


def _assert_residuals_match_reference(quad):
    assert nilpotency_residual(quad) == _ref_nilpotency_residual(quad)
    assert triple_identity_residual(quad) == _ref_triple_identity_residual(quad)


def _triangular_quad(rng, n):
    """A_i[j, k] != 0 only for j, k > i: M(x) is strictly upper triangular."""
    quad = np.zeros((n, n, n))
    for i in range(n):
        quad[i, i + 1:, i + 1:] = rng.standard_normal((n - i - 1,) * 2)
    return quad + quad.transpose(0, 2, 1)


class TestResidualParity:
    """The stacked residuals equal the term-by-term reference bit for bit."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_tensors(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            nilpotent = _triangular_quad(rng, n)
            assert nilpotency_residual(nilpotent) == 0.0
            generic = rng.standard_normal((n, n, n))
            signed_zeros = np.where(rng.random((n, n, n)) < 0.5, -0.0, generic)
            for quad in (nilpotent, generic, generic + generic.transpose(0, 2, 1),
                         signed_zeros, 1e-200 * generic, 1e150 * generic):
                _assert_residuals_match_reference(quad)
        for quad in (np.zeros((n, n, n)), np.full((n, n, n), -0.0), 1e-310 * generic):
            _assert_residuals_match_reference(quad)
        assert nilpotency_residual(np.zeros((n, n, n))) == 0.0
        assert triple_identity_residual(np.zeros((n, n, n))) == 0.0

    def test_shear_tensors(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            f, _, _ = random_vp_map(rng)
            _assert_residuals_match_reference(f.standard_part()[1].quad)
            for half_dim in (1, 2, 3):
                _assert_residuals_match_reference(random_gradient_shear(rng, half_dim).quad)

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        coeff = st.floats(-1e3, 1e3, allow_nan=False)
        tensors = st.integers(1, 6).flatmap(
            lambda n: st.lists(coeff, min_size=n**3, max_size=n**3).map(
                lambda v: np.reshape(v, (n, n, n))
            )
        )

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(tensors)
        def check(quad):
            _assert_residuals_match_reference(quad)
            _assert_residuals_match_reference(quad + quad.transpose(0, 2, 1))

        check()


# --------------------------------------------------------------------------
# Composition parity: compose against the monomial-dictionary composition


def _ref_terms(q):
    """{exponent tuple: coefficient vector} of a QuadMap."""
    n = q.dim
    terms = {(0,) * n: q.const.copy()}
    for j in range(n):
        terms[tuple(int(i == j) for i in range(n))] = q.linear[:, j].copy()
    for j in range(n):
        for k in range(j, n):
            e = tuple(int(i == j) + int(i == k) for i in range(n))
            terms[e] = terms.get(e, np.zeros(n)) + (q.quad[:, j, k] if j != k else 0.5 * q.quad[:, j, j])
    return terms


def _ref_poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if c1 != 0.0 and c2 != 0.0:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
    return out


def reference_compose(f, g):
    """f o g of two QuadMaps, expanded monomial by monomial: a QuadMap when
    every coefficient above degree 2 is at most COMPOSE_TOL times the
    largest one (and 1), else the {exponent: coefficient vector} terms."""
    n = f.dim
    gt = _ref_terms(g)
    out = {(0,) * n: f.const.copy()}
    for e, v in gt.items():
        out[e] = out.get(e, np.zeros(n)) + f.linear @ v
    comps = [{e: v[i] for e, v in gt.items()} for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            coef = f.quad[:, i, j] if i != j else 0.5 * f.quad[:, i, i]
            if np.any(coef):
                for e, c in _ref_poly_mul(comps[i], comps[j]).items():
                    out[e] = out.get(e, np.zeros(n)) + c * coef
    scale = max([1.0] + [float(np.max(np.abs(v))) for v in out.values()])
    above = max([float(np.max(np.abs(v))) for e, v in out.items() if sum(e) > 2], default=0.0)
    if above > COMPOSE_TOL * scale:
        return out
    const, linear, quad = np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n))
    for e, v in out.items():
        idx = [j for j, p in enumerate(e) for _ in range(p)]
        if len(idx) == 0:
            const = v
        elif len(idx) == 1:
            linear[:, idx[0]] = v
        elif len(idx) == 2:
            j, k = idx
            quad[:, j, k] += v if j != k else 2.0 * v
            if j != k:
                quad[:, k, j] += v
    return QuadMap(const, linear, quad)


def _ref_eval(terms, x):
    return sum(v * np.prod(x ** np.array(e)) for e, v in terms.items())


def _random_quad(rng, n, scale=1.0):
    q = rng.standard_normal((n, n, n)) * scale
    return q + q.transpose(0, 2, 1)


def _unimodular(rng, n):
    """A rotation times a diagonal of spread at most e: det 1 up to roundoff,
    condition number at most e."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    u = rng.uniform(-0.5, 0.5, n)
    return q * np.exp(u - u.mean())


def _shear(rng, n, v):
    """x + v (x^T P x) / 2 with P v = 0: its powers are quadratic."""
    proj = np.eye(n) - np.outer(v, v)
    return QuadMap.standard_form(np.einsum("i,jk->ijk", v, proj @ random_symmetric(rng, n) @ proj))


def compose_cases(rng, n):
    """(f, g) pairs of dimension n: a generic pair (degree 4), a volume-
    preserving T o S composed with its inverse, and two shears along one
    direction, each conjugated by one affine map (both collapse)."""
    generic = [QuadMap(rng.standard_normal(n), rng.standard_normal((n, n)), _random_quad(rng, n))
               for _ in range(2)]
    v = random_unit(rng, n)
    T = AffineMap(_unimodular(rng, n), rng.standard_normal(n))
    f = _shear(rng, n, v).after_affine(T)
    c = AffineMap(_unimodular(rng, n), rng.standard_normal(n))
    shears = [_shear(rng, n, v).conjugate(c) for _ in range(2)]
    return [tuple(generic), (f, invert_quadratic(f)), tuple(shears)]


class TestComposeParity:
    """compose returns the class the monomial expansion returns, and its
    values, within 1e-13 (1 + |f(g(x))|)."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_cases(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(4):
            for (f, g), collapses in zip(compose_cases(rng, n), (False, True, True)):
                got, want = compose(f, g), reference_compose(f, g)
                assert isinstance(got, QuadMap) == isinstance(want, QuadMap) == collapses
                ref = want if isinstance(want, QuadMap) else (lambda x, t=want: _ref_eval(t, x))
                for x in rng.standard_normal((3, n)):
                    fgx = f(g(x))
                    assert np.max(np.abs(got(x) - ref(x))) <= 1e-13 * (1 + np.max(np.abs(fgx)))

    def test_value_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        def arrays(shape):
            return hnp.arrays(float, shape, elements=st.floats(-10, 10))

        def quadmaps(n):
            return st.builds(lambda b, L, A: QuadMap(b, L, A + A.transpose(0, 2, 1)),
                             arrays(n), arrays((n, n)), arrays((n, n, n)))

        cases = st.integers(1, 4).flatmap(lambda n: st.tuples(quadmaps(n), quadmaps(n), arrays(n)))

        def absolute(m):
            return QuadMap(np.abs(m.const), np.abs(m.linear), np.abs(m.quad))

        @hyp.settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @hyp.given(cases)
        def check(case):
            f, g, x = case
            h = compose(f, g)
            # rounding: the size of f(g(x)) with every term taken positive
            bound = 1e-13 * (1 + np.max(absolute(f)(absolute(g)(np.abs(x)))))
            if isinstance(h, QuadMap):
                # dropped terms of degree 3 and 4, each coefficient at most
                # COMPOSE_TOL times the largest, which the all-ones point bounds
                largest = np.max(absolute(f)(absolute(g)(np.ones(len(x)))))
                r = np.sum(np.abs(x))
                bound += COMPOSE_TOL * max(1.0, largest) * (r**3 + r**4)
            assert np.max(np.abs(h(x) - f(g(x)))) <= bound

        check()

    def test_polymap_factor_refused(self):
        ff = compose(ball_map(), ball_map())
        for f, g in ((ff, ball_map()), (ball_map(), ff), (AffineMap.identity(3), ff)):
            with pytest.raises(MapError, match="PolyMap"):
                compose(f, g)
