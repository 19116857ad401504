import numpy as np
import pytest

from qvpmaps import (
    AffineMap,
    QuadMap,
    SymplecticContext,
    is_symplectic,
    shear_to_gradient_form,
    symplectic_decompose,
)
from qvpmaps import symplectic
from qvpmaps.symplectic import (
    SymplecticError,
    shear_square_residual,
    standard_j,
)
from util import (
    omega_defect,
    random_gradient_shear,
    random_linear_symplectic,
    random_symplectic_quadmap,
)


def test_context_invariants():
    ctx = SymplecticContext(2)
    J = ctx.J
    assert np.array_equal(J @ J, -np.eye(4))
    assert np.array_equal(J.T, -J)


def test_identity_is_symplectic():
    assert is_symplectic(QuadMap.identity(4))


def test_gradient_shear_is_symplectic():
    # (q1, q2, p1, p2) -> (q1 + p1^2, q2 + p1 p2, p1, p2): grad of
    # V = p1^3/3 + ... wait: (p1^2, p1 p2) = grad_p(p1^3/3 + p1 p2^2/2)? no:
    # grad(p1^2 p2 ... ) — checked directly: quadratic part (p1^2, p1 p2)
    # has symmetric Jacobian [[2 p1, 0], [p2, p1]]?  Not symmetric, so build
    # it from an actual potential instead: V = p1^2 p2 gives (2 p1 p2, p1^2).
    n = 2
    quad = np.zeros((4, 4, 4))
    # component q1 gets 2*p1*p2, component q2 gets p1^2 (gradient of p1^2 p2)
    quad[0, 2, 3] = quad[0, 3, 2] = 2.0
    quad[1, 2, 2] = 2.0
    f = QuadMap.standard_form(quad)
    assert is_symplectic(f)
    assert shear_square_residual(f.quad) == 0.0


def test_non_symplectic_linear_part():
    f = QuadMap(np.zeros(2), np.diag([1.0, 2.0]), np.zeros((2, 2, 2)))
    assert not is_symplectic(f)


def test_odd_dimension_rejected():
    with pytest.raises(SymplecticError):
        is_symplectic(QuadMap.identity(3))


def test_non_gradient_quadratic_not_symplectic():
    # quadratic part depending on q breaks M(x)^T J M(x) = 0 / deg-1 terms
    quad = np.zeros((4, 4, 4))
    quad[0, 0, 0] = 2.0  # q1' = q1 + q1^2
    f = QuadMap.standard_form(quad)
    assert not is_symplectic(f)


class TestDecompose:
    def test_pure_shear_gives_identity_affine(self):
        rng = np.random.default_rng(40)
        S = random_gradient_shear(rng, 2)
        T, S2 = symplectic_decompose(S)
        assert np.allclose(T.linear, np.eye(4)) and np.allclose(T.const, 0)
        assert np.allclose(S2.quad, S.quad)

    @pytest.mark.parametrize("half_dim", [1, 2, 3])
    def test_round_trip(self, half_dim):
        rng = np.random.default_rng(41 + half_dim)
        for _ in range(5):
            f, G, b, S = random_symplectic_quadmap(rng, half_dim)
            assert is_symplectic(f)
            T, S2 = symplectic_decompose(f)
            assert np.allclose(T.linear, G, atol=1e-12)
            assert np.allclose(T.const, b, atol=1e-12)
            assert shear_square_residual(S2.quad) < 1e-12
            assert omega_defect(T.linear, half_dim) < 1e-10

    def test_m_squared_zero_on_many_draws(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            f, *_ = random_symplectic_quadmap(rng, 2)
            _, S = symplectic_decompose(f)
            assert shear_square_residual(S.quad) < 1e-12

    def test_eq4_triple_identity(self):
        # M(z) M(x) y == 0 for symplectic shears, on all basis triples
        rng = np.random.default_rng(46)
        S = random_gradient_shear(rng, 2)
        G = random_linear_symplectic(rng, 2)
        S2 = S.conjugate(AffineMap(G, np.zeros(4)))
        mats = [S2.quad[:, :, k] for k in range(4)]
        for Mi in mats:
            for Mj in mats:
                assert np.max(np.abs(Mi @ Mj)) < 1e-10


class TestGradientForm:
    def test_already_gradient_form_identity_lambda(self):
        rng = np.random.default_rng(47)
        S = random_gradient_shear(rng, 2)
        form = shear_to_gradient_form(S)
        assert np.array_equal(form.lam, np.eye(4))
        # reconstructed map reproduces S
        g = form.normal_map()
        assert np.allclose(g.quad, S.quad, atol=1e-12)

    @pytest.mark.parametrize("half_dim", [1, 2, 3])
    def test_conjugated_shear_recovered(self, half_dim):
        rng = np.random.default_rng(50 + half_dim)
        for _ in range(5):
            S = random_gradient_shear(rng, half_dim)
            G = random_linear_symplectic(rng, half_dim)
            S2 = S.conjugate(AffineMap(G, np.zeros(2 * half_dim)))
            form = shear_to_gradient_form(S2)
            n = half_dim
            # lambda symplectic
            assert omega_defect(form.lam, n) < 1e-8
            # lambda o S2 o lambda^{-1} is in gradient form and matches bcoef
            lam_inv = np.linalg.inv(form.lam)
            red = S2.conjugate(AffineMap(lam_inv, np.zeros(2 * n)))
            assert np.allclose(red.quad, form.normal_map().quad, atol=1e-8)
            # B(p) symmetric and B(p) p a gradient field (symmetric Jacobian)
            for p in rng.standard_normal((5, n)):
                B = form.b_of(p)
                assert np.max(np.abs(B - B.T)) < 1e-9
                h = 1e-6
                Jnum = np.empty((n, n))
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = h
                    Jnum[:, j] = (form.grad(p + e) - form.grad(p - e)) / (2 * h)
                assert np.max(np.abs(Jnum - Jnum.T)) < 1e-6

    def test_potential_gradient_consistency(self):
        rng = np.random.default_rng(60)
        S = random_gradient_shear(rng, 3)
        G = random_linear_symplectic(rng, 3)
        S2 = S.conjugate(AffineMap(G, np.zeros(6)))
        form = shear_to_gradient_form(S2)
        h = 1e-6
        for p in rng.standard_normal((5, 3)):
            g = form.grad(p)
            num = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                num[j] = (form.potential(p + e) - form.potential(p - e)) / (2 * h)
            denom = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(num - g)) / denom < 1e-6

    def test_r2_reduces_to_henon_shear(self):
        # n = 1: any symplectic quadratic shear becomes (q + c p^2, p)
        rng = np.random.default_rng(61)
        S = random_gradient_shear(rng, 1)
        G = random_linear_symplectic(rng, 1)
        S2 = S.conjugate(AffineMap(G, np.zeros(2)))
        form = shear_to_gradient_form(S2)
        g = form.normal_map()
        # only the (q' <- p^2) coefficient may be nonzero
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 1, 1] = False
        assert np.max(np.abs(g.quad[mask])) < 1e-12

    def test_lagrangian_certificate(self):
        rng = np.random.default_rng(62)
        n = 2
        S = random_gradient_shear(rng, n)
        G = random_linear_symplectic(rng, n)
        S2 = S.conjugate(AffineMap(G, np.zeros(2 * n)))
        form = shear_to_gradient_form(S2)
        # q-plane pullback under lam^{-1} is the Lagrangian F: omega vanishes
        lam_inv = np.linalg.inv(form.lam)
        F = lam_inv[:, :n]
        J = standard_j(n)
        assert np.max(np.abs(F.T @ J @ F)) < 1e-10
        assert np.linalg.matrix_rank(F) == n


def _ref_is_symplectic(m, tol=1e-9):
    """The degree-by-degree identities one basis matrix or pair at a time."""
    J = standard_j(m.dim // 2)
    L = m.linear
    scale = max(1.0, float(np.max(np.abs(L))) ** 2)
    if np.max(np.abs(L.T @ J @ L - J)) > tol * scale:
        return False
    mats = [m.quad[:, :, k] for k in range(m.dim)]
    mscale = max(1.0, max((float(np.max(np.abs(M))) for M in mats), default=0.0))
    for Mk in mats:
        if np.max(np.abs(L.T @ J @ Mk + Mk.T @ J @ L)) > tol * mscale * max(
            1.0, float(np.max(np.abs(L)))
        ):
            return False
    for i, Mi in enumerate(mats):
        for Mj in mats[i:]:
            if np.max(np.abs(Mi.T @ J @ Mj + Mj.T @ J @ Mi)) > tol * mscale**2:
                return False
    return True


def _ref_shear_square_residual(quad):
    """M_i M_j + M_j M_i one pair at a time, for a tensor without NaN."""
    mats = [quad[:, :, k] for k in range(quad.shape[0])]
    scale = max(1e-300, max(float(np.max(np.abs(M))) for M in mats))
    mats = [M / scale for M in mats]
    worst = 0.0
    for i, Mi in enumerate(mats):
        for Mj in mats[i:]:
            worst = max(worst, float(np.max(np.abs(Mi @ Mj + Mj @ Mi))) / 2)
    return worst


def _sym_noise(rng, shape):
    E = rng.standard_normal(shape)
    return E + E.transpose(0, 2, 1)


def _signed_zeros(rng, quad):
    mask = rng.random(quad.shape) < 0.5
    return np.where(mask | mask.transpose(0, 2, 1), -0.0, quad)


def _variants(rng, f):
    """f, its standard part, signed zeros, extreme scales and perturbations."""
    n = f.dim
    S = f.standard_part()[1]
    yield f
    yield S
    yield QuadMap(f.const, f.linear, _signed_zeros(rng, f.quad))
    for k in (1e-200, 1e150):
        yield QuadMap(f.const, f.linear, k * f.quad)
        yield QuadMap.standard_form(k * S.quad)
    bumped = np.array(f.quad)
    bumped[0, n - 1, n - 1] += 1e-3
    yield QuadMap(f.const, f.linear, bumped)  # degree-2 terms fail
    yield QuadMap(f.const, f.linear, f.quad + 1e-12 * _sym_noise(rng, f.quad.shape))
    yield QuadMap(f.const, f.linear * (1 + 1e-6), f.quad)  # degree 0 fails


def _assert_match_reference(m):
    assert is_symplectic(m) == _ref_is_symplectic(m)
    assert shear_square_residual(m.quad) == _ref_shear_square_residual(m.quad)


class TestIdentityParity:
    """The stacked pair products decide and measure as the pair loops do, bit for bit."""

    @pytest.mark.parametrize("half_dim", [1, 2, 3])
    def test_util_maps(self, half_dim):
        rng = np.random.default_rng(300 + half_dim)
        verdicts = []
        for _ in range(10):
            f, *_ = random_symplectic_quadmap(rng, half_dim)
            S = random_gradient_shear(rng, half_dim)
            G = random_linear_symplectic(rng, half_dim)
            conjugated = S.conjugate(AffineMap(G, np.zeros(2 * half_dim)))
            for g in (f, conjugated):
                for m in _variants(rng, g):
                    _assert_match_reference(m)
                    verdicts.append(is_symplectic(m))
        assert any(verdicts) and not all(verdicts)

    def test_degree_one_failure(self):
        # q1' = q1 + q1 p1: the degree-1 terms L^T J M_k + M_k^T J L fail
        quad = np.zeros((4, 4, 4))
        quad[0, 0, 2] = quad[0, 2, 0] = 1.0
        m = QuadMap.standard_form(quad)
        _assert_match_reference(m)
        assert not is_symplectic(m)

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        coeff = st.floats(-1e3, 1e3, allow_nan=False)
        tensors = st.sampled_from([2, 4, 6]).flatmap(
            lambda n: hnp.arrays(float, (n, n, n), elements=coeff)
        )

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([0.0, 1e-9, 1e-3]))
        def symplectic_maps(seed, half_dim, eps):
            rng = np.random.default_rng(seed)
            f, *_ = random_symplectic_quadmap(rng, half_dim)
            _assert_match_reference(
                QuadMap(f.const, f.linear, f.quad + eps * _sym_noise(rng, f.quad.shape))
            )

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(tensors)
        def any_tensor(quad):
            _assert_match_reference(QuadMap.standard_form(quad + quad.transpose(0, 2, 1)))

        symplectic_maps()
        any_tensor()


def _nan_quad():
    quad = np.zeros((4, 4, 4))
    quad[0, 3, 3] = np.nan
    return quad


class TestShearNaN:
    """A NaN M(x)^2 residual is refused, not certified."""

    @pytest.mark.parametrize("m", [
        QuadMap(np.zeros(4), np.full((4, 4), np.nan), np.zeros((4, 4, 4))),
        QuadMap.standard_form(_nan_quad()),
    ], ids=["nan_linear", "nan_quad"])
    def test_nan_map_is_not_symplectic(self, m):
        assert is_symplectic(m) is False

    def test_nan_in_a_later_pair_propagates(self):
        assert np.isnan(shear_square_residual(_nan_quad()))

    def test_nan_residual_is_refused(self, monkeypatch):
        rng = np.random.default_rng(310)
        f, G, b, S = random_symplectic_quadmap(rng, 2)
        monkeypatch.setattr(symplectic, "shear_square_residual", lambda quad: float("nan"))
        with pytest.raises(SymplecticError, match="residual nan"):
            symplectic_decompose(f)
        with pytest.raises(SymplecticError, match="residual nan"):
            shear_to_gradient_form(S)
