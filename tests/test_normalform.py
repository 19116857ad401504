import numpy as np
import pytest

from qvpmaps import (
    AffineMap,
    QuadMap,
    ShearData,
    build_shear,
    compose,
    decompose,
    reduce_generic,
    second_trace,
    to_normal_form,
    z_dimension,
)
from qvpmaps import normalform
from qvpmaps.normalform import (
    NormalFormError,
    NotAShearError,
    _oracle_points,
    conjugacy_residual,
)
from qvpmaps.polymap import DimensionMismatchError
from util import random_case_map, random_shear_data, random_vp_map


def eq5_map(alpha, tau, sigma, a, b, c):
    const = np.array([alpha, 0.0, 0.0])
    lin = np.array([[tau, -sigma, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    quad = np.zeros((3, 3, 3))
    quad[0] = [[2 * a, b, 0.0], [b, 2 * c, 0.0], [0.0, 0.0, 0.0]]
    return QuadMap(const, lin, quad)


class TestSecondTrace:
    def test_identity(self):
        assert second_trace(np.eye(3)) == 3.0

    def test_diagonal(self):
        val = second_trace(np.diag([2.0, 3.0, 1.0 / 6.0]))
        assert abs(val - (6.0 + 2.0 / 6.0 + 3.0 / 6.0)) < 1e-14

    def test_cyclic_permutation(self):
        L = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert second_trace(L) == 0.0

    def test_characteristic_polynomial(self):
        rng = np.random.default_rng(30)
        L = rng.standard_normal((3, 3))
        t, s, d = np.trace(L), second_trace(L), np.linalg.det(L)
        lam = np.linalg.eigvals(L)
        for z in lam:
            assert abs(z**3 - t * z**2 + s * z - d) < 1e-10 * max(1, abs(z) ** 3)


class TestZDimension:
    def test_cyclic(self):
        L = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert z_dimension(np.array([0.0, 0.0, 1.0]), L) == 3

    def test_eigenvector(self):
        L = np.diag([2.0, 0.5, 1.0])
        assert z_dimension(np.array([1.0, 0.0, 0.0]), L) == 1

    def test_invariant_plane(self):
        rng = np.random.default_rng(31)
        _, L, _, sd = random_case_map(rng, 2)
        assert z_dimension(sd.v, L) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalFormError):
            z_dimension(np.zeros(3), np.eye(3))


class TestDecompose:
    def test_pure_shear(self):
        sd = random_shear_data(np.random.default_rng(32))
        T, rec = decompose(build_shear(sd))
        assert np.allclose(T.linear, np.eye(3)) and np.allclose(T.const, 0)
        assert np.allclose(rec.v, sd.v, atol=1e-12)

    def test_eq5_linearization(self):
        f = eq5_map(0.3, -1.2, 0.4, 0.5, 0.1, 0.4)
        T, sd = decompose(f)
        assert np.allclose(T.const, [0.3, 0, 0])
        assert np.allclose(
            T.linear, [[-1.2, -0.4, 1.0], [1, 0, 0], [0, 1, 0]], atol=1e-14
        )
        assert sd is not None

    def test_round_trip(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            f, _, _ = random_vp_map(rng)
            T, sd = decompose(f)
            g = compose(T, build_shear(sd))
            assert np.max(np.abs(g.const - f.const)) < 1e-10
            assert np.max(np.abs(g.linear - f.linear)) < 1e-10
            assert np.max(np.abs(g.quad - f.quad)) < 1e-10

    def test_affine_input(self):
        T, sd = decompose(AffineMap(np.eye(3), np.ones(3)).as_quadmap())
        assert sd is None

    def test_not_a_shear_raises(self):
        quad = np.zeros((3, 3, 3))
        quad[0, 1, 1] = 1.0
        quad[1, 2, 2] = 1.0  # upper-triangular M: volume preserving, not a shear
        f = QuadMap.standard_form(quad)
        with pytest.raises(NotAShearError):
            decompose(f)


class TestToNormalForm:
    def test_already_reduced_is_fixed_point(self):
        f = eq5_map(0.25, -0.7, 0.2, 0.6, -0.1, 0.5)
        nf = to_normal_form(f)
        assert nf.case == "I"
        p = nf.params
        assert abs(p["alpha"] - 0.25) < 1e-12
        assert abs(p["tau"] + 0.7) < 1e-12
        assert abs(p["sigma"] - 0.2) < 1e-12
        assert abs(p["a"] - 0.6) < 1e-12
        assert abs(p["b"] + 0.1) < 1e-12
        assert abs(p["c"] - 0.5) < 1e-12
        assert np.allclose(nf.conjugacy.linear, np.eye(3), atol=1e-12)

    def test_cyclic_composition_traces(self):
        L = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sd = ShearData(np.array([0.0, 0.0, 1.0]), np.diag([1.0, 0.0, 0.0]))
        f = build_shear(sd).after_affine(AffineMap(L, np.zeros(3)))
        nf = to_normal_form(f)
        assert nf.case == "I"
        assert abs(nf.params["tau"]) < 1e-12
        assert abs(nf.params["sigma"]) < 1e-12

    def test_case_tags_and_oracle(self):
        rng = np.random.default_rng(34)
        for case, tag in ((3, "I"), (2, "II"), (1, "III")):
            for _ in range(5):
                f, L, b, sd = random_case_map(rng, case)
                nf = to_normal_form(f)
                assert nf.case == tag
                assert nf.diagnostics["oracle_residual"] < 1e-9
                assert conjugacy_residual(f, nf.conjugacy, nf.normal_map) < 1e-9

    def test_case3_yz_block(self):
        rng = np.random.default_rng(35)
        f, L, b, sd = random_case_map(rng, 1)
        nf = to_normal_form(f)
        assert nf.case == "III"
        alpha, beta = nf.params["alpha"], nf.params["beta"]
        block = nf.normal_map.linear[1:, 1:]
        assert np.allclose(block, [[0.0, -1.0 / alpha], [1.0, beta]], atol=1e-9)
        # alpha is the eigenvalue of L on v
        assert abs(alpha - float(sd.v @ (L @ sd.v))) < 1e-9

    def test_case2_z_decouples(self):
        rng = np.random.default_rng(36)
        f, L, b, sd = random_case_map(rng, 2)
        nf = to_normal_form(f)
        assert nf.case == "II"
        m = nf.normal_map
        # third coordinate map: z -> z0 + z / beta, independent of x, y
        assert np.allclose(m.linear[2, :2], 0.0, atol=1e-10)
        assert np.allclose(m.quad[2], 0.0, atol=1e-10)
        assert abs(m.linear[2, 2] - 1.0 / nf.params["beta"]) < 1e-9
        # trace identities of the factored characteristic polynomial
        alpha, beta = nf.params["alpha"], nf.params["beta"]
        assert abs(np.trace(L) - (alpha + 1.0 / beta)) < 1e-8
        assert abs(second_trace(L) - (beta + alpha / beta)) < 1e-8

    def test_case_dim_invariant_under_conjugation(self):
        rng = np.random.default_rng(37)
        for case in (3, 2, 1):
            f, L, b, sd = random_case_map(rng, case)
            C = AffineMap(
                np.linalg.qr(rng.standard_normal((3, 3)))[0], rng.standard_normal(3)
            )
            nf1 = to_normal_form(f)
            nf2 = to_normal_form(f.conjugate(C))
            assert nf1.case == nf2.case

    def test_trace_invariants_when_translation_trivial(self):
        # with f(0) chosen so the constant already sits on the x-axis of the
        # reduced frame, the final translation is trivial and (tau, sigma) are
        # exactly the trace and second trace of L
        rng = np.random.default_rng(38)
        for _ in range(5):
            f0, L, _, sd = random_case_map(rng, 3, b_scale=0.0)
            tau, sigma = np.trace(L), second_trace(L)
            U = np.column_stack([L @ sd.v, L @ L @ sd.v - tau * (L @ sd.v), sd.v])
            b = U @ np.array([rng.standard_normal(), 0.0, 0.0])
            f = QuadMap(b, f0.linear, f0.quad)
            nf = to_normal_form(f)
            assert nf.case == "I"
            assert abs(nf.params["tau"] - tau) < 1e-9
            assert abs(nf.params["sigma"] - sigma) < 1e-9

    def test_affine_map_tagged(self):
        f = AffineMap(np.eye(3), np.ones(3)).as_quadmap()
        nf = to_normal_form(f)
        assert nf.case == "affine"


class TestReduceGeneric:
    def test_scaling_example(self):
        # (a, b, c) = (2, 0, 2), sigma = 0: scaled by 1/4 to (1/2, 0, 1/2)
        f = eq5_map(1.0, -0.5, 0.0, 2.0, 0.0, 2.0)
        nf = reduce_generic(to_normal_form(f))
        g = nf.generic
        assert g is not None
        assert abs(g["a"] - 0.5) < 1e-12
        assert abs(g["b"]) < 1e-12
        assert abs(g["c"] - 0.5) < 1e-12
        assert abs(g["alpha"] - 4.0) < 1e-12  # alpha scales by a+b+c
        assert abs(g["tau"] + 0.5) < 1e-12  # untouched when sigma = 0

    def test_sigma_elimination(self):
        # sigma = 1, (a, b, c) = (0, 0, 1): gamma = 1/2, tau unchanged (2a+b=0)
        f = eq5_map(0.3, 0.8, 1.0, 0.0, 0.0, 1.0)
        nf = reduce_generic(to_normal_form(f))
        g = nf.generic
        assert g is not None
        assert nf.diagnostics["generic_sigma_residual"] < 1e-12
        assert abs(nf.diagnostics["sigma_shift_gamma"] - 0.5) < 1e-12
        assert abs(g["tau"] - 0.8) < 1e-12
        assert abs(g["a"] + g["b"] + g["c"] - 1.0) < 1e-12

    def test_already_generic_unchanged(self):
        f = eq5_map(0.2, -0.3, 0.0, 0.5, 0.0, 0.5)
        nf = reduce_generic(to_normal_form(f))
        g = nf.generic
        assert abs(g["alpha"] - 0.2) < 1e-12
        assert abs(g["tau"] + 0.3) < 1e-12
        assert abs(g["a"] - 0.5) < 1e-12

    def test_full_conjugacy_oracle_against_original(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            f, _, _, _ = random_case_map(rng, 3)
            nf = to_normal_form(f)
            abc = nf.params["a"] + nf.params["b"] + nf.params["c"]
            b2c = nf.params["b"] + 2 * nf.params["c"]
            if abs(abc) < 1e-6 or abs(b2c) < 1e-6:
                continue
            red = reduce_generic(nf)
            assert red.generic is not None
            assert conjugacy_residual(f, red.conjugacy, red.normal_map) < 1e-8

    def test_nongeneric_sum_zero(self):
        f = eq5_map(0.1, 0.2, 0.0, 1.0, -2.0, 1.0)
        nf = reduce_generic(to_normal_form(f))
        assert nf.generic is None
        assert nf.diagnostics["nongeneric"] == "sum_zero"

    def test_nongeneric_translation(self):
        f = eq5_map(0.1, 0.2, 0.3, 1.0, -1.0, 0.5)
        nf = reduce_generic(to_normal_form(f))
        assert nf.generic is None
        assert nf.diagnostics["nongeneric"] == "translation"


def _ref_affine(m, x):
    return m.linear @ x + m.const


def _ref_quad(m, x):
    return m.const + m.linear @ x + 0.5 * np.einsum("ijk,j,k->i", m.quad, x, x)


def _ref_conjugacy_residual(f, conj, nf_map, n_points=20):
    """The oracle one sample point at a time, each map applied to one vector."""
    inv = conj.inverse()
    worst = 0.0
    for x in _oracle_points(n_points, f.dim):
        r = _ref_affine(inv, _ref_quad(f, _ref_affine(conj, x))) - _ref_quad(nf_map, x)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _signed_zeros(rng, a):
    """a with about half its entries -0.0, symmetric in the last two axes of a tensor."""
    mask = rng.random(np.shape(a)) < 0.5
    if np.ndim(a) == 3:
        mask = mask | mask.transpose(0, 2, 1)
    return np.where(mask, -0.0, a)


def _scaled(m, k):
    return QuadMap(k * m.const, k * m.linear, k * m.quad)


class TestOracleParity:
    """The stacked oracle and stacked map calls equal the per-point loop bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_stacked_calls_match_rows(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            quad = rng.standard_normal((n, n, n))
            f = QuadMap(rng.standard_normal(n), rng.standard_normal((n, n)),
                        quad + quad.transpose(0, 2, 1))
            T = AffineMap(rng.standard_normal((n, n)), rng.standard_normal(n))
            for k in (1.0, 1e-200, 1e150):
                X = _signed_zeros(rng, k * rng.standard_normal((int(rng.integers(1, 40)), n)))
                for m, ref in ((f, _ref_quad), (T, _ref_affine)):
                    rows = np.array([ref(m, x) for x in X])
                    assert all(_same_bits(m(x), ref(m, x)) for x in X)
                    assert _same_bits(m(X), rows)
                    assert _same_bits(m(X.reshape(1, -1, n)), rows[None])
                    assert _same_bits(m(X[:0]), np.empty((0, n)))

    @pytest.mark.parametrize("bad", [(4,), (5, 4), (3, 2, 2), ()])
    def test_wrong_last_axis_raises(self, bad):
        f = QuadMap.identity(3)
        for m in (f, AffineMap.identity(3)):
            with pytest.raises(DimensionMismatchError):
                m(np.zeros(bad))

    def test_normal_form_cases(self, monkeypatch):
        calls = []

        def checked(f, conj, nf_map, n_points=20):
            res = conjugacy_residual(f, conj, nf_map, n_points)
            assert res == _ref_conjugacy_residual(f, conj, nf_map, n_points)
            calls.append(res)
            return res

        monkeypatch.setattr(normalform, "conjugacy_residual", checked)
        rng = np.random.default_rng(210)
        for case, tag in ((3, "I"), (2, "II"), (1, "III")):
            for _ in range(10):
                f, *_ = random_case_map(rng, case)
                nf = to_normal_form(f)
                assert nf.case == tag
                if tag == "I":
                    red = reduce_generic(nf)
                    assert red.diagnostics["generic_oracle_residual"] == calls[-1]
        assert len(calls) == 40

    def test_signed_zeros_and_scales(self):
        rng = np.random.default_rng(211)
        for case in (3, 2, 1):
            for _ in range(5):
                f, *_ = random_case_map(rng, case)
                nf = to_normal_form(f)
                g = nf.normal_map
                zeros = QuadMap(*(_signed_zeros(rng, a) for a in (g.const, g.linear, g.quad)))
                for k in (1.0, 1e-200, 1e150):
                    for ff, gg in ((f, g), (_scaled(f, k), _scaled(g, k)), (f, zeros)):
                        ref = _ref_conjugacy_residual(ff, nf.conjugacy, gg)
                        assert np.isfinite(ref)
                        assert conjugacy_residual(ff, nf.conjugacy, gg) == ref

    def test_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        coeff = st.floats(-1e3, 1e3, allow_nan=False)

        def arrays(shape, elements=coeff):
            return hnp.arrays(float, shape, elements=elements)

        # I + E with |E_ij| <= 0.3 is strictly diagonally dominant, so invertible
        conj = st.builds(lambda L, b: AffineMap(np.eye(3) + L, b),
                         arrays((3, 3), st.floats(-0.3, 0.3)), arrays(3))
        maps = st.builds(lambda b, L, A: QuadMap(b, L, A + A.transpose(0, 2, 1)),
                         arrays(3), arrays((3, 3)), arrays((3, 3, 3)))

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(maps, conj, maps, st.integers(0, 30))
        def check(f, c, g, n_points):
            ref = _ref_conjugacy_residual(f, c, g, n_points)
            assert conjugacy_residual(f, c, g, n_points) == ref

        check()


class TestOracleNaN:
    """A NaN residual is refused, not certified."""

    def test_nan_at_the_samples_propagates(self):
        f = eq5_map(0.25, -0.7, 0.2, 0.6, -0.1, 0.5)
        g = QuadMap(np.array([0.25, np.nan, 0.0]), f.linear, f.quad)
        assert np.isnan(conjugacy_residual(f, AffineMap.identity(3), g))

    def test_nan_residual_is_refused(self, monkeypatch):
        f = eq5_map(0.3, 0.8, 1.0, 0.0, 0.0, 1.0)
        nf = to_normal_form(f)
        monkeypatch.setattr(normalform, "conjugacy_residual", lambda *a, **k: float("nan"))
        with pytest.raises(NormalFormError, match="residual nan"):
            to_normal_form(f)
        with pytest.raises(NormalFormError, match="residual nan"):
            reduce_generic(nf)
