"""Affine normal forms for quadratic volume-preserving diffeomorphisms of R^3.

Every such map with quadratic inverse splits as f = T o S (affine times
shear).  The dimension of Z(v, L) = span{v, Lv, L^2 v} selects one of three
normal forms; case I is the dynamically interesting one and reduces further
to a four-parameter family with a + b + c = 1 and sigma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import shear as shear_mod
from .polymap import AffineMap, MapError, QuadMap, compose, is_volume_preserving
from .shear import AFFINE, NOT_A_SHEAR, ShearData

#: relative singular-value threshold for the rank of [v | Lv | L^2 v]
RANK_RTOL = 1e-8

#: conjugacy oracle: max residual over sample points
ORACLE_TOL = 1e-9

_ORACLE_SEED = 20240317


class NormalFormError(MapError):
    pass


class NotAShearError(NormalFormError):
    """The standard-form part is not a (v, P) shear: inconsistent input."""


@dataclass(frozen=True)
class QuadraticForm2:
    """Q(u, w) = a u^2 + b u w + c w^2."""

    a: float
    b: float
    c: float

    @property
    def d(self):
        """Discriminant-type quantity a c - b^2/4; positive iff definite (with a, c > 0)."""
        return self.a * self.c - 0.25 * self.b**2

    def is_positive_definite(self):
        return self.a > 0 and self.c > 0 and self.d > 0

    def is_symmetric(self):
        return abs(self.a - self.c) <= 1e-12 * max(1.0, abs(self.a), abs(self.c))

    def __call__(self, u, w):
        return self.a * u * u + self.b * u * w + self.c * w * w

    def coeff_sum(self):
        return self.a + self.b + self.c


@dataclass(frozen=True)
class NormalForm:
    """Tagged reduction result with its verified change of coordinates.

    ``conjugacy`` C satisfies C^{-1} o f o C = ``normal_map`` at the oracle
    sample points; ``params`` holds the case-specific scalars read off the
    reduced coefficients, ``generic`` the further-normalized four-parameter
    form when produced by reduce_generic.
    """

    case: str
    params: dict
    conjugacy: AffineMap
    normal_map: QuadMap
    shear: ShearData | None
    generic: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "case": self.case,
            "params": dict(self.params),
            "conjugacy": self.conjugacy.to_dict(),
            "shear": self.shear.to_dict() if self.shear is not None else None,
            "generic": dict(self.generic) if self.generic is not None else None,
            "diagnostics": dict(self.diagnostics),
        }


def second_trace(L):
    """Sum of the principal 2x2 minors; the coefficient s in
    det(lambda I - L) = lambda^3 - t lambda^2 + s lambda - det L."""
    L = np.asarray(L, dtype=float)
    m1 = L[1, 1] * L[2, 2] - L[1, 2] * L[2, 1]
    m2 = L[0, 0] * L[2, 2] - L[0, 2] * L[2, 0]
    m3 = L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]
    return float(m1 + m2 + m3)


def _z_singular_values(v, L):
    """Singular values of [v | Lv | L^2 v] and the rank they give: the number
    above RANK_RTOL times the largest."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise NormalFormError("zero shear direction: map is affine")
    L = np.asarray(L, dtype=float)
    K = np.column_stack([v, L @ v, L @ L @ v])
    s = np.linalg.svd(K, compute_uv=False)
    return s, int(np.sum(s > RANK_RTOL * s[0]))


def z_dimension(v, L):
    """Numerical rank of [v | Lv | L^2 v] with a relative SVD threshold."""
    return _z_singular_values(v, L)[1]


def decompose(m):
    """Split f = T o S with T = (Df(0), f(0)) and S the extracted shear.

    Returns (T, ShearData) for a genuine quadratic part, (T, None) when the
    quadratic part vanishes, and raises NotAShearError when the standard-form
    part is not a (v, P) shear (which contradicts the quadratic-inverse
    hypothesis on the input).
    """
    T = AffineMap(m.linear, m.const)
    _, S = m.standard_part()
    res = shear_mod.extract_shear(S)
    if res is AFFINE:
        return T, None
    if res is NOT_A_SHEAR:
        raise NotAShearError(
            "standard-form part is not a quadratic shear; the input map has "
            "no quadratic inverse"
        )
    return T, res


def _case1_template(alpha, tau, sigma, a, b, c):
    const = np.array([alpha, 0.0, 0.0])
    lin = np.array([[tau, -sigma, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    quad = np.zeros((3, 3, 3))
    quad[0] = np.array([[2 * a, b, 0.0], [b, 2 * c, 0.0], [0.0, 0.0, 0.0]])
    return QuadMap(const, lin, quad)


def _case2_template(x0, y0, z0, alpha, beta, a, b, c):
    const = np.array([x0, y0, z0])
    lin = np.array([[alpha, 1.0, 0.0], [-beta, 0.0, 0.0], [0.0, 0.0, 1.0 / beta]])
    quad = np.zeros((3, 3, 3))
    quad[0] = np.array([[2 * a, 0.0, b], [0.0, 0.0, 0.0], [b, 0.0, 2 * c]])
    return QuadMap(const, lin, quad)


def _case3_template(x0, y0, z0, alpha, beta, a, b, c):
    const = np.array([x0, y0, z0])
    lin = np.array([[alpha, 0.0, 0.0], [0.0, 0.0, -1.0 / alpha], [0.0, 1.0, beta]])
    quad = np.zeros((3, 3, 3))
    quad[0] = np.array([[0.0, 0.0, 0.0], [0.0, 2 * a, b], [0.0, b, 2 * c]])
    return QuadMap(const, lin, quad)


def _oracle_points(n=20, dim=3, scale=1.0):
    rng = np.random.default_rng(_ORACLE_SEED)
    return scale * rng.standard_normal((n, dim))


def conjugacy_residual(f, conj, nf_map, n_points=20):
    """Max |conj^{-1}(f(conj(x))) - nf_map(x)| over deterministic samples.

    The maps evaluate the whole (n_points, n) sample stack at once, each row
    bitwise as it would alone.  A NaN at any sample makes the residual NaN,
    which the callers refuse (they accept only ``res <= tol``).
    """
    x = _oracle_points(n_points, f.dim)
    r = conj.inverse()(f(conj(x))) - nf_map(x)
    return float(np.max(np.abs(r), initial=0.0))


def _read_quad_coeffs(g, rows):
    """(a, b, c) of the first component's quadratic form in variables ``rows``."""
    i, j = rows
    A = g.quad[0]
    return 0.5 * A[i, i], A[i, j], 0.5 * A[j, j]


def _structure_residual(g, template):
    return max(
        float(np.max(np.abs(g.const - template.const))),
        float(np.max(np.abs(g.linear - template.linear))),
        float(np.max(np.abs(g.quad - template.quad))),
    )


def to_normal_form(m):
    """Reduce a quadratic volume-preserving diffeomorphism of R^3 by affine
    conjugacy to one of the three normal forms.

    The change of coordinates is built explicitly from {v, Lv, L^2 v} (case I),
    an eigenvector for the deflated eigenvalue 1/beta (case II), or a cyclic
    complement (case III); the reduced map is computed by exact coefficient
    conjugation, its parameters are read off the coefficients, and the result
    is verified against the closed-form template at 20 sample points.
    """
    if m.dim != 3:
        raise NormalFormError("normal forms are specific to R^3")
    cert = is_volume_preserving(m, tol=1e-8)
    if not cert:
        raise NormalFormError(
            f"map is not volume preserving ({cert.condition} residual "
            f"{cert.residual:.3g})"
        )
    T, sd = decompose(m)
    if sd is None:
        return NormalForm(
            case="affine",
            params={},
            conjugacy=AffineMap.identity(3),
            normal_map=m,
            shear=None,
            diagnostics={"note": "quadratic part vanishes; no reduction applies"},
        )
    L, v = T.linear, sd.v
    svals, dim_z = _z_singular_values(v, L)
    diagnostics = {"z_singular_values": svals.tolist(), "dim_z": dim_z}
    small = [s for s in svals if RANK_RTOL * svals[0] < s < 10 * RANK_RTOL * svals[0]]
    if small:
        diagnostics["near_degenerate_rank"] = True

    if dim_z == 3:
        nf = _reduce_case1(m, L, v, diagnostics)
    elif dim_z == 2:
        nf = _reduce_case2(m, L, v, diagnostics)
    else:
        nf = _reduce_case3(m, L, v, diagnostics)

    res = conjugacy_residual(m, nf.conjugacy, nf.normal_map)
    nf.diagnostics["oracle_residual"] = res
    if not res <= ORACLE_TOL:
        raise NormalFormError(
            f"conjugacy oracle residual {res:.3g} exceeds {ORACLE_TOL:.1g}"
        )
    return replace(nf, shear=sd)


def _reduce_case1(m, L, v, diagnostics):
    tau = float(np.trace(L))
    sigma = second_trace(L)
    U = np.column_stack([L @ v, L @ L @ v - tau * (L @ v), v])
    g1 = m.conjugate(AffineMap(U, np.zeros(3)))
    x0, y0, z0 = g1.const
    d = np.array([0.0, y0, y0 + z0])
    conj = AffineMap(U, U @ d)  # U o (translation by d), as one affine map
    g = m.conjugate(conj)
    alpha = float(g.const[0])
    tau_eff = float(g.linear[0, 0])
    sigma_eff = float(-g.linear[0, 1])
    a, b, c = _read_quad_coeffs(g, (0, 1))
    template = _case1_template(alpha, tau_eff, sigma_eff, a, b, c)
    diagnostics.update(
        {
            "trace_L": tau,
            "second_trace_L": sigma,
            "translation": d.tolist(),
            "structure_residual": _structure_residual(g, template),
        }
    )
    params = {
        "alpha": alpha,
        "tau": tau_eff,
        "sigma": sigma_eff,
        "a": float(a),
        "b": float(b),
        "c": float(c),
    }
    return NormalForm("I", params, conj, template, None, None, diagnostics)


def _adjugate3(A):
    C = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            C[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return C.T


def _reduce_case2(m, L, v, diagnostics):
    # L^2 v = alpha L v - beta v on the invariant plane
    basis = np.column_stack([L @ v, v])
    coef, res, *_ = np.linalg.lstsq(basis, L @ L @ v, rcond=None)
    alpha, beta = float(coef[0]), float(-coef[1])
    if abs(beta) < 1e-12:
        raise NormalFormError("degenerate case II: beta vanishes")
    A3 = L - np.eye(3) / beta
    adj = _adjugate3(A3)
    cols = [adj[:, j] for j in range(3) if np.linalg.norm(adj[:, j]) > 1e-14]
    if not cols:
        raise NormalFormError("case II eigenvector seed not found (defective L)")
    w = min(cols, key=lambda c: np.linalg.norm(A3 @ c) / np.linalg.norm(c))
    w = w / np.linalg.norm(w)
    # inverse-iteration polish; lstsq tolerates the (near-)singular shift
    for _ in range(2):
        w_new, *_ = np.linalg.lstsq(A3 + 1e-13 * np.eye(3), w, rcond=None)
        norm = np.linalg.norm(w_new)
        if norm == 0.0:
            break
        cand = w_new / norm
        if np.linalg.norm(A3 @ cand) <= np.linalg.norm(A3 @ w):
            w = cand
    # w must leave the invariant plane span{v, Lv}
    Q, _ = np.linalg.qr(basis)
    w_perp = w - Q @ (Q.T @ w)
    if np.linalg.norm(w_perp) < 1e-6:
        raise NormalFormError("case II eigenvector lies in Z(v, L)")
    diagnostics["eig_residual"] = float(np.linalg.norm(A3 @ w))
    U = np.column_stack([L @ v, v, w])
    conj = AffineMap(U, np.zeros(3))
    g = m.conjugate(conj)
    x0, y0, z0 = (float(t) for t in g.const)
    alpha_eff = float(g.linear[0, 0])
    beta_eff = float(-g.linear[1, 0])
    a, b, c = _read_quad_coeffs(g, (0, 2))
    template = _case2_template(x0, y0, z0, alpha_eff, beta_eff, a, b, c)
    diagnostics["structure_residual"] = _structure_residual(g, template)
    params = {
        "x0": x0,
        "y0": y0,
        "z0": z0,
        "alpha": alpha_eff,
        "beta": beta_eff,
        "a": float(a),
        "b": float(b),
        "c": float(c),
    }
    return NormalForm("II", params, conj, template, None, None, diagnostics)


def _case3_candidates(v, L, alpha):
    """Deterministic candidates for the cyclic complement vector.

    A valid w must lie in an L-invariant complement of span{v}; for a simple
    eigenvalue alpha that complement is range(L - alpha I), so the probe
    vectors e_i (and their pairwise sums) are pushed through L - alpha I
    before normalization.
    """
    shift = L - alpha * np.eye(3)
    probes = [np.eye(3)[i] for i in range(3)]
    probes += [probes[0] + probes[1], probes[0] + probes[2], probes[1] + probes[2]]
    probes.append(np.ones(3))
    out = []
    for pr in probes:
        w = shift @ pr
        if np.linalg.norm(w) > 1e-10:
            out.append(w)
    return out


def _reduce_case3(m, L, v, diagnostics):
    alpha = float(v @ (L @ v))  # Lv = alpha v with |v| = 1
    if abs(alpha) < 1e-12:
        raise NormalFormError("degenerate case III: alpha vanishes")
    best = None
    for cand in sorted(
        _case3_candidates(v, L, alpha),
        key=lambda w: -np.linalg.norm(w - (w @ v) * v) / np.linalg.norm(w),
    ):
        w = cand / np.linalg.norm(cand)
        U = np.column_stack([v, w, L @ w])
        if abs(np.linalg.det(U)) < 1e-8:
            continue
        plane = np.column_stack([L @ w, w])
        coef, *_ = np.linalg.lstsq(plane, L @ L @ w, rcond=None)
        resid = np.linalg.norm(L @ L @ w - plane @ coef)
        if resid > 1e-8 * max(1.0, np.linalg.norm(L @ L @ w)):
            continue
        best = (w, float(coef[0]), float(-coef[1]), resid)
        break
    if best is None:
        raise NormalFormError("no cyclic complement found for case III")
    w, beta, gamma, resid = best
    diagnostics["cyclic_residual"] = float(resid)
    diagnostics["gamma_check"] = gamma  # should equal 1/alpha since det L = 1
    U = np.column_stack([v, w, L @ w])
    conj = AffineMap(U, np.zeros(3))
    g = m.conjugate(conj)
    x0, y0, z0 = (float(t) for t in g.const)
    alpha_eff = float(g.linear[0, 0])
    beta_eff = float(g.linear[2, 2])
    a, b, c = _read_quad_coeffs(g, (1, 2))
    template = _case3_template(x0, y0, z0, alpha_eff, beta_eff, a, b, c)
    diagnostics["structure_residual"] = _structure_residual(g, template)
    params = {
        "x0": x0,
        "y0": y0,
        "z0": z0,
        "alpha": alpha_eff,
        "beta": beta_eff,
        "a": float(a),
        "b": float(b),
        "c": float(c),
    }
    return NormalForm("III", params, conj, template, None, None, diagnostics)


def reduce_generic(nf):
    """Normalize a case-I form to a + b + c = 1 and sigma = 0.

    The scaling x -> lambda x multiplies (a, b, c) by lambda, so
    lambda = 1/(a+b+c); the diagonal translation by gamma = sigma/(b+2c)
    then kills sigma.  Both are applied by exact conjugation and the
    final parameters are re-read from the reduced coefficients and verified
    by the same sample-point oracle.  Non-generic inputs (a+b+c = 0 or
    b+2c = 0) are returned untransformed with a diagnostics flag.
    """
    if nf.case != "I":
        raise NormalFormError("generic reduction applies to case I only")
    p = nf.params
    a, b, c = p["a"], p["b"], p["c"]
    bound = 1e-12 * max(1.0, abs(a), abs(b), abs(c))
    if abs(a + b + c) <= bound:
        d = dict(nf.diagnostics)
        d["nongeneric"] = "sum_zero"
        return replace(nf, diagnostics=d)
    if abs(b + 2 * c) <= bound:
        d = dict(nf.diagnostics)
        d["nongeneric"] = "translation"
        return replace(nf, diagnostics=d)

    lam = 1.0 / (a + b + c)
    c_scale = AffineMap(lam * np.eye(3), np.zeros(3))
    g2 = nf.normal_map.conjugate(c_scale)
    a2, b2, c2 = _read_quad_coeffs(g2, (0, 1))
    sigma2 = float(-g2.linear[0, 1])
    gamma = sigma2 / (b2 + 2 * c2)
    c_shift = AffineMap(np.eye(3), gamma * np.ones(3))
    g3 = g2.conjugate(c_shift)
    alpha3 = float(g3.const[0])
    tau3 = float(g3.linear[0, 0])
    sigma3 = float(-g3.linear[0, 1])
    a3, b3, c3 = _read_quad_coeffs(g3, (0, 1))
    template = _case1_template(alpha3, tau3, sigma3, a3, b3, c3)

    conj_total = compose(nf.conjugacy, compose(c_scale, c_shift))
    generic = {
        "alpha": alpha3,
        "tau": tau3,
        "a": float(a3),
        "b": float(b3),
        "c": float(c3),
    }
    d = dict(nf.diagnostics)
    d["generic_structure_residual"] = _structure_residual(g3, template)
    d["generic_sigma_residual"] = abs(sigma3)
    d["scaling_lambda"] = lam
    d["sigma_shift_gamma"] = gamma
    res = conjugacy_residual(nf.normal_map, compose(c_scale, c_shift), template)
    d["generic_oracle_residual"] = res
    if not res <= ORACLE_TOL:
        raise NormalFormError(
            f"generic-reduction oracle residual {res:.3g} exceeds {ORACLE_TOL:.1g}"
        )
    return NormalForm("I", dict(nf.params), conj_total, template, nf.shear, generic, d)
