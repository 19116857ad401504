"""Quadratic symplectic maps on R^{2n}: verification, affine/shear splitting,
and reduction of the shear factor to gradient form (q + grad V(p), p).

All identity checks are on coefficients: symplecticity of Df(x)^T J Df(x) = J
is expanded by degree, and the shear condition M(x)^2 = 0 is checked on the
symmetrized basis products, so a pass is a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polymap import AffineMap, MapError, QuadMap, _basis_matrices

KERNEL_RTOL = 1e-8


class SymplecticError(MapError):
    pass


def standard_j(half_dim):
    n = half_dim
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


@dataclass(frozen=True)
class SymplecticContext:
    """Half-dimension n and the standard form matrix J on R^{2n}."""

    half_dim: int

    @property
    def J(self):
        return standard_j(self.half_dim)

    @property
    def dim(self):
        return 2 * self.half_dim

    def omega(self, u, v):
        return float(np.asarray(u) @ self.J @ np.asarray(v))


def _context_for(m, ctx):
    if ctx is not None:
        if m.dim != ctx.dim:
            raise SymplecticError("context dimension does not match the map")
        return ctx
    if m.dim % 2:
        raise SymplecticError("symplectic maps need even dimension")
    return SymplecticContext(m.dim // 2)


def is_symplectic(m, ctx=None, tol=1e-9):
    """Df(x)^T J Df(x) == J identically, expanded by polynomial degree.

    Degree 0 is L^T J L = J; degree 1 gives L^T J M_k + M_k^T J L = 0 for
    every basis matrix M_k; degree 2 gives the symmetrized products
    M_k^T J M_l + M_l^T J M_k = 0.  Each degree's terms are one stacked
    product over the M_k, and each term's max is held to its threshold; a NaN
    term fails it.
    """
    ctx = _context_for(m, ctx)
    J = ctx.J
    L = m.linear
    scale = max(1.0, float(np.max(np.abs(L))) ** 2)
    if not np.max(np.abs(L.T @ J @ L - J)) <= tol * scale:
        return False
    # mats[k] is the view quad[:, :, k], so each slice of a stacked product
    # runs the kernel that slice alone runs and every term keeps its bits
    mats = np.moveaxis(m.quad, 2, 0)
    mscale = max(1.0, float(np.max(np.abs(mats), initial=0.0)))
    mt_j = mats.transpose(0, 2, 1) @ J
    deg1 = L.T @ J @ mats + mt_j @ L
    lmax = max(1.0, float(np.max(np.abs(L))))
    if not np.all(np.max(np.abs(deg1), axis=(1, 2)) <= tol * mscale * lmax):
        return False
    prods = mt_j[:, None] @ mats[None]
    i, j = np.triu_indices(len(mats))
    deg2 = prods[i, j] + prods[j, i]
    return bool(np.all(np.max(np.abs(deg2), axis=(1, 2)) <= tol * mscale**2))


def shear_square_residual(quad):
    """Max coefficient of the symbolic M(x)^2, via the symmetrized pair
    products M_i M_j + M_j M_i of the unit-scaled basis, formed as one stacked
    product; NaN if any coefficient is."""
    mats = _basis_matrices(quad)
    prods = mats[:, None] @ mats[None]
    i, j = np.triu_indices(len(mats))
    return float(np.max(np.abs(prods[i, j] + prods[j, i]), initial=0.0)) / 2


def symplectic_decompose(m, ctx=None, tol=1e-9):
    """Split a quadratic symplectic map as T o S with T affine symplectic and
    S a symplectic quadratic shear (certified by M(x)^2 == 0)."""
    ctx = _context_for(m, ctx)
    if not is_symplectic(m, ctx, tol):
        raise SymplecticError("map is not symplectic")
    T, S = m.standard_part()
    res = shear_square_residual(S.quad)
    if not res <= tol:
        raise SymplecticError(
            f"standard part violates M(x)^2 == 0 (residual {res:.3g})"
        )
    return T, S


@dataclass(frozen=True)
class GradientShearForm:
    """Conjugated shear (q, p) -> (q + 0.5 B(p) p, p) with B(p) = sum_k p_k B_k.

    ``bcoef`` stacks the symmetric matrices B_k as an (n, n, n) tensor
    (bcoef[k] = B_k); ``lam`` is the symplectic linear change of coordinates
    with lam o S o lam^{-1} in gradient form.  0.5 B(p) p is the gradient of
    the cubic potential V(p) = (1/6) p^T B(p) p.
    """

    bcoef: np.ndarray
    lam: np.ndarray

    @property
    def half_dim(self):
        return self.bcoef.shape[0]

    def b_of(self, p):
        p = np.asarray(p, dtype=float)
        return np.einsum("kij,k->ij", self.bcoef, p)

    def grad(self, p):
        return 0.5 * self.b_of(p) @ np.asarray(p, dtype=float)

    def potential(self, p):
        p = np.asarray(p, dtype=float)
        return float(p @ self.b_of(p) @ p) / 6.0

    def normal_map(self):
        n = self.half_dim
        quad = np.zeros((2 * n, 2 * n, 2 * n))
        for i in range(n):
            quad[i, n:, n:] = self.bcoef[:, i, :].T
        return QuadMap.standard_form(quad)


def _common_kernel(stacked, rtol=KERNEL_RTOL):
    """Basis of the common null space of the matrices stacked as rows."""
    u, s, vt = np.linalg.svd(stacked)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(stacked.shape[1])
    keep = s <= rtol * s[0]
    null = vt[len(s) :].T
    extra = vt[: len(s)][keep].T
    if extra.size:
        null = np.column_stack([null, extra]) if null.size else extra
    return null if null.size else np.zeros((stacked.shape[1], 0))


def _omega_complement(basis, J):
    """Basis of {u : u^T J b = 0 for all columns b of basis}."""
    if basis.size == 0:
        return np.eye(J.shape[0])
    A = basis.T @ J.T  # rows are (J b)^T
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > KERNEL_RTOL * s[0])) if s.size else 0
    return vt[rank:].T


def _subspace_residual(vectors, space):
    """Max distance of unit columns of ``vectors`` from span(space)."""
    if vectors.size == 0:
        return 0.0
    q, _ = np.linalg.qr(space) if space.size else (np.zeros_like(vectors), None)
    worst = 0.0
    for k in range(vectors.shape[1]):
        u = vectors[:, k] / np.linalg.norm(vectors[:, k])
        r = u - q @ (q.T @ u) if space.size else u
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def _extend_to_lagrangian(nperp, nspace, J, n):
    """Grow the isotropic N-perp inside N to an n-dimensional Lagrangian."""
    F = [nperp[:, k] for k in range(nperp.shape[1])]
    while len(F) < n:
        if F:
            W = np.column_stack(F)
            cond = W.T @ J @ nspace  # rows: omega(F_i, N-basis columns)
            _, s, vt = np.linalg.svd(cond)
            rank = int(np.sum(s > KERNEL_RTOL * s[0])) if s.size else 0
            coords = vt[rank:].T
        else:
            coords = np.eye(nspace.shape[1])
        added = False
        for k in range(coords.shape[1]):
            cand = nspace @ coords[:, k]
            if F:
                W = np.column_stack(F)
                q, _ = np.linalg.qr(W)
                cand = cand - q @ (q.T @ cand)
            nrm = np.linalg.norm(cand)
            if nrm > 1e-10:
                F.append(cand / nrm)
                added = True
                break
        if not added:
            raise SymplecticError("failed to extend to a Lagrangian subspace")
    return np.column_stack(F)


def _symplectic_basis_from_lagrangian(F, J):
    """Columns [F | G] with omega(f_i, f_j) = omega(g_i, g_j) = 0 and
    omega(f_i, g_j) = delta_ij; the inverse of the returned matrix maps F to
    the q-plane."""
    dim = J.shape[0]
    n = dim // 2
    # orthonormalize F for conditioning
    F, _ = np.linalg.qr(F)
    # any complement
    q_full, _ = np.linalg.qr(np.column_stack([F, np.eye(dim)]))
    H = q_full[:, n : 2 * n]
    omega_fh = F.T @ J @ H
    G = H @ np.linalg.inv(omega_fh)
    C = G.T @ J @ G  # antisymmetric defect
    G = G + F @ (C / 2.0)
    return np.column_stack([F, G])


def _is_gradient_form(S, n, tol=1e-11):
    quad = S.quad
    if np.max(np.abs(quad[n:])) > tol:
        return False
    if np.max(np.abs(quad[:n, :, :n])) > tol:  # q-block arguments must not appear
        return False
    B = quad[:n, n:, n:]
    return np.max(np.abs(B - B.transpose(0, 2, 1))) <= tol and np.max(
        np.abs(B - B.transpose(1, 0, 2))
    ) <= tol


def shear_to_gradient_form(S, ctx=None, tol=1e-9):
    """Conjugate a symplectic quadratic shear to (q + 0.5 B(p) p, p).

    Computes the common null space N of the basis matrices M_k, certifies
    N-perp inside N, extends to a Lagrangian F between them, and builds the
    symplectic change of coordinates sending F to the q-plane.  The reduced
    quadratic tensor is read off and its block structure and symmetry are
    verified.
    """
    ctx = _context_for(S, ctx)
    n, J = ctx.half_dim, ctx.J
    if not S.is_standard_form(1e-9):
        raise SymplecticError("gradient-form reduction expects a standard-form shear")
    res = shear_square_residual(S.quad)
    if not res <= tol:
        raise SymplecticError(f"not a shear: M(x)^2 residual {res:.3g}")

    if _is_gradient_form(S, n):
        bcoef = np.array([S.quad[:n, n + k, n:] for k in range(n)])
        bcoef = 0.5 * (bcoef + bcoef.transpose(0, 2, 1))
        return GradientShearForm(bcoef, np.eye(2 * n))

    scale = max(1e-300, float(np.max(np.abs(S.quad))))
    nspace = _common_kernel(np.moveaxis(S.quad, 2, 0).reshape(-1, 2 * n) / scale)
    nperp = _omega_complement(nspace, J)
    violation = _subspace_residual(nperp, nspace)
    if violation > 1e-7:
        raise SymplecticError(
            f"N-perp is not contained in N (max violation {violation:.3g})"
        )
    F = _extend_to_lagrangian(nperp, nspace, J, n)
    lam_inv = _symplectic_basis_from_lagrangian(F, J)
    lam = np.linalg.inv(lam_inv)
    reduced = S.conjugate(AffineMap(lam_inv, np.zeros(2 * n)))
    if not _is_gradient_form(reduced, n, tol=1e-8 * scale):
        raise SymplecticError("reduction did not reach gradient form")
    bcoef = np.array([reduced.quad[:n, n + k, n:] for k in range(n)])
    bcoef = 0.5 * (bcoef + bcoef.transpose(0, 2, 1))
    return GradientShearForm(bcoef, lam)
