"""Exact coefficient representation of polynomial maps of degree <= 2 on R^n.

A quadratic map is stored as f(x) = b + L x + q(x) with q_i(x) = 0.5 x^T A_i x
for symmetric matrices A_i.  The matrix-valued linear function

    M(x)[i, j] = sum_k A_i[j, k] x_k

satisfies M(x) y = M(y) x and Df(x) = L + M(x); it carries the volume
preservation test (nilpotency of M for the standard-form part) and the
quadratic-inverse test (the cyclic triple identity) used everywhere else.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

#: absolute tolerance for "this coefficient is zero" decisions
DEFAULT_TOL = 1e-10

#: tolerance for discarding degree-3/4 coefficients when a composition
#: collapses back to a quadratic map
COMPOSE_TOL = 1e-12


class QvpmapsError(ValueError):
    """Root of every error this package raises for a bad map or input."""


class MapError(QvpmapsError):
    """Base class for structural errors on polynomial maps."""


class DimensionMismatchError(MapError):
    pass


class NotVolumePreservingError(MapError):
    pass


class NoQuadraticInverseError(MapError):
    pass


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _points(x, dim):
    """x as a float array of points along its last axis, which must be dim long.

    The maps evaluate ``(linear @ x[..., None])[..., 0]`` and the einsum over
    ``...j, ...k``: on a stack these give each row bitwise what the row alone
    gives, where ``x @ linear.T`` would not.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise DimensionMismatchError(f"point has shape {x.shape}, map has dimension {dim}")
    return x


@dataclass(frozen=True)
class AffineMap:
    """x -> linear @ x + const."""

    linear: np.ndarray
    const: np.ndarray

    def __post_init__(self):
        L = _freeze(self.linear)
        b = _freeze(self.const)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise DimensionMismatchError("linear part must be square")
        if b.shape != (L.shape[0],):
            raise DimensionMismatchError("const part has wrong length")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "const", b)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), np.zeros(dim))

    @property
    def dim(self):
        return self.const.shape[0]

    def __call__(self, x):
        """The image of a point, or of each point of an (..., n) stack."""
        x = _points(x, self.dim)
        return (self.linear @ x[..., None])[..., 0] + self.const

    def inverse(self):
        Li = np.linalg.inv(self.linear)
        return AffineMap(Li, -Li @ self.const)

    def as_quadmap(self):
        n = self.dim
        return QuadMap(self.const, self.linear, np.zeros((n, n, n)))

    def to_dict(self):
        return {"linear": self.linear.tolist(), "const": self.const.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["linear"], float), np.asarray(d["const"], float))


@dataclass(frozen=True)
class QuadMap:
    """Quadratic polynomial map f(x) = const + linear x + 0.5 (x^T quad[i] x)_i.

    quad is an (n, n, n) tensor whose slices quad[i] are the symmetric
    coefficient matrices A_i; non-symmetric input is symmetrized with a
    warning since x^T A x only sees the symmetric part.
    """

    const: np.ndarray
    linear: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        b = np.array(self.const, dtype=float)
        L = np.array(self.linear, dtype=float)
        A = np.array(self.quad, dtype=float)
        n = b.shape[0]
        if L.shape != (n, n) or A.shape != (n, n, n):
            raise DimensionMismatchError("inconsistent coefficient shapes")
        asym = np.max(np.abs(A - A.transpose(0, 2, 1))) if n else 0.0
        if asym > 1e-8 * max(1.0, np.max(np.abs(A))):
            warnings.warn(
                "quadratic tensor not symmetric (max asymmetry %.3g); symmetrizing"
                % asym,
                stacklevel=3,
            )
        A = 0.5 * (A + A.transpose(0, 2, 1))
        object.__setattr__(self, "const", _freeze(b))
        object.__setattr__(self, "linear", _freeze(L))
        object.__setattr__(self, "quad", _freeze(A))

    @classmethod
    def identity(cls, dim):
        return cls(np.zeros(dim), np.eye(dim), np.zeros((dim, dim, dim)))

    @classmethod
    def standard_form(cls, quad):
        quad = np.asarray(quad, dtype=float)
        n = quad.shape[0]
        return cls(np.zeros(n), np.eye(n), quad)

    @property
    def dim(self):
        return self.const.shape[0]

    def __call__(self, x):
        """The image of a point, or of each point of an (..., n) stack."""
        x = _points(x, self.dim)
        return self.const + (self.linear @ x[..., None])[..., 0] + 0.5 * np.einsum(
            "ijk,...j,...k->...i", self.quad, x, x
        )

    def m_of(self, x):
        """Matrix M(x) of the quadratic tensor alone; M(x)y = M(y)x."""
        x = np.asarray(x, dtype=float)
        return np.einsum("ijk,k->ij", self.quad, x)

    def jacobian(self, x):
        return self.linear + self.m_of(x)

    def is_standard_form(self, tol=DEFAULT_TOL):
        return (
            np.max(np.abs(self.const)) <= tol
            and np.max(np.abs(self.linear - np.eye(self.dim))) <= tol
        )

    def standard_part(self):
        """Split f = T o S with T affine (Df(0), f(0)) and S in standard form."""
        T = AffineMap(self.linear, self.const)
        Li = np.linalg.inv(self.linear)
        S = QuadMap.standard_form(np.einsum("im,mjk->ijk", Li, self.quad))
        return T, S

    def after_affine(self, a):
        """a o self, exactly in coefficients."""
        return QuadMap(
            a.linear @ self.const + a.const,
            a.linear @ self.linear,
            np.einsum("im,mjk->ijk", a.linear, self.quad),
        )

    def before_affine(self, a):
        """self o a, exactly in coefficients."""
        C, d = a.linear, a.const
        const = self(d)
        linear = (self.linear + self.m_of(d)) @ C
        quad = np.einsum("ab,mbc,cd->mad", C.T, self.quad, C)
        return QuadMap(const, linear, quad)

    def conjugate(self, c):
        """c^{-1} o self o c for an affine change of coordinates c."""
        return self.before_affine(c).after_affine(c.inverse())

    def to_dict(self):
        return {
            "dim": self.dim,
            "const": self.const.tolist(),
            "linear": self.linear.tolist(),
            "quad": self.quad.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        n = int(d["dim"])
        const = np.asarray(d["const"], float)
        linear = np.asarray(d["linear"], float)
        quad = np.asarray(d["quad"], float)
        if const.shape != (n,) or linear.shape != (n, n) or quad.shape != (n, n, n):
            raise DimensionMismatchError("map file fields do not match dim")
        for name, v in (("const", const), ("linear", linear), ("quad", quad)):
            if not np.all(np.isfinite(v)):
                raise MapError(f"map file field {name!r} has a non-finite entry")
        return cls(const, linear, quad)


class PolyMap:
    """Polynomial map of degree > 2, what compose returns when the terms of
    degree 3 and 4 do not vanish.

    ``coeffs[d]`` is the degree-d tensor T_d, symmetric in its last d axes:
    p(x)_i = sum_d T_d[i, j_1, ..., j_d] x_{j_1} ... x_{j_d}.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(len(x))
        for t in self.coeffs:
            for _ in range(t.ndim - 1):
                t = t @ x
            out = out + t
        return out

    def degree(self):
        return max((d for d, t in enumerate(self.coeffs) if np.any(t)), default=0)


def _symmetrized(t):
    """t averaged over every order of its argument axes (all but the first)."""
    perms = list(permutations(range(1, t.ndim)))
    return sum(t.transpose(0, *p) for p in perms) / len(perms)


def _basis_matrices(quad):
    """Contiguous stack of the M_k, M(x) = sum_k x_k M_k, scaled to unit size."""
    scale = max(1e-300, float(np.max(np.abs(quad), initial=0.0)))
    return np.ascontiguousarray(np.moveaxis(quad, 2, 0)) / scale


@functools.cache
def _expansion_plan(n):
    """Per degree 2..n, the index of the monomial e + e_k for each (e, k), with
    monomials numbered in order of first appearance: the order in which
    ``np.add.at`` then sums each monomial's products, as a term-by-term
    expansion would."""
    level = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    plan = []
    for _ in range(n - 1):
        nxt = {}
        index = [nxt.setdefault(e[:k] + (e[k] + 1,) + e[k + 1:], len(nxt))
                 for e in level for k in range(n)]
        plan.append((np.array(index), len(nxt)))
        level = list(nxt)
    return tuple(plan)


def nilpotency_residual(quad):
    """Max coefficient of the symbolic expansion of [M(x)]^n, scale-invariant.

    The expansion is exact: [sum_k x_k M_k]^n is accumulated in the monomial
    basis one degree at a time, each degree's products A_e M_k formed as one
    stacked matmul and summed into their monomials e + e_k, so a zero here is
    a polynomial identity, not a sample test.
    """
    mats = _basis_matrices(quad)
    n = mats.shape[0]
    acc = mats
    for index, size in _expansion_plan(n):
        prods = np.matmul(acc[:, None], mats[None]).reshape(-1, n, n)
        # -0.0 + p == p for every p, signed zeros included
        acc = np.full((size, n, n), -0.0)
        np.add.at(acc, index, prods)
    return float(np.max(np.abs(acc), initial=0.0))


def triple_identity_residual(quad):
    """Max residual of M(x)M(y)z + M(y)M(z)x + M(z)M(x)y over basis triples.

    The identity is multilinear in (x, y, z), so checking every ordered basis
    triple decides it exactly.
    """
    mats = _basis_matrices(quad)
    prods = np.matmul(mats[:, None], mats[None])
    i, j, k = np.indices(mats.shape)
    r = prods[i, j, :, k] + prods[j, k, :, i] + prods[k, i, :, j]
    return float(np.max(np.abs(r), initial=0.0))


@dataclass(frozen=True)
class VolumeCertificate:
    """Result of the volume-preservation test with the condition checked."""

    ok: bool
    condition: str
    det_linear: float
    residual: float
    method: str = "symbolic monomial expansion"

    def __bool__(self):
        return self.ok


def is_volume_preserving(m, tol=DEFAULT_TOL):
    """det Df(x) == 1 identically, decided on coefficients.

    Checks det L = 1 plus nilpotency [M(x)]^n == 0 of the standard-form part
    as a polynomial identity; returns a certificate recording which condition
    failed and the worst residual.
    """
    if isinstance(m, AffineMap):
        m = m.as_quadmap()
    d = float(np.linalg.det(m.linear))
    if abs(d - 1.0) > tol:
        return VolumeCertificate(False, "det(DF(0)) == 1", d, abs(d - 1.0))
    Li = np.linalg.inv(m.linear)
    squad = np.einsum("im,mjk->ijk", Li, m.quad)
    res = nilpotency_residual(squad)
    return VolumeCertificate(res <= tol, "[M(x)]^n == 0 (and det L == 1)", d, res)


def has_quadratic_inverse(m, tol=DEFAULT_TOL):
    """True iff the inverse of ``m`` is again quadratic.

    Tests the cyclic identity M(x)M(y)z + M(y)M(z)x + M(z)M(x)y == 0 on the
    standard-form part over all basis triples (equivalent to M(x)^2 x == 0).
    Raises if the linear part is not unimodular, since then no
    volume-preserving standard part exists.
    """
    if isinstance(m, AffineMap):
        return True
    d = float(np.linalg.det(m.linear))
    if abs(d - 1.0) > tol:
        raise NotVolumePreservingError(
            f"linear part has det {d:.6g}; map is not volume preserving"
        )
    Li = np.linalg.inv(m.linear)
    squad = np.einsum("im,mjk->ijk", Li, m.quad)
    return triple_identity_residual(squad) <= tol


def invert_quadratic(m):
    """Quadratic inverse of f = T o S, namely S^{-1} o T^{-1}.

    S^{-1}(x) = x - 0.5 M(x) x, exact in coefficients; the result composes
    with ``m`` to the identity up to floating-point roundoff.
    """
    if not has_quadratic_inverse(m):
        raise NoQuadraticInverseError("map has no quadratic inverse")
    T, S = m.standard_part()
    S_inv = QuadMap.standard_form(-S.quad)
    return S_inv.before_affine(T.inverse())


def compose(f, g):
    """Exact polynomial composition f o g (g applied first) of affine and
    quadratic maps.

    With g(x) = c + L x + B(x, x)/2 and f's quadratic tensor A,
    f(g(x)) = f(c + L x) + Df(c) B(x, x)/2 + A(L x, B(x, x))/2
    + A(B(x, x), B(x, x))/8.  The result is an AffineMap or QuadMap whenever
    the degree allows it (a quadratic-quadratic composition collapses when
    its symmetrized degree-3 and degree-4 tensors are at most COMPOSE_TOL
    times its largest coefficient), otherwise a PolyMap.
    """
    if isinstance(f, PolyMap) or isinstance(g, PolyMap):
        raise MapError("compose takes affine and quadratic maps, not a PolyMap")
    if isinstance(f, AffineMap) and isinstance(g, AffineMap):
        return AffineMap(f.linear @ g.linear, f.linear @ g.const + f.const)
    if isinstance(f, AffineMap) and isinstance(g, QuadMap):
        return g.after_affine(f)
    if isinstance(g, AffineMap) and isinstance(f, QuadMap):
        return f.before_affine(g)
    if f.dim != g.dim:
        raise DimensionMismatchError("composition dimensions differ")
    A, L, B = f.quad, g.linear, g.quad
    inner = f.before_affine(AffineMap(L, g.const))
    quad = inner.quad + np.einsum("im,mjk->ijk", f.jacobian(g.const), B)
    higher = [
        _symmetrized(0.5 * np.einsum("iab,aj,bkl->ijkl", A, L, B)),
        _symmetrized(0.125 * np.einsum("iab,ajk,blm->ijklm", A, B, B)),
    ]
    coeffs = [inner.const, inner.linear, 0.5 * quad, *higher]
    scale = max(1.0, *(float(np.max(np.abs(t))) for t in coeffs))
    if max(float(np.max(np.abs(t))) for t in higher) > COMPOSE_TOL * scale:
        return PolyMap(coeffs)
    return QuadMap(inner.const, inner.linear, quad)
