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
from itertools import combinations_with_replacement

import numpy as np

#: absolute tolerance for "this coefficient is zero" decisions
DEFAULT_TOL = 1e-10

#: tolerance for discarding degree-3/4 coefficients when a composition
#: collapses back to a quadratic map
COMPOSE_TOL = 1e-12


class MapError(ValueError):
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

    def det(self):
        return float(np.linalg.det(self.linear))

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
    """General polynomial map, used for exact composition oracles.

    Terms are stored as {exponent tuple: coefficient vector}; evaluation and
    degree bookkeeping are exact in the stored coefficients.
    """

    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = {
            e: np.asarray(v, dtype=float)
            for e, v in terms.items()
            if np.any(np.asarray(v) != 0.0)
        }
        if not self.terms:
            self.terms = {(0,) * dim: np.zeros(dim)}

    @classmethod
    def from_quadmap(cls, q):
        n = q.dim
        terms = {(0,) * n: q.const.copy()}
        for j in range(n):
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = q.linear[:, j].copy()
        for j in range(n):
            for k in range(j, n):
                e = [0] * n
                e[j] += 1
                e[k] += 1
                coef = q.quad[:, j, k] if j != k else 0.5 * q.quad[:, j, j]
                key = tuple(e)
                terms[key] = terms.get(key, np.zeros(n)) + coef
        return cls(n, terms)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.dim)
        for e, v in self.terms.items():
            mono = 1.0
            for xi, p in zip(x, e):
                if p:
                    mono *= xi**p
            out += mono * v
        return out

    def degree(self):
        deg = 0
        for e, v in self.terms.items():
            if np.max(np.abs(v)) > 0.0:
                deg = max(deg, sum(e))
        return deg

    def max_coeff_above_degree(self, deg):
        vals = [np.max(np.abs(v)) for e, v in self.terms.items() if sum(e) > deg]
        return max(vals, default=0.0)

    def as_quadmap(self):
        """Collapse to a QuadMap if all degree>2 coefficients vanish, else None."""
        scale = max(
            [1.0] + [float(np.max(np.abs(v))) for v in self.terms.values()]
        )
        if self.max_coeff_above_degree(2) > COMPOSE_TOL * scale:
            return None
        n = self.dim
        const = np.zeros(n)
        linear = np.zeros((n, n))
        quad = np.zeros((n, n, n))
        for e, v in self.terms.items():
            d = sum(e)
            if d == 0:
                const = v.copy()
            elif d == 1:
                j = e.index(1)
                linear[:, j] = v
            elif d == 2:
                idx = [j for j, p in enumerate(e) for _ in range(p)]
                j, k = idx
                if j == k:
                    quad[:, j, j] = 2.0 * v
                else:
                    quad[:, j, k] = v
                    quad[:, k, j] = v
        return QuadMap(const, linear, quad)


def _poly_mul(p, q):
    """Product of scalar polynomials given as {exponent tuple: float}."""
    out = {}
    for e1, c1 in p.items():
        if c1 == 0.0:
            continue
        for e2, c2 in q.items():
            if c2 == 0.0:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


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
    if abs(d - 1.0) > max(tol, 1e-8):
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
    """Exact polynomial composition f o g (g applied first).

    Returns an AffineMap or QuadMap whenever the degree allows it (in
    particular when degree-3/4 coefficients of a quadratic-quadratic
    composition vanish identically), otherwise a PolyMap.
    """
    if isinstance(f, AffineMap) and isinstance(g, AffineMap):
        return AffineMap(f.linear @ g.linear, f.linear @ g.const + f.const)
    if isinstance(f, AffineMap) and isinstance(g, QuadMap):
        return g.after_affine(f)
    if isinstance(g, AffineMap) and isinstance(f, QuadMap):
        return f.before_affine(g)
    if isinstance(f, PolyMap):
        raise NotImplementedError("left factor of degree > 2 is not supported")
    if isinstance(f, AffineMap):
        f = f.as_quadmap()
    gp = g if isinstance(g, PolyMap) else PolyMap.from_quadmap(g)
    if f.dim != gp.dim:
        raise DimensionMismatchError("composition dimensions differ")
    n = f.dim
    zero = (0,) * n
    out = {zero: f.const.copy()}

    def _add(e, vec):
        if e in out:
            out[e] = out[e] + vec
        else:
            out[e] = np.array(vec, dtype=float)

    comps = [{e: v[i] for e, v in gp.terms.items()} for i in range(n)]
    for e, v in gp.terms.items():
        _add(e, f.linear @ v)
    for i, j in combinations_with_replacement(range(n), 2):
        coef = f.quad[:, i, j] if i != j else 0.5 * f.quad[:, i, i]
        if not np.any(coef):
            continue
        for e, c in _poly_mul(comps[i], comps[j]).items():
            _add(e, c * coef)
    result = PolyMap(n, out)
    q = result.as_quadmap()
    return result if q is None else q
