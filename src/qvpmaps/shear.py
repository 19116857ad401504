"""Quadratic shears in R^3 in the (v, P) representation.

A shear is S(x) = x + 0.5 (x^T P x) v with P symmetric and P v = 0; its
iterates stay on the line {x + t v} and obey S^k(x) = x + (k/2)(x^T P x) v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polymap import DEFAULT_TOL, MapError, QuadMap


class ShearConstraintError(MapError):
    """Raised when P v = 0 fails beyond tolerance."""


class _Tag:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


#: extract_shear result for a map whose quadratic part vanishes identically
AFFINE = _Tag("AFFINE")
#: extract_shear result for a quadratic map that is not a single (v, P) shear
NOT_A_SHEAR = _Tag("NOT_A_SHEAR")

#: deterministic probe points used to pick off the shear direction
_PROBES = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
    (1.0, 1.0, 1.0),
]

#: extract_shear: relative tolerance of the proportionality A_i = v_i P and
#: of P v = 0
SHEAR_RTOL = 1e-8


def _normalize(v, P):
    """Canonical (v, P): |v| = 1, first nonzero component positive."""
    v = np.array(v, dtype=float)
    P = np.array(P, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ShearConstraintError("shear direction v must be nonzero")
    v = v / nv
    P = P * nv
    sign = 1.0
    for comp in v:
        if abs(comp) > 1e-9:
            sign = 1.0 if comp > 0 else -1.0
            break
    return sign * v, sign * P


@dataclass(frozen=True)
class ShearData:
    """Direction v (unit, sign-normalized) and symmetric P with P v = 0."""

    v: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        v, P = _normalize(self.v, self.P)
        if v.shape != (3,) or P.shape != (3, 3):
            raise ShearConstraintError("ShearData is specific to R^3")
        P = 0.5 * (P + P.T)
        pv = np.linalg.norm(P @ v)
        if pv > DEFAULT_TOL * max(1.0, np.max(np.abs(P))):
            raise ShearConstraintError(f"P v = 0 violated (|Pv| = {pv:.3g})")
        v.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "P", P)

    def to_dict(self):
        return {"v": self.v.tolist(), "P": self.P.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["v"], float), np.asarray(d["P"], float))


def build_shear(data):
    """QuadMap of S(x) = x + 0.5 (x^T P x) v; standard form, quad tensor v_i P."""
    quad = np.einsum("i,jk->ijk", data.v, data.P)
    return QuadMap.standard_form(quad)


def extract_shear(m):
    """Recover (v, P) from a standard-form map in R^3, or tag the failure.

    Returns ShearData when all A_i are a common symmetric P scaled by the
    components of a direction v with P v = 0; AFFINE when the quadratic part
    vanishes; NOT_A_SHEAR otherwise.  The pivot slice of largest magnitude
    anchors the proportionality test so near-zero components of v are never
    divided by.
    """
    if m.dim != 3:
        raise MapError("shear extraction is specific to R^3")
    if not m.is_standard_form():
        raise MapError("extract_shear expects a standard-form map")
    A = m.quad
    amax = float(np.max(np.abs(A)))
    if amax <= DEFAULT_TOL:
        return AFFINE

    v_dir = None
    for probe in _PROBES:
        q = 0.5 * np.einsum("ijk,j,k->i", A, probe, probe)
        if np.linalg.norm(q) > DEFAULT_TOL * max(1.0, amax):
            v_dir = q
            break
    if v_dir is None:
        return AFFINE
    v, _ = _normalize(v_dir, np.zeros((3, 3)))

    pivot = int(np.argmax(np.abs(v)))
    if abs(v[pivot]) < 1e-12:
        return NOT_A_SHEAR
    P = A[pivot] / v[pivot]
    for i in range(3):
        if np.max(np.abs(A[i] - v[i] * P)) > SHEAR_RTOL * amax:
            return NOT_A_SHEAR
    if np.linalg.norm(P @ v) > SHEAR_RTOL * max(1.0, np.max(np.abs(P))):
        return NOT_A_SHEAR
    try:
        return ShearData(v, P)
    except ShearConstraintError:
        return NOT_A_SHEAR


def power(data, k):
    """k-th iterate x + (k/2)(x^T P x) v as a QuadMap; k may be negative."""
    quad = float(k) * np.einsum("i,jk->ijk", data.v, data.P)
    return QuadMap.standard_form(quad)
