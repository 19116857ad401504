"""Seeded map files for the ``algebra`` workload, built with numpy alone.

The R^3 maps are f = T o S: a (v, P) shear S(x) = x + (x^T P x / 2) v with
P v = 0, after an affine T(x) = L x + b with det L = 1.  L is drawn so that
dim span{v, Lv, L^2 v} is 3, 2 or 1, which makes the normal-form case I, II
or III.  The symplectic maps in R^4 and R^6 are a gradient shear
(q + grad V(p), p) after an affine symplectic map.

Every map is drawn from a fixed pool, so that the reference digests recorded
for the pool cover every benchmark seed; the seed picks a sample of the pool
and its order.
"""

from __future__ import annotations

import numpy as np

POOL_SEED = 0

#: category -> (pool size, maps per benchmark input set)
CATEGORIES = {
    "I": (1000, 100),
    "II": (1000, 100),
    "III": (1000, 100),
    "sym4": (300, 50),
    "sym6": (300, 50),
}

CASE_DIM_Z = {"I": 3, "II": 2, "III": 1}


def _det1(rng, n):
    while True:
        L = rng.standard_normal((n, n))
        d = np.linalg.det(L)
        if abs(d) > 1e-3:
            if d < 0:
                L[0] = -L[0]
            return L / abs(d) ** (1.0 / n)


def _perp_symmetric(rng, v):
    proj = np.eye(3) - np.outer(v, v)
    while True:
        A = rng.standard_normal((3, 3))
        P = proj @ (0.5 * (A + A.T)) @ proj
        if np.max(np.abs(P)) >= 1e-3:
            return P


def _linear_part(rng, v, dim_z):
    """det-1 L with dim span{v, Lv, L^2 v} == dim_z."""
    if dim_z == 3:
        while True:
            L = _det1(rng, 3)
            K = np.column_stack([v, L @ v, L @ L @ v])
            if np.linalg.svd(K, compute_uv=False)[-1] >= 1e-3:
                return L
    while True:
        B = rng.standard_normal((3, 3))
        B[:, 0] = v
        if abs(np.linalg.det(B)) > 0.3:
            break
    while True:
        block = rng.standard_normal((2, 2))
        d2 = np.linalg.det(block)
        if abs(d2) < 0.1 or (dim_z == 2 and abs(block[1, 0]) < 0.2):
            continue
        break
    Lt = np.zeros((3, 3))
    if dim_z == 2:  # v, Lv span an invariant plane
        Lt[:2, :2] = block
        Lt[2, 2] = 1.0 / d2
    else:  # v is an eigenvector
        Lt[0, 0] = 1.0 / d2
        Lt[1:, 1:] = block
    L = B @ Lt @ np.linalg.inv(B)
    return L / np.cbrt(np.linalg.det(L))


def case_map(rng, case):
    """Coefficients (const, linear, quad) of a T o S map of the given case."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    L = _linear_part(rng, v, CASE_DIM_Z[case])
    P = _perp_symmetric(rng, v)
    b = rng.standard_normal(3)
    return b, L, np.einsum("i,jk->ijk", L @ v, P)


def _linear_symplectic(rng, n):
    S1 = rng.standard_normal((n, n))
    S2 = rng.standard_normal((n, n))
    S1, S2 = 0.5 * (S1 + S1.T), 0.5 * (S2 + S2.T)
    R = _det1(rng, n)
    I, Z = np.eye(n), np.zeros((n, n))
    G1 = np.block([[I, S1], [Z, I]])
    G2 = np.block([[I, Z], [S2, I]])
    G3 = np.block([[R, Z], [Z, np.linalg.inv(R).T]])
    return G1 @ G2 @ G3


def symplectic_map(rng, n):
    """Coefficients of G o (q + grad V(p), p) + b in R^(2n)."""
    T = rng.standard_normal((n, n, n))
    T = sum(T.transpose(p) for p in
            ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
    quad = np.zeros((2 * n, 2 * n, 2 * n))
    quad[:n, n:, n:] = T
    G = _linear_symplectic(rng, n)
    b = rng.standard_normal(2 * n)
    return b, G, np.einsum("im,mjk->ijk", G, quad)


def map_dict(category, index):
    """Map ``index`` of the category's pool, in the CLI's map-file format."""
    rng = np.random.default_rng([POOL_SEED, list(CATEGORIES).index(category), index])
    if category in CASE_DIM_Z:
        const, linear, quad = case_map(rng, category)
    else:
        const, linear, quad = symplectic_map(rng, int(category[-1]) // 2)
    return {
        "dim": len(const),
        "const": const.tolist(),
        "linear": linear.tolist(),
        "quad": quad.tolist(),
    }


def stem(category, index):
    return f"{category}-{index:04d}"


def input_set(seed, categories=CATEGORIES):
    """(category, pool index) of the maps in the seed's input set, in run order."""
    rng = np.random.default_rng(seed)
    chosen = []
    for category, (size, take) in categories.items():
        picks = rng.choice(size, size=take, replace=False)
        chosen += [(category, int(i)) for i in sorted(picks)]
    order = rng.permutation(len(chosen))
    return [chosen[i] for i in order]
