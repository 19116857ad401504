"""Dynamics of the generic three-dimensional quadratic volume-preserving map

    (x, y, z) -> (alpha + tau x - sigma y + z + Q(x, y), x, y),

equivalently the third-order difference equation
x_{t+1} = alpha + tau x_t - sigma x_{t-1} + x_{t-2} + Q(x_t, x_{t-1}).
Fixed points, cubic stability classification with the saddle-node /
period-doubling / double-root loci, orbit iteration with the escape cube for
positive-definite Q, the reversor for symmetric forms, and periodic-orbit
counting degeneracies all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .normalform import QuadraticForm2, _case1_template
from .polymap import AffineMap

TYPE_A = "type_A"
TYPE_B = "type_B"
SADDLE_NODE_BOUNDARY = "saddle_node_boundary"
PERIOD_DOUBLING_BOUNDARY = "period_doubling_boundary"
ELLIPTIC_PAIR = "elliptic_pair"

BOUNDARY_TOL = 1e-9

#: |x| beyond this is reported as floating-point overflow escape
OVERFLOW_LIMIT = 1e150


class DynamicsError(ValueError):
    pass


class NotPositiveDefiniteError(DynamicsError):
    pass


class NonGenericError(DynamicsError):
    pass


@dataclass(frozen=True)
class GenericMapParams:
    """Parameters (alpha, tau, sigma, Q) of the generic normal form."""

    alpha: float
    tau: float
    sigma: float = 0.0
    quad: QuadraticForm2 = QuadraticForm2(0.5, 0.0, 0.5)

    @classmethod
    def make(cls, alpha, tau, sigma=0.0, a=0.5, b=0.0, c=0.5):
        return cls(float(alpha), float(tau), float(sigma), QuadraticForm2(a, b, c))

    def coeff_sum(self):
        return self.quad.coeff_sum()

    def is_normalized(self, tol=1e-9):
        return abs(self.coeff_sum() - 1.0) <= tol

    def as_quadmap(self):
        q = self.quad
        return _case1_template(self.alpha, self.tau, self.sigma, q.a, q.b, q.c)

    # step and step_back map the last axis of an (..., 3) array, in the
    # array's precision (float64 or np.longdouble).  Reversing all axes on
    # the way in and out keeps a single point cheap, where indexing
    # pt[..., k] would make every operand a 0-d array.
    def step(self, pt):
        x, y, z = np.asarray(pt).T
        return np.array(
            [self.alpha + self.tau * x - self.sigma * y + z + self.quad(x, y), x, y]
        ).T

    def step_back(self, pt):
        x, y, z = np.asarray(pt).T
        return np.array(
            [
                y,
                z,
                x - self.alpha - self.tau * y + self.sigma * z - self.quad(y, z),
            ]
        ).T

    def jacobian(self, pt):
        x, y, _ = pt
        q = self.quad
        return np.array(
            [
                [self.tau + 2 * q.a * x + q.b * y, -self.sigma + q.b * x + 2 * q.c * y, 1.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
            ]
        )


def _cubic(t, s, lam):
    return lam**3 - t * lam**2 + s * lam - 1.0


def _cubic_roots(t, s):
    """Roots of lambda^3 - t lambda^2 + s lambda - 1, exact on multiple roots.

    Companion-matrix eigenvalues are Newton-polished; when the residual at a
    root of the derivative certifies a double (or triple) root, the exact
    structure (r, r, 1/r^2) is returned instead, which keeps the double-root
    curves and the cusp at t = s = 3 well conditioned.
    """
    accept = 1e-9 * (1.0 + abs(t) + abs(s))
    # triple root: common zero of p'' and p'
    r = t / 3.0
    if abs(_cubic(t, s, r)) <= accept and abs(3 * r * r - 2 * t * r + s) <= accept:
        return np.array([r, r, r], dtype=complex)
    # double root: a real zero of p' with p ~ 0 there
    disc = t * t - 3.0 * s
    if disc >= 0.0:
        sq = math.sqrt(disc)
        for r in ((t + sq) / 3.0, (t - sq) / 3.0):
            if abs(r) > 1e-12 and abs(_cubic(t, s, r)) <= accept:
                q = 1.0 / (r * r)
                if abs(2 * r + q - t) <= 1e-6 * (1 + abs(t)) and abs(
                    r * r + 2.0 / r - s
                ) <= 1e-6 * (1 + abs(s)):
                    return np.array([r, r, q], dtype=complex)
    comp = np.array([[t, -s, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    lam = np.linalg.eigvals(comp)
    for _ in range(2):
        p = lam**3 - t * lam**2 + s * lam - 1.0
        dp = 3 * lam**2 - 2 * t * lam + s
        safe = np.abs(dp) > 1e-8
        lam = np.where(safe, lam - p / np.where(safe, dp, 1.0), lam)
    return lam


def classify_stability(t, s, tol=BOUNDARY_TOL):
    """Classification label and eigenvalues for the linearization cubic.

    type_A has exactly one eigenvalue outside the unit circle (one-dimensional
    unstable manifold), type_B exactly one inside; a root at +1 marks the
    saddle-node line t = s (reported as elliptic_pair when the remaining pair
    is complex on the unit circle), a root at -1 the period-doubling line
    t + s = -2.  At the codimension-two crossing t = s = -1 the saddle-node
    label wins.
    """
    lam = _cubic_roots(float(t), float(s))
    near_one = np.abs(lam - 1.0) <= tol
    near_minus = np.abs(lam + 1.0) <= tol
    if near_one.any():
        others = lam[~near_one] if near_one.sum() == 1 else lam
        if others.size == 2 and abs(others[0].imag) > tol:
            label = ELLIPTIC_PAIR
        else:
            label = SADDLE_NODE_BOUNDARY
    elif near_minus.any():
        label = PERIOD_DOUBLING_BOUNDARY
    elif np.any(np.abs(np.abs(lam) - 1.0) <= tol):
        label = ELLIPTIC_PAIR
    else:
        n_out = int(np.sum(np.abs(lam) > 1.0))
        label = TYPE_A if n_out == 1 else TYPE_B
    return label, lam


@dataclass(frozen=True)
class FixedPointReport:
    """One fixed point (x, x, x) with its traces, spectrum, and stability type."""

    which: str  # "plus" | "minus" | "degenerate"
    location: np.ndarray
    t: float
    s: float
    eigenvalues: np.ndarray
    classification: str


def fixed_points(p, tol=1e-9):
    """The at-most-two fixed points x_pm = (-tau + sigma +- sqrt(D))/2.

    Requires the normalized form a + b + c = 1 (run reduce_generic first);
    D = (tau - sigma)^2 - 4 alpha, with a single degenerate point on D = 0.
    """
    if not p.is_normalized(tol=1e-9):
        raise DynamicsError(
            "fixed-point formulas require a + b + c = 1; normalize first"
        )
    q = p.quad
    disc = (p.tau - p.sigma) ** 2 - 4.0 * p.alpha
    scale = max(1.0, p.tau**2, p.sigma**2, abs(p.alpha))
    if disc < -tol * scale:
        return []
    if abs(disc) <= tol * scale:
        xs = [(("degenerate"), 0.5 * (-p.tau + p.sigma))]
    else:
        sq = math.sqrt(disc)
        xs = [
            ("plus", 0.5 * (-p.tau + p.sigma + sq)),
            ("minus", 0.5 * (-p.tau + p.sigma - sq)),
        ]
    out = []
    for which, x in xs:
        t = p.tau + (2 * q.a + q.b) * x
        s = p.sigma - (2 * q.c + q.b) * x
        label, lam = classify_stability(t, s)
        out.append(
            FixedPointReport(
                which=which,
                location=np.array([x, x, x]),
                t=float(t),
                s=float(s),
                eigenvalues=lam,
                classification=label,
            )
        )
    return out


def escape_bound(q, alpha, tau, sigma):
    """Half-width kappa of the cube confining every bounded orbit.

    Positive-definite Q only.  Uses the closed form with max(a, c), taking the
    larger of it and the exact positive root of (d/max(a,c)) k^2 - T k - |alpha|
    (they agree whenever max(a, c) >= d, in particular for normalized forms).
    """
    if not q.is_positive_definite():
        raise NotPositiveDefiniteError(
            f"Q(a={q.a}, b={q.b}, c={q.c}) is not positive definite"
        )
    m = max(q.a, q.c)
    d = q.d
    T = abs(tau) + abs(sigma) + 2.0
    paper = (m / (2.0 * d)) * (T + math.sqrt(T * T + 4.0 * (abs(alpha) / d) * m))
    exact = (m / (2.0 * d)) * (T + math.sqrt(T * T + 4.0 * (d / m) * abs(alpha)))
    return max(paper, exact)


@dataclass
class OrbitRecord:
    """Orbit states in iteration order plus the boundedness verdict.

    points[k] is the k-th iterate of points[0] (forward or backward according
    to ``direction``); consecutive states share shifted coordinates, so the
    scalar series of the third-order difference form is recoverable exactly.
    """

    params: GenericMapParams
    points: np.ndarray
    direction: str
    verdict: str  # bounded-so-far | escaped-forward | escaped-backward
    escape_time: int | None = None
    overflow: bool = False

    def scalar_series(self):
        """x_t in increasing time order, including the two lagged seeds."""
        pts = self.points
        if self.direction == "forward":
            return np.concatenate([[pts[0, 2], pts[0, 1]], pts[:, 0]])
        return np.concatenate([[pts[-1, 2], pts[-1, 1]], pts[::-1, 0]])


def iterate(p, x0, n_steps, direction="forward"):
    """Iterate the map (or its inverse), halting on certified escape.

    With positive-definite Q, any state leaving the kappa-cube is on an
    unbounded orbit, so iteration stops there with the escape verdict and
    time; indefinite forms run to the step limit unless floating-point
    overflow forces an escape-with-flag.
    """
    if direction not in ("forward", "backward"):
        raise DynamicsError("direction must be 'forward' or 'backward'")
    step = p.step if direction == "forward" else p.step_back
    kappa = None
    if p.quad.is_positive_definite():
        kappa = escape_bound(p.quad, p.alpha, p.tau, p.sigma)
    verdict = "bounded-so-far"
    escape_time = None
    overflow = False
    pt = np.asarray(x0, dtype=float)
    if pt.shape != (3,):
        raise DynamicsError("state must be a 3-vector")
    pts = [pt]
    escaped_label = "escaped-forward" if direction == "forward" else "escaped-backward"
    if kappa is not None and np.max(np.abs(pt)) > kappa:
        verdict = escaped_label
        escape_time = 0
    else:
        for k in range(1, int(n_steps) + 1):
            pt = step(pt)
            pts.append(pt)
            amax = float(np.max(np.abs(pt)))
            if not np.isfinite(amax) or amax > OVERFLOW_LIMIT:
                verdict = escaped_label
                escape_time = k
                overflow = True
                break
            if kappa is not None and amax > kappa:
                verdict = escaped_label
                escape_time = k
                break
    return OrbitRecord(
        params=p,
        points=np.asarray(pts),
        direction=direction,
        verdict=verdict,
        escape_time=escape_time,
        overflow=overflow,
    )


@dataclass(frozen=True)
class DirectionReport:
    axis: str  # "+x" | "-z"
    ratios: tuple
    extra_steps: int


def asymptotic_direction(orbit, ratio_bound=0.1, max_extra=2000):
    """Escape axis of an unbounded orbit: +x forward, -z backward.

    Extends the orbit (without mutating it) until the lag ratios |y/x|, |z/y|
    (forward) or |y/z|, |x/y| (backward) drop below ``ratio_bound``.
    """
    if orbit.verdict == "bounded-so-far":
        raise DynamicsError("orbit did not escape; no asymptotic direction")
    p = orbit.params
    step = p.step if orbit.direction == "forward" else p.step_back
    pt = orbit.points[-1].copy()
    extra = 0

    def ratios(pt):
        x, y, z = np.abs(pt)
        if orbit.direction == "forward":
            return (y / x if x > 0 else np.inf, z / y if y > 0 else np.inf)
        return (y / z if z > 0 else np.inf, x / y if y > 0 else np.inf)

    r = ratios(pt)
    while max(r) >= ratio_bound and extra < max_extra:
        nxt = step(pt)
        if not np.all(np.isfinite(nxt)):
            break
        pt = nxt
        extra += 1
        r = ratios(pt)
    if max(r) >= ratio_bound:
        raise DynamicsError("escape direction did not settle within the budget")
    axis = "+x" if orbit.direction == "forward" else "-z"
    return DirectionReport(axis=axis, ratios=(float(r[0]), float(r[1])), extra_steps=extra)


# reversor: h(x, y, z) = -(z + eta, y + eta, x + eta)
_K = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class Reversor:
    """Involution h(x,y,z) = -(z+eta, y+eta, x+eta) conjugating f to f^{-1}."""

    eta: float

    def __call__(self, pt):
        """h over the last axis of pt."""
        pt = np.asarray(pt, dtype=float)
        return -(pt[..., ::-1] + self.eta)

    def as_affine(self):
        return AffineMap(-_K, np.full(3, -self.eta))

    def jacobian(self):
        return -_K

    def fix_line(self, s):
        """Point of Fix(h) = {x + z = -eta, y = -eta/2} at parameter s, in
        long double for a long-double s and in double otherwise."""
        s = np.asarray(s)
        s = s.astype(np.promote_types(s.dtype, float))
        return np.stack(
            [s, np.full_like(s, -self.eta / 2.0), -self.eta - s], axis=-1
        )

    def fix_defects(self, pt):
        """The two defining functions of Fix(h) over the last axis of pt; both
        vanish exactly on it."""
        x, y, z = pt[..., 0], pt[..., 1], pt[..., 2]
        return x + z + self.eta, y + self.eta / 2.0


def reversor_for(p, tol=1e-12, check_points=20, check_tol=1e-10, seed=7):
    """Reversor of the normal form, or None when a != c.

    Requires a = c (the quadratic form symmetric) and the generic condition
    a + b + c != 0; eta = (tau - sigma)/(a + b + c).  The functional equation
    h o f = f^{-1} o h is verified at random points before returning.
    """
    q = p.quad
    if abs(q.coeff_sum()) <= tol * max(1.0, abs(q.a), abs(q.b), abs(q.c)):
        raise NonGenericError("a + b + c = 0: reversibility not addressed")
    if not q.is_symmetric(tol=1e-12):
        return None
    h = Reversor(eta=(p.tau - p.sigma) / q.coeff_sum())
    pts = np.random.default_rng(seed).standard_normal((check_points, 3))
    worst = float(np.max(np.abs(h(p.step(pts)) - p.step_back(h(pts))), initial=0.0))
    if worst > check_tol:
        raise DynamicsError(
            f"reversor functional equation residual {worst:.3g} exceeds {check_tol}"
        )
    return h


def _second_fix_defects(p, r, pt):
    """Defining functions of Fix(f o h) for the composed involution, over the
    last axis of pt."""
    x, y, z = pt[..., 0], pt[..., 1], pt[..., 2]
    g1 = y + z + r.eta
    g2 = 2.0 * x - (
        p.alpha - r.eta + p.tau * y - p.sigma * z + p.quad(y, z)
    )
    return g1, g2


def symmetric_orbit_search(
    p,
    r,
    period,
    bracket,
    samples=10_000,
    bisect_tol=1e-12,
    certify_tol=1e-9,
):
    """Symmetric periodic points found by a 1D search along Fix(h).

    For even period 2m a point x in Fix(h) with f^m(x) in Fix(h) closes up;
    for odd period 2m-1 the half-orbit condition is f^m(x) in Fix(f o h).
    Sign changes of either defining function over a uniform sample of the
    bracket are bisected, the companion function is checked at the root, and
    every hit is certified by |f^period(x) - x| <= certify_tol.
    """
    period = int(period)
    if period < 1:
        raise DynamicsError("period must be >= 1")
    if period % 2 == 0:
        m = period // 2
        defects = r.fix_defects
    else:
        m = (period + 1) // 2
        defects = lambda pt: _second_fix_defects(p, r, pt)

    def half_orbit(s):
        """f^m of the points of Fix(h) at s, in lockstep; nan rows for orbits
        that stop being finite or leave the 1e12 box on the way."""
        pt = r.fix_line(np.atleast_1d(s))
        live = np.arange(len(pt))
        for _ in range(m):
            moved = p.step(pt[live])
            ok = np.all(np.isfinite(moved), axis=-1) & (np.max(np.abs(moved), axis=-1) <= 1e12)
            pt[live] = moved
            pt[live[~ok]] = np.nan
            live = live[ok]
        return pt

    def gfun(s, idx):
        return defects(half_orbit(s)[0])[idx]

    s_lo, s_hi = bracket
    grid = np.linspace(s_lo, s_hi, int(samples))
    half = half_orbit(grid)
    hits = []
    for idx in range(2):
        vals = defects(half)[idx]
        for i in range(len(grid) - 1):
            a, b = vals[i], vals[i + 1]
            if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0:
                continue
            lo, hi = grid[i], grid[i + 1]
            flo = a
            while hi - lo > bisect_tol * max(1.0, abs(lo), abs(hi)):
                mid = 0.5 * (lo + hi)
                fmid = gfun(mid, idx)
                if not np.isfinite(fmid):
                    break
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            s_root = 0.5 * (lo + hi)
            pt_half = half_orbit(s_root)[0]
            if np.isnan(pt_half).any():
                continue
            d1, d2 = defects(pt_half)
            if max(abs(d1), abs(d2)) > certify_tol * 10:
                continue
            start = r.fix_line(s_root)
            pt = start.copy()
            for _ in range(period):
                pt = p.step(pt)
            if np.max(np.abs(pt - start)) <= certify_tol:
                if not any(
                    np.max(np.abs(start - np.asarray(h))) < 1e-8 for h in hits
                ):
                    hits.append(start)
    return hits


def period2_line(p, tol=1e-9):
    """Lines of period-2 points present when a = c = b/2 and sigma+tau+2 = 0.

    delta solves a delta^2 - (1+sigma) delta + alpha = 0 (the substitution of
    (x, delta-x, x) into the map; each returned line is oracle-checked by
    f^2 = id at sample points).  Returns None when the parameter conditions
    fail and an empty list for complex delta.
    """
    q = p.quad
    scale = max(1.0, abs(q.a), abs(q.b), abs(q.c))
    if abs(q.a - q.c) > tol * scale or abs(q.b - 2 * q.a) > tol * scale:
        return None
    if abs(p.sigma + p.tau + 2.0) > tol * max(1.0, abs(p.sigma), abs(p.tau)):
        return None
    # a delta^2 - (1+sigma) delta + alpha = 0
    coeffs = [q.a, -(1.0 + p.sigma), p.alpha]
    if abs(q.a) < 1e-15:
        roots = [p.alpha / (1.0 + p.sigma)] if abs(1.0 + p.sigma) > 1e-15 else []
    else:
        rr = np.roots(coeffs)
        roots = [float(z.real) for z in rr if abs(z.imag) <= 1e-10 * max(1.0, abs(z))]
    lines = []
    for delta in sorted(roots):
        lines.append((float(delta), _Period2Line(p, float(delta))))
    return lines


class _Period2Line:
    """Parametrized line s -> (s, delta - s, s) of period-2 points."""

    def __init__(self, params, delta):
        self.params = params
        self.delta = delta

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([s, self.delta - s, s], axis=-1)

    def residual(self, s_values):
        pts = self(np.atleast_1d(s_values))
        img = self.params.step(self.params.step(pts))
        return float(np.max(np.abs(img - pts), initial=0.0))


def periodic_count_bound(q, n, tol=1e-9):
    """Certificate for the 2^n bound on fixed points of f^n.

    mu_pm are the roots of a mu^2 + b mu + c = 0; the bound is certified only
    when mu_+^k mu_-^{n-k} != 1 for every k in 0..n (the proof needs all k,
    although the source states "for some k"; the discrepancy is flagged in
    the report).  Roots at 0 or infinity (a or c zero) cannot produce unit
    products except through the remaining finite root.
    """
    n = int(n)
    if q.a == 0.0 and q.c == 0.0:
        raise DynamicsError("a = c = 0: the leading form vanishes")
    if q.a != 0.0:
        mu = np.roots([q.a, q.b, q.c]).astype(complex)
        mu_plus, mu_minus = mu[0], mu[1]
        infinite = ()
    else:
        mu_plus = complex(-q.c / q.b) if q.b != 0.0 else complex(np.inf)
        mu_minus = complex(np.inf)
        infinite = (1,)
    violating = []
    for k in range(n + 1):
        if infinite:
            # mu_minus = infinity: any factor of it rules the product out
            if n - k > 0:
                continue
            prod = mu_plus**k
        else:
            prod = mu_plus**k * mu_minus ** (n - k)
        if np.isfinite(prod) and abs(prod - 1.0) <= tol:
            violating.append(k)
    return {
        "n": n,
        "mu_plus": complex(mu_plus),
        "mu_minus": complex(mu_minus),
        "bound_2n": not violating,
        "violating_k": violating,
        "quantifier_note": (
            "certified only when no k in 0..n yields mu_+^k mu_-^(n-k) = 1; "
            "the statement's 'for some k' does not suffice for the proof"
        ),
    }


@dataclass
class StabilityDiagram:
    """Grid classification plus the analytic boundary curves.

    In the (tau, alpha) plane each cell carries the fixed-point count, the
    classification of x_plus and x_minus, and the complex-eigenvalue phase at
    x_plus; in the (t, s) plane cells carry the direct classification.
    """

    plane: str
    xs: np.ndarray
    ys: np.ndarray
    quad: QuadraticForm2 | None
    sigma: float | None
    count: np.ndarray | None
    label_plus: np.ndarray | None
    label_minus: np.ndarray | None
    phase_plus: np.ndarray | None
    label: np.ndarray | None
    curves: dict = field(default_factory=dict)


def _double_root_curves(r_ranges=((-3.0, -0.3), (0.3, 3.0)), n=241):
    out = []
    for lo, hi in r_ranges:
        r = np.linspace(lo, hi, n)
        t = 2 * r + 1.0 / r**2
        s = r**2 + 2.0 / r
        out.append(np.column_stack([t, s]))
    return out


def _pullback_ts_curve(ts_points, q, sigma, which):
    """(tau, alpha) locus where the fixed point x_which realizes given (t, s)."""
    denom = 2 * q.c + q.b
    if abs(denom) < 1e-12:
        return np.empty((0, 2))
    out = []
    for t, s in ts_points:
        x = (sigma - s) / denom
        tau = t - (2 * q.a + q.b) * x
        alpha = -x * x - (tau - sigma) * x
        # keep only points where x is the requested root
        disc = (tau - sigma) ** 2 - 4 * alpha
        if disc < 0:
            continue
        sq = math.sqrt(max(disc, 0.0))
        x_sel = 0.5 * (-tau + sigma + sq) if which == "plus" else 0.5 * (
            -tau + sigma - sq
        )
        if abs(x - x_sel) <= 1e-8 * max(1.0, abs(x)):
            out.append((tau, alpha))
    return np.asarray(out) if out else np.empty((0, 2))


def stability_diagram(
    x_range,
    y_range,
    nx=50,
    ny=50,
    quad=None,
    sigma=0.0,
    plane="tau_alpha",
):
    """Classify a parameter grid and sample the analytic boundary curves.

    plane="tau_alpha": grid in (tau, alpha) for a fixed normalized quadratic
    form; curves are the saddle-node parabola alpha = (tau-sigma)^2/4, the
    period-doubling loci of each fixed point, and the pullbacks of the
    double-root curves.  plane="t_s": direct classification with the t = s
    and t + s = -2 lines and the parametric double-root curves.
    """
    xs = np.linspace(*x_range, int(nx))
    ys = np.linspace(*y_range, int(ny))
    if plane == "t_s":
        label = np.empty((len(ys), len(xs)), dtype=object)
        for i, s in enumerate(ys):
            for j, t in enumerate(xs):
                label[i, j], _ = classify_stability(t, s)
        curves = {
            "saddle_node": [np.column_stack([xs, xs])],
            "period_doubling": [np.column_stack([xs, -2.0 - xs])],
            "double_root": _double_root_curves(),
        }
        return StabilityDiagram(
            plane, xs, ys, None, None, None, None, None, None, label, curves
        )

    if plane != "tau_alpha":
        raise DynamicsError("plane must be 'tau_alpha' or 't_s'")
    if quad is None:
        quad = QuadraticForm2(0.5, 0.0, 0.5)
    count = np.zeros((len(ys), len(xs)), dtype=int)
    label_plus = np.empty((len(ys), len(xs)), dtype=object)
    label_minus = np.empty((len(ys), len(xs)), dtype=object)
    phase_plus = np.full((len(ys), len(xs)), np.nan)
    label_plus[:] = ""
    label_minus[:] = ""
    for i, alpha in enumerate(ys):
        for j, tau in enumerate(xs):
            p = GenericMapParams(alpha=alpha, tau=tau, sigma=sigma, quad=quad)
            fps = fixed_points(p)
            count[i, j] = len(fps)
            for fp in fps:
                if fp.which in ("plus", "degenerate"):
                    label_plus[i, j] = fp.classification
                    imag = np.abs(fp.eigenvalues.imag)
                    if np.max(imag) > 1e-9:
                        k = int(np.argmax(imag))
                        phase_plus[i, j] = abs(
                            math.atan2(
                                fp.eigenvalues[k].imag, fp.eigenvalues[k].real
                            )
                        )
                if fp.which == "minus":
                    label_minus[i, j] = fp.classification
    tau_grid = np.linspace(xs[0], xs[-1], 8 * len(xs))
    curves = {
        "saddle_node": [
            np.column_stack([tau_grid, 0.25 * (tau_grid - sigma) ** 2])
        ],
        "period_doubling_plus": [],
        "period_doubling_minus": [],
        "double_root_plus": [],
        "double_root_minus": [],
    }
    for which in ("plus", "minus"):
        pd = _period_doubling_curve(tau_grid, quad, sigma, which, (ys[0], ys[-1]))
        if pd.size:
            curves[f"period_doubling_{which}"].append(pd)
        for ts in _double_root_curves():
            arc = _pullback_ts_curve(ts, quad, sigma, which)
            if arc.size:
                curves[f"double_root_{which}"].append(arc)
    return StabilityDiagram(
        plane,
        xs,
        ys,
        quad,
        sigma,
        count,
        label_plus,
        label_minus,
        phase_plus,
        None,
        curves,
    )


def _period_doubling_curve(tau_grid, q, sigma, which, alpha_range):
    """(tau, alpha) locus of t + s = -2 for the selected fixed point."""
    ac = q.a - q.c
    out = []
    if abs(ac) < 1e-12:
        # t + s + 2 = 2 + tau + sigma for a = c: vertical line tau = -2 - sigma
        tau0 = -2.0 - sigma
        cap = 0.25 * (tau0 - sigma) ** 2  # fixed points exist below the parabola
        alphas = np.linspace(alpha_range[0], min(alpha_range[1], cap), 64)
        return np.array([[tau0, a] for a in alphas if a <= cap])
    for tau in tau_grid:
        x = -(2.0 + tau + sigma) / (2.0 * ac)
        alpha = -x * x - (tau - sigma) * x
        disc = (tau - sigma) ** 2 - 4 * alpha
        if disc < -1e-12:
            continue
        sq = math.sqrt(max(disc, 0.0))
        x_sel = 0.5 * (-tau + sigma + sq) if which == "plus" else 0.5 * (
            -tau + sigma - sq
        )
        if abs(x - x_sel) <= 1e-8 * max(1.0, abs(x)):
            out.append((tau, alpha))
    return np.asarray(out) if out else np.empty((0, 2))
