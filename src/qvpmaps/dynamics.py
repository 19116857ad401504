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

from .normalform import QuadraticForm2, _template
from .polymap import AffineMap, QvpmapsError

TYPE_A = "type_A"
TYPE_B = "type_B"
SADDLE_NODE_BOUNDARY = "saddle_node_boundary"
PERIOD_DOUBLING_BOUNDARY = "period_doubling_boundary"
ELLIPTIC_PAIR = "elliptic_pair"

BOUNDARY_TOL = 1e-9
#: Tolerance of fixed_points: on a + b + c = 1, and relative to max(1,
#: tau^2, sigma^2, |alpha|) on D = 0, where the two fixed points merge.
FIXED_POINT_TOL = 1e-9

#: |x| beyond this is reported as floating-point overflow escape
OVERFLOW_LIMIT = 1e150


class DynamicsError(QvpmapsError):
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
        """Parameters from six numbers, which must all be finite."""
        named = dict(alpha=alpha, tau=tau, sigma=sigma, a=a, b=b, c=c)
        bad = [k for k, v in named.items() if not math.isfinite(float(v))]
        if bad:
            raise DynamicsError(f"parameter {', '.join(bad)} is not a finite number")
        return cls(float(alpha), float(tau), float(sigma),
                   QuadraticForm2(float(a), float(b), float(c)))

    def coeff_sum(self):
        return self.quad.coeff_sum()

    def is_normalized(self):
        return abs(self.coeff_sum() - 1.0) <= FIXED_POINT_TOL

    def as_quadmap(self):
        return _template("I", dict(alpha=self.alpha, tau=self.tau, sigma=self.sigma,
                                   **vars(self.quad)))

    # The map's one formula per direction: _ahead and _behind give the
    # coordinate that step and step_back add to a point (x, y, z) =
    # (x_n, x_{n-1}, x_{n-2}) of the recurrence, x_{n+1} and x_{n-3}, in the
    # precision of their operands (float64 or np.longdouble).  step and
    # step_back map the last axis of an (..., 3) array; reversing all axes on
    # the way in and out keeps a single point cheap, where indexing
    # pt[..., k] would make every operand a 0-d array.
    def _ahead(self, x, y, z, out=None):
        return np.add(self.alpha + self.tau * x - self.sigma * y + z, self.quad(x, y), out=out)

    def _behind(self, x, y, z, out=None):
        return np.subtract(x - self.alpha - self.tau * y + self.sigma * z, self.quad(y, z), out=out)

    def step(self, pt):
        x, y, z = np.asarray(pt).T
        return np.array([self._ahead(x, y, z), x, y]).T

    def step_back(self, pt):
        x, y, z = np.asarray(pt).T
        return np.array([y, z, self._behind(x, y, z)]).T

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


#: x ** n by the C library's pow, as Python floats compute it; numpy's own
#: x ** 2 and x ** 3 differ from it in the last bit on some inputs.
_pow = np.frompyfunc(pow, 2, 1)


def _libm_pow(x, n):
    try:
        return np.asarray(_pow(x, n), dtype=float)
    except OverflowError:
        raise DynamicsError(
            f"x ** {n} overflows float64 (largest |x| {np.max(np.abs(x)):g}); "
            "the parameters are too large"
        ) from None


def _cubic(t, s, lam):
    return _libm_pow(lam, 3) - t * _libm_pow(lam, 2) + s * lam - 1.0


def _cubic_roots(t, s):
    """Roots of lambda^3 - t lambda^2 + s lambda - 1 over (N,) arrays t, s as
    an (N, 3) complex array, exact on multiple roots.

    Rows where the residual at a root r of the derivative certifies a triple
    or double root get the exact structure (r, r, r) or (r, r, 1/r^2), which
    keeps the double-root curves and the cusp at t = s = 3 well conditioned.
    The others take their companion-matrix eigenvalues (one eigvals call on
    the stack) and two Newton steps, in float64 on the rows whose eigenvalues
    are all real and in complex arithmetic on the others, as eigvals returns
    them for one matrix.  A complex polish moves the last bits of some real
    roots; this rule keeps every row bitwise what a call on it alone gives.
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    lam = np.empty((len(t), 3), dtype=complex)
    accept = 1e-9 * (1.0 + np.abs(t) + np.abs(s))
    # triple root: common zero of p'' and p'
    r = t / 3.0
    done = np.abs(_cubic(t, s, r)) <= accept
    done &= np.abs(3 * r * r - 2 * t * r + s) <= accept
    lam[done] = r[done, None]
    # double root: a real zero of p' with p ~ 0 there.  Each stage below is
    # skipped when it has no rows, which keeps a single call cheap.
    disc = t * t - 3.0 * s
    crit = ~done & (disc >= 0.0)
    if crit.any():
        sq = np.sqrt(np.where(crit, disc, 0.0))
        for r in ((t + sq) / 3.0, (t - sq) / 3.0):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                q = 1.0 / (r * r)
                ok = crit & ~done & (np.abs(r) > 1e-12) & (np.abs(_cubic(t, s, r)) <= accept)
                ok &= np.abs(2 * r + q - t) <= 1e-6 * (1 + np.abs(t))
                ok &= np.abs(r * r + 2.0 / r - s) <= 1e-6 * (1 + np.abs(s))
            lam[ok] = np.column_stack([r, r, q])[ok]
            done |= ok
    rest = ~done
    if not rest.any():
        return lam
    comp = np.zeros((np.count_nonzero(rest), 3, 3))
    comp[:, 0, 0], comp[:, 0, 1], comp[:, 0, 2] = t[rest], -s[rest], 1.0
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    t, s = t[rest, None], s[rest, None]
    eig = np.linalg.eigvals(comp).astype(complex)
    real = ~np.any(eig.imag, axis=1)
    for rows, z in ((real, eig.real), (~real, eig)):
        if not rows.any():
            continue
        z, tr, sr = z[rows], t[rows], s[rows]
        for _ in range(2):
            p = z**3 - tr * z**2 + sr * z - 1.0
            dp = 3 * z**2 - 2 * tr * z + sr
            safe = np.abs(dp) > 1e-8
            z = np.where(safe, z - p / np.where(safe, dp, 1.0), z)
        eig[rows] = z
    lam[rest] = eig
    return lam


_LABELS = np.array([TYPE_A, TYPE_B, SADDLE_NODE_BOUNDARY, PERIOD_DOUBLING_BOUNDARY,
                    ELLIPTIC_PAIR], dtype=object)


def classify_stability(t, s):
    """Classification labels and eigenvalues for the linearization cubic.

    t and s are scalars or arrays that broadcast together; the labels come in
    their shape (a str for scalars), the eigenvalues with one more axis of 3.
    type_A has exactly one eigenvalue outside the unit circle (one-dimensional
    unstable manifold), type_B exactly one inside; a root at +1 marks the
    saddle-node line t = s (reported as elliptic_pair when the remaining pair
    is complex on the unit circle), a root at -1 the period-doubling line
    t + s = -2.  At the codimension-two crossing t = s = -1 the saddle-node
    label wins.
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    lam = _cubic_roots(t.ravel(), s.ravel())
    tol = BOUNDARY_TOL
    near_one = np.abs(lam - 1.0) <= tol
    n_one = near_one.sum(axis=1)
    # with a single root at +1, the first other root decides elliptic_pair
    other = lam[np.arange(len(lam)), np.argmin(near_one, axis=1)]
    code = np.where(np.sum(np.abs(lam) > 1.0, axis=1) == 1, 0, 1)
    code[np.any(np.abs(np.abs(lam) - 1.0) <= tol, axis=1)] = 4
    code[np.any(np.abs(lam + 1.0) <= tol, axis=1)] = 3
    code[n_one > 0] = np.where((n_one == 1) & (np.abs(other.imag) > tol), 4, 2)[n_one > 0]
    return _LABELS[code].reshape(t.shape)[()], lam.reshape(t.shape + (3,))


@dataclass(frozen=True)
class FixedPointReport:
    """One fixed point (x, x, x) with its traces, spectrum, and stability type."""

    which: str  # "plus" | "minus" | "degenerate"
    location: np.ndarray
    t: float
    s: float
    eigenvalues: np.ndarray
    classification: str


def _fixed_point_xs(alpha, tau, sigma):
    """D = (tau - sigma)^2 - 4 alpha and x_pm = (-tau + sigma +- sqrt(D))/2
    (with D clipped at 0) over arrays."""
    disc = _libm_pow(tau - sigma, 2) - 4.0 * alpha
    sq = np.sqrt(np.maximum(disc, 0.0))
    return disc, 0.5 * (-tau + sigma + sq), 0.5 * (-tau + sigma - sq)


def _fixed_point_locations(p):
    """Number of fixed points (0, 1 or 2) and x_plus, x_minus of p, whose alpha
    and tau may be arrays; where |D| is within FIXED_POINT_TOL of the scale,
    x_plus is the single degenerate point."""
    if not p.is_normalized():
        raise DynamicsError("fixed-point formulas require a + b + c = 1; normalize first")
    disc, x_plus, x_minus = _fixed_point_xs(p.alpha, p.tau, p.sigma)
    scale = np.maximum(np.maximum(1.0, _libm_pow(p.tau, 2)), _libm_pow(p.sigma, 2))
    scale = np.maximum(scale, np.abs(p.alpha))
    degenerate = np.abs(disc) <= FIXED_POINT_TOL * scale
    count = np.where(disc < -FIXED_POINT_TOL * scale, 0, np.where(degenerate, 1, 2))
    return count, np.where(degenerate, 0.5 * (-p.tau + p.sigma), x_plus), x_minus


def fixed_points(p):
    """The at-most-two fixed points x_pm = (-tau + sigma +- sqrt(D))/2.

    Requires the normalized form a + b + c = 1 (run reduce_generic first);
    D = (tau - sigma)^2 - 4 alpha, with a single degenerate point on D = 0.
    """
    q = p.quad
    count, x_plus, x_minus = _fixed_point_locations(p)
    which = ([], ["degenerate"], ["plus", "minus"])[count]
    x = np.array([x_plus, x_minus])[: len(which)]
    t = p.tau + (2 * q.a + q.b) * x
    s = p.sigma - (2 * q.c + q.b) * x
    labels, lam = classify_stability(t, s)
    return [
        FixedPointReport(w, np.array([x[k]] * 3), float(t[k]), float(s[k]), lam[k], labels[k])
        for k, w in enumerate(which)
    ]


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


def asymptotic_direction(orbit):
    """Escape axis of an unbounded orbit: +x forward, -z backward.

    Extends the orbit (without mutating it) by up to 2000 steps until the lag
    ratios |y/x|, |z/y| (forward) or |y/z|, |x/y| (backward) drop below 0.1.
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
    while max(r) >= 0.1 and extra < 2000:
        nxt = step(pt)
        if not np.all(np.isfinite(nxt)):
            break
        pt = nxt
        extra += 1
        r = ratios(pt)
    if max(r) >= 0.1:
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


def reversor_for(p, seed=7):
    """Reversor of the normal form, or None when a != c.

    Requires a = c (the quadratic form symmetric) and the generic condition
    a + b + c != 0; eta = (tau - sigma)/(a + b + c).  The functional equation
    h o f = f^{-1} o h is verified at 20 random points (drawn from seed)
    before returning.
    """
    q = p.quad
    if abs(q.coeff_sum()) <= 1e-12 * max(1.0, abs(q.a), abs(q.b), abs(q.c)):
        raise NonGenericError("a + b + c = 0: reversibility not addressed")
    if not q.is_symmetric():
        return None
    h = Reversor(eta=(p.tau - p.sigma) / q.coeff_sum())
    pts = np.random.default_rng(seed).standard_normal((20, 3))
    worst = float(np.max(np.abs(h(p.step(pts)) - p.step_back(h(pts))), initial=0.0))
    if worst > 1e-10:
        raise DynamicsError(
            f"reversor functional equation residual {worst:.3g} exceeds 1e-10"
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


#: bisect_sign_changes evaluates at most this many midpoints in a lockstep
#: round, or one per live bracket when there are more brackets than this ...
_ROUND_MIDPOINTS = 512
#: ... and at most this many levels of midpoints below each live bracket.
_MAX_DEPTH = 8
#: Halvings after which a bracket stops, converged or not.
_BISECTION_CAP = 160


def _speculation_depth(n_live):
    """Levels of midpoints that bisect_sign_changes evaluates in a round with
    n_live brackets: the largest d in [1, _MAX_DEPTH] with
    (2^d - 1) * n_live <= _ROUND_MIDPOINTS (d = 1 when there is none)."""
    return min(_MAX_DEPTH, max(1, (_ROUND_MIDPOINTS // n_live + 1).bit_length() - 1))


def bisect_sign_changes(side, grid, values):
    """Roots of the sign changes of values, sampled on grid, bisected in lockstep.

    side(s) gives the values at an array of parameters s, nan where there is
    none.  Adjacent grid points whose values are finite and have
    lower * upper <= 0 bracket a root; all brackets are bisected together in
    grid's dtype.  The lower end lo moves to a midpoint whose value has the
    sign of lo's; otherwise the upper end hi moves, on a nan value too (the
    flank re-resolves later).  A bracket stops after _BISECTION_CAP halvings
    or when the midpoint equals an end, so no width tolerance ends it early.
    Returns (lo + hi) / 2 per bracket, in grid order.

    A round evaluates, in one call of side, every dyadic midpoint down to d
    levels below each live bracket, then walks each bracket's tree of
    midpoints with the one-at-a-time rule.  d is _speculation_depth of the
    number of live brackets, taken afresh each round: a round of a side that
    runs orbits in lockstep lasts as long as its slowest orbit, so few live
    brackets buy many halvings per round, and many brackets keep each round
    to about _ROUND_MIDPOINTS evaluations.  The walk does not depend on d,
    so the roots are bitwise those of bisecting one midpoint at a time.
    """
    lower, upper = values[:-1], values[1:]
    flips = np.flatnonzero(np.isfinite(lower) & np.isfinite(upper) & (lower * upper <= 0))
    lo, hi, flo = grid[flips], grid[flips + 1], lower[flips]
    halvings = np.zeros(len(lo), dtype=int)
    live = np.arange(len(lo))
    while len(live):
        # levels[k][i, j]: midpoint of node j at depth k below bracket live[i];
        # the children of node j are nodes 2j (lower half) and 2j + 1.
        depth = _speculation_depth(len(live))
        ends_lo, ends_hi = lo[live, None], hi[live, None]
        levels = []
        for _ in range(depth):
            mid = (ends_lo + ends_hi) / 2
            levels.append(mid)
            ends_lo = np.stack([ends_lo, mid], axis=-1).reshape(len(live), -1)
            ends_hi = np.stack([mid, ends_hi], axis=-1).reshape(len(live), -1)
        mids = np.concatenate(levels, axis=1)
        fmids = side(mids.ravel()).reshape(mids.shape)
        still = []
        for i, b in enumerate(live):
            node = 0
            for k in range(depth):
                if halvings[b] == _BISECTION_CAP:
                    break
                halvings[b] += 1
                mid = levels[k][i, node]
                if mid == lo[b] or mid == hi[b]:
                    break
                fmid = fmids[i, 2**k - 1 + node]
                if fmid * flo[b] > 0:
                    lo[b], flo[b] = mid, fmid
                    node = 2 * node + 1
                else:
                    hi[b] = mid
                    node = 2 * node
            else:
                still.append(b)
        live = np.array(still, dtype=int)
    return (lo + hi) / 2


#: symmetric_orbit_search keeps a root whose half-orbit defects are within
#: 10 times this and whose orbit closes up to |f^period(x) - x| <= this.
SYMMETRIC_CERTIFY_TOL = 1e-9


def symmetric_orbit_search(p, r, period, bracket):
    """Symmetric periodic points on Fix(h), as the real roots of a polynomial.

    For even period 2m a point x in Fix(h) with f^m(x) in Fix(h) closes up;
    for odd period 2m-1 the half-orbit condition is f^m(x) in Fix(f o h).
    Along Fix(h) both defining functions of that condition are polynomials
    in s; the one of lower degree, 2^(m-1), comes from running fix_line and
    step on s = Polynomial([0, 1]) in an object array, whose ufuncs call the
    polynomial's operators.  Its real roots (a double root comes out as a
    close complex pair) take 3 Newton steps on the float64 half orbit; those
    in the closed bracket are certified in one batch (see
    SYMMETRIC_CERTIFY_TOL).  Hits come in increasing s; one within 1e-8 of
    an earlier hit is dropped.
    """
    period = int(period)
    if period < 1:
        raise DynamicsError("period must be >= 1")
    m = (period + 1) // 2
    if period > 16:
        # from degree 256 on, the roots and products cost seconds to gigabytes
        raise DynamicsError(
            f"period {period} is above 16: its defect polynomial has degree {2 ** (m - 1)}"
        )
    if period % 2 == 0:
        defects = r.fix_defects
    else:
        defects = lambda pt: _second_fix_defects(p, r, pt)

    def half_defects(s):
        pt = r.fix_line(s)
        for _ in range(m):
            pt = p.step(pt)
        return defects(pt)

    s = np.array([np.polynomial.Polynomial([0, 1])], dtype=object)
    polys = [d[0] for d in half_defects(s)]
    idx = int(polys[1].degree() < polys[0].degree())
    z = polys[idx].roots()
    roots = z.real[np.abs(z.imag) <= 1e-6 * np.maximum(1.0, np.abs(z))]
    slope = polys[idx].deriv()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(3):
            # a zero slope gives a non-finite step, which leaves the root be
            newton = half_defects(roots)[idx] / slope(roots)
            roots = np.where(np.isfinite(newton), roots - newton, roots)
        lo, hi = sorted(bracket)
        roots = np.sort(roots[(roots >= lo) & (roots <= hi)])
        start = r.fix_line(roots)
        on_line = np.max(np.abs(half_defects(roots)), axis=0)
        pt = start
        for _ in range(period):
            pt = p.step(pt)
        closed = np.max(np.abs(pt - start), axis=-1)
    certified = (on_line <= 10 * SYMMETRIC_CERTIFY_TOL) & (closed <= SYMMETRIC_CERTIFY_TOL)
    hits = []
    for x in start[certified]:
        if not any(np.max(np.abs(x - h)) < 1e-8 for h in hits):
            hits.append(x)
    return hits


def period2_line(p):
    """Lines of period-2 points present when a = c = b/2 and sigma+tau+2 = 0.

    delta solves a delta^2 - (1+sigma) delta + alpha = 0 (the substitution of
    (x, delta-x, x) into the map; each returned line is oracle-checked by
    f^2 = id at sample points).  Returns None when the parameter conditions
    fail and an empty list for complex delta.
    """
    q = p.quad
    scale = max(1.0, abs(q.a), abs(q.b), abs(q.c))
    if abs(q.a - q.c) > 1e-9 * scale or abs(q.b - 2 * q.a) > 1e-9 * scale:
        return None
    if abs(p.sigma + p.tau + 2.0) > 1e-9 * max(1.0, abs(p.sigma), abs(p.tau)):
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


def periodic_count_bound(q, n):
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
        if np.isfinite(prod) and abs(prod - 1.0) <= 1e-9:
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


def _double_root_curves():
    rs = [np.linspace(lo, hi, 241) for lo, hi in ((-3.0, -0.3), (0.3, 3.0))]
    return [np.column_stack([2 * r + 1.0 / r**2, r**2 + 2.0 / r]) for r in rs]


def _branch_points(x, tau, alpha, sigma, which, disc_min):
    """The (tau, alpha) rows where x is the fixed point x_which and D >= disc_min."""
    disc, x_plus, x_minus = _fixed_point_xs(alpha, tau, sigma)
    x_sel = x_plus if which == "plus" else x_minus
    keep = (disc >= disc_min) & (np.abs(x - x_sel) <= 1e-8 * np.maximum(1.0, np.abs(x)))
    return np.column_stack([tau, alpha])[keep]


def _pullback_ts_curve(ts_points, q, sigma, which):
    """(tau, alpha) locus where the fixed point x_which realizes given (t, s)."""
    denom = 2 * q.c + q.b
    if abs(denom) < 1e-12:
        return np.empty((0, 2))
    t, s = ts_points[:, 0], ts_points[:, 1]
    x = (sigma - s) / denom
    tau = t - (2 * q.a + q.b) * x
    alpha = -x * x - (tau - sigma) * x
    return _branch_points(x, tau, alpha, sigma, which, 0.0)


#: Cells per classify_stability call in stability_diagram, in whole rows.
_GRID_BLOCK = 2048


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

    The grid is classified in blocks of whole rows, about _GRID_BLOCK cells
    (at least one row) per classify_stability call (in tau_alpha, on x_plus
    and x_minus of the block together, from the closed form), so memory
    grows with the block and not with the grid.  The per-cell float64/complex
    polish of _cubic_roots makes every cell bitwise what classifying that
    cell alone gives, whatever the block.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise DynamicsError(f"the grid needs nx >= 1 and ny >= 1 (got nx={nx}, ny={ny})")
    xs = np.linspace(*x_range, nx)
    ys = np.linspace(*y_range, ny)
    rows = max(1, _GRID_BLOCK // max(1, len(xs)))
    blocks = [slice(lo, lo + rows) for lo in range(0, len(ys), rows)]
    if plane == "t_s":
        label = np.empty((len(ys), len(xs)), dtype=object)
        for b in blocks:
            label[b], _ = classify_stability(xs, ys[b, None])
        curves = {
            "saddle_node": [np.column_stack([xs, xs])],
            "period_doubling": [np.column_stack([xs, -2.0 - xs])],
            "double_root": _double_root_curves(),
        }
        return StabilityDiagram(plane, xs, ys, None, None, None, None, None, None, label,
                                curves)

    if plane != "tau_alpha":
        raise DynamicsError("plane must be 'tau_alpha' or 't_s'")
    if quad is None:
        quad = QuadraticForm2(0.5, 0.0, 0.5)
    count = np.zeros((len(ys), len(xs)), dtype=int)
    label_plus = np.full((len(ys), len(xs)), "", dtype=object)
    label_minus = np.full((len(ys), len(xs)), "", dtype=object)
    phase_plus = np.full((len(ys), len(xs)), np.nan)
    for b in blocks:
        alpha, tau = np.broadcast_arrays(ys[b, None], xs)
        count[b], x_plus, x_minus = _fixed_point_locations(
            GenericMapParams(alpha, tau, sigma, quad)
        )
        plus, minus = count[b] >= 1, count[b] == 2
        x = np.concatenate([x_plus[plus], x_minus[minus]])
        tau = np.concatenate([tau[plus], tau[minus]])
        labels, lam = classify_stability(
            tau + (2 * quad.a + quad.b) * x, sigma - (2 * quad.c + quad.b) * x
        )
        k = np.count_nonzero(plus)
        label_plus[b][plus], label_minus[b][minus] = labels[:k], labels[k:]
        imag = np.abs(lam[:k].imag)
        cplx = np.flatnonzero(np.max(imag, axis=1, initial=0.0) > 1e-9)
        z = lam[cplx, np.argmax(imag[cplx], axis=1)]
        # math.atan2: np.arctan2 differs from it in the last bit on some inputs
        i, j = np.nonzero(plus)
        phase_plus[b][i[cplx], j[cplx]] = [abs(math.atan2(v.imag, v.real)) for v in z]
    tau_grid = np.linspace(xs[0], xs[-1], 8 * len(xs))
    curves = {
        "saddle_node": [np.column_stack([tau_grid, 0.25 * (tau_grid - sigma) ** 2])],
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
    return StabilityDiagram(plane, xs, ys, quad, sigma, count, label_plus, label_minus,
                            phase_plus, None, curves)


def _period_doubling_curve(tau_grid, q, sigma, which, alpha_range):
    """(tau, alpha) locus of t + s = -2 for the selected fixed point."""
    ac = q.a - q.c
    if abs(ac) < 1e-12:
        # t + s + 2 = 2 + tau + sigma for a = c: vertical line tau = -2 - sigma
        tau0 = -2.0 - sigma
        cap = 0.25 * (tau0 - sigma) ** 2  # fixed points exist below the parabola
        alphas = np.linspace(alpha_range[0], min(alpha_range[1], cap), 64)
        alphas = alphas[alphas <= cap]
        return np.column_stack([np.full(len(alphas), tau0), alphas])
    x = -(2.0 + tau_grid + sigma) / (2.0 * ac)
    alpha = -x * x - (tau_grid - sigma) * x
    return _branch_points(x, tau_grid, alpha, sigma, which, -1e-12)
