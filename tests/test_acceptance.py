"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 9 is implemented faithfully as stated; its delta = -4 half
contradicts the map itself (substituting the line into the map gives
delta in {0, +4} for these parameters, and f^2 != id on the delta = -4 line),
so that assertion fails honestly.  See README and the unit tests in
test_dynamics.py::TestPeriod2Line for the oracle-verified roots.
"""

import math
import time

import numpy as np

from qvpmaps import (
    AffineMap,
    GenericMapParams,
    QuadMap,
    QuadraticForm2,
    ShearData,
    asymptotic_direction,
    build_shear,
    classify_stability,
    compose,
    escape_bound,
    extract_shear,
    fixed_points,
    invert_quadratic,
    is_volume_preserving,
    iterate,
    period2_line,
    periodic_count_bound,
    power,
    reversor_for,
    stability_diagram,
    to_normal_form,
)
from qvpmaps.cli import main as cli_main
from qvpmaps.dynamics import TYPE_A, TYPE_B
from qvpmaps.manifold import (
    grow_2d,
    hausdorff_distance,
    heteroclinic_from_symmetry,
    intersect_meshes,
)
from qvpmaps.polymap import nilpotency_residual
from qvpmaps.shear import NOT_A_SHEAR
from qvpmaps.symplectic import (
    shear_square_residual,
    shear_to_gradient_form,
    symplectic_decompose,
)
from util import (
    random_case_map,
    random_shear_data,
    random_symmetric,
    random_symplectic_quadmap,
    random_unit,
)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} {detail}")
    return ok


def batch_jacobian_dets(m, points):
    mats = np.eye(3) + np.einsum("ijk,pk->pij", m.quad, points)
    return np.linalg.det(mats)


def test_criterion_01_shear_equivalence_suite():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_nil, worst_det, worst_inv = 0.0, 0.0, 0.0
    for _ in range(500):
        sd = random_shear_data(rng)
        f = build_shear(sd)
        worst_nil = max(worst_nil, nilpotency_residual(f.quad))
        dets = batch_jacobian_dets(f, rng.standard_normal((100, 3)))
        worst_det = max(worst_det, float(np.max(np.abs(dets - 1.0))))
        g = invert_quadratic(f)
        ident = compose(f, g)
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(ident.const))),
            float(np.max(np.abs(ident.linear - np.eye(3)))),
            float(np.max(np.abs(ident.quad))),
        )
    fails = 0
    for k in range(500):
        if k % 2 == 0:
            v = random_unit(rng)
            P = random_symmetric(rng, 3)
            if np.linalg.norm(P @ v) < 1e-3:
                P += np.outer(v, v)
            quad = np.einsum("i,jk->ijk", v, P)
        else:
            sd = random_shear_data(rng)
            noise = np.array([random_symmetric(rng, 3) for _ in range(3)])
            quad = build_shear(sd).quad + 0.3 * noise
        bad = QuadMap.standard_form(quad)
        if not is_volume_preserving(bad, tol=1e-8):
            fails += 1
    elapsed = time.monotonic() - t0
    ok = (
        worst_nil < 1e-12
        and worst_det < 1e-12
        and worst_inv < 1e-12
        and fails == 500
        and elapsed < 10.0
    )
    assert report(
        1,
        ok,
        f"(nilpotency {worst_nil:.2g}, det {worst_det:.2g}, inverse "
        f"{worst_inv:.2g}, {fails}/500 non-examples rejected, {elapsed:.1f}s)",
    )


def test_criterion_02_power_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        sd = random_shear_data(rng)
        f = build_shear(sd)
        f_inv = invert_quadratic(f)
        for k in range(-3, 4):
            base = f if k >= 0 else f_inv
            acc = QuadMap.identity(3)
            for _ in range(abs(k)):
                acc = compose(base, acc)
            pw = power(sd, k)
            worst = max(
                worst,
                float(np.max(np.abs(acc.const - pw.const))),
                float(np.max(np.abs(acc.linear - pw.linear))),
                float(np.max(np.abs(acc.quad - pw.quad))),
            )
    assert report(2, worst < 1e-12, f"(coefficient residual {worst:.2g})")


def test_criterion_03_shear_round_trip():
    rng = np.random.default_rng(103)
    ok_round = True
    for _ in range(500):
        sd = random_shear_data(rng)
        rec = extract_shear(build_shear(sd))
        if not isinstance(rec, ShearData):
            ok_round = False
            break
        if np.max(np.abs(rec.v - sd.v)) > 1e-9 or np.max(
            np.abs(rec.P - sd.P)
        ) > 1e-8 * max(1.0, np.max(np.abs(sd.P))):
            ok_round = False
            break
        back = build_shear(rec)
        if np.max(np.abs(back.quad - build_shear(sd).quad)) > 1e-10:
            ok_round = False
            break
    rejected = 0
    for _ in range(500):
        a1 = random_symmetric(rng, 3)
        a1[0, :] = a1[:, 0] = 0.0
        if abs(a1[1, 1]) + abs(a1[1, 2]) < 0.2:
            a1[1, 2] = a1[2, 1] = 1.0
        a2 = np.zeros((3, 3))
        a2[2, 2] = rng.uniform(0.5, 2.0)
        quad = np.stack([a1, a2, np.zeros((3, 3))])
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        f = QuadMap.standard_form(quad).conjugate(AffineMap(R, np.zeros(3)))
        if extract_shear(f) is NOT_A_SHEAR:
            rejected += 1
    ok = ok_round and rejected == 500
    assert report(3, ok, f"(round-trips ok={ok_round}, {rejected}/500 rejected)")


def test_criterion_04_normal_form_conjugacy():
    from qvpmaps.normalform import conjugacy_residual

    rng = np.random.default_rng(104)
    t0 = time.monotonic()
    worst = 0.0
    tags_ok = True
    for dim_z, tag in ((3, "I"), (2, "II"), (1, "III")):
        for _ in range(200):
            f, L, b, sd = random_case_map(rng, dim_z)
            nf = to_normal_form(f)
            if nf.case != tag:
                tags_ok = False
            worst = max(worst, conjugacy_residual(f, nf.conjugacy, nf.normal_map))
    elapsed = time.monotonic() - t0
    ok = tags_ok and worst < 1e-9 and elapsed < 30.0
    assert report(
        4, ok, f"(tags ok={tags_ok}, oracle residual {worst:.2g}, {elapsed:.1f}s)"
    )


def test_criterion_05_fixed_point_grid():
    forms = [(0.5, 0.0, 0.5), (0.7, 0.0, 0.3), (-0.5, 1.0, 0.5)]
    sigma = 0.0
    taus = np.linspace(-4.0, 4.0, 50)
    alphas = np.linspace(-3.0, 3.0, 50)
    worst_fp, worst_tr = 0.0, 0.0
    count_ok = True
    for a, b, c in forms:
        for tau in taus:
            for alpha in alphas:
                p = GenericMapParams.make(alpha, tau, sigma, a, b, c)
                fps = fixed_points(p)
                disc = (tau - sigma) ** 2 - 4 * alpha
                if disc < -1e-12:
                    if fps:
                        count_ok = False
                    continue
                if len(fps) not in (1, 2):
                    count_ok = False
                    continue
                root = math.sqrt(max(disc, 0.0))
                for fp in fps:
                    worst_fp = max(
                        worst_fp,
                        float(np.max(np.abs(p.step(fp.location) - fp.location))),
                    )
                    sgn = +1.0 if fp.which in ("plus", "degenerate") else -1.0
                    worst_tr = max(worst_tr, abs(fp.t - fp.s - sgn * root))
    ok = worst_fp < 1e-12 and worst_tr < 1e-10 and count_ok
    assert report(
        5,
        ok,
        f"(fixed-point residual {worst_fp:.2g}, trace residual {worst_tr:.2g}, "
        f"count flips ok={count_ok})",
    )


def test_criterion_06_stability_landmarks():
    _, lam1 = classify_stability(-1.0, -1.0)
    ok1 = (
        np.max(np.abs(np.sort_complex(lam1) - np.array([-1.0, -1.0, 1.0]))) < 1e-9
    )
    _, lam2 = classify_stability(3.0, 3.0)
    ok2 = np.max(np.abs(lam2 - 1.0)) < 1e-6
    worst_gap = 0.0
    for r in np.concatenate(
        [np.linspace(-3.0, -0.3, 120), np.linspace(0.3, 3.0, 120)]
    ):
        t = 2 * r + 1.0 / (r * r)
        s = r * r + 2.0 / r
        _, lam = classify_stability(t, s)
        lam = sorted(lam, key=lambda z: abs(z - r))
        worst_gap = max(worst_gap, abs(lam[0] - lam[1]))
    ok = ok1 and ok2 and worst_gap < 1e-6
    assert report(
        6,
        ok,
        f"(codim-2 ok={ok1}, triple-root ok={ok2}, max double gap {worst_gap:.2g})",
    )


def _positive_definite_draw(rng):
    while True:
        a = rng.uniform(0.15, 1.0)
        c = rng.uniform(0.15, 1.0)
        b = 1.0 - a - c
        q = QuadraticForm2(a, b, c)
        if q.is_positive_definite():
            return q


def test_criterion_07_escape():
    q0 = QuadraticForm2(0.5, 0.0, 0.5)
    ok_ref = escape_bound(q0, 0.0, 0.0, 0.0) == 4.0
    rng = np.random.default_rng(107)
    t0 = time.monotonic()
    ok_escape = True
    ok_axis = True
    ok_fp = True
    for trial in range(1000):
        q = _positive_definite_draw(rng)
        alpha = rng.uniform(-1.0, 1.0)
        tau = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-1.0, 1.0)
        p = GenericMapParams(alpha, tau, sigma, q)
        kappa = escape_bound(q, alpha, tau, sigma)
        big = kappa * rng.uniform(1.05, 2.0)
        small = rng.uniform(-0.9, 0.9, size=2) * big
        case = trial % 3
        if case == 0:  # |x_t| dominant: forward, monotone from step 1
            x0 = np.array([big, small[0], small[1]])
            xs = [x0[0]]
            pt = x0
            for _ in range(10):
                pt = p.step(pt)
                xs.append(pt[0])
                if abs(pt[0]) > 1e30:
                    break
            if not (xs[1] > abs(xs[0]) and np.all(np.diff(xs[1:]) > 0)):
                ok_escape = False
            orb = iterate(p, x0, 50)
            if orb.verdict != "escaped-forward":
                ok_escape = False
            rep = asymptotic_direction(orb)
            if rep.axis != "+x" or max(rep.ratios) >= 0.1:
                ok_axis = False
        elif case == 1:  # |z_t| dominant: backward, monotone decreasing
            x0 = np.array([small[0], small[1], big])
            zs = [x0[2]]
            pt = x0
            for _ in range(10):
                pt = p.step_back(pt)
                zs.append(pt[2])
                if abs(pt[2]) > 1e30:
                    break
            if not (zs[1] < -abs(zs[0]) and np.all(np.diff(zs[1:]) < 0)):
                ok_escape = False
            orb = iterate(p, x0, 50, direction="backward")
            if orb.verdict != "escaped-backward":
                ok_escape = False
            rep = asymptotic_direction(orb)
            if rep.axis != "-z" or max(rep.ratios) >= 0.1:
                ok_axis = False
        else:  # |y_t| dominant: unbounded both ways; forward after 2 steps
            x0 = np.array([small[0], big, small[1]])
            xs = []
            pt = x0
            for _ in range(12):
                pt = p.step(pt)
                xs.append(pt[0])
                if abs(pt[0]) > 1e30:
                    break
            if not np.all(np.diff(xs[1:]) > 0):
                ok_escape = False
            if iterate(p, x0, 50).verdict != "escaped-forward":
                ok_escape = False
        if trial % 4 == 0:
            for fp in fixed_points(p):
                orb = iterate(p, fp.location, 20)
                if orb.verdict != "bounded-so-far":
                    ok_fp = False
    # period-2 line seeds never escape (degenerate form: no escape is declared)
    p2 = GenericMapParams.make(0.0, -2.0, 0.0, 0.25, 0.5, 0.25)
    for delta, line in period2_line(p2):
        for s in np.linspace(-2.0, 2.0, 9):
            if iterate(p2, line(s), 200).verdict != "bounded-so-far":
                ok_fp = False
    elapsed = time.monotonic() - t0
    ok = ok_ref and ok_escape and ok_axis and ok_fp and elapsed < 60.0
    assert report(
        7,
        ok,
        f"(kappa=4 {ok_ref}, monotone escapes {ok_escape}, axes {ok_axis}, "
        f"non-escapes {ok_fp}, {elapsed:.1f}s)",
    )


def test_criterion_08_reversor():
    rng = np.random.default_rng(108)
    worst = 0.0
    exact_ok = True
    for _ in range(100):
        a = rng.uniform(0.1, 0.45)
        p = GenericMapParams.make(
            rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1),
            a, 1.0 - 2 * a, a,
        )
        h = reversor_for(p)
        if h is None:
            exact_ok = False
            continue
        aff = h.as_affine()
        L2 = aff.linear @ aff.linear
        b2 = aff.linear @ aff.const + aff.const
        if not (np.array_equal(L2, np.eye(3)) and np.array_equal(b2, np.zeros(3))):
            exact_ok = False
        f_inv = invert_quadratic(p.as_quadmap())
        for pt in rng.standard_normal((20, 3)):
            worst = max(
                worst, float(np.max(np.abs(h(p.step(pt)) - f_inv(h(pt)))))
            )
    refused = 0
    for _ in range(100):
        a = rng.uniform(0.1, 0.6)
        c = a + rng.uniform(1e-3, 0.3) * rng.choice([-1.0, 1.0])
        if c <= 0:
            c = a + 0.1
        b = 1.0 - a - c
        p = GenericMapParams.make(0.0, 0.3, 0.0, a, b, c)
        if reversor_for(p) is None:
            refused += 1
    ok = exact_ok and worst < 1e-10 and refused == 100
    assert report(
        8,
        ok,
        f"(h^2 exact={exact_ok}, functional residual {worst:.2g}, "
        f"{refused}/100 NotReversible)",
    )


def test_criterion_09_period2_line_as_stated():
    # Stated criterion: delta in {0, -4} for a=c=1/4, b=1/2, tau=-2, sigma=0,
    # alpha=0.  Substituting the line into the map shows the true roots are
    # {0, +4}; the delta=-4 half cannot hold and this assertion fails
    # honestly (see README and the decisions record).
    p = GenericMapParams.make(0.0, -2.0, 0.0, 0.25, 0.5, 0.25)
    results = {}
    for delta in (0.0, -4.0):
        worst = 0.0
        for x in np.linspace(-3.0, 3.0, 25):
            pt = np.array([x, delta - x, x])
            worst = max(worst, float(np.max(np.abs(p.step(p.step(pt)) - pt))))
        results[delta] = worst
    ok = all(w < 1e-12 for w in results.values())
    report(
        9,
        ok,
        f"(residuals: delta=0 -> {results[0.0]:.2g}, delta=-4 -> "
        f"{results[-4.0]:.2g}; map algebra gives delta in {{0, +4}}, "
        "see test_dynamics.py::TestPeriod2Line for the oracle-true roots)",
    )
    assert ok


def test_criterion_10_count_bound():
    rep_ok = True
    for n in (2, 3, 4):
        rep = periodic_count_bound(QuadraticForm2(1.0, 0.0, 2.0), n)
        if not rep["bound_2n"]:
            rep_ok = False
    sym_ok = True
    for n in (2, 4, 6):
        rep = periodic_count_bound(QuadraticForm2(0.5, 0.0, 0.5), n)
        if n // 2 not in rep["violating_k"]:
            sym_ok = False
    ok = rep_ok and sym_ok
    assert report(10, ok, f"(certified {rep_ok}, a=c violations {sym_ok})")


def test_criterion_11_symplectic_suite():
    rng = np.random.default_rng(111)
    worst_m2 = 0.0
    worst_sym = 0.0
    worst_grad = 0.0
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        f, G, b, S_true = random_symplectic_quadmap(rng, n)
        T, S = symplectic_decompose(f)
        worst_m2 = max(worst_m2, shear_square_residual(S.quad))
        form = shear_to_gradient_form(S)
        h = 1e-6
        for p in rng.standard_normal((3, n)):
            B = form.b_of(p)
            worst_sym = max(worst_sym, float(np.max(np.abs(B - B.T))))
            num = np.empty(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                num[j] = (form.potential(p + e) - form.potential(p - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(form.grad(p)))))
            worst_grad = max(
                worst_grad, float(np.max(np.abs(num - form.grad(p)))) / scale
            )
        # Jacobian of B(p)p symmetric (gradient field test), exact in coeffs:
        # d(B(p)p)_i/dp_j = sum_m (bcoef[j][i,m] + bcoef[m][i,j]) p_m
        for p in rng.standard_normal((2, n)):
            Jb = np.einsum("jim,m->ij", form.bcoef, p) + np.einsum(
                "mij,m->ij", form.bcoef, p
            )
            worst_sym = max(worst_sym, float(np.max(np.abs(Jb - Jb.T))))
    ok = worst_m2 < 1e-11 and worst_sym < 1e-9 and worst_grad < 1e-6
    assert report(
        11,
        ok,
        f"(M^2 residual {worst_m2:.2g}, symmetry {worst_sym:.2g}, "
        f"gradient match {worst_grad:.2g})",
    )


def test_criterion_12_manifold_cross_validation():
    t0 = time.monotonic()
    p = GenericMapParams.make(0.0, -0.3, 0.0, 0.5, 0.0, 0.5)
    fps = {fp.which: fp for fp in fixed_points(p)}
    h = reversor_for(p)
    depth = 8
    ws = grow_2d(p, fps["plus"], "stable", eps=0.36, depth=depth, ring_points=64)
    wu = grow_2d(p, fps["minus"], "unstable", eps=0.36, depth=depth, ring_points=64)
    curves = intersect_meshes(wu, ws, reversor=h)
    edge = max(ws.edge_length_bound(), wu.edge_length_bound())
    pts = heteroclinic_from_symmetry(p, h, (-0.35, 0.45), samples=200)
    agree = np.inf
    if curves and pts:
        agree = min(
            min(c.min_distance_to(q.point) for c in curves) for q in pts
        )
    hu = h(wu.vertices)
    haus = hausdorff_distance(hu, ws.vertices)
    elapsed = time.monotonic() - t0
    ok = (
        len(curves) >= 1
        and len(pts) >= 1
        and agree < edge
        and haus < 2 * edge
        and elapsed < 120.0
    )
    assert report(
        12,
        ok,
        f"({len(curves)} curves, {len(pts)} symmetry points, agreement "
        f"{agree:.3g} vs edge {edge:.3g}, Hausdorff {haus:.2g}, {elapsed:.1f}s)",
    )


def _diagram_args(form, out, svg=None):
    a, b, c = form
    args = [
        "diagram",
        "--a", str(a), "--b", str(b), "--c", str(c), "--sigma", "0.0",
        "--tau-min", "-4", "--tau-max", "4",
        "--alpha-min", "-3", "--alpha-max", "3",
        "--nx", "50", "--ny", "50",
        "--out", str(out),
    ]
    if svg:
        args += ["--svg", str(svg)]
    return args


def test_criterion_13_diagram_regression(tmp_path):
    ok_bytes = True
    ok_curves = True
    for name, form in (("fig3", (0.5, 0.0, 0.5)), ("fig4", (-0.5, 1.0, 0.5))):
        o1 = tmp_path / f"{name}_1.csv"
        o2 = tmp_path / f"{name}_2.csv"
        assert cli_main(_diagram_args(form, o1, tmp_path / f"{name}.svg")) == 0
        assert cli_main(_diagram_args(form, o2)) == 0
        if o1.read_bytes() != o2.read_bytes():
            ok_bytes = False
        quad = QuadraticForm2(*form)
        diag = stability_diagram(
            (-4, 4), (-3, 3), nx=50, ny=50, quad=quad, sigma=0.0
        )
        # every count transition must straddle the discriminant curve,
        # every type_A<->type_B transition the period-doubling locus
        def disc(tau, alpha):
            return alpha - 0.25 * tau * tau

        def pd_sign(tau, alpha, which):
            p = GenericMapParams(alpha, tau, 0.0, quad)
            sel = {fp.which: fp for fp in fixed_points(p)}
            if which not in sel:
                return None
            fp = sel[which]
            return fp.t + fp.s + 2.0

        for i in range(len(diag.ys)):
            for j in range(len(diag.xs) - 1):
                c1, c2 = diag.count[i, j], diag.count[i, j + 1]
                t1, t2 = diag.xs[j], diag.xs[j + 1]
                al = diag.ys[i]
                if (c1 == 0) != (c2 == 0):
                    if disc(t1, al) * disc(t2, al) > 0:
                        ok_curves = False
                lp1, lp2 = diag.label_plus[i, j], diag.label_plus[i, j + 1]
                if {lp1, lp2} == {TYPE_A, TYPE_B} and c1 == c2 == 2:
                    s1 = pd_sign(t1, al, "plus")
                    s2 = pd_sign(t2, al, "plus")
                    if s1 is not None and s2 is not None and s1 * s2 > 0:
                        ok_curves = False
    ok = ok_bytes and ok_curves
    assert report(13, ok, f"(byte-stable {ok_bytes}, boundaries on curves {ok_curves})")
