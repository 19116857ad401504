"""Property tests of fixed_points, step_back and the reversor over random
normalized forms, parameters and points."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qvpmaps.dynamics import (  # noqa: E402
    TYPE_A,
    TYPE_B,
    GenericMapParams,
    fixed_points,
    reversor_for,
)

coeff = st.floats(-2.0, 2.0, allow_nan=False)
param = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=coeff, b=coeff, alpha=param, tau=param, sigma=param)
def test_fixed_point_reports(a, b, alpha, tau, sigma):
    p = GenericMapParams.make(alpha, tau, sigma, a, b, 1.0 - a - b)
    disc = (tau - sigma) ** 2 - 4.0 * alpha
    for fp in fixed_points(p):
        x = fp.location
        # a degenerate point stands for both roots of a D that is only
        # within FIXED_POINT_TOL of 0, so its residual may be |D| / 4
        slack = abs(disc) / 4.0 if fp.which == "degenerate" else 0.0
        assert np.max(np.abs(p.step(x) - x)) <= 1e-12 * (1.0 + x[0] ** 2) + slack
        J = p.jacobian(x)
        minors = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] + J[0, 0] * J[2, 2]
        minors += -J[0, 2] * J[2, 0] + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
        assert abs(fp.t - np.trace(J)) <= 1e-10
        assert abs(fp.s - minors) <= 1e-10
        lam = fp.eigenvalues
        assert abs(np.prod(lam) - 1.0) <= 1e-9
        if np.min(np.abs(np.abs(lam) - 1.0)) > 1e-6:
            outside = int(np.sum(np.abs(lam) > 1.0))
            assert fp.classification == (TYPE_A if outside == 1 else TYPE_B)
            assert outside in (1, 2)


point = st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3).map(np.array)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=coeff, b=coeff, alpha=param, tau=param, sigma=param, x=point)
def test_step_back_inverts_step(a, b, alpha, tau, sigma, x):
    p = GenericMapParams.make(alpha, tau, sigma, a, b, 1.0 - a - b)
    fx = p.step(x)
    # the map's quadratic term makes the roundoff of f(x) scale with |f(x)|^2
    assert np.max(np.abs(p.step_back(fx) - x)) <= 1e-13 * (1.0 + np.max(np.abs(fx)) ** 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=coeff, alpha=param, tau=param, sigma=param, x=point)
def test_reversor_conjugates_step_to_step_back(a, alpha, tau, sigma, x):
    p = GenericMapParams.make(alpha, tau, sigma, a, 1.0 - 2.0 * a, a)
    h = reversor_for(p)
    fx = p.step(x)
    scale = 1.0 + np.max(np.abs(fx)) ** 2 + h.eta**2
    assert np.max(np.abs(h(fx) - p.step_back(h(x)))) <= 1e-13 * scale
