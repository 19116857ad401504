"""The normal form's kernel run on sympy symbols: the identities that the
float tests check at sample points, proved for all parameters and points.

GenericMapParams._ahead, _behind and jacobian are plain arithmetic, so they
run unchanged on symbols; each identity below is an expanded difference that
is identically 0."""

import pytest

from qvpmaps import GenericMapParams
from qvpmaps.normalform import QuadraticForm2

sp = pytest.importorskip("sympy")

alpha, tau, sigma, a, b, c, x, y, z, lam = sp.symbols("alpha tau sigma a b c x y z lambda")


def symbolic_params(c=c):
    return GenericMapParams(alpha, tau, sigma, QuadraticForm2(a, b, c))


def vanishes(expr):
    return sp.expand(expr) == 0


def test_step_back_inverts_step():
    # step(x, y, z) = (_ahead(x, y, z), x, y) and step_back(x, y, z) =
    # (y, z, _behind(x, y, z)), so step_back o step = id is this one identity
    p = symbolic_params()
    assert vanishes(p._behind(p._ahead(x, y, z), x, y) - z)
    assert vanishes(p._ahead(y, z, p._behind(x, y, z)) - x)


def test_reversor_conjugates_step_to_step_back():
    # h(x, y, z) = -(z + eta, y + eta, x + eta), restated from Reversor, as
    # its __call__ works in floats; a = c and eta (2a + b) = tau - sigma as
    # in reversor_for
    p = symbolic_params(c=a)
    eta = (tau - sigma) / (2 * a + b)

    def h(pt):
        return [-(pt[2] + eta), -(pt[1] + eta), -(pt[0] + eta)]

    def step(pt):
        return [p._ahead(*pt), pt[0], pt[1]]

    def step_back(pt):
        return [pt[1], pt[2], p._behind(*pt)]

    for u, v in zip(h(step([x, y, z])), step_back(h([x, y, z]))):
        assert vanishes(sp.numer(sp.together(u - v)))


def test_jacobian_characteristic_polynomial_at_a_fixed_point():
    # at (x, x, x): lambda^3 - t lambda^2 + s lambda - 1 with the t and s of
    # fixed_points
    jac = sp.Matrix(symbolic_params().jacobian((x, x, x))).applyfunc(sp.nsimplify)
    t = tau + (2 * a + b) * x
    s = sigma - (b + 2 * c) * x
    assert vanishes(jac.charpoly(lam).as_expr() - (lam**3 - t * lam**2 + s * lam - 1))
