"""Scalar special functions against high-precision mpmath references."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import besselsum.specfun as sf
from besselsum.errors import DomainError

mp.mp.dps = 40


def _rel(got, want):
    return abs(got - float(want)) / max(1.0, abs(float(want)))


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [2.3, 0.4, -0.4, -1.0, -1.0000001, -3.7, 7.9])
@pytest.mark.parametrize("a", [0.3, 0.77, 1.0])
def test_hurwitz_zeta_matches_mpmath(s, a):
    assert _rel(sf.hurwitz_zeta(s, a), mp.zeta(s, a)) < 1e-12


@pytest.mark.parametrize("s", [2.3, 0.4, -0.4, -1.0, -1.0000001, -3.7, 7.9])
@pytest.mark.parametrize("a", [0.3, 0.77, 1.0])
def test_hurwitz_zeta_deriv_matches_mpmath(s, a):
    assert _rel(sf.hurwitz_zeta_deriv(s, a), mp.zeta(s, a, 1)) < 1e-12


@pytest.mark.parametrize("s", [complex(-1.5, 37.0), complex(2.5, -80.0),
                               complex(0.1, 5.0)])
def test_hurwitz_complex_order_on_vertical_lines(s):
    got = sf._hurwitz_em(s, 0.3)
    want = complex(mp.zeta(mp.mpc(s), 0.3))
    assert abs(got - want) / max(1.0, abs(want)) < 1e-11


# ---------------------------------------------------------------------------
# Riemann zeta and derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 0.5, 0.0, -0.5, -1.0, -3.0, -2.0, -8.0,
                               -13.5, 11.0])
def test_riemann_zeta_matches_mpmath(s):
    assert _rel(sf.riemann_zeta(s), mp.zeta(s)) < 1e-12
    assert _rel(sf.riemann_zeta_deriv(s), mp.zeta(s, derivative=1)) < 1e-12


@pytest.mark.parametrize("s", [-201.4, -150.3])
def test_riemann_zeta_far_negative_matches_mpmath(s):
    # Gamma(1 - s) in the reflection factor overflows below s = -170
    assert _rel(sf.riemann_zeta(s), mp.zeta(s)) < 1e-12


def test_riemann_zeta_trivial_zeros_exact():
    for s in (-2.0, -4.0, -6.0, -12.0):
        assert sf.riemann_zeta(s) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_riemann_zeta_deriv_at_negative_even_integers(m):
    # zeta'(-2m) = (-1)^m (2m)! zeta(2m+1) / (2 (2 pi)^{2m})
    want = ((-1) ** m * math.factorial(2 * m) * float(mp.zeta(2 * m + 1))
            / (2.0 * (2.0 * math.pi) ** (2 * m)))
    assert _rel(sf.riemann_zeta_deriv(-2.0 * m), want) < 1e-12


# ---------------------------------------------------------------------------
# Modified Bessel K
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.3, 7.5, 12.0, -2.5])
def test_bessel_k_matches_mpmath(nu):
    for x in (1e-3, 0.04, 0.6, 2.0, 9.0, 40.0, 80.0):
        assert _rel(sf.bessel_k(nu, x), mp.besselk(abs(nu), x)) < 2e-13


@pytest.mark.parametrize("nu", [0.3, 2.5, 7.5])
def test_bessel_k_mixed_batch_matches_mpmath(nu):
    # Small and large arguments in one call: each value is accurate relative
    # to itself, whatever else is in the batch.
    xs = [1e-3, 30.0, 600.0]
    for got, x in zip(sf.bessel_k_many(nu, xs), xs):
        want = mp.besselk(nu, x)
        assert abs(got - float(want)) <= 2e-13 * abs(float(want))


def test_bessel_k_even_in_order():
    assert sf.bessel_k(2.5, 1.3) == sf.bessel_k(-2.5, 1.3)


@pytest.mark.parametrize("nu", [5e-324, -5e-324])
def test_bessel_k_subnormal_order_is_k0(nu):
    # scipy's kv gives inf and nan at subnormal orders; K_nu = K_0 + O(nu^2).
    xs = np.array([0.1, 1.0, 30.0])
    assert list(sf.bessel_k_many(nu, xs)) == list(sps.kv(0, xs))
    assert [sf.bessel_k(nu, x) for x in xs] == list(sps.kv(0, xs))


@pytest.mark.parametrize("fn,args", [
    (sf.hurwitz_zeta, (-175.3, 0.3)),
    (sf.hurwitz_zeta_deriv, (-175.3, 0.3)),
    (sf.polylog_pair, (-180.3, 0.3)),
    (sf.polylog_pair_deriv, (-180.3, 0.3)),
])
def test_results_past_double_range_refused(fn, args):
    # Gamma(1-s) in the reflection overflows below s = -170
    with pytest.raises(DomainError):
        fn(*args)


# ---------------------------------------------------------------------------
# Derivatives against a Richardson central difference of the values
# ---------------------------------------------------------------------------

def _richardson(f, x, h=1e-3):
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _off_integers(lo, hi):
    return st.floats(lo, hi).filter(lambda v: abs(v - round(v)) > 0.01)


def _check_deriv(f, df, x):
    got = df(x)
    scale = max(1.0, abs(f(x)), abs(got))
    assert abs(got - _richardson(f, x)) < 1e-8 * scale


_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@pytest.mark.parametrize("lo,hi", [(-40.0, -0.5), (-0.5, 0.9)], ids=["reflection", "em"])
def test_hurwitz_zeta_deriv_is_the_value_slope(lo, hi):
    @_PROPERTY
    @given(s=_off_integers(lo, hi), a=st.floats(0.02, 3.0))
    def check(s, a):
        _check_deriv(lambda v: sf.hurwitz_zeta(v, a), lambda v: sf.hurwitz_zeta_deriv(v, a), s)
    check()


@pytest.mark.parametrize("lo,hi", [(-30.0, -0.5), (-0.5, 30.0)], ids=["hurwitz", "series"])
def test_polylog_pair_deriv_is_the_value_slope(lo, hi):
    @_PROPERTY
    @given(nu=_off_integers(lo, hi), x=st.floats(0.01, 0.99))
    def check(nu, x):
        _check_deriv(lambda v: sf.polylog_pair(v, x), lambda v: sf.polylog_pair_deriv(v, x), nu)
    check()


@pytest.mark.parametrize("lo,hi", [(-40.0, -0.5), (-0.5, 0.9)], ids=["reflection", "em"])
def test_riemann_zeta_deriv_is_the_value_slope(lo, hi):
    @_PROPERTY
    @given(s=_off_integers(lo, hi))
    def check(s):
        _check_deriv(sf.riemann_zeta, sf.riemann_zeta_deriv, s)
    check()


# ---------------------------------------------------------------------------
# Incomplete gamma helpers (used by the contour oracle / lattice tails)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [-5.5, -2.0, -0.3, 0.5, 1.0, 3.7, 9.2])
def test_upper_gamma_matches_mpmath(a):
    for x in (math.pi, 8.0, 30.0):
        assert _rel(sf._upper_gamma(a, x), mp.gammainc(a, x, mp.inf)) < 1e-12


@pytest.mark.parametrize("a", [0.7, -2.3, 4.1])
def test_upper_gamma_parameter_derivative(a):
    x = math.pi
    want = mp.diff(lambda aa: mp.gammainc(aa, x, mp.inf), a, h=mp.mpf("1e-12"))
    ctx = sf.EpsteinContext(1)
    assert _rel(sf._gl_log_integral(ctx, a, x), want) < 1e-11
