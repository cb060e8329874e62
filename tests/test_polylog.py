"""The symmetric polylogarithm pair C(nu, x) = Li_nu(e^{2 pi i x}) + c.c."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import besselsum.specfun as sf

mp.mp.dps = 40


def _rel(got, want):
    return abs(got - float(want)) / max(1.0, abs(float(want)))


def _pair_mp(nu, x):
    z = mp.e ** (2j * mp.pi * x)
    return complex(mp.polylog(nu, z) + mp.polylog(nu, 1 / z)).real


def _cos_sum(nu, x, n_max):
    m = np.arange(1, n_max + 1, dtype=float)
    return float(np.sum(np.cos(2.0 * math.pi * x * m) / m ** nu))


def _sin_sum(nu, x, n_max):
    m = np.arange(1, n_max + 1, dtype=float)
    return float(np.sum(np.sin(2.0 * math.pi * x * m) / m ** nu))


# ---------------------------------------------------------------------------
# Values and order-derivatives vs mpmath
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [-4.3, -3.0, -1.0, -0.7, 0.3, 0.5, 1.0, 1.0000001,
                                1.5, 2.0, 2.5, 2.999999, 3.0, 3.00001, 4.0, 6.5,
                                8.0, 40.7, 120.3, 280.6])
@pytest.mark.parametrize("x", [0.1, 0.3, 0.49, 0.5, 0.77])
def test_pair_matches_mpmath(nu, x):
    assert _rel(sf.polylog_pair(nu, x), _pair_mp(nu, x)) < 5e-12


@pytest.mark.parametrize("nu", [-4.0, -3.0, -0.9, 0.0, 5e-4, 0.3, 1.0, 1.0000001,
                                1.7, 2.0, 3.00001, 3.2, 4.527])
@pytest.mark.parametrize("x", [0.3, 0.5, 0.06])
def test_pair_order_derivative_matches_mpmath(nu, x):
    def f(v):
        if x == 0.5:
            return -2 * mp.altzeta(v)  # C(v, 1/2) = -2 eta(v), at a fraction of the cost
        return (mp.polylog(v, mp.e ** (2j * mp.pi * x))
                + mp.polylog(v, mp.e ** (-2j * mp.pi * x)))

    want = complex(mp.diff(f, nu, h=mp.mpf("1e-10"))).real
    assert _rel(sf.polylog_pair_deriv(nu, x), want) < 1e-9


def test_pair_and_derivative_emit_no_warning():
    # both points are hard for quadrature: round-off in its extrapolation table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(sf.polylog_pair(8.5045, 0.01))
        assert math.isfinite(sf.polylog_pair_deriv(4.527, 0.3))


# ---------------------------------------------------------------------------
# Exact structural values
# ---------------------------------------------------------------------------

def test_pair_exact_zero_at_negative_even_integers():
    for nu in (-2.0, -4.0, -6.0):
        assert sf.polylog_pair(nu, 0.3) == 0.0


def test_pair_exact_minus_one_at_zero_order():
    assert sf.polylog_pair(0.0, 0.3) == -1.0
    assert sf.polylog_pair(0.0, 0.77) == -1.0


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def test_half_phase_reduces_to_scaled_riemann_zeta():
    # C(nu, 1/2) = 2 (2^{1-nu} - 1) zeta(nu)
    for nu in (0.7, 1.5, 2.0, 3.3, -0.4, -1.0):
        want = 2.0 * (2.0 ** (1.0 - nu) - 1.0) * sf.riemann_zeta(nu)
        assert _rel(sf.polylog_pair(nu, 0.5), want) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("x", [0.1, 0.3, 0.45])
def test_even_integer_order_reduces_to_bernoulli(n, x):
    # sum_m cos(2 pi m x)/m^n = (-1)^{1+n/2} (2 pi)^n B_n(x) / (2 n!)
    want = ((-1) ** (1 + n // 2) * (2.0 * math.pi) ** n
            * float(mp.bernpoly(n, x)) / (2.0 * math.factorial(n)))
    assert _rel(sf.polylog_pair(float(n), x), 2.0 * want) < 1e-10


@pytest.mark.parametrize("x", [0.1, 0.3, 0.45])
def test_odd_integer_order_sine_pair_bernoulli(x):
    # The cosine pair at odd n has no Bernoulli form; the SINE pair does:
    # |sum_m sin(2 pi m x)/m^3| = |(2 pi)^3 B_3(x) / (2 * 3!)|
    n = 3
    brute = _sin_sum(float(n), x, 400000)
    bern = (2.0 * math.pi) ** n * float(mp.bernpoly(n, x)) / (2.0 * math.factorial(n))
    assert abs(abs(brute) - abs(bern)) < 1e-10
    # and the cosine pair still matches its own direct sum
    direct = 2.0 * _cos_sum(float(n), x, 200000)
    assert _rel(sf.polylog_pair(3.0, x), direct) < 1e-9


@pytest.mark.parametrize("nu", [1.5, 2.7, 6.0])
@pytest.mark.parametrize("x", [0.2, 0.5, 0.9])
def test_direct_sum_agreement_above_one(nu, x):
    direct = 2.0 * _cos_sum(nu, x, 500000)
    tol = 1e-10 if nu > 2 else 2e-7  # nu=1.5 tail ~ N^{-1.5} limits the oracle
    assert _rel(sf.polylog_pair(nu, x), direct) < tol
