"""Contour-integral oracle: agreement with direct summation and line placement.

The vertical-line integral shares no summation code with the direct
evaluators, so agreement here validates both ends at once.  The abscissa c is
arbitrary within its half-plane, so results must not depend on it.
"""

import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

import besselsum
from besselsum import ConfigError, DomainError, contour_h, contour_h0

from util import direct_value

S_VALUES = [1.0 / 3.0, 0.9, -0.4]
BETAS = [0.5, 1.0]


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("beta", BETAS)
def test_contour_h0_matches_direct(s, beta):
    want = direct_value("h0", None, None, s, beta, None)
    got = contour_h0(s, beta)
    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("x", [0.3, 0.5])
def test_contour_h_matches_direct(s, beta, x):
    want = direct_value("h", None, None, s, beta, x)
    got = contour_h(s, beta, x)
    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def _mp_series(s, beta, x):
    """sum_m cos(2 pi m x) (m beta)^s K_s(2 m beta) at 20 digits."""
    with mp.workdps(20):
        total, m = mp.mpf(0), 1
        while True:
            term = mp.cos(2 * mp.pi * m * x) * (m * beta) ** s * mp.besselk(s, 2 * m * beta)
            total += term
            if 2 * m * beta > abs(s) + 5 and abs(term) < mp.mpf(10) ** -20 * max(1, abs(total)):
                return float(total)
            m += 1


@pytest.mark.parametrize("s, beta, x, bound", [
    # x = 0 is h0, with h0's default line
    # left of s = -1/2 the default line follows the pole at t = -s
    (-3.7, 0.7, 0.0, 1e-13), (-2.4, 1.5, 0.0, 1e-13), (-1.4, 0.1, 0.0, 1e-13),
    (-0.552, 0.455, 0.0, 1e-13),
    (0.3, 0.1, 0.0, 1e-13), (2.642, 0.725, 0.0, 1e-13), (1.656, 1.614, 0.0, 1e-13),
    # C(2t, x) loses digits as Re 2t = 2c grows (see specfun._polylog_pair_complex):
    # 3.9e-13 at s = -0.863, where c = 1.113
    (-0.863, 0.109, 0.5, 1e-12), (-0.259, 0.121, 0.3, 1e-13), (0.16, 0.131, 0.5, 1e-13),
    (1.2, 0.7, 0.3, 1e-13), (2.376, 0.1, 0.5, 1e-13), (2.457, 1.646, 0.3, 1e-13),
])
def test_contour_matches_mpmath(s, beta, x, bound):
    want = _mp_series(s, beta, x)
    got = contour_h(s, beta, x)
    assert abs(got - want) < bound * max(1.0, abs(want))


@pytest.mark.parametrize("s", S_VALUES)
def test_abscissa_independence_h0(s):
    beta = 0.7
    lo = contour_h0(s, beta, c=1.0)
    hi = contour_h0(s, beta, c=2.0)
    assert abs(lo - hi) < 1e-8 * max(1.0, abs(lo))


@pytest.mark.parametrize("s", S_VALUES)
def test_abscissa_independence_h(s):
    beta = 0.7
    lo = contour_h(s, beta, 0.3, c=1.0)
    hi = contour_h(s, beta, 0.3, c=2.0)
    assert abs(lo - hi) < 1e-8 * max(1.0, abs(lo))


def test_h0_abscissa_must_clear_poles():
    # Rightmost pole for h0 is at t = 1/2 (or t = -s when that is larger).
    with pytest.raises(ConfigError):
        contour_h0(0.9, 0.5, c=0.4)
    with pytest.raises(ConfigError):
        contour_h0(-1.4, 0.5, c=1.2)  # needs c >= 1.45
    with pytest.raises(ConfigError):
        contour_h0(0.9, 0.5, c=0.5 + 1e-8)  # a line this close needs ~10^10 nodes


def test_integrand_past_double_range_is_refused():
    # Gamma(c)^2 on a line at c = 400 overflows before the first node.
    with pytest.raises(DomainError):
        contour_h0(0.9, 0.5, c=400.0)
    with pytest.raises(DomainError):
        contour_h(0.9, 0.5, 0.3, c=400.0)


def test_h_abscissa_must_clear_poles():
    # No zeta pole for the phase-weighted series: bound is max(0, -s).
    with pytest.raises(ConfigError):
        contour_h(-0.4, 0.5, 0.3, c=0.3)
    # c in (0, 1/2) is legal for h (s > 0) even though it would not be for h0.
    val = contour_h(0.9, 0.5, 0.3, c=0.25)
    want = direct_value("h", None, None, 0.9, 0.5, 0.3)
    assert abs(val - want) < 1e-7 * max(1.0, abs(want))


def test_config_validation():
    with pytest.raises(ConfigError):
        contour_h0(0.9, 0.5, c=math.inf)
    with pytest.raises(ConfigError):
        contour_h0(0.9, 0.5, c=math.nan)
    with pytest.raises(ConfigError):
        contour_h(0.9, 0.5, 0.3, c=math.inf)


def test_domain_validation():
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            contour_h0(s, 0.5)
        with pytest.raises(DomainError):
            contour_h(s, 0.5, 0.3)
    with pytest.raises(DomainError):
        contour_h0(0.9, 0.0)
    with pytest.raises(DomainError):
        contour_h0(0.9, -1.0)
    with pytest.raises(DomainError):
        contour_h(0.9, 0.5, -0.1)
    with pytest.raises(DomainError):
        contour_h(0.9, 0.5, 1.0)
    # x = 0 is in sum_h's domain: C(2t, 0) = 2 zeta(2t), so h is h0
    assert contour_h(0.9, 0.5, 0.0) == contour_h0(0.9, 0.5)
    assert contour_h(-1.4, 0.5, 0.0) == contour_h0(-1.4, 0.5)


def test_phase_continuity_toward_half():
    # C(2t, x) is smooth in x, so the contour value at x = 0.5 - 1e-5 must sit
    # next to the x = 0.5 value.
    at_half = contour_h(0.9, 0.5, 0.5)
    near_half = contour_h(0.9, 0.5, 0.5 - 1e-5)
    assert abs(at_half - near_half) < 1e-6


def test_package_import_leaves_quadrature_unloaded():
    # The package has no scipy.integrate: a fresh interpreter that imports it
    # and runs the contour oracle for h0 and h never loads it
    src = os.path.dirname(os.path.dirname(besselsum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, besselsum\n"
            "from besselsum import cli\n"
            "loaded = ['scipy.integrate' in sys.modules]\n"
            "for series in (['--series', 'h0'], ['--series', 'h', '--B', '0.3']):\n"
            "    assert cli.run(['oracle', '--s', '0.9', '--beta', '0.5'] + series) == 0\n"
            "    loaded.append('scipy.integrate' in sys.modules)\n"
            "print(loaded, file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stderr.strip() == "[False, False, False]"
