"""Contour-integral oracle: agreement with direct summation and line placement.

The vertical-line integral shares no summation code with the direct
evaluators, so agreement here validates both ends at once.  The abscissa c is
arbitrary within its half-plane, so results must not depend on it.
"""

import math
import os
import subprocess
import sys

import pytest

import besselsum
from besselsum import ConfigError, ContourConfig, DomainError, contour_h, contour_h0

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


@pytest.mark.parametrize("s", S_VALUES)
def test_abscissa_independence_h0(s):
    beta = 0.7
    lo = contour_h0(s, beta, ContourConfig(c=1.0))
    hi = contour_h0(s, beta, ContourConfig(c=2.0))
    assert abs(lo - hi) < 1e-8 * max(1.0, abs(lo))


@pytest.mark.parametrize("s", S_VALUES)
def test_abscissa_independence_h(s):
    beta = 0.7
    lo = contour_h(s, beta, 0.3, ContourConfig(c=1.0))
    hi = contour_h(s, beta, 0.3, ContourConfig(c=2.0))
    assert abs(lo - hi) < 1e-8 * max(1.0, abs(lo))


def test_integrand_tail_is_negligible():
    # The integrand decays like e^(-pi y); cutting the line at y=40 instead of
    # 60 must not move the result at double precision.
    val40 = contour_h0(0.9, 0.5, ContourConfig(y_max=40.0))
    val60 = contour_h0(0.9, 0.5, ContourConfig(y_max=60.0))
    assert abs(val40 - val60) < 1e-12 * max(1.0, abs(val60))


def test_h0_abscissa_must_clear_poles():
    # Rightmost pole for h0 is at t = 1/2 (or t = -s when that is larger).
    with pytest.raises(ConfigError):
        contour_h0(0.9, 0.5, ContourConfig(c=0.4))
    with pytest.raises(ConfigError):
        contour_h0(-1.4, 0.5, ContourConfig(c=1.2))  # needs c > 1.4


def test_h_abscissa_must_clear_poles():
    # No zeta pole for the phase-weighted series: bound is max(0, -s).
    with pytest.raises(ConfigError):
        contour_h(-0.4, 0.5, 0.3, ContourConfig(c=0.3))
    # c in (0, 1/2) is legal for h (s > 0) even though it would not be for h0.
    val = contour_h(0.9, 0.5, 0.3, ContourConfig(c=0.25))
    want = direct_value("h", None, None, 0.9, 0.5, 0.3)
    assert abs(val - want) < 1e-7 * max(1.0, abs(want))


def test_config_validation():
    with pytest.raises(ConfigError):
        ContourConfig(c=math.inf)
    with pytest.raises(ConfigError):
        ContourConfig(y_max=0.0)
    with pytest.raises(ConfigError):
        ContourConfig(y_max=-5.0)
    with pytest.raises(ConfigError):
        ContourConfig(quad_tol=0.0)


def test_domain_validation():
    with pytest.raises(DomainError):
        contour_h0(0.9, 0.0)
    with pytest.raises(DomainError):
        contour_h0(0.9, -1.0)
    with pytest.raises(DomainError):
        contour_h(0.9, 0.5, 0.0)
    with pytest.raises(DomainError):
        contour_h(0.9, 0.5, 1.0)


def test_phase_continuity_toward_half():
    # C(2t, x) is smooth in x, so the contour value at x = 0.5 - 1e-5 must sit
    # next to the x = 0.5 value.
    at_half = contour_h(0.9, 0.5, 0.5)
    near_half = contour_h(0.9, 0.5, 0.5 - 1e-5)
    assert abs(at_half - near_half) < 1e-6


def test_package_import_leaves_quadrature_unloaded():
    # scipy.integrate is for the contour oracle alone; a fresh interpreter
    # that imports the package must not pay for it
    src = os.path.dirname(os.path.dirname(besselsum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, besselsum; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
