"""Independent contour-integral oracle for the h-family series.

h0(s, beta) and h(s, beta, x) equal vertical-line integrals of
G(t) = Gamma(t) Gamma(t+s) beta^{-2t} Z(2t), with Z = zeta for h0 and the
cosine polylog pair C(., x) for h. Along t = c + iy, with c to the right of
every pole, Re G is even in y, and h0 = (1/2pi) Int_0^inf Re G dy,
h = (1/4pi) Int_0^inf Re G dy. This provides a cross-check of the direct
summation that shares no code path with it beyond the scalar special
functions.

Both integrals use one fixed trapezoid rule, h [F(0)/2 + sum_{k>=1} F(kh)]
with F(y) = Re G(c + iy). F is analytic in the strip |Im y| < a, where a is
the distance from c to the rightmost pole, and decays like e^{-pi |y|}. On
such a function the rule's error is about e^{-2 pi a / h} times the
integrand's scale (Trefethen & Weideman, SIAM Review 56 (2014) 385), so the
rule follows from the inputs alone:

- c defaults to the rightmost pole plus _MARGIN: max(1/2, -s) + 1/4 for h0,
  max(0, -s) + 1/4 for h. A line close to the poles keeps the integrand,
  which grows like beta^{-2c}, near the size of the value, and keeps C(2t, x)
  accurate: its reflection formula loses digits as Re 2t grows.
- The step is h = 2 pi a / _E_FOLDS, with a = c - pole capped at _MARGIN; a
  wider strip would let beta^{-2t} grow along its right edge.
- The cut-off: |Gamma(t) Gamma(t+s)| ~ 2 pi y^{2c+s-1} e^{-pi y}, and Z(2t)
  grows at most like y, so the rule stops at
  y_max = (_E_FOLDS + q ln(_E_FOLDS + q)) / pi with q = 2c + s.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

from . import specfun as sf
from .errors import ConfigError, DomainError

__all__ = ["contour_h0", "contour_h"]

_MARGIN = 0.25  # default distance from the rightmost pole to the line
_MIN_STRIP = 0.05  # closest allowed line: bounds the node count (~2000)
_E_FOLDS = 40.0  # step and cut-off errors ~ e^-40 of the integrand's scale


def _trapezoid(s: float, beta: float, c, pole: float, Z) -> float:
    """Int_0^inf Re[Gamma(t)Gamma(t+s)beta^{-2t}Z(2t)] dy along t = c + iy,
    by the fixed trapezoid rule of the module docstring."""
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if c is None:
        c = pole + _MARGIN
    elif not (math.isfinite(c) and c >= pole + _MIN_STRIP):
        raise ConfigError(
            f"contour abscissa c={c} must be finite and at least {_MIN_STRIP} "
            f"right of the rightmost pole t={pole}"
        )
    lb = math.log(beta)
    # |Gamma(t)Gamma(t+s)beta^{-2t}| peaks at y = 0; e^709.8 is the largest double
    if math.lgamma(c) + math.lgamma(c + s) - 2.0 * c * lb > 700.0:
        raise DomainError(f"contour integrand on Re t = {c} leaves double range")
    h = 2.0 * math.pi * min(c - pole, _MARGIN) / _E_FOLDS
    q = 2.0 * c + s
    y_max = (_E_FOLDS + q * math.log(_E_FOLDS + q)) / math.pi
    t = c + 1j * h * np.arange(int(y_max / h) + 1)
    w = np.exp(scipy.special.loggamma(t) + scipy.special.loggamma(t + s) - 2.0 * lb * t)
    f = (w * np.array([Z(nu) for nu in (2.0 * t).tolist()])).real
    return h * (f.sum() - 0.5 * f[0])


def contour_h0(s: float, beta: float, c: float | None = None) -> float:
    """h0(s, beta) as (1/2pi) Int_0^inf Re[Gamma(t)Gamma(t+s)zeta(2t)beta^{-2t}] dy
    along t = c + iy. c defaults to max(1/2, -s) + 1/4; a given c must be at
    least max(1/2, -s) + 0.05, so that every pole lies left of the line."""
    return _trapezoid(s, beta, c, max(0.5, -s), sf._riemann_zeta_complex) / (2.0 * math.pi)


def contour_h(s: float, beta: float, x: float, c: float | None = None) -> float:
    """h(s, beta, x) as (1/4pi) Int_0^inf Re[Gamma(t)Gamma(t+s)C(2t,x)beta^{-2t}] dy
    along t = c + iy, for x in [0, 1). c defaults to max(0, -s) + 1/4; a given c
    must be at least max(0, -s) + 0.05. At x = 0, C(2t, 0) = 2 zeta(2t), so the
    value is contour_h0's, with its pole bound."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"phase x must lie in [0, 1), got {x}")
    if x == 0.0:
        return contour_h0(s, beta, c)
    return _trapezoid(
        s, beta, c, max(0.0, -s), lambda nu: sf._polylog_pair_complex(nu, x)
    ) / (4.0 * math.pi)
