"""Independent contour-integral oracle for the h-family series.

h0(s, beta) and h(s, beta, x) equal vertical-line integrals of
Gamma(t) Gamma(t+s) beta^{-2t} times zeta(2t) (resp. the cosine polylog pair
C(2t, x)); integrating along Re t = c with c to the right of every pole
reproduces the series without ever summing Bessel functions. This provides a
cross-check of the direct summation that shares no code path with it beyond
the scalar special functions.

The integrand decays like e^{-pi |Im t|}, so a modest y-cutoff gives full
double precision. Integration proceeds over fixed-width panels in
y = Im t >= 0 (the integrand is conjugate-symmetric, so only the real part of
the upper half-line is needed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import scipy.special

from . import specfun as sf
from .errors import ConfigError, DomainError

__all__ = ["ContourConfig", "contour_h0", "contour_h"]


@dataclass(frozen=True)
class ContourConfig:
    """Vertical-line placement and quadrature budget for the contour oracle."""

    c: float = 1.25
    y_max: float = 60.0
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ConfigError(f"contour abscissa must be finite, got {self.c}")
        if not (self.y_max > 0.0 and math.isfinite(self.y_max)):
            raise ConfigError(f"y_max must be positive, got {self.y_max}")
        if not (self.quad_tol > 0.0):
            raise ConfigError(f"quad_tol must be positive, got {self.quad_tol}")


def _check_beta(beta: float):
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"beta must be positive and finite, got {beta}")


def _integrate_panels(fn, cfg: ContourConfig) -> float:
    import scipy.integrate  # here, so that importing the package does not load it

    total = 0.0
    y = 0.0
    width = 2.0
    n_panels = int(math.ceil(cfg.y_max / width))
    # Per-panel absolute budget, floored near the double-precision roundoff
    # limit: demanding less makes quad over-subdivide and accumulate roundoff
    # without gaining accuracy.
    eps = max(cfg.quad_tol / (10.0 * n_panels), 1e-12)
    while y < cfg.y_max:
        hi = min(y + width, cfg.y_max)
        val, _ = scipy.integrate.quad(fn, y, hi, epsabs=eps, epsrel=1e-11, limit=200)
        total += val
        y = hi
    return total


def contour_h0(s: float, beta: float, cfg: ContourConfig = ContourConfig()) -> float:
    """h0(s, beta) as (1/2pi) Int_0^inf Re[Gamma(t)Gamma(t+s)zeta(2t)beta^{-2t}] dy
    along t = c + iy. Requires c > max(1/2, -s) so all poles lie left of the line."""
    _check_beta(beta)
    bound = max(0.5, -s)
    if not (cfg.c > bound + 1e-9):
        raise ConfigError(
            f"contour abscissa c={cfg.c} must exceed max(1/2, -s)={bound} for h0"
        )
    lb = math.log(beta)

    def integrand(y: float) -> float:
        t = complex(cfg.c, y)
        w = (
            scipy.special.loggamma(t)
            + scipy.special.loggamma(t + s)
            - 2.0 * t * lb
        )
        return (cmath.exp(w) * sf._riemann_zeta_complex(2.0 * t)).real

    return _integrate_panels(integrand, cfg) / (2.0 * math.pi)


def contour_h(s: float, beta: float, x: float, cfg: ContourConfig = ContourConfig()) -> float:
    """h(s, beta, x) as (1/4pi) Int_0^inf Re[Gamma(t)Gamma(t+s)C(2t,x)beta^{-2t}] dy
    along t = c + iy. Requires c > max(0, -s)."""
    _check_beta(beta)
    if not (0.0 < x < 1.0):
        raise DomainError(f"phase x must lie in (0, 1), got {x}")
    bound = max(0.0, -s)
    if not (cfg.c > bound + 1e-9):
        raise ConfigError(
            f"contour abscissa c={cfg.c} must exceed max(0, -s)={bound} for h"
        )
    lb = math.log(beta)

    def integrand(y: float) -> float:
        t = complex(cfg.c, y)
        w = (
            scipy.special.loggamma(t)
            + scipy.special.loggamma(t + s)
            - 2.0 * t * lb
        )
        return (cmath.exp(w) * sf._polylog_pair_complex(2.0 * t, x)).real

    return _integrate_panels(integrand, cfg) / (4.0 * math.pi)
