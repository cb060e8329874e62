"""Physics-facing layer built on the series engines.

Three applications share the core machinery:

* ``product_zeta`` / ``product_zeta_expansion``: the spectral zeta function of
  a product space ``R^d x S^1 x N`` (d noncompact directions, a circle of
  circumference 2*beta with twist B, and a compact factor N described by a
  ManifoldModel). After integrating out the continuous directions it reduces
  to a gamma/zeta_N boundary term plus the twisted double Bessel series f:

      zeta(s) = beta / (2^d pi^{(d+1)/2} Gamma(s))
                * [ Gamma(s') zeta_N(s') + 4 f(s', beta, B) ],   s' = s-(d+1)/2.

* ``piston_zeta`` / ``casimir_energy`` / ``casimir_force``: the Casimir piston
  for fermions on ``M^D x N``; its zeta function is the B = 1/2 instance above
  with d = D-1 and an overall factor -2^{D-3}. casimir_energy splits the
  chamber energy E_C = (1/2) zeta_piston(eps - 1/2) into its 1/eps pole
  coefficient and finite part; casimir_force differentiates the summed
  two-chamber finite energy with respect to the chamber length.

* ``mass_sum`` / ``mass_expansion``: the one-loop mass correction series
  S(m) = sum_n (m/(nL))^{D/2-1} K_{D/2-1}(nLm) of the compactified lambda
  phi^4 model, equal to (2/L^2)^{D/2-1} beta^{D-2} h0(1-D/2, beta) at
  beta = mL/2, with its small-m expansion transformed from expand_h0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from . import specfun as sf
from .asymptotics import (
    Expansion,
    ExpansionTerm,
    _gamma_factors,
    _residue_at_zero,
    _snap_half,
    expand_f,
    expand_f0,
    expand_h0,
)
from .direct_eval import EvalResult, SeriesParams, _check_tol, _sum_h, sum_f
from .errors import ConfigError, ConvergenceError, DomainError
from .manifolds import ManifoldModel

__all__ = [
    "ProductGeometry",
    "PistonConfig",
    "product_zeta",
    "product_zeta_expansion",
    "piston_zeta",
    "casimir_energy",
    "casimir_force",
    "mass_sum",
    "mass_expansion",
]


# ---------------------------------------------------------------------------
# Geometry containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductGeometry:
    """Product space R^d x S^1(2*beta, twist B) x N.

    ``d`` counts the noncompact directions, ``model`` is the compact factor N
    (dimension Q = model.D), ``beta`` is the half-circumference of the circle
    direction and ``B`` its twist in [0, 1). The total dimension is
    D = d + 1 + Q.
    """

    d: int
    model: ManifoldModel
    beta: float
    B: float = 0.0

    def __post_init__(self):
        if self.d != int(self.d) or int(self.d) < 0:
            raise DomainError(f"d must be a nonnegative integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if not isinstance(self.model, ManifoldModel):
            raise DomainError(
                f"model must be a ManifoldModel, got {type(self.model).__name__}"
            )
        beta = float(self.beta)
        if not (beta > 0.0 and math.isfinite(beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        object.__setattr__(self, "beta", beta)
        B = float(self.B)
        if not (0.0 <= B < 1.0):
            raise DomainError(f"B must lie in [0, 1), got {self.B}")
        object.__setattr__(self, "B", B)

    @property
    def q(self) -> int:
        """Dimension of the compact factor N."""
        return self.model.D

    @property
    def total_dim(self) -> int:
        """Total dimension D = d + 1 + Q."""
        return self.d + 1 + self.model.D


@dataclass(frozen=True)
class PistonConfig:
    """Two-chamber Casimir piston of total length L on M^D x N.

    ``geometry`` describes one chamber: geometry.beta is the length of the
    first chamber, geometry.d = D - 1 its transverse Euclidean directions and
    geometry.B must be 1/2 (antiperiodic reduction of the Dirichlet interval).
    """

    geometry: ProductGeometry
    L: float

    def __post_init__(self):
        if not isinstance(self.geometry, ProductGeometry):
            raise ConfigError("geometry must be a ProductGeometry")
        if self.geometry.B != 0.5:
            raise ConfigError(
                f"piston geometry requires twist B = 1/2, got B = {self.geometry.B}"
            )
        L = float(self.L)
        if not (math.isfinite(L) and 0.0 < self.geometry.beta < L):
            raise ConfigError(
                f"need 0 < beta < L, got beta = {self.geometry.beta}, L = {self.L}"
            )
        object.__setattr__(self, "L", L)

    @property
    def D(self) -> int:
        """Euclidean dimension of the piston factor (interval + transverse)."""
        return self.geometry.d + 1


# ---------------------------------------------------------------------------
# The boundary term, from the engine's residue at t = 0
# ---------------------------------------------------------------------------


def _boundary_limit(model: ManifoldModel, s: float, d: int) -> Tuple[float, Optional[float]]:
    """The boundary term lim Gamma(s') zeta_N(s') / Gamma(s), s' = s - (d+1)/2.

    Returns ``(limit, inv_gamma_s)``; ``inv_gamma_s`` is 1/Gamma(s), or None
    at s = -p, a nonpositive integer, where it vanishes. The limit is the
    engine's residue at t = 0: Res[Gamma(t) Gamma(t+s') zeta_N(s'+t)] /
    Gamma(s) for generic s, and (-1)^p p! Res[Gamma(t+s') zeta_N(s'+t)] at
    s = -p. A genuine pole of the product raises PoleError; DomainError where
    Gamma(s) underflows to 0 (far below zero), as 1/Gamma(s) leaves double range.
    """
    s_half = _snap_half(s)
    sp = (float(s_half) if s_half is not None else float(s)) - (d + 1) / 2.0
    factors = _gamma_factors(sp, model)
    if s_half is not None and s_half.denominator == 1 and s_half <= 0:
        p = int(-s_half)
        res = _residue_at_zero(factors[1:])
        return (res * (-1.0) ** p * math.factorial(p) if res else 0.0), None
    gs = sf.gamma(float(s))
    if gs == 0.0:
        raise DomainError(f"Gamma(s) underflows to 0 at s={s}: 1/Gamma(s) leaves double range")
    inv_gs = 1.0 / gs
    return _residue_at_zero(factors) * inv_gs, inv_gs


def _prefactor(d: int) -> float:
    return 1.0 / (2.0 ** d * math.pi ** ((d + 1) / 2.0))


# ---------------------------------------------------------------------------
# Product-space spectral zeta
# ---------------------------------------------------------------------------


def product_zeta(geom: ProductGeometry, s: float, tol: Optional[float] = None) -> EvalResult:
    """Analytically continued spectral zeta of the product space at real s.

    Evaluates the boundary gamma/zeta_N term (with all removable pole
    cancellations taken as limits) plus the direct Bessel double series.
    Raises PoleError at genuine poles of the continuation.
    """
    first, inv_gs = _boundary_limit(geom.model, s, geom.d)
    pref = geom.beta * _prefactor(geom.d)
    if inv_gs is None:
        # 1/Gamma(s) = 0: the Bessel series contributes nothing.
        return EvalResult(pref * first, 0.0, 0, "product_zeta")
    sp = float(s) - (geom.d + 1) / 2.0
    fres = sum_f(geom.model, sp, geom.beta, geom.B, tol)
    value = pref * (first + 4.0 * fres.value * inv_gs)
    err = pref * 4.0 * fres.error_estimate * abs(inv_gs)
    return EvalResult(value, err, fres.terms_used, "product_zeta")


def product_zeta_expansion(geom: ProductGeometry, s: float, order: float) -> Expansion:
    """Small-beta expansion of the product zeta at fixed s.

    Built from the f-series expansion: the beta^0 entry of the f ladder
    cancels the explicit Gamma(s') zeta_N(s') boundary term exactly, the rest
    is scaled by 4/(2^d pi^{(d+1)/2} Gamma(s)) and shifted one power up by the
    overall beta prefactor. At nonpositive integer s the 1/Gamma(s) zero
    collapses the expansion to the single ratio-limit term. s values where the
    boundary term itself is singular raise PoleError.
    """
    model = geom.model
    params = {
        "family": "product_zeta",
        "d": geom.d,
        "model": model.name,
        "Q": model.D,
        "s": float(s),
        "B": geom.B,
    }
    first, inv_gs = _boundary_limit(model, s, geom.d)  # PoleError where it is singular
    if inv_gs is None:
        terms = [ExpansionTerm(1.0, _prefactor(geom.d) * first, 0.0)] if first != 0.0 else []
        return Expansion(
            family="product_zeta",
            case_tag="nonpos_int_s",
            params=params,
            terms=tuple(terms),
            max_power=1.0,
            remainder_power=None,
        )

    sp = float(s) - (geom.d + 1) / 2.0
    sub_order = float(order) - 1.0
    if geom.B == 0.0:
        fx = expand_f0(model, sp, sub_order)
    else:
        fx = expand_f(model, sp, geom.B, sub_order)
    # The f ladder's beta^0 entry -Gamma(s')zeta_N(s')/4 cancels the explicit
    # boundary term, so neither is emitted.
    fx = replace(fx, terms=tuple(t for t in fx.terms if t.power != 0.0))
    return fx.rescaled("product_zeta", params, 1.0, 4.0 * _prefactor(geom.d) / sf.gamma(float(s)))


# ---------------------------------------------------------------------------
# Casimir piston
# ---------------------------------------------------------------------------


def piston_zeta(cfg: PistonConfig, s: float, tol: Optional[float] = None) -> EvalResult:
    """Piston-chamber zeta function: -2^{D-3} times the B=1/2 product zeta."""
    base = product_zeta(cfg.geometry, s, tol)
    scale = -(2.0 ** (cfg.D - 3))
    return EvalResult(
        scale * base.value,
        abs(scale) * base.error_estimate,
        base.terms_used,
        "piston_zeta",
    )


def _piston_energy_terms(model: ManifoldModel, D: int, order: float) -> list:
    """Expansion terms (in the chamber length a) of the finite part of E_C.

    E_C(a) = (1/2) zeta_piston(eps - 1/2) splits into pole/eps + finite; the
    finite part is a terminating series over the heat coefficients A_j of N
    (l = 2j - Q, powers a^{l-D}):

      l < D or l-D even:  kappa A_j Gamma((D-l+1)/2) (2^{l-D}-1) zeta(D-l+1)
      l = D:              -kappa A_j sqrt(pi) ln 2          (0*inf limit)
      l = D+1:            kappa A_j [ln a + gamma + 3 ln 2 - ln 2pi - 1] * a
      l = D+1+2k, k>=1:   kappa A_j (2^{l-D}-1) * 2(-1)^k zeta'(-2k)/k!
                                                        (gamma-pole limit)
    with kappa = 1/(8 pi^{(D+1)/2}).
    """
    q = model.D
    kappa = 1.0 / (8.0 * math.pi ** ((D + 1) / 2.0))
    ln2 = math.log(2.0)
    j_values = sorted(model.heat_support())
    if not j_values:
        return []
    # Walk the full half-integer grid up to the largest supplied index so a
    # table model with an interior gap fails loudly instead of dropping terms.
    j_max = j_values[-1]
    grid = [Fraction(k, 2) for k in range(0, int(2 * j_max) + 1)]
    terms = []
    for j in grid:
        coeff_a = model.heat_coeff(j)
        if coeff_a == 0.0:
            continue
        ell = int(2 * j - q)
        p = ell - D
        if p > order:
            continue
        if ell == D:
            terms.append(ExpansionTerm(0.0, -kappa * coeff_a * math.sqrt(math.pi) * ln2, 0.0))
        elif ell == D + 1:
            const = kappa * coeff_a * (
                sf.EULER_GAMMA + 3.0 * ln2 - math.log(2.0 * math.pi) - 1.0
            )
            terms.append(ExpansionTerm(1.0, const, kappa * coeff_a))
        elif p > 1 and p % 2 == 1:
            k = (p - 1) // 2
            limit = 2.0 * ((-1.0) ** k) * sf.riemann_zeta_deriv(-2.0 * k) / math.factorial(k)
            const = kappa * coeff_a * (2.0 ** p - 1.0) * limit
            terms.append(ExpansionTerm(float(p), const, 0.0))
        else:
            const = (
                kappa
                * coeff_a
                * sf.gamma((D - ell + 1) / 2.0)
                * (2.0 ** p - 1.0)
                * sf.riemann_zeta(float(D - ell + 1))
            )
            terms.append(ExpansionTerm(float(p), const, 0.0))
    terms.sort(key=lambda t: t.power)
    return terms


def casimir_energy(cfg: PistonConfig) -> Tuple[float, float]:
    """Split the first-chamber Casimir energy into (pole_coeff, finite_part).

    E_C(eps) = pole_coeff/eps + finite_part + O(eps) with
    pole_coeff = beta * A_{(Q+D+1)/2} / (16 pi^{(D+1)/2}). For closed-form
    models the finite series terminates and is exact; a table model must
    supply heat coefficients up to index (Q+D+1)/2 or WindowError is raised.
    """
    geo = cfg.geometry
    model = geo.model
    D = cfg.D
    q = model.D
    pole_a = model.heat_coeff(Fraction(q + D + 1, 2))
    pole_coeff = geo.beta * pole_a / (16.0 * math.pi ** ((D + 1) / 2.0))
    terms = _piston_energy_terms(model, D, math.inf)
    beta = geo.beta
    lb = math.log(beta)
    finite = math.fsum(
        (t.const_coeff + t.log_coeff * lb) * beta ** t.power for t in terms
    )
    return pole_coeff, finite


def casimir_force(cfg: PistonConfig, order: float = 16.0) -> float:
    """Casimir force on the piston from the two-chamber finite energy.

    F(beta) = -d/dbeta [E_fin(beta) + E_fin(L-beta)] assembled term by term
    from the finite-energy expansion; the construction is antisymmetric under
    beta <-> L-beta by inspection. The divergent pole parts of the two
    chambers add up to a length-independent constant and exert no force.
    """
    geo = cfg.geometry
    terms = _piston_energy_terms(geo.model, cfg.D, float(order) + 1.0)
    beta = geo.beta
    other = cfg.L - beta
    pieces = []
    for t in terms:
        p = t.power
        base = t.const_coeff * p + t.log_coeff
        pieces.append(base * (other ** (p - 1.0) - beta ** (p - 1.0)))
        if t.log_coeff != 0.0 and p != 0.0:
            pieces.append(
                t.log_coeff
                * p
                * (other ** (p - 1.0) * math.log(other) - beta ** (p - 1.0) * math.log(beta))
            )
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# Compactified lambda phi^4 mass series
# ---------------------------------------------------------------------------


def _check_mass_args(m: float, L: float, D: int) -> Tuple[float, float, int]:
    m = float(m)
    L = float(L)
    if not (m > 0.0 and math.isfinite(m)):
        raise DomainError(f"m must be positive and finite, got {m}")
    if not (L > 0.0 and math.isfinite(L)):
        raise DomainError(f"L must be positive and finite, got {L}")
    if D != int(D) or int(D) < 2:
        raise DomainError(f"D must be an integer >= 2, got {D}")
    return m, L, int(D)


def mass_sum(m: float, L: float, D: int, tol: Optional[float] = None) -> EvalResult:
    """Direct evaluation of S(m) = sum_{n>=1} (m/(nL))^{D/2-1} K_{D/2-1}(nLm).

    h0's stream at s = 1 - D/2, beta = mL/2 with power base L/m (see
    direct_eval), under the direct sums' stopping rule, tail bound and budget.
    """
    m, L, D = _check_mass_args(m, L, D)
    params, tol = SeriesParams(1.0 - 0.5 * D, 0.5 * L * m), _check_tol(tol)
    try:
        return EvalResult(*_sum_h(params, tol, L / m), "mass_sum")
    except ConvergenceError as exc:
        raise ConvergenceError(f"mass sum at m={m}, L={L}, D={D}: {exc}; small m: mass_expansion") from None


def mass_expansion(m: float, L: float, D: int, order: float) -> Expansion:
    """Small-m expansion of S(m), transformed from expand_h0(1 - D/2).

    Each h0 term (c + lam*ln beta) beta^p maps, via beta = mL/2, to
    (2/L^2)^{D/2-1} (L/2)^{p+D-2} [c + lam*ln(L/2) + lam*ln m] m^{p+D-2};
    powers are powers of m and the log channel is ln m.
    """
    m, L, D = _check_mass_args(m, L, D)
    hx = expand_h0(1.0 - 0.5 * D, float(order) - (D - 2))
    params = {"family": "mass_series", "m": m, "L": L, "D": D}
    return hx.rescaled("mass_series", params, D - 2, (2.0 / L ** 2) ** (0.5 * D - 1.0), 0.5 * L)
