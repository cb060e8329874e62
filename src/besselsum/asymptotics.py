"""Small-beta expansions of the Bessel series as explicit term lists.

Each series family has an integral representation whose integrand is a
product of meromorphic factors times beta^(-2t); shifting the integration
contour to the left converts the series into a sum of residues, one per pole,
each contributing a term (const + log_coeff * ln(beta)) * beta^p with
p = -2 t0. This module builds those term lists.

The construction is generic rather than formula-by-formula: every family is
described by its factor list, and one walk over one pole table builds every
expansion. The engine enumerates the poles of all factors once, down to beta
power order + 40, groups coincident poles (a double pole gives a log term via
the double-pole rule), and walks the groups in ascending beta power:

* a group at power <= order contributes its residue, if nonzero, as a term;
* the first group past order whose residue is nonzero, or cannot be
  evaluated (WindowError), gives remainder_power and ends the walk;
* if no such group lies within the 40 extra powers, the series terminates
  and remainder_power is None.

Only the groups the walk reaches are checked: one closer than 1e-7 in t to a
neighbouring group, or with more than two coincident poles, raises PoleError,
and one that needs a Gamma residue 1/j! with j > 170 raises DomainError. The
groups up to order are all reached, so they are checked before any residue.
Special parameter values (integer or half-integer order s) are snapped to
the exact binary half-integer, so every pole lies on a half-integer that a
double holds exactly and coincident poles group exactly. Orders above
MAX_ORDER are refused with DomainError; the coefficients overflow double
precision not far past it.

Families and their factor products (norm * Gamma(t) * ... * beta^{-2t}):

* h  (phase x):    1/4 * Gamma(t) Gamma(t+s) C(2t, x)
* h0:              1/2 * Gamma(t) Gamma(t+s) zeta(2t)
* g  (dim d):      1/2 * Gamma(t) Gamma(t+s) Z_d(s+t)      [Epstein zeta]
* f  (model, x):   1/4 * Gamma(t) Gamma(t+s) zeta_M(s+t) C(2t, x)
* f0 (model):      1/2 * Gamma(t) Gamma(t+s) zeta_M(s+t) zeta(2t)

where C(nu, x) = sum_m cos(2 pi m x)/m^nu is the cosine polylog pair and
zeta_M is the model's spectral zeta. At non-positive integer arguments
zeta_M is evaluated exactly through the heat-kernel coefficients
(zeta_M(-j) = (-1)^j j! A_{D/2+j}), which also supplies the exact zeros that
terminate many of the ladders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import specfun as sf
from .errors import DomainError, PoleError, WindowError
from .manifolds import ManifoldModel, torus_model

__all__ = [
    "ExpansionTerm",
    "Expansion",
    "double_pole_residue",
    "dispatch_case",
    "expand_h",
    "expand_h0",
    "expand_g",
    "expand_f",
    "expand_f0",
    "evaluate",
    "MAX_ORDER",
]

_SNAP = 2e-12  # half-integer snapping tolerance on 2s
_GRID = 1e-9  # float pole-grouping grid
_GUARD = 1e-7  # distinct poles closer than this are numerically unusable
_REACH = 40.0  # powers past order searched for the remainder term
MAX_ORDER = 100.0  # largest truncation order accepted by the expand_* functions
_MAX_FACTORIAL = 170  # j! overflows a double past this


# ---------------------------------------------------------------------------
# Term containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTerm:
    """One expansion term (const_coeff + log_coeff * ln beta) * beta^power."""

    power: float
    const_coeff: float
    log_coeff: float = 0.0

    def evaluate(self, beta: float) -> float:
        return (self.const_coeff + self.log_coeff * math.log(beta)) * beta ** self.power

    def to_dict(self) -> dict:
        return {
            "power": self.power,
            "const_coeff": self.const_coeff,
            "log_coeff": self.log_coeff,
        }


@dataclass(frozen=True)
class Expansion:
    """Ordered small-beta expansion of one series instance."""

    family: str
    case_tag: str
    params: dict
    terms: tuple
    max_power: float
    remainder_power: Optional[float]

    def evaluate(self, beta: float) -> float:
        if not (beta > 0.0 and math.isfinite(beta)):
            raise DomainError(f"beta must be positive and finite, got {beta}")
        lb = math.log(beta)
        return math.fsum(
            (t.const_coeff + t.log_coeff * lb) * beta ** t.power for t in self.terms
        )

    def rescaled(self, family: str, params: dict, shift: float, factor: float,
                 lam: float = 1.0) -> "Expansion":
        """The expansion of factor * (lam beta)^shift * F(lam beta), F this one.

        A term (c + l ln beta) beta^p becomes
        factor lam^(p+shift) (c + l ln lam + l ln beta) beta^(p+shift); the
        max and remainder powers move by shift.
        """
        ln_lam = math.log(lam)
        terms = []
        for t in self.terms:
            power = t.power + shift
            try:
                k = factor * lam ** power
            except OverflowError:
                k = math.inf
            term = ExpansionTerm(power, k * (t.const_coeff + t.log_coeff * ln_lam), k * t.log_coeff)
            if not (math.isfinite(term.const_coeff) and math.isfinite(term.log_coeff)):
                raise DomainError(f"the beta^{power:g} coefficient of {family} leaves double range")
            terms.append(term)
        rem = self.remainder_power
        return replace(self, family=family, params=params, terms=tuple(terms),
                       max_power=self.max_power + shift,
                       remainder_power=None if rem is None else rem + shift)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "case_tag": self.case_tag,
            "params": dict(self.params),
            "terms": [t.to_dict() for t in self.terms],
            "max_power": self.max_power,
            "remainder_power": self.remainder_power,
        }


def evaluate(expansion: Expansion, beta: float) -> float:
    """Numeric value of an expansion at a given beta."""
    return expansion.evaluate(beta)


def double_pole_residue(res_p, fp_p, res_q, fp_q, r_val, r_deriv) -> float:
    """Residue of a double pole built from two colliding simple poles.

    With factors p(t) ~ res_p/(t-t0) + fp_p, q(t) ~ res_q/(t-t0) + fp_q and an
    analytic rest r(t), the residue of p*q*r at t0 is

        res_p*fp_q*r(t0) + res_q*fp_p*r(t0) + res_p*res_q*r'(t0).
    """
    return (res_p * fp_q + res_q * fp_p) * r_val + res_p * res_q * r_deriv


# ---------------------------------------------------------------------------
# Snapping helpers
# ---------------------------------------------------------------------------

def _snap_half(s: float) -> Optional[Fraction]:
    """Nearest half-integer as a Fraction, if s is within snapping distance."""
    m = round(2.0 * float(s))
    if abs(2.0 * float(s) - m) < _SNAP:
        return Fraction(m, 2)
    return None


def _as_nonpos_int(t: float) -> Optional[int]:
    """Return j >= 0 when t is within 1e-9 of -j."""
    r = round(t)
    if abs(t - r) < 1e-9 and r <= 0:
        return -int(r)
    return None


# ---------------------------------------------------------------------------
# Meromorphic factors of the integrand
# ---------------------------------------------------------------------------

class _Factor:
    """One meromorphic factor F(t) of the contour integrand."""

    def poles(self, t_min: float) -> list:
        """[(t0, residue, fp_callable)] for poles with t0 >= t_min."""
        return []

    def value(self, t) -> float:
        raise NotImplementedError

    def dvalue(self, t) -> float:
        raise NotImplementedError

    def exact_zero(self, t) -> bool:
        """True when value(t) is exactly zero; must never raise."""
        return False


class _GammaFactor(_Factor):
    """Gamma(t + shift); shift is 0 or the series order s."""

    def __init__(self, shift: float):
        self.shift = shift

    def poles(self, t_min: float) -> list:
        out = []
        j_max = int(math.floor(-self.shift - t_min + 1e-9))
        for j in range(0, min(j_max, _MAX_FACTORIAL + 1) + 1):
            t0 = -self.shift - j
            if j > _MAX_FACTORIAL:
                # The walk meets this pole before any later one, and refuses it.
                out.append((t0, None, None))
                break
            res = (-1.0) ** j / math.factorial(j)
            fp = res * (sf.harmonic(j) - sf.EULER_GAMMA)  # res * psi(j+1)
            out.append((t0, res, (lambda v=fp: v)))
        return out

    def value(self, t) -> float:
        return sf.gamma(t + self.shift)

    def dvalue(self, t) -> float:
        u = t + self.shift
        return sf.gamma(u) * sf.digamma(u)


class _RiemannZeta2tFactor(_Factor):
    """zeta(2t): pole at t=1/2 with residue 1/2 and finite part gamma."""

    def poles(self, t_min: float) -> list:
        if 0.5 >= t_min:
            return [(0.5, 0.5, (lambda: sf.EULER_GAMMA))]
        return []

    def value(self, t) -> float:
        return sf.riemann_zeta(2.0 * t)

    def dvalue(self, t) -> float:
        return 2.0 * sf.riemann_zeta_deriv(2.0 * t)

    def exact_zero(self, t) -> bool:
        j = _as_nonpos_int(t)
        return j is not None and j >= 1  # zeta(-2j) = 0


class _PolylogPairFactor(_Factor):
    """C(2t, x) = sum_m cos(2 pi m x) m^{-2t}; entire in t, zeros at -2t in 2N."""

    def __init__(self, x: float):
        self.x = x

    def value(self, t) -> float:
        return sf.polylog_pair(2.0 * t, self.x)

    def dvalue(self, t) -> float:
        return 2.0 * sf.polylog_pair_deriv(2.0 * t, self.x)

    def exact_zero(self, t) -> bool:
        j = _as_nonpos_int(t)
        return j is not None and j >= 1  # C(-2j, x) = 0


class _ModelZetaFactor(_Factor):
    """zeta_M(s + t) of a spectral model, with exact heat-kernel values at
    non-positive integer arguments: zeta_M(-j) = (-1)^j j! A_{D/2 + j}."""

    def __init__(self, model: ManifoldModel, s: float):
        self.model = model
        self.s = s

    def poles(self, t_min: float) -> list:
        out = []
        for u0 in map(float, self.model.zeta_poles()):
            t0 = u0 - self.s
            if t0 >= t_min:
                res = self.model.zeta_res(u0)
                out.append((t0, res, (lambda u=u0: self.model.zeta_fp(u))))
        return out

    def value(self, t) -> float:
        u = t + self.s
        j = _as_nonpos_int(u)
        if j is not None:
            return self.model.zeta_nonpos_int(j)
        return self.model.zeta(u)

    def dvalue(self, t) -> float:
        return self.model.zeta_deriv(t + self.s)

    def exact_zero(self, t) -> bool:
        j = _as_nonpos_int(t + self.s)
        if j is None:
            return False
        try:
            return self.model.zeta_nonpos_int(j) == 0.0
        except WindowError:
            return False


# ---------------------------------------------------------------------------
# Engine: enumerate poles once, group them, walk the groups
# ---------------------------------------------------------------------------

def _group_poles(factors, t_min: float) -> list:
    """Group the poles with t0 >= t_min by location, in ascending beta power.

    Returns [(loc, t0, [(fi, res, fp)...])], where loc is the group's
    location rounded to the _GRID lattice.
    """
    groups: dict = {}
    for fi, fac in enumerate(factors):
        for (t0, res, fp) in fac.poles(t_min):
            groups.setdefault(round(t0 / _GRID), []).append((t0, fi, res, fp))
    out = [
        (key * _GRID, plist[0][0], [(fi, res, fp) for (_, fi, res, fp) in plist])
        for key, plist in groups.items()
    ]
    out.sort(key=lambda g: -g[1])  # ascending beta-power
    return out


def _check_group(groups: list, i: int) -> None:
    """Refuse group i of the walk if a neighbouring group lies closer than
    _GUARD (its residue would blow up like 1/distance without cancelling
    exactly), if more than two poles coincide there, or if a residue there
    is past double precision."""
    loc, t0, plist = groups[i]
    for j in (i - 1, i + 1):
        if 0 <= j < len(groups) and 0.0 < abs(groups[j][0] - loc) < _GUARD:
            a, b = sorted((loc, groups[j][0]))
            raise PoleError(
                f"poles at t={a} and t={b} nearly collide; the order parameter "
                "is too close to a special value for the generic branch"
            )
    if len(plist) > 2:
        raise PoleError(f"unexpected pole of multiplicity {len(plist)} at t={t0}")
    if any(res is None for (_, res, _) in plist):
        raise DomainError(
            f"the residue at t={t0} needs 1/j! for j > {_MAX_FACTORIAL}, past double "
            "precision; s is too far below zero"
        )


def _residue_term(factors, norm: float, t0, plist):
    """Coefficients (const, log) of the residue at t0, or None if it vanishes."""
    others = [fac for fi, fac in enumerate(factors) if fi not in {p[0] for p in plist}]
    zero_idx = [i for i, fac in enumerate(others) if fac.exact_zero(t0)]
    if len(plist) == 1:
        if zero_idx:
            return None
        _, res, _ = plist[0]
        prod = norm * res
        for fac in others:
            prod *= fac.value(t0)
        return (prod, 0.0) if prod != 0.0 else None
    # double pole
    (fi_p, res_p, fp_p), (fi_q, res_q, fp_q) = plist
    if len(zero_idx) >= 2:
        return None
    if len(zero_idx) == 1:
        z = zero_idx[0]
        p_val = 0.0
        p_der = others[z].dvalue(t0)
        for i, fac in enumerate(others):
            if i != z:
                p_der *= fac.value(t0)
    else:
        vals = [fac.value(t0) for fac in others]
        p_val = math.prod(vals)
        p_der = 0.0
        for i, fac in enumerate(others):
            part = fac.dvalue(t0)
            for jv, v in enumerate(vals):
                if jv != i:
                    part *= v
            p_der += part
    const = norm * double_pole_residue(res_p, fp_p(), res_q, fp_q(), p_val, p_der)
    logc = norm * res_p * res_q * p_val * (-2.0)
    if const == 0.0 and logc == 0.0:
        return None
    return (const, logc)


def _residue_at_zero(factors) -> float:
    """Residue at t = 0 of the product of factors, by the walk's own rule.

    The poles the walk would group at t = 0 are taken together, a double
    pole by the double-pole rule. A residue with a log coefficient means
    the product has a genuine double pole at t = 0, and raises PoleError.
    """
    for group in _group_poles(factors, -_GRID):
        if group[0] != 0.0:
            continue
        _check_group([group], 0)  # alone: only its own poles can refuse it
        coeffs = _residue_term(factors, 1.0, *group[1:])
        if coeffs is None:
            return 0.0
        if coeffs[1] != 0.0:
            raise PoleError(f"the residue at t={group[1]} has a log term: the factors "
                            "have a double pole there, and their product is singular")
        return coeffs[0]
    return 0.0


def _assemble(factors, norm: float, order: float):
    """One walk over the pole groups: (terms up to beta^order, remainder_power).

    A term whose coefficient leaves double range raises DomainError. Past
    order, a residue that cannot be evaluated counts as nonzero.
    """
    groups = _group_poles(factors, -(order + _REACH) / 2.0)
    n_terms = sum(1 for (_, t0, _) in groups if -2.0 * t0 <= order + 1e-12)
    for i in range(n_terms):  # the walk reaches all of these: refuse before any residue
        _check_group(groups, i)
    terms = []
    for (_, t0, plist) in groups[:n_terms]:
        coeffs = _residue_term(factors, norm, t0, plist)
        if coeffs is None:
            continue
        if not all(map(math.isfinite, coeffs)):
            raise DomainError(
                f"the beta^{-2.0 * t0:g} coefficient leaves double range; "
                "s is too far below zero"
            )
        terms.append(ExpansionTerm(-2.0 * t0, *coeffs))
    for i in range(n_terms, len(groups)):
        _check_group(groups, i)
        _, t0, plist = groups[i]
        try:
            if _residue_term(factors, norm, t0, plist) is None:
                continue
        except (WindowError, DomainError):
            pass  # unknown or past double range, generically nonzero
        return tuple(terms), -2.0 * t0
    return tuple(terms), None


# ---------------------------------------------------------------------------
# Case dispatch
# ---------------------------------------------------------------------------

def dispatch_case(family: str, s: float, D_or_d: Optional[int] = None) -> str:
    """Name the expansion branch that applies to (family, s, dimension).

    The engine computes every branch from the same pole data; the tag records
    which collision pattern is in play (integer s collides the two Gamma
    ladders; for the lattice/model families the spectral-zeta pole can land on
    a Gamma ladder or on t=1/2 depending on the parity of the dimension).
    """
    if family not in ("h", "h0", "g", "f", "f0"):
        raise DomainError(f"unknown family {family!r}")
    sh = _snap_half(s)
    if family in ("g", "f", "f0"):
        if D_or_d is None:
            raise DomainError(f"family {family!r} needs its dimension for dispatch")
        even = int(D_or_d) % 2 == 0
        parity = "evenD" if even else "oddD"
    if sh is None:
        return "generic"
    is_int = sh.denominator == 1
    if family == "h":
        if is_int:
            return "pos_int" if sh >= 1 else "neg_int"
        return "generic"
    if family == "h0":
        if is_int:
            return "pos_int" if sh >= 1 else "neg_int"
        return "generic" if sh > 0 else "neg_half"
    if family == "g":
        if is_int:
            if sh >= 0:
                return f"pos_int_{parity}"
            return f"neg_int_{parity}"
        if sh > 0 and not even:
            return "pos_half_oddD"
        return "generic"
    # f and f0
    if is_int:
        return f"pos_int_{parity}" if sh >= 1 else "neg_int"
    if sh > 0:
        return f"pos_half_{parity}"
    return "neg_half"


# ---------------------------------------------------------------------------
# Family front ends
# ---------------------------------------------------------------------------

def _gamma_factors(s: float, model: Optional[ManifoldModel] = None) -> list:
    """Gamma(t) Gamma(t+s) [zeta_M(s+t)]: the factors every family starts from."""
    factors = [_GammaFactor(0.0), _GammaFactor(s)]
    if model is not None:
        factors.append(_ModelZetaFactor(model, s))
    return factors


def _expand(family: str, s: float, order: float, norm: float, params: dict,
            model: Optional[ManifoldModel] = None,
            last: Optional[_Factor] = None) -> Expansion:
    """The front end every family shares.

    The integrand is norm * Gamma(t) Gamma(t+s) [zeta_M(s+t)] [last(t)]
    * beta^{-2t}, with the model-zeta factor present when a model is given.
    """
    order = float(order)
    if not math.isfinite(order):
        raise DomainError(f"order must be finite, got {order}")
    if order > MAX_ORDER:
        raise DomainError(
            f"order must be at most {MAX_ORDER:g}, got {order:g}: past it the "
            "coefficients overflow double precision"
        )
    sh = _snap_half(s)
    tag = dispatch_case(family, s, None if model is None else model.D)
    factors = _gamma_factors(float(sh if sh is not None else s), model)
    if last is not None:
        factors.append(last)
    terms, remainder = _assemble(factors, norm, order)
    return Expansion(
        family=family,
        case_tag=tag,
        params=params,
        terms=terms,
        max_power=order,
        remainder_power=remainder,
    )


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"phase x must lie in (0, 1), got {x}")
    return x


def expand_h(s: float, x: float, order: float) -> Expansion:
    """Small-beta expansion of h(s, beta, x) up to beta^order."""
    x = _check_x(x)
    return _expand("h", s, order, 0.25, {"s": float(s), "x": x},
                   last=_PolylogPairFactor(x))


def expand_h0(s: float, order: float) -> Expansion:
    """Small-beta expansion of h0(s, beta) up to beta^order."""
    return _expand("h0", s, order, 0.5, {"s": float(s)}, last=_RiemannZeta2tFactor())


def expand_g(d: int, s: float, order: float) -> Expansion:
    """Small-beta expansion of the lattice series g(d; s, beta)."""
    if d != int(d) or int(d) < 1:
        raise DomainError(f"lattice dimension must be a positive integer, got {d}")
    d = int(d)
    return _expand("g", s, order, 0.5, {"d": d, "s": float(s)}, model=torus_model(d))


def expand_f(model: ManifoldModel, s: float, x: float, order: float) -> Expansion:
    """Small-beta expansion of f(model; s, beta, x)."""
    x = _check_x(x)
    params = {"s": float(s), "x": x, "model": model.name, "D": model.D}
    return _expand("f", s, order, 0.25, params, model=model, last=_PolylogPairFactor(x))


def expand_f0(model: ManifoldModel, s: float, order: float) -> Expansion:
    """Small-beta expansion of f0(model; s, beta) = f at phase x = 0."""
    params = {"s": float(s), "model": model.name, "D": model.D}
    return _expand("f0", s, order, 0.5, params, model=model, last=_RiemannZeta2tFactor())
