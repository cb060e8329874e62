"""Shared helpers for the test suite: instance tables, oracles, caching."""

import functools
import math

import numpy as np

from besselsum import asymptotics as asym
from besselsum import direct_eval as de
from besselsum import manifolds as mf
from besselsum.errors import DomainError

# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def term_at(expansion, power: float):
    for t in expansion.terms:
        if abs(t.power - power) < 1e-9:
            return t
    return asym.ExpansionTerm(power, 0.0, 0.0)


def count_k(monkeypatch):
    """Record the points of every specfun.bessel_k_many call the direct sums
    make: len() of the list returned is the number of calls, sum() the points."""
    points = []
    bessel_k_many = de.sf.bessel_k_many
    monkeypatch.setattr(de.sf, "bessel_k_many",
                        lambda nu, x: points.append(np.size(x)) or bessel_k_many(nu, x))
    return points


# ---------------------------------------------------------------------------
# Models (shared instances; all are immutable)
# ---------------------------------------------------------------------------

CIRCLE = mf.circle_model()
TORUS2 = mf.torus_model(2)

_MODELS = {"circle": CIRCLE, "torus2": TORUS2}


def get_model(key):
    return _MODELS[key] if key is not None else None


# ---------------------------------------------------------------------------
# Family-generic evaluation plumbing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def direct_value(family, model_key, d, s, beta, x):
    """Direct sum for one series instance (tight tolerance), cached."""
    if family == "h":
        return de.sum_h(de.SeriesParams(s, beta, x), tol=1e-15).value
    if family == "h0":
        return de.sum_h0(s, beta, tol=1e-15).value
    if family == "g":
        return de.sum_g(d, s, beta, tol=1e-15).value
    if family == "f":
        return de.sum_f(get_model(model_key), s, beta, x, tol=1e-15).value
    if family == "f0":
        return de.sum_f(get_model(model_key), s, beta, 0.0, tol=1e-15).value
    raise ValueError(family)


@functools.lru_cache(maxsize=None)
def expansion_for(family, model_key, d, s, x, order):
    if family == "h":
        return asym.expand_h(s, x, order)
    if family == "h0":
        return asym.expand_h0(s, order)
    if family == "g":
        return asym.expand_g(d, s, order)
    if family == "f":
        return asym.expand_f(get_model(model_key), s, x, order)
    if family == "f0":
        return asym.expand_f0(get_model(model_key), s, order)
    raise ValueError(family)


def richardson_eps_limit(family, model_key, d, s0, x, order, beta,
                         eps_pair=(1e-3, 5e-4)):
    """Richardson-extrapolated generic-branch value at a special order s0.

    Averages the expansion value at s0 +/- eps (killing the odd Laurent part)
    and extrapolates the remaining O(eps^2) error to zero.  The perturbed
    expansions use a slightly enlarged truncation order: term powers shift by
    up to 2*eps with s, and a term sitting exactly on the order boundary would
    otherwise be kept on one side of s0 but dropped on the other, biasing the
    average by half that term.
    """
    guard = 4.0 * max(eps_pair)
    out = []
    for eps in eps_pair:
        plus = expansion_for(family, model_key, d, s0 + eps, x,
                             order + guard).evaluate(beta)
        minus = expansion_for(family, model_key, d, s0 - eps, x,
                              order + guard).evaluate(beta)
        out.append(0.5 * (plus + minus))
    return (4.0 * out[1] - out[0]) / 3.0


# ---------------------------------------------------------------------------
# Branch instance table
#
# One row per implemented expansion branch x representative model/dimension:
# (family, model_key, d, s, x, order).  Covers every case tag the dispatcher
# can produce, for circle and torus(2) models and lattice dimensions 1..3.
# ---------------------------------------------------------------------------

INSTANCES = [
    # family h (phase x = 0.3)
    ("h", None, None, 1.0 / 3.0, 0.3, 4.0),   # generic
    ("h", None, None, 2.0, 0.3, 6.0),          # pos_int
    ("h", None, None, 0.0, 0.3, 4.0),          # neg_int (boundary)
    ("h", None, None, -1.0, 0.3, 4.0),         # neg_int
    # family h0
    ("h0", None, None, 1.0 / 3.0, None, 4.0),  # generic
    ("h0", None, None, 2.0, None, 6.0),        # pos_int
    ("h0", None, None, 0.0, None, 4.0),        # neg_int (boundary)
    ("h0", None, None, -1.0, None, 4.0),       # neg_int
    ("h0", None, None, -0.5, None, 4.0),       # neg_half
    # family g, d in {1,2,3}
    ("g", None, 1, -1.5, None, 4.0),           # generic (odd d, neg half)
    ("g", None, 2, 0.7, None, 4.0),            # generic (even d)
    ("g", None, 2, 1.5, None, 5.0),            # generic (even d, pos half)
    ("g", None, 1, 2.0, None, 6.0),            # pos_int_oddD
    ("g", None, 3, 2.0, None, 6.0),            # pos_int_oddD
    ("g", None, 3, 0.0, None, 4.0),            # pos_int_oddD (s = 0)
    ("g", None, 2, 2.0, None, 6.0),            # pos_int_evenD
    ("g", None, 2, 0.0, None, 4.0),            # pos_int_evenD (s = 0)
    # s=-1 has leading powers beta^{-4}, beta^{-5}: the direct sum's absolute
    # noise on those large values swamps a high-order remainder, so cut early
    # enough (remainder beta^2) for the truncation error to stay measurable.
    ("g", None, 3, -1.0, None, 0.0),           # neg_int_oddD
    ("g", None, 2, -1.0, None, 0.0),           # neg_int_evenD
    ("g", None, 3, 0.5, None, 4.0),            # pos_half_oddD
    ("g", None, 1, 0.5, None, 4.0),            # pos_half_oddD (d = 1)
    # family f (phase x), circle (odd D) and torus(2) (even D).
    # These expansions terminate exactly (trivial zeta zeros empty both Gamma
    # ladders), so each order is cut between the last two terms to leave a
    # measurable power-law remainder.
    ("f", "circle", None, 1.0 / 3.0, 0.3, 1.0 / 3.0),  # generic
    ("f", "circle", None, 2.0, 0.3, 3.5),          # pos_int_oddD
    ("f", "circle", None, -1.0, 0.3, -1.0),        # neg_int
    ("f", "circle", None, 1.5, 0.3, 2.5),          # pos_half_oddD
    ("f", "circle", None, -0.5, 0.3, -0.5),        # neg_half
    ("f", "torus2", None, 0.4, 0.3, 0.4),          # generic
    ("f", "torus2", None, 2.0, 0.3, 3.0),          # pos_int_evenD
    ("f", "torus2", None, 1.0, 0.3, 1.0),          # pos_int_evenD (s = D/2)
    ("f", "torus2", None, 0.5, 0.3, 0.5),          # pos_half_evenD
    ("f", "torus2", None, -1.0, 0.3, -1.0),        # neg_int
    ("f", "torus2", None, -0.5, 0.3, -0.5),        # neg_half
    # family f0 (same cut-inside-the-polynomial orders)
    ("f0", "circle", None, 1.0 / 3.0, None, 1.0 / 3.0),  # generic
    ("f0", "circle", None, 2.0, None, 3.5),        # pos_int_oddD
    ("f0", "circle", None, -1.0, None, -0.5),      # neg_int
    ("f0", "circle", None, 0.5, None, 0.5),        # pos_half_oddD
    ("f0", "circle", None, -0.5, None, -0.5),      # neg_half
    ("f0", "torus2", None, 0.4, None, 0.4),        # generic
    ("f0", "torus2", None, 2.0, None, 3.0),        # pos_int_evenD
    ("f0", "torus2", None, 1.0, None, 1.0),        # pos_int_evenD (s = D/2)
    ("f0", "torus2", None, 0.5, None, 0.5),        # pos_half_evenD
    ("f0", "torus2", None, -1.0, None, -0.5),      # neg_int
    ("f0", "torus2", None, -0.5, None, -0.5),      # neg_half
]


def instance_id(row) -> str:
    family, model_key, d, s, x, order = row
    bits = [family]
    if model_key:
        bits.append(model_key)
    if d is not None:
        bits.append(f"d{d}")
    bits.append(f"s={s:g}")
    if x is not None:
        bits.append(f"x={x:g}")
    return "-".join(bits)


def instance_tag(row) -> str:
    family, model_key, d, s, x, order = row
    if family in ("g",):
        dim = d
    elif family in ("f", "f0"):
        dim = get_model(model_key).D
    else:
        dim = None
    return asym.dispatch_case(family, s, dim)


def special_instances():
    """Rows whose branch is not the generic one (for the eps-limit check)."""
    return [row for row in INSTANCES if instance_tag(row) != "generic"]


# ---------------------------------------------------------------------------
# Gaussian (theta) resummation identity
# ---------------------------------------------------------------------------


def poisson_check(t: float, beta: float, B: float = 0.0):
    """Both sides of the Gaussian resummation identity.

    lhs = sum_{m in Z} exp(-t pi^2 (m+B)^2 / beta^2)
    rhs = beta/sqrt(pi t) * sum_{k in Z} exp(-k^2 beta^2 / t) cos(2 pi k B)

    Returns (lhs, rhs); both are summed to machine precision so the caller can
    assert their agreement.
    """
    t = float(t)
    beta = float(beta)
    B = float(B)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if not (0.0 <= B < 1.0):
        raise DomainError(f"B must lie in [0, 1), got {B}")

    a = t * math.pi ** 2 / beta ** 2
    m_max = int(math.sqrt(745.0 / a)) + 2
    lhs = math.fsum(
        math.exp(-a * (m + B) ** 2) for m in range(-m_max, m_max + 1)
    )

    b = beta ** 2 / t
    k_max = int(math.sqrt(745.0 / b)) + 2
    fac = beta / math.sqrt(math.pi * t)
    rhs = fac * (
        1.0
        + 2.0
        * math.fsum(
            math.exp(-b * k * k) * math.cos(2.0 * math.pi * k * B)
            for k in range(1, k_max + 1)
        )
    )
    return lhs, rhs
