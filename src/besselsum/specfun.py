"""Scalar special functions used throughout the package.

Everything here is real-analytic plumbing: gamma-family wrappers with explicit
pole checks, Bernoulli machinery, the modified Bessel K (scipy's AMOS kv), a
Hurwitz/Riemann zeta pair built on Euler-Maclaurin summation (with analytic
s-derivatives), the symmetric polylogarithm pair Li_nu(e^{2*pi*i*x}) +
Li_nu(e^{-2*pi*i*x}) continued to all real orders, and the Epstein zeta
function of the integer lattice in d dimensions via its completed
(incomplete-gamma) representation.

Accuracy targets are double precision: each function is tested against
independent high-precision oracles to ~1e-12 relative or better in its
supported range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.special as _sp
from scipy.integrate import quad as _quad

from .errors import DomainError, PoleError

__all__ = [
    "EULER_GAMMA",
    "PolePoint",
    "gamma",
    "gamma_complex",
    "digamma",
    "harmonic",
    "bernoulli_number",
    "bernoulli_poly",
    "bessel_k",
    "bessel_k_many",
    "hurwitz_zeta",
    "hurwitz_zeta_deriv",
    "riemann_zeta",
    "riemann_zeta_deriv",
    "polylog_pair",
    "polylog_pair_deriv",
    "lattice_shell_counts",
    "EpsteinContext",
    "epstein_zeta",
    "epstein_res_fp",
    "epstein_zeta_deriv",
]

EULER_GAMMA = float(np.euler_gamma)

# Stieltjes constant gamma_1 (zeta(1+d) = 1/d + gamma - gamma_1*d + ...),
# used only in the near-order-1 series of the half-period polylog derivative.
_STIELTJES_1 = -0.0728158454836767248605863758749013191377

_INT_SNAP = 1e-12


def _near_int(x: float, tol: float = _INT_SNAP):
    """Return the nearest integer if x is within tol of it, else None."""
    n = round(x)
    if abs(x - n) < tol:
        return int(n)
    return None


@dataclass(frozen=True)
class PolePoint:
    """A simple pole: location, residue, and finite part of the Laurent series."""

    location: float
    residue: float
    finite_part: float


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function on the real line; raises PoleError at 0, -1, -2, ..."""
    x = float(x)
    n = _near_int(x)
    if n is not None and n <= 0:
        raise PoleError(f"gamma pole at x={x}")
    return float(_sp.gamma(x))


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument (relative error <= ~1e-10 for |Im z| <= 200)."""
    z = complex(z)
    if z.imag == 0.0:
        n = _near_int(z.real)
        if n is not None and n <= 0:
            raise PoleError(f"gamma pole at z={z}")
        return complex(_sp.gamma(z.real))
    return complex(_sp.gamma(z))


def digamma(x: float) -> float:
    """Digamma psi(x); raises PoleError at 0, -1, -2, ..."""
    x = float(x)
    n = _near_int(x)
    if n is not None and n <= 0:
        raise PoleError(f"digamma pole at x={x}")
    return float(_sp.digamma(x))


def harmonic(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, H_0 = 0."""
    if n < 0 or n != int(n):
        raise DomainError(f"harmonic index must be a nonnegative integer, got {n}")
    return math.fsum(1.0 / k for k in range(1, int(n) + 1))


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials (exact rationals)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n as Fractions (B_1 = -1/2 convention)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return tuple(out)


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    return _bernoulli_numbers(n)[n]


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x), exact rational coefficients, float result."""
    if n < 0 or n != int(n):
        raise DomainError(f"Bernoulli order must be a nonnegative integer, got {n}")
    n = int(n)
    bern = _bernoulli_numbers(n)
    # B_n(x) = sum_k C(n,k) B_{n-k} x^k; Horner in x with exact coefficients.
    coeffs = [Fraction(math.comb(n, k)) * bern[n - k] for k in range(n, -1, -1)]
    acc = 0.0
    for c in coeffs:
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def bessel_k_many(nu: float, xs) -> np.ndarray:
    """Modified Bessel K_nu(x) over an array of arguments x > 0, any shape.

    Wraps ``scipy.special.kv`` (the AMOS routines, Amos, ACM TOMS 644, 1986),
    accurate to a few ulp over the whole range; K_nu is even in nu. Values
    below the smallest double underflow to 0, and K_nu(x) for large nu at
    small x overflows to inf: callers check finiteness.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0.0):
        raise DomainError("bessel_k requires finite x > 0")
    return _sp.kv(abs(float(nu)), xs)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel K_nu(x) at one finite x > 0 (see bessel_k_many)."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"bessel_k requires finite x > 0, got {x}")
    return float(_sp.kv(abs(float(nu)), float(x)))


# ---------------------------------------------------------------------------
# Hurwitz zeta (Euler-Maclaurin), real or complex s, with s-derivative
# ---------------------------------------------------------------------------

_EM_M = 14  # number of Bernoulli correction pairs


def _hurwitz_em(s, a: float, want_deriv: bool = False, pole_subtracted: bool = False):
    """Euler-Maclaurin evaluation of zeta(s, a) for a > 0, s != 1.

    Works for real or complex s. Returns the value, or (value, d/ds value)
    when want_deriv is set. With pole_subtracted, returns
    zeta(s,a) - 1/(s-1) (and d/ds of that), which stays regular through s = 1.
    """
    is_complex = isinstance(s, complex)
    im = abs(s.imag) if is_complex else 0.0
    mag = abs(s)
    N = max(16, int(1.3 * im) + 10, int(mag) + 8)

    ks = np.arange(N) + a
    lks = np.log(ks)
    if is_complex:
        pows = np.exp(-s * lks)
    else:
        pows = np.exp(-float(s) * lks)
    head = pows.sum()
    dhead = -(lks * pows).sum() if want_deriv else 0.0

    w = N + a
    lw = math.log(w)
    if is_complex:
        winv = cmath.exp(-s * lw)        # w^-s
        w1 = cmath.exp((1 - s) * lw)     # w^{1-s}
    else:
        winv = math.exp(-float(s) * lw)
        w1 = math.exp((1 - float(s)) * lw)

    sm1 = s - 1
    if pole_subtracted:
        # (w^{1-s} - 1)/(s-1) and its s-derivative, both regular at s = 1.
        delta_l = sm1 * lw  # (s-1) ln w
        if abs(delta_l) < 0.05:
            # series in d = s-1: value = sum_{k>=1} (-lw)^k d^{k-1}/k!
            val_reg = 0.0
            der_reg = 0.0
            term = 1.0
            for k in range(1, 12):
                term = term * (-lw) / k  # (-lw)^k / k!
                val_reg += term * sm1 ** (k - 1)
                if k >= 2:
                    der_reg += term * (k - 1) * sm1 ** (k - 2)
        else:
            val_reg = (w1 - 1.0) / sm1
            der_reg = (-lw * w1 * sm1 - (w1 - 1.0)) / (sm1 * sm1)
        tail = val_reg + 0.5 * winv
        dtail = (der_reg - 0.5 * lw * winv) if want_deriv else 0.0
    else:
        tail = w1 / sm1 + 0.5 * winv
        dtail = (-lw * w1 / sm1 - w1 / (sm1 * sm1) - 0.5 * lw * winv) if want_deriv else 0.0

    # Bernoulli corrections: sum_j B_{2j}/(2j)! * (s)_{2j-1} * w^{-s-2j+1}
    bern = _bernoulli_numbers(2 * _EM_M)
    r = 1.0 + 0j if is_complex else 1.0   # rising factorial (s)_{2j-1}
    dr = 0.0
    i = 0  # number of factors accumulated in r
    corr = 0.0
    dcorr = 0.0
    wpow = winv / w  # w^{-s-1}
    for j in range(1, _EM_M + 1):
        while i < 2 * j - 1:
            if want_deriv:
                dr = dr * (s + i) + r
            r = r * (s + i)
            i += 1
        c = float(bern[2 * j]) / math.factorial(2 * j)
        corr += c * r * wpow
        if want_deriv:
            dcorr += c * (dr * wpow + r * (-lw) * wpow)
        wpow = wpow / (w * w)

    val = head + tail + corr
    if want_deriv:
        return val, dhead + dtail + dcorr
    return val


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta zeta(s, a) = sum_{k>=0} (k+a)^-s, continued in s.

    Requires a > 0; raises PoleError at s = 1. For s <= -1/2 the
    Euler-Maclaurin form loses digits to cancellation, so the reflection
    formula in terms of the cosine/sine polylogarithm pairs is used instead
    (a <= 1 there; larger a is reduced by the forward recurrence).
    """
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("hurwitz_zeta pole at s=1")
    s = float(s)
    a = float(a)
    if s > -0.5:
        return float(_hurwitz_em(s, a))
    shift = 0.0
    while a > 1.0:  # zeta(s, a) = zeta(s, a-1) - (a-1)^-s
        a -= 1.0
        shift -= a ** (-s)
    return shift + _hurwitz_reflect(s, a)


def _hurwitz_reflect(s: float, a: float, want_deriv: bool = False):
    """zeta(s, a) for s <= -1/2, 0 < a <= 1, via the reflection formula.

    zeta(1-nu, a) = Gamma(nu) (2 pi)^-nu [cos(pi nu/2) C(nu,a) + sin(pi nu/2) S(nu,a)]
    where C and S are the cosine and sine pair sums of order nu = 1 - s > 3/2.
    """
    if a == 1.0:
        if want_deriv:
            return riemann_zeta(s), riemann_zeta_deriv(s)
        return riemann_zeta(s)
    if a == 0.5:
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        t = 2.0 ** s
        z = riemann_zeta(s)
        if want_deriv:
            return (t - 1.0) * z, math.log(2.0) * t * z + (t - 1.0) * riemann_zeta_deriv(s)
        return (t - 1.0) * z
    nu = 1.0 - s
    F = float(_sp.gamma(nu)) * (2.0 * math.pi) ** (-nu)
    c_half = _cospi(nu / 2.0)
    s_half = _sinpi(nu / 2.0)
    C = polylog_pair(nu, a)
    S = _pp_mellin(_pp_q_sin, nu, a)
    G = c_half * C + s_half * S
    if not want_deriv:
        return F * G
    dF = F * (float(_sp.digamma(nu)) - math.log(2.0 * math.pi))
    dS = _pp_mellin(_pp_q_sin, nu, a, log_weight=True) - float(_sp.digamma(nu)) * S
    dG = (
        -(math.pi / 2.0) * s_half * C
        + c_half * polylog_pair_deriv(nu, a)
        + (math.pi / 2.0) * c_half * S
        + s_half * dS
    )
    # d/ds = -d/dnu
    return F * G, -(dF * G + F * dG)


def hurwitz_zeta_deriv(s: float, a: float) -> float:
    """d/ds zeta(s, a) under the same domain rules as hurwitz_zeta."""
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("hurwitz_zeta pole at s=1")
    s = float(s)
    a = float(a)
    if s > -0.5:
        _, d = _hurwitz_em(s, a, want_deriv=True)
        return float(d)
    shift = 0.0
    while a > 1.0:  # d/ds of -(a-1)^-s is ln(a-1) (a-1)^-s
        a -= 1.0
        shift += math.log(a) * a ** (-s)
    _, d = _hurwitz_reflect(s, a, want_deriv=True)
    return shift + d


# ---------------------------------------------------------------------------
# Riemann zeta with exact trivial zeros and analytic derivative
# ---------------------------------------------------------------------------

def _sinpi(x: float) -> float:
    m = math.floor(x)
    r = x - m
    s = math.sin(math.pi * r)
    return -s if (m % 2) else s


def _cospi(x: float) -> float:
    m = math.floor(x)
    r = x - m
    c = math.cos(math.pi * r)
    return -c if (m % 2) else c


def _chi(s: float) -> float:
    """Reflection factor: zeta(s) = chi(s) * zeta(1-s)."""
    return (2.0 ** s) * math.pi ** (s - 1.0) * _sinpi(s / 2.0) * float(_sp.gamma(1.0 - s))


def _chi_deriv(s: float) -> float:
    g = float(_sp.gamma(1.0 - s))
    ln2pi = math.log(2.0 * math.pi)
    psi = float(_sp.digamma(1.0 - s))
    return (2.0 ** s) * math.pi ** (s - 1.0) * g * (
        (ln2pi - psi) * _sinpi(s / 2.0) + (math.pi / 2.0) * _cospi(s / 2.0)
    )


@lru_cache(maxsize=8192)
def riemann_zeta(s: float) -> float:
    """Riemann zeta on the real line (PoleError at s=1; exact 0 at -2, -4, ...)."""
    s = float(s)
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("riemann_zeta pole at s=1")
    if s <= -0.5:
        n = _near_int(s)
        if n is not None and n <= -2 and n % 2 == 0:
            return 0.0
        return _chi(s) * riemann_zeta(1.0 - s)
    return float(_hurwitz_em(s, 1.0))


@lru_cache(maxsize=8192)
def riemann_zeta_deriv(s: float) -> float:
    """d/ds zeta(s) on the real line (PoleError at s=1)."""
    s = float(s)
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("riemann_zeta pole at s=1")
    if s <= -0.5:
        n = _near_int(s)
        if n is not None and n <= -2 and n % 2 == 0:
            # chi vanishes exactly; only chi' survives.
            return _chi_deriv(s) * riemann_zeta(1.0 - s)
        return _chi_deriv(s) * riemann_zeta(1.0 - s) - _chi(s) * riemann_zeta_deriv(1.0 - s)
    _, d = _hurwitz_em(s, 1.0, want_deriv=True)
    return float(d)


def _riemann_zeta_complex(z: complex) -> complex:
    """zeta(z) for complex z with Re z > 1/2 (used on vertical contours)."""
    return complex(_hurwitz_em(complex(z), 1.0))


# ---------------------------------------------------------------------------
# Symmetric polylogarithm pair C(nu, x) = Li_nu(e^{2 pi i x}) + Li_nu(e^{-2 pi i x})
# ---------------------------------------------------------------------------

def _pp_q(t: np.ndarray | float, x: float):
    """Kernel q(t,x) = sum_{m>=1} cos(2 pi m x) e^{-m t}, in closed form."""
    c = math.cos(2.0 * math.pi * x)
    e = np.exp(-t)
    return (c * e - e * e) / (1.0 - 2.0 * c * e + e * e)


def _pp_q_sin(t: np.ndarray | float, x: float):
    """Kernel sum_{m>=1} sin(2 pi m x) e^{-m t}, in closed form."""
    c = math.cos(2.0 * math.pi * x)
    sn = math.sin(2.0 * math.pi * x)
    e = np.exp(-t)
    return sn * e / (1.0 - 2.0 * c * e + e * e)


def _pp_mellin(kernel, nu: float, x: float, log_weight: bool = False) -> float:
    """(2/Gamma(nu)) int_0^inf t^{nu-1} [ln t] kernel(t, x) dt, for nu > 1/2.

    The integral route of the cosine pair C(nu, x) (kernel _pp_q) and of the
    sine pair S(nu, x) (kernel _pp_q_sin); with log_weight the integrand
    carries ln t, which gives their nu-derivatives up to a digamma term. The
    range is split at t=1, with the substitution tau = t^nu on [0,1] to
    absorb the t^{nu-1} weight (t^{nu-1} ln t dt -> ln(tau) dtau / nu^2).
    """
    inv_nu = 1.0 / nu

    def low(tau):
        w = math.log(tau) if log_weight else 1.0
        return w * kernel(tau ** inv_nu, x)

    def high(t):
        w = math.log(t) if log_weight else 1.0
        return t ** (nu - 1.0) * w * kernel(t, x)

    i1, _ = _quad(low, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    i2, _ = _quad(high, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    scale = inv_nu * inv_nu if log_weight else inv_nu
    return 2.0 / float(_sp.gamma(nu)) * (scale * i1 + i2)


def _pp_hurwitz(nu: float, x: float) -> float:
    """Reflection route, accurate for nu <= 1/2."""
    pref = (2.0 * math.pi) ** nu * float(_sp.gamma(1.0 - nu)) * _sinpi(nu / 2.0) / math.pi
    ssum = float(_hurwitz_em(1.0 - nu, x)) + float(_hurwitz_em(1.0 - nu, 1.0 - x))
    return pref * ssum


def _cot_reg(z: float) -> float:
    """pi*cot(pi z) - 1/z, regular at z = 0 (series for small z)."""
    if abs(z) < 0.02:
        z2 = z * z
        return -z * (math.pi ** 2 / 3.0 + z2 * (math.pi ** 4 / 45.0 + z2 * (2.0 * math.pi ** 6 / 945.0)))
    return math.pi * _cospi(z) / _sinpi(z) - 1.0 / z


def _pp_small_nu(nu: float, x: float, want_deriv: bool = False):
    """C(nu, x) (and d/dnu) near nu = 0 via the regular split.

    Writing  C = P(nu)*Ssum  with  P = (2pi)^nu Gamma(1-nu) sin(pi nu/2)/pi
    and  Ssum = zeta(1-nu,x) + zeta(1-nu,1-x): both factors are singular or
    vanishing at nu = 0, so split  P = nu*Q  and  Ssum = -2/nu + T  with
    Q, T regular; then  C = -2Q + nu*Q*T  is cancellation-free.
    """
    s = 1.0 - nu
    # T = sum over a in {x, 1-x} of [zeta(s,a) - 1/(s-1)], noting 1/(s-1) = -1/nu.
    za, da = _hurwitz_em(s, x, want_deriv=True, pole_subtracted=True)
    zb, db = _hurwitz_em(s, 1.0 - x, want_deriv=True, pole_subtracted=True)
    T = float(za + zb)
    dT = float(da + db)  # d/ds; d/dnu = -d/ds
    # Q = (2pi)^nu Gamma(1-nu) sinc-style factor /2: Q(0) = 1/2.
    half = nu / 2.0
    if abs(half) < 1e-300:
        sinc = 1.0
    else:
        sinc = _sinpi(half) / (math.pi * half)
    Q = (2.0 * math.pi) ** nu * float(_sp.gamma(1.0 - nu)) * sinc / 2.0
    val = -2.0 * Q + nu * Q * T
    if not want_deriv:
        return val
    dlnQ = math.log(2.0 * math.pi) - float(_sp.digamma(1.0 - nu)) + 0.5 * _cot_reg(half)
    dQ = Q * dlnQ
    # d/dnu [ -2Q + nu Q T ] with dT/dnu = -dT/ds
    dval = -2.0 * dQ + Q * T + nu * dQ * T + nu * Q * (-dT)
    return val, dval


def _pp_half_value(nu: float) -> float:
    """C(nu, 1/2) = 2 (2^{1-nu} - 1) zeta(nu), with the finite nu -> 1 limit."""
    if abs(nu - 1.0) < _INT_SNAP:
        return -2.0 * math.log(2.0)
    return 2.0 * math.expm1((1.0 - nu) * math.log(2.0)) * riemann_zeta(nu)


def _pp_half_deriv(nu: float) -> float:
    ln2 = math.log(2.0)
    if abs(nu - 1.0) < 1e-5:
        # Series around nu = 1 (the direct formula cancels catastrophically).
        d = nu - 1.0
        c0 = ln2 * ln2 - 2.0 * EULER_GAMMA * ln2
        c1 = 2.0 * (2.0 * _STIELTJES_1 * ln2 + EULER_GAMMA * ln2 * ln2 - ln2 ** 3 / 3.0)
        return c0 + c1 * d
    t = math.exp((1.0 - nu) * ln2)  # 2^{1-nu}
    return 2.0 * (-ln2 * t * riemann_zeta(nu) + math.expm1((1.0 - nu) * ln2) * riemann_zeta_deriv(nu))


_pp_cache: dict = {}


def polylog_pair(nu: float, x: float) -> float:
    """C(nu, x) = Li_nu(e^{2 pi i x}) + Li_nu(e^{-2 pi i x}) for real nu, x in (0,1).

    Continued to all real orders. Exact branches: C(0,x) = -1; C at negative
    even integer order is exactly 0; x = 1/2 reduces to the alternating zeta
    form 2(2^{1-nu}-1) zeta(nu); positive even integer order reduces to a
    Bernoulli polynomial; order 1 is -2 ln(2 sin(pi x)).
    """
    nu = float(nu)
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"polylog_pair requires x in (0,1), got x={x}")
    key = (nu, x)
    hit = _pp_cache.get(key)
    if hit is not None:
        return hit
    val = _polylog_pair_impl(nu, x)
    if len(_pp_cache) > 65536:
        _pp_cache.clear()
    _pp_cache[key] = val
    return val


def _polylog_pair_impl(nu: float, x: float) -> float:
    if abs(x - 0.5) < 1e-15:
        return _pp_half_value(nu)
    n = _near_int(nu)
    if n is not None:
        if n == 0:
            return -1.0
        if n < 0 and n % 2 == 0:
            return 0.0
        if n == 1:
            return -2.0 * math.log(2.0 * math.sin(math.pi * x))
        if n >= 2 and n % 2 == 0:
            k = n // 2
            sign = -1.0 if (k % 2 == 0) else 1.0  # (-1)^{k+1}
            return sign * (2.0 * math.pi) ** n * bernoulli_poly(n, x) / math.factorial(n)
    if abs(nu) < 0.02:
        return _pp_small_nu(nu, x)
    if nu <= 0.5:
        return _pp_hurwitz(nu, x)
    return _pp_mellin(_pp_q, nu, x)


def _pp_hurwitz_deriv(nu: float, x: float) -> float:
    """d/dnu of the reflection route (valid nu <= 1/2, nu away from 0)."""
    pref = (2.0 * math.pi) ** nu * float(_sp.gamma(1.0 - nu)) * _sinpi(nu / 2.0) / math.pi
    s = 1.0 - nu
    za, da = _hurwitz_em(s, x, want_deriv=True)
    zb, db = _hurwitz_em(s, 1.0 - x, want_deriv=True)
    ssum = float(za + zb)
    dsum = -float(da + db)  # chain rule: d s / d nu = -1
    dpref = pref * (
        math.log(2.0 * math.pi)
        - float(_sp.digamma(1.0 - nu))
        + (math.pi / 2.0) * (_cospi(nu / 2.0) / _sinpi(nu / 2.0))
    )
    return dpref * ssum + pref * dsum


def polylog_pair_deriv(nu: float, x: float) -> float:
    """d/dnu C(nu, x), same domain as polylog_pair."""
    nu = float(nu)
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"polylog_pair requires x in (0,1), got x={x}")
    if abs(x - 0.5) < 1e-15:
        return _pp_half_deriv(nu)
    n = _near_int(nu)
    if n is not None and n == 0:
        # C'(0,x) = -(psi(x)+psi(1-x))/2 - ln(2 pi) - gamma
        return -(0.5 * (float(_sp.digamma(x)) + float(_sp.digamma(1.0 - x)))
                 + math.log(2.0 * math.pi) + EULER_GAMMA)
    if n is not None and n < 0 and n % 2 == 0:
        # C'(-2m, x) = (-1)^m (2m)! / (2 (2 pi)^{2m}) * [zeta(2m+1,x)+zeta(2m+1,1-x)]
        m = -n // 2
        return ((-1.0) ** m) * math.factorial(2 * m) / (2.0 * (2.0 * math.pi) ** (2 * m)) * (
            hurwitz_zeta(2 * m + 1.0, x) + hurwitz_zeta(2 * m + 1.0, 1.0 - x)
        )
    if abs(nu) < 0.02:
        # The reflection route's cot(pi nu/2) blows up; use the regular split.
        _, d = _pp_small_nu(nu, x, want_deriv=True)
        return d
    if nu <= 0.5:
        return _pp_hurwitz_deriv(nu, x)
    glog = _pp_mellin(_pp_q, nu, x, log_weight=True)
    return glog - float(_sp.digamma(nu)) * polylog_pair(nu, x)


def _polylog_pair_complex(nu: complex, x: float) -> complex:
    """C(nu, x) for complex order, via the reflection formula (contour use)."""
    pref = (
        cmath.exp(nu * math.log(2.0 * math.pi))
        * gamma_complex(1.0 - nu)
        * cmath.sin(math.pi * nu / 2.0)
        / math.pi
    )
    ssum = _hurwitz_em(1.0 - nu, x) + _hurwitz_em(1.0 - nu, 1.0 - x)
    return pref * ssum


# ---------------------------------------------------------------------------
# Lattice shell counts r_d(k) = #{n in Z^d : |n|^2 = k}
# ---------------------------------------------------------------------------

_shell_cache: dict = {}


def lattice_shell_counts(d: int, kmax: int) -> np.ndarray:
    """Array r of length kmax+1 with r[k] = #{n in Z^d : |n|^2 = k}."""
    if d < 1 or d != int(d):
        raise DomainError(f"lattice dimension must be a positive integer, got {d}")
    d = int(d)
    kmax = int(kmax)
    cached = _shell_cache.get(d)
    if cached is not None and len(cached) > kmax:
        return cached[: kmax + 1]
    size = max(kmax + 1, 64)
    base = np.zeros(size, dtype=float)
    base[0] = 1.0
    j = 1
    while j * j < size:
        base[j * j] = 2.0
        j += 1
    acc = base.copy()
    squares = [0] + [j * j for j in range(1, int(math.isqrt(size - 1)) + 1)]
    for _ in range(d - 1):
        nxt = np.zeros(size, dtype=float)
        for sq in squares:
            w = 1.0 if sq == 0 else 2.0
            nxt[sq:] += w * acc[: size - sq]
        acc = nxt
    _shell_cache[d] = acc
    return acc[: kmax + 1]


# ---------------------------------------------------------------------------
# Upper incomplete gamma for x >= ~1 (continued fraction + recurrence)
# ---------------------------------------------------------------------------

def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for x >= 1 and any real a (CF for a <= 1, recurrence above)."""
    if a > 1.0:
        # Gamma(a, x) = (a-1) Gamma(a-1, x) + x^{a-1} e^{-x}, iterated down to a <= 1
        n = int(math.ceil(a - 1.0))
        a0 = a - n
        val = _upper_gamma_cf(a0, x)
        for i in range(n):
            ai = a0 + i
            val = ai * val + x ** ai * math.exp(-x)
        return val
    return _upper_gamma_cf(a, x)


def _upper_gamma_cf(a: float, x: float) -> float:
    """Lentz continued fraction for Gamma(a, x), a <= 1, x >= ~1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 300):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f * math.exp(-x + a * math.log(x))


# ---------------------------------------------------------------------------
# Epstein zeta of Z^d via the completed representation
# ---------------------------------------------------------------------------

_EPSTEIN_KMAX = 18  # e^{-pi k} < 3e-25 beyond this


class EpsteinContext:
    """Precomputed data for the Epstein zeta of the integer lattice Z^d.

    zeta_E(u) = sum_{n in Z^d, n != 0} |n|^{-2u}, continued to the real line
    with a single simple pole at u = d/2.
    """

    def __init__(self, d: int):
        if d != int(d) or int(d) < 1:
            raise DomainError(f"Epstein dimension must be a positive integer, got {d}")
        self.d = int(d)
        self.cache: dict = {}
        self._shells = lattice_shell_counts(self.d, _EPSTEIN_KMAX)
        self._lag_nodes, self._lag_weights = np.polynomial.laguerre.laggauss(80)

    def __repr__(self):  # pragma: no cover
        return f"EpsteinContext(d={self.d})"


def _gl_log_integral(ctx: EpsteinContext, a: float, x: float) -> float:
    """d/da Gamma(a, x) = int_x^inf t^{a-1} ln t e^{-t} dt, for x >= ~1.

    Substituting t = x + tau gives a Gauss-Laguerre form with weight e^{-tau}.
    """
    t = x + ctx._lag_nodes
    vals = np.exp((a - 1.0) * np.log(t)) * np.log(t)
    return math.exp(-x) * float(np.dot(ctx._lag_weights, vals))


def _lambda_ksum(ctx: EpsteinContext, u: float, want_deriv: bool = False):
    """Sum over lattice shells of the two incomplete-gamma halves."""
    d = ctx.d
    total = 0.0
    dtotal = 0.0
    for k in range(1, _EPSTEIN_KMAX + 1):
        r = ctx._shells[k]
        if r == 0.0:
            continue
        pk = math.pi * k
        lpk = math.log(pk)
        g1 = _upper_gamma(u, pk)
        g2 = _upper_gamma(d / 2.0 - u, pk)
        p1 = math.exp(-u * lpk)
        p2 = math.exp((u - d / 2.0) * lpk)
        total += r * (p1 * g1 + p2 * g2)
        if want_deriv:
            dg1 = _gl_log_integral(ctx, u, pk)
            dg2 = _gl_log_integral(ctx, d / 2.0 - u, pk)
            dtotal += r * (
                p1 * (-lpk * g1 + dg1) + p2 * (lpk * g2 - dg2)
            )
    if want_deriv:
        return total, dtotal
    return total


def _lambda_full(ctx: EpsteinContext, u: float, want_deriv: bool = False):
    """Completed lambda(u) = ksum + 1/(u - d/2) - 1/u (symmetric under u -> d/2-u)."""
    d2 = ctx.d / 2.0
    if want_deriv:
        ks, dks = _lambda_ksum(ctx, u, want_deriv=True)
        val = ks + 1.0 / (u - d2) - 1.0 / u
        dval = dks - 1.0 / (u - d2) ** 2 + 1.0 / (u * u)
        return val, dval
    return _lambda_ksum(ctx, u) + 1.0 / (u - d2) - 1.0 / u


def epstein_zeta(ctx: EpsteinContext, u: float) -> float:
    """Epstein zeta of Z^d at real u (PoleError at u = d/2; exact values at 0, -1, -2, ...)."""
    u = float(u)
    d2 = ctx.d / 2.0
    if abs(u - d2) < _INT_SNAP:
        raise PoleError(f"epstein_zeta pole at u=d/2={d2}")
    key = ("z", u)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    n = _near_int(u)
    if n is not None and n <= 0:
        val = -1.0 if n == 0 else 0.0
    else:
        val = math.pi ** u * _lambda_full(ctx, u) / float(_sp.gamma(u))
    ctx.cache[key] = val
    return val


def epstein_res_fp(ctx: EpsteinContext) -> PolePoint:
    """Location, residue, and finite part of the single pole at u = d/2."""
    d2 = ctx.d / 2.0
    res = math.pi ** d2 / float(_sp.gamma(d2))
    lam_reg = _lambda_ksum(ctx, d2) - 1.0 / d2  # lambda minus its pole term, at u = d/2
    fp = res * (math.log(math.pi) - float(_sp.digamma(d2)) + lam_reg)
    return PolePoint(location=d2, residue=res, finite_part=fp)


def epstein_zeta_deriv(ctx: EpsteinContext, u: float) -> float:
    """d/du of the Epstein zeta (PoleError at u = d/2)."""
    u = float(u)
    d2 = ctx.d / 2.0
    if abs(u - d2) < _INT_SNAP:
        raise PoleError(f"epstein_zeta pole at u=d/2={d2}")
    key = ("dz", u)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    n = _near_int(u)
    if n is not None and n <= 0:
        if n == 0:
            # zeta_E = R*lambda with R ~ u near 0; the -1/u part of lambda
            # contributes the exact constants below.
            val = _lambda_ksum(ctx, 0.0) - 1.0 / d2 - EULER_GAMMA - math.log(math.pi)
        else:
            p = -n
            val = math.pi ** n * ((-1.0) ** p) * math.factorial(p) * _lambda_full(ctx, float(n))
    else:
        lam, dlam = _lambda_full(ctx, u, want_deriv=True)
        R = math.pi ** u / float(_sp.gamma(u))
        val = R * ((math.log(math.pi) - float(_sp.digamma(u))) * lam + dlam)
    ctx.cache[key] = val
    return val
