"""Scalar special functions used throughout the package.

Everything here is real-analytic plumbing: gamma-family wrappers with explicit
pole checks, the modified Bessel K (scipy's AMOS kv), Riemann zeta values from
scipy, a Hurwitz zeta built on Euler-Maclaurin summation (with analytic
s-derivatives), the symmetric polylogarithm pair
C(nu, x) = Li_nu(e^{2*pi*i*x}) + Li_nu(e^{-2*pi*i*x}) continued to all real
orders, and the Epstein zeta function of the integer lattice in d dimensions
via its completed (incomplete-gamma) representation. The Hurwitz zeta and the
polylogarithm pair each compute value and derivative in one routine
(_hurwitz, _pair), which refuses results outside double range with
DomainError.

The polylogarithm pair has two routes split at nu = -1/2: above it the
Taylor series of Li_nu(e^w) about w = 0, below it the Hurwitz reflection.
Within 1/4 of a positive integer order the series sums its head and its one
zeta pole as one regular term (the pair split). The same series gives the
sine pair, which the Hurwitz reflection for s <= -1/2 uses. No route
integrates numerically.

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

from .errors import DomainError, PoleError

__all__ = [
    "EULER_GAMMA",
    "PolePoint",
    "gamma",
    "gamma_complex",
    "digamma",
    "harmonic",
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
# Bernoulli numbers (exact rationals)
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


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def bessel_k_many(nu: float, xs) -> np.ndarray:
    """Modified Bessel K_nu(x) over an array of arguments x > 0, any shape.

    Wraps ``scipy.special.kv`` (the AMOS routines, Amos, ACM TOMS 644, 1986),
    accurate to a few ulp over the whole range; K_nu is even in nu. Values
    below the smallest double underflow to 0, and K_nu(x) for large nu at
    small x overflows to inf: callers check finiteness. Below |nu| = 1e-154,
    where kv fails, K_0 serves: K_nu = K_0 + O(nu^2).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (xs.min() > 0.0 and xs.max() < math.inf):
        raise DomainError("bessel_k requires finite x > 0")
    nu = abs(float(nu))
    return _sp.kv(0.0 if nu < 1e-154 else nu, xs)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel K_nu(x) at one finite x > 0 (see bessel_k_many)."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"bessel_k requires finite x > 0, got {x}")
    nu = abs(float(nu))
    return float(_sp.kv(0.0 if nu < 1e-154 else nu, float(x)))


# ---------------------------------------------------------------------------
# Hurwitz zeta (Euler-Maclaurin), real or complex s, with s-derivative
# ---------------------------------------------------------------------------

_EM_M = 14  # number of Bernoulli correction pairs


@lru_cache(maxsize=None)
def _em_coeffs() -> tuple:
    """B_{2j}/(2j)! as floats, j = 0.._EM_M."""
    bern = _bernoulli_numbers(2 * _EM_M)
    return tuple(float(bern[2 * j]) / math.factorial(2 * j) for j in range(_EM_M + 1))


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
    coef = _em_coeffs()
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
        c = coef[j]
        corr += c * r * wpow
        if want_deriv:
            dcorr += c * (dr * wpow + r * (-lw) * wpow)
        wpow = wpow / (w * w)

    val = head + tail + corr
    if want_deriv:
        return val, dhead + dtail + dcorr
    return val


def _hurwitz(s: float, a: float, want_deriv: bool) -> float:
    """zeta(s, a), or d/ds zeta(s, a) when want_deriv (see hurwitz_zeta)."""
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got a={a}")
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("hurwitz_zeta pole at s=1")
    s = float(s)
    a = float(a)
    if s > -0.5:
        got = _hurwitz_em(s, a, want_deriv)
        val = float(got[1] if want_deriv else got)
    else:
        shift = 0.0
        while a > 1.0:  # zeta(s, a) = zeta(s, a-1) - (a-1)^-s, and its s-derivative
            a -= 1.0
            shift += (math.log(a) if want_deriv else -1.0) * a ** (-s)
        val = shift + _hurwitz_reflect(s, a, want_deriv)
    if not math.isfinite(val):
        what = "d/ds zeta(s, a)" if want_deriv else "zeta(s, a)"
        raise DomainError(f"{what} at s={s}, a={a} leaves double range")
    return val


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta zeta(s, a) = sum_{k>=0} (k+a)^-s, continued in s.

    Requires a > 0; raises PoleError at s = 1, and DomainError where the
    value leaves double range. For s <= -1/2 the Euler-Maclaurin form loses
    digits to cancellation, so the reflection formula in terms of the
    cosine/sine polylogarithm pairs is used instead (a <= 1 there; larger a
    is reduced by the forward recurrence).
    """
    return _hurwitz(s, a, False)


def hurwitz_zeta_deriv(s: float, a: float) -> float:
    """d/ds zeta(s, a) under the same domain rules as hurwitz_zeta."""
    return _hurwitz(s, a, True)


def _hurwitz_reflect(s: float, a: float, want_deriv: bool) -> float:
    """zeta(s, a), or its s-derivative, for s <= -1/2, 0 < a <= 1, by reflection.

    zeta(1-nu, a) = Gamma(nu) (2 pi)^-nu [cos(pi nu/2) C(nu,a) + sin(pi nu/2) S(nu,a)]
    where C and S are the cosine and sine pairs of order nu = 1 - s >= 3/2,
    i.e. 2 Re and 2 Im of L = Li_nu(e^{2 pi i a}), so the bracket is
    2 Re[e^{-i pi nu/2} L]; L comes from the series route _li_series.
    """
    if a == 1.0:
        return riemann_zeta_deriv(s) if want_deriv else riemann_zeta(s)
    if a == 0.5:
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        t = 2.0 ** s
        z = riemann_zeta(s)
        if want_deriv:
            return math.log(2.0) * t * z + (t - 1.0) * riemann_zeta_deriv(s)
        return (t - 1.0) * z
    nu = 1.0 - s
    F = float(_sp.gamma(nu)) * (2.0 * math.pi) ** (-nu)
    phase = complex(_cospi(nu / 2.0), -_sinpi(nu / 2.0))
    got = _li_series(nu, min(a, 1.0 - a), want_deriv)
    li, dli = got if want_deriv else (got, 0j)
    if a > 0.5:  # Li_nu(e^{2 pi i a}) is the conjugate of its value at 1 - a
        li, dli = li.conjugate(), dli.conjugate()
    G = 2.0 * (phase * li).real
    if not want_deriv:
        return F * G
    dF = F * (float(_sp.digamma(nu)) - math.log(2.0 * math.pi))
    dG = 2.0 * (phase * (dli - 0.5j * math.pi * li)).real
    return -(dF * G + F * dG)  # d/ds = -d/dnu


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


def riemann_zeta(s: float) -> float:
    """Riemann zeta on the real line (PoleError at s=1; exact 0 at -2, -4, ...).

    Values come from scipy.special.zeta (Cephes), within a few 1e-14 of
    mpmath over s in [-200, 60].
    """
    s = float(s)
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("riemann_zeta pole at s=1")
    n = _near_int(s)
    if n is not None and n <= -2 and n % 2 == 0:
        return 0.0
    return float(_sp.zeta(s))


@lru_cache(maxsize=8192)
def riemann_zeta_deriv(s: float) -> float:
    """d/ds zeta(s) on the real line (PoleError at s=1).

    For s <= -1/2, from the reflection zeta(s) = chi(s) zeta(1-s) with
    chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s).
    """
    s = float(s)
    if abs(s - 1.0) < _INT_SNAP:
        raise PoleError("riemann_zeta pole at s=1")
    if s > -0.5:
        _, d = _hurwitz_em(s, 1.0, want_deriv=True)
        return float(d)
    p = (2.0 ** s) * math.pi ** (s - 1.0)
    g = float(_sp.gamma(1.0 - s))
    sin = _sinpi(s / 2.0)
    dchi = p * g * (
        (math.log(2.0 * math.pi) - float(_sp.digamma(1.0 - s))) * sin
        + (math.pi / 2.0) * _cospi(s / 2.0)
    )
    n = _near_int(s)
    if n is not None and n <= -2 and n % 2 == 0:
        # chi vanishes exactly; only chi' survives.
        return dchi * riemann_zeta(1.0 - s)
    return dchi * riemann_zeta(1.0 - s) - p * sin * g * riemann_zeta_deriv(1.0 - s)


def _riemann_zeta_complex(z: complex) -> complex:
    """zeta(z) for complex z with Re z > 1/2 (used on vertical contours)."""
    return complex(_hurwitz_em(complex(z), 1.0))


# ---------------------------------------------------------------------------
# Polylogarithm pairs at phase x in (0, 1), both from L = Li_nu(e^{2 pi i x}):
#   C(nu, x) = Li_nu(e^{2 pi i x}) + Li_nu(e^{-2 pi i x}) = 2 Re L,
#   S(nu, x) = -i [Li_nu(e^{2 pi i x}) - Li_nu(e^{-2 pi i x})] = 2 Im L.
# ---------------------------------------------------------------------------

_LI_K = np.arange(68)  # k <= 67: for x <= 1/2 the terms fall like 2^-k
_LI_WK = 1j ** _LI_K / _sp.factorial(_LI_K)  # i^k / k!
_SPLIT_J = np.arange(2, 40)  # |eps| < 1/4: the terms of l(eps) fall like 4^-j


def _exprel(z: complex):
    """(e^z - 1)/z and its derivative ((z-1) e^z + 1)/z^2, both regular at z = 0."""
    if abs(z) < 0.5:
        e1 = e2 = 0.0
        for k in range(20, -1, -1):  # Taylor: z^k/(k+1)! and (k+1) z^k/(k+2)!
            e1 = e1 * z + 1.0 / math.factorial(k + 1)
            e2 = e2 * z + (k + 1) / math.factorial(k + 2)
        return e1, e2
    ez = cmath.exp(z)
    return (ez - 1.0) / z, ((z - 1.0) * ez + 1.0) / (z * z)


def _li_series(nu: float, x: float, want_deriv: bool = False):
    """L = Li_nu(e^{2 pi i x}) (and dL/dnu) for nu > -1/2, nu != 0, 0 < x <= 1/2.

    The Taylor series of Li_nu(e^w) about w = 0 (Wood, "The computation of
    polylogarithms", Univ. of Kent TR 15-92, 1992; Crandall, "Note on fast
    polylogarithm computation", 2006), at w = i y with y = 2 pi x:

        Li_nu(e^w) = Gamma(1-nu) (-w)^(nu-1) + sum_k zeta(nu-k) w^k / k!,

    whose head is A (1/cos(pi nu/2) + i/sin(pi nu/2)) with
    A = pi y^(nu-1) / (2 Gamma(nu)), taken in log space so that it neither
    overflows nor gives 0 * inf at large nu. The pair split: within 1/4 of a
    positive integer n the head's pole cancels the pole of zeta(nu-k) at
    k = m = n-1, and with eps = nu - n the two are summed as one regular term

        w^m/m! [Z(eps) - (e^(eps l) - 1)/eps],    Z(eps) = zeta(1+eps) - 1/eps,
        l(eps) = ln(-w) - psi(n) + sum_(j>=2) [zeta(j) + (-1)^j H^(j)_m] eps^(j-1)/j,

    where eps l(eps) = ln[-eps m! (-1)^m Gamma(-m-eps) (-w)^eps], so that at
    eps = 0 the term is the Li_n limit w^m/m! (H_m - ln(-w)). The
    nu-derivative is taken term by term.
    """
    y = 2.0 * math.pi * x
    ly = math.log(y)
    n = round(nu)
    m = n - 1 if n >= 1 and abs(nu - n) < 0.25 else -1  # the split index, or -1
    zetas = _sp.zeta(nu - _LI_K)
    if 0 <= m < len(_LI_K):
        zetas[m] = 0.0
    wk = y ** _LI_K * _LI_WK
    val = complex(np.dot(zetas, wk))
    if want_deriv:
        dzetas = [0.0 if k == m else riemann_zeta_deriv(nu - k) for k in range(len(_LI_K))]
        dval = complex(np.dot(dzetas, wk))
    if m >= 0:
        eps = nu - n
        sgn = (-1.0) ** _SPLIT_J
        coef = ((1.0 + sgn) * _sp.zeta(_SPLIT_J) - sgn * _sp.zeta(_SPLIT_J, n)) / _SPLIT_J
        ell = complex(ly - _sp.digamma(n), -0.5 * math.pi) + eps * np.polyval(coef[::-1], eps)
        z, dz = _hurwitz_em(1.0 + eps, 1.0, want_deriv=True, pole_subtracted=True)
        e1, e2 = _exprel(eps * ell)
        wm = 1j ** m * math.exp(m * ly - math.lgamma(n))  # w^m / m!
        val += wm * (z - ell * e1)
        if want_deriv:
            dl = np.polyval((coef * (_SPLIT_J - 1))[::-1], eps)
            dval += wm * (dz - dl * e1 - ell * e2 * (ell + eps * dl))
    else:
        c = _cospi(nu / 2.0)
        s = _sinpi(nu / 2.0)
        A = 0.5 * math.pi * _sp.gammasgn(nu) * math.exp((nu - 1.0) * ly - _sp.gammaln(nu))
        T = complex(1.0 / c, 1.0 / s)
        val += A * T
        if want_deriv:
            dT = 0.5 * math.pi * complex(s / (c * c), -c / (s * s))
            dval += A * ((ly - _sp.digamma(nu)) * T + dT)
    if want_deriv:
        return val, dval
    return val


def _pp_hurwitz(nu: float, x: float, want_deriv: bool) -> float:
    """Reflection route, for nu <= -1/2 (off the even integers): C, or dC/dnu."""
    pref = (2.0 * math.pi) ** nu * float(_sp.gamma(1.0 - nu)) * _sinpi(nu / 2.0) / math.pi
    s = 1.0 - nu
    za = _hurwitz_em(s, x, want_deriv)
    zb = _hurwitz_em(s, 1.0 - x, want_deriv)
    if not want_deriv:
        return pref * (float(za) + float(zb))
    (za, da), (zb, db) = za, zb
    dpref = pref * (
        math.log(2.0 * math.pi)
        - float(_sp.digamma(1.0 - nu))
        + (math.pi / 2.0) * (_cospi(nu / 2.0) / _sinpi(nu / 2.0))
    )
    return dpref * float(za + zb) - pref * float(da + db)  # d s / d nu = -1


def _pair(nu: float, x: float, want_deriv: bool) -> float:
    """C(nu, x), or d/dnu C(nu, x) when want_deriv (see polylog_pair)."""
    nu = float(nu)
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"polylog_pair requires x in (0,1), got x={x}")
    n = _near_int(nu)
    if n is not None and n <= 0 and n % 2 == 0:
        if not want_deriv:
            val = -1.0 if n == 0 else 0.0
        elif n == 0:
            # C'(0,x) = -(psi(x)+psi(1-x))/2 - ln(2 pi) - gamma
            val = -(0.5 * (float(_sp.digamma(x)) + float(_sp.digamma(1.0 - x)))
                    + math.log(2.0 * math.pi) + EULER_GAMMA)
        else:
            # C'(-2m, x) = (-1)^m (2m)! / (2 (2 pi)^{2m}) * [zeta(2m+1,x)+zeta(2m+1,1-x)]
            m = -n // 2
            val = ((-1.0) ** m) * math.factorial(2 * m) / (2.0 * (2.0 * math.pi) ** (2 * m)) * (
                hurwitz_zeta(2 * m + 1.0, x) + hurwitz_zeta(2 * m + 1.0, 1.0 - x)
            )
    elif nu <= -0.5:
        val = _pp_hurwitz(nu, x, want_deriv)
    else:
        got = _li_series(nu, min(x, 1.0 - x), want_deriv)
        val = 2.0 * (got[1] if want_deriv else got).real
    if not math.isfinite(val):
        what = "d/dnu C(nu, x)" if want_deriv else "C(nu, x)"
        raise DomainError(f"{what} at nu={nu}, x={x} leaves double range")
    return val


def polylog_pair(nu: float, x: float) -> float:
    """C(nu, x) = Li_nu(e^{2 pi i x}) + Li_nu(e^{-2 pi i x}) for real nu, x in (0,1).

    Continued to all real orders by two routes split at nu = -1/2. Above it,
    the Taylor series of Li_nu(e^w) about w = 0 (see _li_series), with x
    folded to min(x, 1-x); within 1/4 of each positive integer order its
    head and its one zeta pole are summed as one regular term (the pair
    split). At or below it, the Hurwitz reflection
    C = (2 pi)^nu Gamma(1-nu) sin(pi nu/2) [zeta(1-nu,x) + zeta(1-nu,1-x)] / pi.
    Exact branches: C(0, x) = -1, and C at negative even integer order is 0.
    Values outside double range raise DomainError.
    """
    return _pair(nu, x, False)


def polylog_pair_deriv(nu: float, x: float) -> float:
    """d/dnu C(nu, x), by the same routes and exact branches as polylog_pair."""
    return _pair(nu, x, True)


def _polylog_pair_complex(nu: complex, x: float) -> complex:
    """C(nu, x) for complex order (contour use): polylog_pair on the real axis,
    where the reflection formula below is inf * 0 at even integer nu, and that
    formula elsewhere.

    The formula loses digits as Re nu grows, in _hurwitz_em's head sum at
    Re(1 - nu) < 0. Relative error against mpmath at x = 0.3, nu = r + 2iy:
    r = 0.5: <= 3e-15; r = 1: 5e-14 at y = 0.1, 6e-15 at y = 6;
    r = 1.5: 6e-13 and 3e-14; r = 2.5: 2e-11, 4e-12 at y = 1, 2e-13 at y = 6;
    r = 3.5: 1e-9 and 7e-12. _riemann_zeta_complex on Re z = 2.5 is within 2e-16.
    """
    if nu.imag == 0.0:
        return polylog_pair(nu.real, x)
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
        self._shells = lattice_shell_counts(self.d, _EPSTEIN_KMAX).tolist()
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


def _check_finite(val: float, what: str, u: float) -> None:
    if not math.isfinite(val):
        raise DomainError(f"{what} at u={u} leaves double range")


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
    _check_finite(val, "zeta_E(u)", u)
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
    _check_finite(val, "d/du zeta_E(u)", u)
    ctx.cache[key] = val
    return val
