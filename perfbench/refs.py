"""References computed apart from besselsum, in double precision.

Nothing here imports besselsum or shares code with it:

* direct sums are brute-force numpy sums of scipy.special.kv (AMOS), which
  shares nothing with the trapezoid K of besselsum.specfun;
* lattice shell counts come from a plain count of sums of squares;
* the Epstein zeta of Z^d is the theta-function integral
  pi^-u Gamma(u) Z_d(u) = int_1^inf (theta(t)^d - 1)(t^(u-1) + t^(d/2-u-1)) dt
  + 1/(u - d/2) - 1/u, integrated with scipy.integrate.quad;
* the cosine polylog pair C(nu, x) = 2 Re Li_nu(e^(2 pi i x)) comes from the
  Hurwitz-zeta reflection formula (nu < 0) or the Bose integral (nu > 0);
* small-beta expansions are rebuilt from the residues of the Mellin integrand
  at generic order s; at an order where two poles collide the double-pole
  coefficients are the limit of the two simple-pole residues, taken
  symmetrically at s0 +- EPS.

test_perfbench.py compares these routines with mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.integrate as _si
import scipy.special as _sp

EPS = 1e-5  # split of colliding poles for the double-pole limit
WINDOW = 40.0  # the expansion engine looks this far past the order for the remainder

# ---------------------------------------------------------------------------
# Scalar special functions
# ---------------------------------------------------------------------------


def _nonpos_int(v) -> int | None:
    """j >= 0 when v == -j exactly (Fractions) or to 1e-12 (floats)."""
    if isinstance(v, Fraction):
        return -int(v) if v.denominator == 1 and v <= 0 else None
    r = round(v)
    return -int(r) if r <= 0 and abs(v - r) < 1e-12 else None


def zeta(x: float) -> float:
    """Riemann zeta at real x != 1 (exact trivial zeros)."""
    j = _nonpos_int(x)
    if j is not None and j > 0 and j % 2 == 0:
        return 0.0
    return float(_sp.zeta(float(x)))


def polylog_pair(nu: float, x: float) -> float:
    """C(nu, x) = sum_m 2 cos(2 pi m x) / m^nu, continued to real nu."""
    j = _nonpos_int(nu)
    if j is not None:
        if j == 0:
            return -1.0
        if j % 2 == 0:
            return 0.0
    nu = float(nu)
    if nu < 0.0:
        # C = (2pi)^nu Gamma(1-nu) sin(pi nu/2)/pi [zeta(1-nu,x) + zeta(1-nu,1-x)]
        return ((2.0 * math.pi) ** nu * _sp.gamma(1.0 - nu) * math.sin(0.5 * math.pi * nu)
                / math.pi * (_sp.zeta(1.0 - nu, x) + _sp.zeta(1.0 - nu, 1.0 - x)))
    if abs(nu - 1.0) < 1e-15:
        return -2.0 * math.log(2.0 * math.sin(math.pi * x))
    # Bose integral: Li_nu(z) = z/Gamma(nu) int_0^inf t^(nu-1)/(e^t - z) dt.
    c = math.cos(2.0 * math.pi * x)

    def kernel(t):
        e = math.exp(-t)
        return (c - e) / (1.0 - 2.0 * c * e + e * e) * e

    head = _si.quad(kernel, 0.0, 1.0, weight="alg", wvar=(nu - 1.0, 0.0),
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
    tail = _si.quad(lambda t: t ** (nu - 1.0) * kernel(t), 1.0, math.inf,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return 2.0 * (head + tail) / _sp.gamma(nu)


def _theta_minus_one(t: float) -> float:
    """theta(t) - 1 = 2 sum_{n>=1} exp(-pi n^2 t), for t >= 1."""
    acc = 0.0
    n = 1
    while True:
        term = math.exp(-math.pi * n * n * t)
        acc += term
        if term <= 1e-18 * acc:
            return 2.0 * acc
        n += 1


def epstein(d: int, u: float) -> float:
    """Epstein zeta of Z^d: sum over nonzero n of |n|^(-2u), continued."""
    j = _nonpos_int(u)
    if j is not None:
        return -1.0 if j == 0 else 0.0
    u = float(u)
    if d == 1:
        return 2.0 * zeta(2.0 * u)
    half = 0.5 * d

    def integrand(t):
        w = math.expm1(d * math.log1p(_theta_minus_one(t)))
        return w * (t ** (u - 1.0) + t ** (half - u - 1.0))

    integral = _si.quad(integrand, 1.0, math.inf, epsabs=0.0, epsrel=2e-14, limit=200)[0]
    lam = integral + 1.0 / (u - half) - 1.0 / u
    return math.pi ** u * lam * float(_sp.rgamma(u))


class Model:
    """Spectral data of a built-in compact factor, from its name."""

    def __init__(self, name: str):
        self.name = name
        if name == "circle":
            self.D = 1
            self.pole, self.residue = Fraction(1, 2), 0.5
            self.heat = {Fraction(0): math.sqrt(math.pi) / 2.0, Fraction(1, 2): -0.5}
        elif name.startswith("torus:"):
            d = int(name.split(":")[1])
            self.D = d
            self.pole = Fraction(d, 2)
            self.residue = math.pi ** (d / 2.0) / math.gamma(d / 2.0)
            self.heat = {Fraction(0): math.pi ** (d / 2.0), Fraction(d, 2): -1.0}
        else:
            raise ValueError(f"no reference model {name!r}")

    def zeta(self, u) -> float:
        if self.name == "circle":
            j = _nonpos_int(u)
            if j is not None:
                return -0.5 if j == 0 else 0.0
            return zeta(2.0 * float(u))
        return epstein(self.D, u)

    def eigen(self, alpha_max: float):
        """(alpha, multiplicity) arrays with alpha <= alpha_max."""
        if self.name == "circle":
            a = np.arange(1.0, math.floor(alpha_max) + 1.0)
            return a, np.ones_like(a)
        k_max = int(alpha_max * alpha_max)
        r = shell_counts(self.D, k_max)
        k = np.nonzero(r[1:])[0] + 1
        return np.sqrt(k.astype(float)), r[k]


# ---------------------------------------------------------------------------
# Lattice shells and brute-force direct sums
# ---------------------------------------------------------------------------

_shells: dict = {}


def shell_counts(d: int, k_max: int) -> np.ndarray:
    """r[k] = #{n in Z^d : |n|^2 = k} for k <= k_max, counted directly."""
    have = _shells.get(d)
    if have is not None and len(have) > k_max:
        return have[: k_max + 1]
    size = max(k_max + 1, 2 * (len(have) if have is not None else 0), 1024)
    rad = math.isqrt(size - 1)
    sq = np.arange(-rad, rad + 1) ** 2
    r = np.zeros(size, dtype=np.int64)
    r[0] = 1
    for _ in range(d):
        nxt = np.zeros(size, dtype=np.int64)
        for q in sq:
            nxt[q:] += r[: size - q]
        r = nxt
    _shells[d] = r.astype(float)
    return _shells[d][: k_max + 1]


def _x_cut(s: float, extra: float = 0.0) -> float:
    """K argument beyond which every term is below 1e-19 of the sum."""
    return 44.0 + 4.0 * abs(s) + extra


def _sum(terms: np.ndarray):
    return math.fsum(terms.tolist()), math.fsum(np.abs(terms).tolist())


def h(s: float, beta: float, B: float = 0.0):
    """(value, sum of |terms|) of sum_m cos(2 pi m B) (m beta)^s K_s(2 m beta)."""
    m = np.arange(1.0, math.ceil(_x_cut(s) / (2.0 * beta)) + 2.0)
    terms = (m * beta) ** s * _sp.kv(s, 2.0 * m * beta)
    return _sum(terms * np.cos(2.0 * math.pi * B * m) if B else terms)


def h0_half(beta: float):
    """Closed form h0(1/2, beta) = (sqrt(pi)/2) / (e^(2 beta) - 1)."""
    v = 0.5 * math.sqrt(math.pi) / math.expm1(2.0 * beta)
    return v, v


def g(d: int, s: float, beta: float):
    """(value, sum of |terms|) of the punctured-lattice series g(d; s, beta)."""
    amax = _x_cut(s, 2.0 * d) / (2.0 * beta)
    r = shell_counts(d, int(amax * amax))
    k = np.nonzero(r[1:])[0] + 1
    a = np.sqrt(k.astype(float))
    return _sum(r[k] * (beta / a) ** s * _sp.kv(s, 2.0 * a * beta))


def f(model: Model, s: float, beta: float, B: float):
    """(value, sum of |terms|) of sum_n mult_n sum_m (m beta/alpha_n)^s
    cos(2 pi m B) K_s(2 alpha_n m beta)."""
    x_cut = _x_cut(s, 2.0 * model.D)
    alpha, mult = model.eigen(x_cut / (2.0 * beta))
    per = np.floor(x_cut / (2.0 * alpha * beta)).astype(np.int64) + 1
    a = np.repeat(alpha, per)
    w = np.repeat(mult, per)
    starts = np.repeat(np.cumsum(per) - per, per)
    m = (np.arange(a.size) - starts + 1).astype(float)
    terms = w * (m * beta / a) ** s * _sp.kv(s, 2.0 * a * m * beta)
    if B:
        terms = terms * np.cos(2.0 * math.pi * B * m)
    return _sum(terms)


def _prefactor(d: int) -> float:
    return 1.0 / (2.0 ** d * math.pi ** ((d + 1) / 2.0))


def product_zeta(model: Model, d: int, s: float, beta: float, B: float):
    """Spectral zeta of R^d x S^1(2 beta, twist B) x N at generic s."""
    sp_ = s - (d + 1) / 2.0
    inv_gs = float(_sp.rgamma(s))
    first = float(_sp.gamma(sp_)) * model.zeta(sp_) * inv_gs
    fv, fa = f(model, sp_, beta, B)
    pref = beta * _prefactor(d)
    return (pref * (first + 4.0 * fv * inv_gs),
            pref * (abs(first) + 4.0 * fa * abs(inv_gs)))


def piston_zeta(model: Model, D: int, s: float, beta: float):
    v, a = product_zeta(model, D - 1, s, beta, 0.5)
    scale = 2.0 ** (D - 3)
    return -scale * v, scale * a


def mass_sum(m: float, L: float, D: int):
    """sum_n (m/(nL))^(D/2-1) K_(D/2-1)(n L m)."""
    nu = 0.5 * D - 1.0
    n = np.arange(1.0, math.ceil(_x_cut(nu) / (L * m)) + 2.0)
    return _sum((m / (n * L)) ** nu * _sp.kv(nu, n * L * m))


# ---------------------------------------------------------------------------
# Small-beta expansions from Mellin residues
# ---------------------------------------------------------------------------
#
# A family is  norm * Gamma(t) Gamma(t+s) * prod(extra factors) * beta^(-2t).
# Extra factors: "z2t" = zeta(2t), "c" = C(2t, x), "m" = zeta_M(s+t).
# The pole at t0 contributes (residue) * beta^(-2 t0).

_FAMILIES = {
    "h": (0.25, ("c",)),
    "h0": (0.5, ("z2t",)),
    "g": (0.5, ("m",)),
    "f": (0.25, ("m", "c")),
    "f0": (0.5, ("m", "z2t")),
}


def _poles(factors, model, s, t_min):
    """[(factor, t0, residue)] with t0 >= t_min; s may be a Fraction."""
    out = []
    j = 0
    while -j >= t_min:
        out.append(("g0", Fraction(-j) if isinstance(s, Fraction) else float(-j),
                    (-1.0) ** j / math.factorial(j)))
        j += 1
    j = 0
    while -s - j >= t_min:
        out.append(("gs", -s - j, (-1.0) ** j / math.factorial(j)))
        j += 1
    if "z2t" in factors and 0.5 >= t_min:
        out.append(("z2t", Fraction(1, 2) if isinstance(s, Fraction) else 0.5, 0.5))
    if "m" in factors:
        t0 = model.pole - s if isinstance(s, Fraction) else float(model.pole) - s
        if t0 >= t_min:
            out.append(("m", t0, model.residue))
    return out


def _value(fac, t, s, x, model):
    if fac == "g0":
        return float(_sp.gamma(float(t)))
    if fac == "gs":
        return float(_sp.gamma(float(t + s)))
    if fac == "z2t":
        return zeta(2 * t)
    if fac == "c":
        return polylog_pair(2 * t, x)
    return model.zeta(s + t)


def _zero_at(fac, t0, s0) -> bool:
    """Factor fac vanishes exactly at t0 (s0 exact): trivial zeros only."""
    if fac in ("z2t", "c"):
        j = _nonpos_int(t0)
        return j is not None and j >= 1
    if fac == "m":
        j = _nonpos_int(s0 + t0)
        return j is not None and j >= 1
    return False


def _residue(pole, all_factors, s, x, model, norm) -> float:
    fac, t0, res = pole
    val = norm * res
    for other in all_factors:
        if other != fac:
            val *= _value(other, t0, s, x, model)
    return val


def expansion(family, s, order, x=None, model: Model | None = None):
    """Reference expansion: (terms {power: (const, log)}, remainder power or None).

    Exactly-zero coefficients are left out, as the program leaves them out.
    """
    norm, extra = _FAMILIES[family]
    factors = ("g0", "gs") + extra
    t_min = -(order + WINDOW) / 2.0 - 1e-9
    m2 = round(2.0 * s)
    special = abs(2.0 * s - m2) < 2e-12
    s0 = Fraction(m2, 2) if special else float(s)
    groups: dict = {}
    for pole in _poles(factors, model, s0, t_min):
        groups.setdefault(pole[1], []).append(pole)
    terms = {}
    for t0 in sorted(groups, reverse=True):  # ascending power of beta
        plist = groups[t0]
        if len(plist) > 2:
            raise ArithmeticError(f"pole of multiplicity {len(plist)} at t={t0}")
        in_group = {p[0] for p in plist}
        zeros = sum(1 for fac in factors if fac not in in_group and _zero_at(fac, t0, s0))
        order_of_pole = len(plist) - zeros
        if order_of_pole <= 0:
            continue
        p0 = -2.0 * float(t0)
        if len(plist) == 1:
            const = _residue(plist[0], factors, s0, x, model, norm)
            logc = 0.0
        else:
            const = logc = 0.0
            for sign in (1.0, -1.0):
                s_eps = float(s0) + sign * EPS
                for fac, _, res in plist:
                    moving = fac in ("gs", "m")
                    t_eps = float(t0) - sign * EPS if moving else float(t0)
                    c = _residue((fac, t_eps, res), factors, s_eps, x, model, norm)
                    const += 0.5 * c
                    logc += 0.5 * c * (-2.0 * t_eps - p0)
            if order_of_pole == 1:
                logc = 0.0
        if const == 0.0 and logc == 0.0:
            continue
        if p0 > order + 1e-12:
            return terms, p0
        terms[p0] = (const, logc)
    return terms, None


def evaluate(terms: dict, beta: float):
    """(value, scale) of an expansion at beta; scale = sum of (|c| + |l ln beta|) beta^p,
    the size of the pieces, since c + l ln beta can cancel."""
    lb = math.log(beta)
    value = math.fsum((c + l * lb) * beta ** p for p, (c, l) in terms.items())
    return value, math.fsum((abs(c) + abs(l * lb)) * beta ** p for p, (c, l) in terms.items())


def h0_half_expansion(order: float) -> dict:
    """Bernoulli coefficients of (sqrt(pi)/2)/(e^(2 beta) - 1):
    beta^(n-1) has coefficient (sqrt(pi)/2) B_n 2^(n-1) / n!, with B_1 = -1/2."""
    out = {}
    n = 0
    while n - 1 <= order + 1e-12:
        b = float(_sp.bernoulli(n)[n]) if n != 1 else -0.5
        if b != 0.0:
            out[float(n - 1)] = (0.5 * math.sqrt(math.pi) * b * 2.0 ** (n - 1)
                                 / math.factorial(n), 0.0)
        n += 1
    return out


def product_zeta_expansion(model: Model, d: int, s: float, B: float, order: float):
    sp_ = s - (d + 1) / 2.0
    if B == 0.0:
        terms, rem = expansion("f0", sp_, order - 1.0, model=model)
    else:
        terms, rem = expansion("f", sp_, order - 1.0, x=B, model=model)
    scale = 4.0 * _prefactor(d) * float(_sp.rgamma(s))
    out = {p + 1.0: (c * scale, l * scale) for p, (c, l) in terms.items() if p != 0.0}
    return out, (None if rem is None else rem + 1.0)


def mass_expansion(L: float, D: int, order: float):
    """Expansion in m of mass_sum via S(m) = (2/L^2)^(D/2-1) beta^(D-2) h0(1-D/2, beta),
    beta = m L / 2."""
    terms, rem = expansion("h0", 1.0 - 0.5 * D, order - (D - 2))
    pref = (2.0 / (L * L)) ** (0.5 * D - 1.0)
    half = 0.5 * L
    out = {}
    for p, (c, l) in terms.items():
        power = p + D - 2
        k = pref * half ** power
        out[power] = (k * (c + l * math.log(half)), k * l)
    return out, (None if rem is None else rem + D - 2)


# ---------------------------------------------------------------------------
# Casimir piston
# ---------------------------------------------------------------------------


def casimir_energy(model: Model, D: int, beta: float):
    """(pole coefficient, finite energy) of one chamber of length beta, from the
    heat coefficients A_j of N: each contributes
    kappa A_j Gamma((D-l+1)/2) (2^(l-D) - 1) zeta(D-l+1) beta^(l-D), l = 2j - Q,
    kappa = 1/(8 pi^((D+1)/2)). Built-in models only reach l < D."""
    kappa = 1.0 / (8.0 * math.pi ** ((D + 1) / 2.0))
    total = []
    for j, a in model.heat.items():
        ell = int(2 * j - model.D)
        if ell >= D:
            raise ValueError("reference covers l < D only")
        p = ell - D
        total.append(kappa * a * math.gamma((D - ell + 1) / 2.0) * (2.0 ** p - 1.0)
                     * zeta(D - ell + 1.0) * beta ** p)
    pole_a = model.heat.get(Fraction(model.D + D + 1, 2), 0.0)
    return beta * pole_a / (16.0 * math.pi ** ((D + 1) / 2.0)), math.fsum(total)


def casimir_force(model: Model, D: int, beta: float, L: float) -> float:
    """-d/dbeta [E(beta) + E(L - beta)] by a five-point central difference."""
    def total(b):
        return casimir_energy(model, D, b)[1] + casimir_energy(model, D, L - b)[1]

    hh = 1e-3 * min(beta, L - beta)
    return -(-total(beta + 2 * hh) + 8 * total(beta + hh) - 8 * total(beta - hh)
             + total(beta - 2 * hh)) / (12.0 * hh)
