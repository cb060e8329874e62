"""Spectral models: compact factors described by their eigenvalue data.

A model packages the three faces of a compact factor's spectrum that the rest
of the package needs:

* the spectral zeta function zeta_M(s) = sum_n mult_n * alpha_n^(-2s),
  with its finite parts and s-derivative;
* the small-t heat-kernel coefficients A_j in
  sum_n mult_n e^{-t alpha_n^2} ~ sum_j A_j t^{(j*2 - D)/2 ...} (indexed by
  half-integers j, leading term A_0 t^{-D/2});
* the raw eigenvalue stream (alpha_n, mult_n) in increasing order.

The base class derives the rest of the pole data from the heat
coefficients, in one place for every model: the poles of zeta_M at
u0 = D/2 - j, their residues A_j / Gamma(u0), and the exact values
zeta_M(-j) = (-1)^j j! A_{D/2+j}.

Built-ins: the circle of circumference 2*pi (alpha_n = n) and the flat torus
(Z^d lattice, alpha = |n|). TableModel wraps a finite user-supplied spectrum
and refuses analytic continuation outside its convergence window.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from . import specfun as sf
from .errors import DomainError, ParseError, WindowError

__all__ = [
    "ManifoldModel",
    "CircleModel",
    "TorusModel",
    "TableModel",
    "circle_model",
    "torus_model",
    "table_model",
    "heat_trace",
]


class ManifoldModel:
    """Interface for a compact spectral factor (see module docstring)."""

    D: int
    name: str

    # --- heat kernel ---
    def heat_coeff(self, j) -> float:
        """Heat-kernel coefficient A_j for half-integer index j (0 if beyond support)."""
        raise NotImplementedError

    def heat_support(self) -> tuple:
        """Half-integer indices j (as Fractions) with known/nonzero A_j."""
        raise NotImplementedError

    # --- spectral zeta ---
    def zeta(self, s: float) -> float:
        raise NotImplementedError

    def zeta_poles(self) -> tuple:
        """Pole locations of zeta_M as Fractions: u0 = D/2 - j for each nonzero
        A_j, except where 1/Gamma(u0) vanishes (u0 = 0, -1, -2, ...)."""
        out = []
        for j in self.heat_support():
            u0 = Fraction(self.D, 2) - j
            if (u0.denominator == 1 and u0 <= 0) or self.heat_coeff(j) == 0.0:
                continue
            out.append(u0)
        return tuple(out)

    def zeta_res(self, s0: float) -> float:
        """Residue at s0, A_{D/2-u0} / Gamma(u0) at a pole u0 (0.0 where regular)."""
        for u0 in self.zeta_poles():
            if abs(s0 - float(u0)) < 1e-12:
                return self.heat_coeff(Fraction(self.D, 2) - u0) / sf.gamma(float(u0))
        return 0.0

    def zeta_nonpos_int(self, j: int) -> float:
        """Exact zeta_M(-j) = (-1)^j j! A_{D/2+j} for an integer j >= 0."""
        return (-1.0) ** j * math.factorial(j) * self.heat_coeff(Fraction(self.D, 2) + j)

    def zeta_fp(self, s0: float) -> float:
        """Finite part at a pole; plain value where regular."""
        raise NotImplementedError

    def zeta_deriv(self, s: float) -> float:
        raise NotImplementedError

    # --- spectrum ---
    def eigenvalues(self) -> Iterator[tuple]:
        """Yield (alpha, multiplicity) in strictly increasing alpha order."""
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover
        return f"{type(self).__name__}(D={self.D})"


def _as_half_fraction(j) -> Fraction:
    f = Fraction(j).limit_denominator(2)
    if abs(float(f) - float(j)) > 1e-12 or f.denominator not in (1, 2):
        raise DomainError(f"heat-coefficient index must be a half-integer, got {j}")
    return f


class CircleModel(ManifoldModel):
    """Circle spectrum alpha_n = n (n >= 1, simple): zeta_M(s) = zeta(2s)."""

    D = 1
    name = "circle"

    _heat = {Fraction(0): math.sqrt(math.pi) / 2.0, Fraction(1, 2): -0.5}

    def heat_coeff(self, j) -> float:
        return self._heat.get(_as_half_fraction(j), 0.0)

    def heat_support(self) -> tuple:
        return (Fraction(0), Fraction(1, 2))

    def zeta(self, s: float) -> float:
        return sf.riemann_zeta(2.0 * s)

    def zeta_fp(self, s0: float) -> float:
        if abs(s0 - 0.5) < 1e-12:
            # zeta(2s) = (1/2)/(s-1/2) + gamma + O(s-1/2)
            return sf.EULER_GAMMA
        return self.zeta(s0)

    def zeta_deriv(self, s: float) -> float:
        return 2.0 * sf.riemann_zeta_deriv(2.0 * s)

    def eigenvalues(self) -> Iterator[tuple]:
        n = 1
        while True:
            yield (float(n), 1.0)
            n += 1


class TorusModel(ManifoldModel):
    """Flat torus on the Z^d lattice: alpha = |n|, zeta_M = Epstein zeta of Z^d."""

    def __init__(self, d: int):
        if d != int(d) or int(d) < 1:
            raise DomainError(f"torus dimension must be a positive integer, got {d}")
        self.d = int(d)
        self.D = int(d)
        self.name = f"torus({self.d})"
        self.ctx = sf.EpsteinContext(self.d)

    def heat_coeff(self, j) -> float:
        f = _as_half_fraction(j)
        if f == 0:
            return math.pi ** (self.d / 2.0)
        if f == Fraction(self.d, 2):
            return -1.0
        return 0.0

    def heat_support(self) -> tuple:
        return (Fraction(0), Fraction(self.d, 2))

    def zeta(self, s: float) -> float:
        return sf.epstein_zeta(self.ctx, s)

    def zeta_fp(self, s0: float) -> float:
        if abs(s0 - self.d / 2.0) < 1e-12:
            return sf.epstein_res_fp(self.ctx).finite_part
        return self.zeta(s0)

    def zeta_deriv(self, s: float) -> float:
        return sf.epstein_zeta_deriv(self.ctx, s)

    def eigenvalues(self) -> Iterator[tuple]:
        if self.d == 1:  # shells k = n^2, each holding +-n
            n = 1
            while True:
                yield (float(n), 2.0)
                n += 1
        k0, kmax = 1, 256
        while True:
            shells = sf.lattice_shell_counts(self.d, kmax)
            for k in (shells[k0:].nonzero()[0] + k0).tolist():
                yield (math.sqrt(k), float(shells[k]))
            k0, kmax = kmax + 1, 2 * kmax


class TableModel(ManifoldModel):
    """Finite user-supplied spectrum with optional heat coefficients.

    The spectral zeta is only evaluated inside its direct-sum convergence
    window 2s > D; anything requiring analytic continuation raises
    WindowError instead of silently extrapolating. Its pole data comes from
    the supplied heat coefficients, as for every model.
    """

    def __init__(self, D: int, alphas, mults, heat: dict):
        if D != int(D) or int(D) < 1:
            raise DomainError(f"model dimension must be a positive integer, got {D}")
        self.D = int(D)
        self.name = f"table(D={self.D})"
        self._alphas = [float(a) for a in alphas]
        self._mults = [float(m) for m in mults]
        if len(self._alphas) != len(self._mults) or not self._alphas:
            raise DomainError("TableModel requires a nonempty spectrum")
        for a, b in zip(self._alphas, self._alphas[1:]):
            if not (b > a):
                raise DomainError("TableModel alphas must be strictly increasing")
        if self._alphas[0] <= 0.0:
            raise DomainError("TableModel alphas must be positive")
        if any(not (m > 0.0) for m in self._mults):
            raise DomainError("TableModel multiplicities must be positive")
        self._heat = {_as_half_fraction(j): float(v) for j, v in heat.items()}

    def heat_coeff(self, j) -> float:
        f = _as_half_fraction(j)
        if f not in self._heat:
            raise WindowError(f"heat coefficient A_{f} not provided by the table model")
        return self._heat[f]

    def heat_support(self) -> tuple:
        return tuple(sorted(self._heat.keys()))

    def zeta(self, s: float) -> float:
        if not (2.0 * s > self.D):
            raise WindowError(
                f"table-model zeta needs 2s > D for direct-sum convergence (s={s}, D={self.D})"
            )
        return math.fsum(m * a ** (-2.0 * s) for a, m in zip(self._alphas, self._mults))

    def zeta_fp(self, s0: float) -> float:
        if 2.0 * s0 > self.D:
            return self.zeta(s0)
        raise WindowError("table-model zeta finite part not available outside the window")

    def zeta_deriv(self, s: float) -> float:
        raise WindowError("table-model zeta derivative is not available")

    def eigenvalues(self) -> Iterator[tuple]:
        yield from zip(self._alphas, self._mults)

    @property
    def alpha_list(self):
        return tuple(self._alphas)


def circle_model() -> CircleModel:
    """The circle model (alpha_n = n)."""
    return CircleModel()


def torus_model(d: int) -> TorusModel:
    """The d-dimensional flat torus model (alpha = |n|, n in Z^d)."""
    return TorusModel(d)


def table_model(path: str) -> TableModel:
    """Load a TableModel from a text file.

    Format (UTF-8, one entry per line; blank lines and '#' comments ignored):

        D 2
        alpha 1.0
        alpha 1.4142135623730951 4
        A 0 3.141592653589793
        A 1/2 -0.5

    'alpha <value> [multiplicity]' lines must come in strictly increasing
    order; 'A <half-integer-index> <value>' supplies heat coefficients.
    Any other key is a ParseError.
    """
    D = None
    alphas: list = []
    mults: list = []
    heat: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read model file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "D":
                if len(parts) != 2:
                    raise ValueError("expected 'D <int>'")
                D = int(parts[1])
            elif key == "alpha":
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'alpha <float> [mult]'")
                alphas.append(float(parts[1]))
                mults.append(float(parts[2]) if len(parts) == 3 else 1.0)
            elif key == "A":
                if len(parts) != 3:
                    raise ValueError("expected 'A <half-int> <float>'")
                idx = Fraction(parts[1])
                if idx.denominator not in (1, 2) or idx < 0:
                    raise ValueError(f"bad heat index {parts[1]!r}")
                heat[idx] = float(parts[2])
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if D is None:
        raise ParseError(f"{path}: missing 'D <int>' line")
    try:
        return TableModel(D, alphas, mults, heat)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def heat_trace(model: ManifoldModel, t: float) -> float:
    """Direct heat-kernel trace sum_n mult_n e^{-t alpha_n^2} (t > 0)."""
    if not (t > 0.0):
        raise DomainError(f"heat_trace requires t > 0, got {t}")
    total = 0.0
    for alpha, mult in model.eigenvalues():
        term = mult * math.exp(-t * alpha * alpha)
        total += term
        if t * alpha * alpha > 45.0 and term < 1e-17 * max(1.0, total):
            break
    return total
