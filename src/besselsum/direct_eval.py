"""Direct summation of the Bessel-function series (the ground-truth path).

Every series here converges for all real order parameters thanks to the
exponential decay of K_nu at large argument; these routines sum the terms
outright and report a tail bound. They are the oracles against which the
small-argument expansions are tested, and they deliberately do nothing
clever: no acceleration, no resummation.

Each family is one weighted-kernel sum  sum_j w_j E(x_j),  with
E(x) = (x beta)^s K_s(2 x beta), over a stream of increasing nodes x_j,
evaluated in numpy blocks of at most 2^16 elements (B is the phase):

* h(s, beta, B): x = m >= 1, w = cos(2 pi m B); h0(s, beta) = h(s, beta, 0)
* g(d, s, beta) over the punctured Z^d lattice: x = sqrt(k), w = r_d(k) k^{-s},
  one element per shell |n|^2 = k
* f(model, s, beta, B): x = alpha_n m, w = mult_n alpha_n^{-2s} cos(2 pi m B),
  as 2-D (eigenvalue x m) blocks of at most 1024 rows whose rows, the inner
  m-sums, are the elements of an outer stream with node alpha_n

Stopping rule, the same along every stream and row: element j is small when
its envelope |w_j| E(x_j) (|cos| counted as 1) is below
tol * max(1, |S_j|) * (1 - e^{-2 beta (x_j - x_{j-1})}), S_j the partial sum;
the factor turns a term into the tail of an e^{-2 x beta} decay. The sum
stops at the third small element in a row past x* = (|s| + 2)/(2 beta),
beyond which every kernel decays. A non-finite term, or a kernel growing past
x*, met before the stop raises ConvergenceError: it signals a numerical
problem, not a slowly converging sum. So does a sum predicted to need more
than 10^7 terms: h and g before they start, f before each block of rows,
from the terms already used plus (|s| + 2 + ln(1/tol))/(2 beta alpha_n) + 2
for each new row.

Tail bound (error_estimate): a geometric series fitted to the last 33
elements (see _tail), which measures how fast the weights accumulate as well
as the decay, since on a lattice shells crowd and their counts grow. For f
the inner rows' bounds are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import specfun as sf
from .errors import ConvergenceError, DomainError
from .manifolds import ManifoldModel, TableModel

__all__ = [
    "DEFAULT_TOL",
    "SeriesParams",
    "EvalResult",
    "sum_h",
    "sum_h0",
    "sum_g",
    "sum_f",
]

DEFAULT_TOL = 1e-12

_MAX_TERMS = 10_000_000
_BLOCK = 1 << 16  # elements evaluated at once, over all rows of a block
_ROWS = 1 << 10  # eigenvalues (rows of f) summed in one block
_WINDOW = 32  # trailing elements over which the tail bound measures decay


@dataclass(frozen=True)
class SeriesParams:
    """One series instance: order s, scale beta > 0, phase B in [0, 1).

    d (lattice dimension) applies to the g family; model applies to f.
    """

    s: float
    beta: float
    B: float = 0.0
    d: Optional[int] = None
    model: Optional[ManifoldModel] = None

    def __post_init__(self):
        if not (math.isfinite(self.s)):
            raise DomainError(f"s must be finite, got {self.s}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 <= self.B < 1.0):
            raise DomainError(f"B must lie in [0, 1), got {self.B}")
        if self.d is not None and (self.d != int(self.d) or int(self.d) < 1):
            raise DomainError(f"lattice dimension d must be a positive integer, got {self.d}")


@dataclass(frozen=True)
class EvalResult:
    """A summed value with a tail estimate and summation diagnostics."""

    value: float
    error_estimate: float
    terms_used: int
    method: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "terms_used": self.terms_used,
            "method": self.method,
        }


def _check_tol(tol: Optional[float]) -> float:
    if tol is None:
        return DEFAULT_TOL
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    return tol


def _reach(s: float, beta: float, tol: float) -> float:
    """Node x by which the kernel has decayed by about tol from its turnover."""
    return (abs(s) + 2.0 + math.log(1.0 / tol)) / (2.0 * beta)


def _over_budget(terms: float, s: float, beta: float) -> ConvergenceError:
    return ConvergenceError(
        f"direct sum needs about {terms:.3g} terms at s={s}, beta={beta}, over the "
        f"budget of {_MAX_TERMS}; use the small-beta expansion (besselsum expand)"
    )


def _envelope(s: float, beta: float, x: np.ndarray) -> np.ndarray:
    """The kernel E(x) = (x beta)^s K_s(2 x beta), elementwise."""
    return (x * beta) ** s * sf.bessel_k_many(s, 2.0 * beta * x)


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis; the axis length if none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


def _tail(x, kern, cum, j, beta: float) -> np.ndarray:
    """Bound on the sum of each row's stream past element j.

    Over the window [j - 32, j]: rho is the kernel's decay per element, and
    the cumulative weight bound N(x) ~ x^p gives p N/x, the weight per unit x.
    The tail is 2 (p N_j/x_j) dx kern_j rho/(1 - rho), dx the mean spacing;
    rho is at least e^{-2 beta dx}, since far out every kernel falls like
    e^{-2 x beta} and nearer in its decay only slows down as x grows.
    """
    r = np.arange(j.size)
    lo = np.maximum(j - _WINDOW, 0)
    steps = np.maximum(j - lo, 1)
    xj = x[r, j]
    xlo = x[r, lo]
    nj = cum[r, j]
    kj = kern[r, j]
    dx = np.where(j > lo, (xj - xlo) / steps, xj)
    p = np.where(j > lo, np.log(nj / cum[r, lo]) / np.log(xj / xlo), 1.0)
    rho = (kj / kern[r, lo]) ** (1.0 / steps)
    floor = np.exp(-2.0 * beta * dx)
    rho = np.where(rho < 1.0, np.fmax(rho, floor), floor)
    return 2.0 * p * nj / xj * dx * kj * rho / (1.0 - rho)


def _sweep(s: float, beta: float, tol: float, source, rows: int, first: int):
    """Sum `rows` streams in lockstep under the stopping rule.

    source(c0, c1, live) gives elements c0..c1-1 of the streams `live` (row
    indices) as arrays (x, kern, wmax, term) of shape (len(live), n), where
    wmax * kern >= |term|, or None once the streams end. Blocks start at
    `first` elements a row and double, at most _BLOCK over all live rows
    (callers keep rows <= _BLOCK).

    Returns per-row arrays value, tail bound, terms used, stopped, failed;
    raises ConvergenceError when `first` or a row's terms pass _MAX_TERMS.
    """
    if first > _MAX_TERMS:
        raise _over_budget(first, s, beta)
    x_star = (abs(s) + 2.0) / (2.0 * beta)
    value = np.zeros(rows)
    tail = np.zeros(rows)
    x_prev = np.zeros(rows)
    weight = np.zeros(rows)
    k_prev = np.full(rows, math.inf)
    count = np.zeros(rows, dtype=np.int64)
    run = np.zeros(rows, dtype=np.int64)  # small elements ending the last block
    stopped = np.zeros(rows, dtype=bool)
    failed = np.zeros(rows, dtype=bool)
    window = (np.zeros((rows, 0)),) * 3  # trailing (x, kern, cum) for _tail
    live = np.arange(rows)
    c0 = 0
    size = first
    while live.size:
        width = max(1, min(size, _BLOCK // live.size))
        block = source(c0, c0 + width, live)
        c0 += width
        size *= 2
        if block is None:
            if window[0].shape[-1]:
                tail[live] = _tail(*window, np.full(live.size, window[0].shape[-1] - 1), beta)
            break
        x, kern, wmax, term = block
        n = x.shape[-1]
        if n == 0:
            continue
        partial = value[live, None] + np.cumsum(term, axis=-1)
        cum = weight[live, None] + np.cumsum(wmax, axis=-1)
        env = wmax * kern
        decay = -np.expm1(-2.0 * beta * np.diff(x, axis=-1, prepend=x_prev[live, None]))
        small = env < tol * np.maximum(1.0, np.abs(partial)) * decay
        small = np.concatenate([run[live, None] >= 2, run[live, None] >= 1, small], axis=-1)
        stop = _first(small[:, 2:] & small[:, 1:-1] & small[:, :-2] & (x >= x_star))
        before = np.concatenate([k_prev[live, None], kern[:, :-1]], axis=-1)
        grows = (x > x_star) & (kern > before * (1.0 + 1e-9)) & (kern > 1e-305)
        bad = _first(~np.isfinite(env) | ~np.isfinite(partial) | grows)
        fail = bad <= np.minimum(stop, n - 1)
        stop_here = (stop < n) & ~fail
        upto = np.where(stop_here, stop, n - 1)
        value[live] += np.where(np.arange(n) <= upto[:, None], term, 0.0).sum(axis=-1)
        count[live] += upto + 1
        if np.any(count[live] >= _MAX_TERMS):
            raise _over_budget(count.max(), s, beta)
        window = tuple(np.concatenate(pair, axis=-1) for pair in zip(window, (x, kern, cum)))
        if stop_here.any():
            j = stop[stop_here] + window[0].shape[-1] - n
            tail[live[stop_here]] = _tail(*(w[stop_here] for w in window), j, beta)
        stopped[live] = stop_here
        failed[live] = fail
        x_prev[live] = x[:, -1]
        k_prev[live] = kern[:, -1]
        weight[live] = cum[:, -1]
        run[live] = np.where(small[:, -1], np.where(small[:, -2], 2, 1), 0)
        going = ~(stop_here | fail)
        live = live[going]
        window = tuple(w[going, -_WINDOW - 1:] for w in window)
    return value, tail, count, stopped, failed


def _single(s: float, beta: float, tol: float, source, first: int):
    """One stream through _sweep: (value, tail bound, terms, stopped by the rule)."""
    value, tail, count, stopped, failed = _sweep(s, beta, tol, source, 1, first)
    if failed[0]:
        raise ConvergenceError(f"a term is non-finite or fails to decay (s={s}, beta={beta})")
    return float(value[0]), float(tail[0]), int(count[0]), bool(stopped[0])


def _row_source(s: float, beta: float, alphas: np.ndarray, B: float):
    """Rows x = alpha_n * m, m = 1, 2, ..., with weights cos(2 pi m B)."""

    def source(c0, c1, live):
        m = np.arange(c0 + 1, c1 + 1, dtype=float)
        x = alphas[live, None] * m
        kern = _envelope(s, beta, x)
        term = kern * np.cos((2.0 * math.pi * B) * m) if B != 0.0 else kern
        return x, kern, np.ones_like(x), term

    return source


def sum_h(params: SeriesParams, tol: Optional[float] = None) -> EvalResult:
    """Phase-weighted Bessel series h(s, beta, B)."""
    tol = _check_tol(tol)
    s, beta = params.s, params.beta
    reach = _reach(s, beta, tol)
    with np.errstate(all="ignore"):
        source = _row_source(s, beta, np.ones(1), params.B)
        value, err, terms, _ = _single(s, beta, tol, source, math.ceil(reach) + 3)
    return EvalResult(value, err, terms, "direct_h")


def sum_h0(s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Phase-free series h0(s, beta) = h(s, beta, 0)."""
    return replace(sum_h(SeriesParams(s=s, beta=beta), tol), method="direct_h0")


def sum_g(d: int, s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Punctured-lattice series g(d; s, beta), summed over shells |n|^2 = k."""
    params = SeriesParams(s=s, beta=beta, d=d)
    tol = _check_tol(tol)
    reach = _reach(s, beta, tol)
    shells = np.zeros(0)

    def source(c0, c1, live):
        nonlocal shells
        if c1 >= shells.size:
            shells = sf.lattice_shell_counts(params.d, max(2 * shells.size, c1))
        r = shells[c0 + 1:c1 + 1]
        k = np.flatnonzero(r) + (c0 + 1.0)
        w = r[r > 0.0]
        kern = k ** -s * _envelope(s, beta, np.sqrt(k))
        return np.sqrt(k)[None], kern[None], w[None], (w * kern)[None]

    with np.errstate(all="ignore"):
        value, err, terms, _ = _single(s, beta, tol, source, math.ceil(reach * reach) + 3)
    return EvalResult(value, err, terms, "direct_g")


def sum_f(
    model: ManifoldModel,
    s: float,
    beta: float,
    B: float,
    tol: Optional[float] = None,
) -> EvalResult:
    """Double series f over model eigenvalues alpha_n and integers m.

    The outer stream's kernel alpha_n^{-2s} E(alpha_n) / (1 - e^{-2 alpha_n beta})
    bounds a row. A TableModel whose list runs out before the rule stops the
    outer stream gets method "direct_f_truncated".
    """
    params = SeriesParams(s=s, beta=beta, B=B, model=model)
    tol = _check_tol(tol)
    if not isinstance(model, ManifoldModel):
        raise DomainError(f"model must be a ManifoldModel, got {type(model).__name__}")
    reach = _reach(s, beta, tol)
    spectrum = model.eigenvalues()
    # Next eigenvalue, and extent of the next draw: draws of reach/4 after
    # the first keep what is drawn from the spectrum past the stop small.
    pending = next(spectrum, None)
    extent = reach
    spent = 0  # inner terms used by the rows summed so far
    rows = []  # per draw: (terms used, weighted tail bounds)

    def source(c0, c1, live):
        nonlocal pending, extent, spent
        pairs = []
        while pending is not None and len(pairs) < _ROWS and (not pairs or pending[0] <= extent):
            pairs.append(pending)
            pending = next(spectrum, None)
        if len(pairs) < _ROWS:
            extent += reach / 4.0
        if not pairs:
            return None
        alphas, mults = np.array(pairs, dtype=float).T
        # A row takes about reach/alpha terms, and never fewer than three.
        need = spent + float(np.sum(np.ceil(reach / alphas) + 2.0))
        if need > _MAX_TERMS:
            raise _over_budget(need, s, beta)
        vals, tails, counts, _, failed = _sweep(s, beta, tol, _row_source(
            s, beta, alphas, params.B), alphas.size, math.ceil(reach / alphas[-1]) + 3)
        spent += int(counts.sum())
        weight = mults * alphas ** (-2.0 * s)
        rows.append((counts, weight * tails))
        kern = alphas ** (-2.0 * s) * _envelope(s, beta, alphas) / -np.expm1(-2.0 * beta * alphas)
        term = np.where(failed, np.nan, weight * vals)
        return alphas[None], kern[None], mults[None], term[None]

    with np.errstate(all="ignore"):
        value, err, used, stopped = _single(s, beta, tol, source, 1)
    counts = np.concatenate([c for c, _ in rows])[:used]
    tails = np.concatenate([b for _, b in rows])[:used]
    method = "direct_f" if stopped or not isinstance(model, TableModel) else "direct_f_truncated"
    return EvalResult(value, err + float(tails.sum()), int(counts.sum()), method)
