"""Direct summation of the Bessel-function series (the ground-truth path).

Every series here converges for all real order parameters thanks to the
exponential decay of K_nu at large argument; these routines sum the terms
outright and report a tail bound. They are the oracles against which the
small-argument expansions are tested, and they deliberately do nothing
clever: no acceleration, no resummation.

Each family is one weighted-kernel sum  sum_j w_j E(x_j),  with
E(x) = (x beta)^s K_s(2 x beta), over a stream of increasing nodes x_j
(B is the phase):

* h(s, beta, B): x = m >= 1, w = cos(2 pi m B); h0(s, beta) = h(s, beta, 0)
* g(d, s, beta) over the punctured Z^d lattice: x = sqrt(k), w = r_d(k) k^{-s},
  one element per nonempty shell |n|^2 = k
* f(model, s, beta, B): x = alpha_n m, w = mult_n alpha_n^{-2s} cos(2 pi m B);
  each eigenvalue's inner m-sum is a stream (a row), and the weighted rows
  are the elements of an outer stream with node alpha_n

Stopping rule, the same along every stream: element j is small when
its envelope |w_j| E(x_j) (|cos| counted as 1) is below
tol * max(1, |S_j|) * (1 - e^{-2 beta (x_j - x_{j-1})}), S_j the partial sum;
the factor turns a term into the tail of an e^{-2 x beta} decay. The sum
stops at the third small element in a row past x* = (|s| + 2)/(2 beta),
beyond which every kernel decays. A non-finite term, or a kernel growing past
x*, met before the stop raises ConvergenceError: it signals a numerical
problem, not a slowly converging sum.

Blocks: _sweep sums many streams at once in ragged blocks: one flat array
holds a run of each live stream, at most 2^16 elements per K_nu call. A pass
over a block costs little more than its K_nu evaluations: a run of one stream
keeps its bookkeeping in scalars, and a run of many takes each stream's
partial sums apart from the others' (the weights are counts, summed flat).
Both do the same arithmetic. A stream's first block reaches just past the
node where _need predicts the rule stops it, w E(x) = tol (1 - e^{-2 beta dx})
with dx the node spacing, E from the large-argument form of K_s (DLMF
10.40.2) and y = 2 x beta >= |s| + 2. That is the threshold for |S| <= 1; a
larger sum stops sooner. So a sum most often takes one K_nu evaluation over
about the terms it uses. The prediction only sizes blocks; the rule decides
the stop. Where the weight w is beta^{2s} (g, and f's outer stream), a large
w often comes with a large |S|, so those first blocks end by 2 reach
(below), by 2^16 shells for g and by 1024 rows for f. A stream not yet
stopped gets a block of twice as many new elements, which starts by
re-reading its last 33 elements, the tail bound's window. So nothing but the
partial sums passes between blocks, and the result does not depend on the
block layout. f sums its rows up to 1024 at a time, as the outer stream asks
for them, all sized by the first row's prediction (a wider spacing stops
sooner). Each row's first element is E(alpha_n), so the rows' pass gives the
outer kernel too. g doubles its shell array only once a block has read every
shell in it, so past its first block the array stays below twice the
largest shell read.

Budget: a sum predicted to need more than 10^7 terms raises ConvergenceError
at once, from reach = (|s| + 2 + ln(1/tol))/(2 beta): h before it starts
(reach + 3 terms), g likewise (reach^2 + 3 shells). f draws its eigenvalues
up to reach before it sums a row and refuses as soon as the rows drawn need
over 10^7 terms, at ceil(reach/alpha_n) + 2 a row; eigenvalues drawn later
count too. A stream, or f's rows together, past 10^7 terms used is refused.

Tail bound (error_estimate): a geometric series fitted to the last 33
elements (see _tail), which measures how fast the weights accumulate as well
as the decay, since on a lattice shells crowd and their counts grow. For f
the inner rows' bounds are added.
"""

from __future__ import annotations

import bisect
import math
from array import array
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
_BLOCK = 1 << 16  # elements evaluated at once, over all streams of a block
_ROWS = 1 << 10  # eigenvalues (rows of f) summed at once, and drawn per budget check
_WINDOW = 33  # trailing elements over which the tail bound measures decay; re-read by later blocks


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


def _need(s: float, beta: float, tol: float, spacing: float, log_w: float = 0.0) -> float:
    """Node x = y/(2 beta) where the rule should stop a stream of node spacing dx.

    Solves w E(x) = tol (1 - e^{-2 beta dx}) for y = 2 x beta >= |s| + 2,
    w = e^log_w the stream's weight, with E from the large-argument form of
    K_s (DLMF 10.40.2, three correction terms):
    E ~ sqrt(pi/2) 2^-s y^(s-1/2) e^-y (1 + a_1/y + a_2/y^2 + a_3/y^3),
    a_k = a_{k-1} (4s^2 - (2k-1)^2)/(8k), by a fixed-point step and three
    Newton steps: the rule's threshold for |S| <= 1. It only sizes first
    blocks. One element short costs a second K_nu call, as two correction
    terms cost h(3.4, 0.001, B != 0).
    """
    rhs = math.log(tol * -math.expm1(-2.0 * beta * spacing))
    rhs += -log_w - 0.5 * math.log(math.pi / 2.0) + s * math.log(2.0)
    a, y_min = s - 0.5, abs(s) + 2.0
    y = max(-rhs, y_min)
    y = max(y + a * math.log(y), y_min)
    for _ in range(3):
        series, coeff = 1.0, 1.0
        for k in (1, 2, 3):
            coeff *= (4.0 * s * s - (2 * k - 1) ** 2) / (8.0 * k * y)
            series += coeff
        y = max(y - (a * math.log(y) - y + math.log(series) - rhs) / (a / y - 1.0), y_min)
    return y / (2.0 * beta)


def _tail(x, kern, cum, j, lo, beta: float) -> np.ndarray:
    """Bound on the sum of each stream past its element j (flat indices).

    Over the window [lo, j], lo = j - 32 or the stream's first element: rho
    is the kernel's decay per element, and the cumulative weight bound
    N(x) ~ x^p gives p N/x, the weight per unit x. The tail is
    2 (p N_j/x_j) dx kern_j rho/(1 - rho), dx the mean spacing; rho is at
    least e^{-2 beta dx}, since far out every kernel falls like e^{-2 x beta}
    and nearer in its decay only slows down as x grows.
    """
    ahead = j > lo
    steps = np.maximum(j - lo, 1)
    xj, xlo, kj, nj = x[j], x[lo], kern[j], cum[j]
    dx = np.where(ahead, (xj - xlo) / steps, xj)
    p = np.where(ahead, np.log(nj / cum[lo]) / np.log(xj / xlo), 1.0)
    rho = (kj / kern[lo]) ** (1.0 / steps)
    rho = np.fmax(np.where(rho < 1.0, rho, 0.0), np.exp(-2.0 * beta * dx))
    return 2.0 * p * nj / xj * dx * kj * rho / (1.0 - rho)


def _run_sums(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sums of a over each run up to every element, pos[i] being element i's
    place in its run.

    A flat cumsum would carry the rounding of a large run into every smaller
    run after it, so several runs are summed apart, by doubling steps
    (Hillis-Steele): each sum then rounds only over its own run's elements.
    """
    if pos[-1] == pos.size - 1:  # a single run
        return a.cumsum()
    c = a.copy()
    step, top = 1, pos.max()
    while step <= top:
        c[step:] += np.where(pos[step:] >= step, c[:-step], 0.0)
        step *= 2
    return c


def _sweep(s: float, beta: float, tol: float, source, first: np.ndarray):
    """Sum the streams 0..len(first)-1 under the stopping rule, in ragged blocks.

    source(starts, lengths, live) gives elements starts[i] .. starts[i] +
    lengths[i] - 1 of each stream live[i] (row indices), fewer once a stream
    ends, as flat arrays (x, kern, wmax, term) holding the streams one after
    another, wmax * kern >= |term|, and the number of elements given to each.
    A stream's first block has first[i] elements, rounded down and at most
    _BLOCK (first may be a float array; the clamp also keeps its int64 cast in
    range); each later one re-reads its last _WINDOW and adds twice as many
    new ones as the block before. A source call holds at most _BLOCK elements.

    Returns per-stream arrays value (the partial sum at the last term used),
    tail bound, terms used, stopped, failed; raises ConvergenceError past _MAX_TERMS.
    """
    rows = len(first)
    x_star = (abs(s) + 2.0) / (2.0 * beta)
    carry = np.zeros((2, rows))  # per stream: partial sum and weight up to its last element read
    tail = np.zeros(rows)
    count = np.zeros(rows, dtype=np.int64)
    stopped, failed = np.zeros((2, rows), dtype=bool)
    want = np.minimum(first, _BLOCK).astype(np.int64)
    live = np.arange(rows)
    read = 0  # elements read over all streams, a bound on the terms of any one
    while live.size:
        had = count[live]
        start = np.maximum(had - _WINDOW, 0)
        size = np.minimum(had - start + want[live], _BLOCK)
        ends = size.cumsum()
        going = np.zeros(live.size, dtype=bool)
        i = 0
        while i < live.size:  # runs of streams, at most _BLOCK elements each
            k = int(ends.searchsorted(ends[i] - size[i] + _BLOCK, side="right"))
            r = live[i:k]
            x, kern, wmax, term, got = source(start[i:k], size[i:k], r)
            n = x.size
            at = np.arange(n)
            one = k == i + 1  # one stream: the run is the stream, its bookkeeping scalars
            if one:
                q, old, off = r[0], int(had[i] - start[i]), [0]
                pos, new = at, at >= old
                psum, wsum = term.cumsum(), wmax.cumsum()
                partial = (carry[0, q] - (psum[old - 1] if old else 0.0)) + psum
                cum = (carry[1, q] - (wsum[old - 1] if old else 0.0)) + wsum
            else:
                last = got.cumsum() - 1
                off = last - got + 1
                old = had[i:k] - start[i:k]  # elements re-read
                pos = at - off.repeat(got)
                new = pos >= old.repeat(got)
                # Partial sums and weights carried in, less the re-read elements'.
                # Weights are counts, so a flat cumsum of them stays exact.
                sums = np.array((_run_sums(term, pos), wmax.cumsum()))
                back = np.where([old > 0, off + old > 0], sums[:, off + old - 1], 0.0)
                partial, cum = (carry[:, r] - back).repeat(got, axis=1) + sums
            # A run's first element gets x = 0 and no kernel before it, as at a
            # stream's start. Were it re-read, the rule looks back at it only if
            # the stream is at most 2 elements old, so it is the stream's start.
            prev = np.empty((2, n))
            prev[0, 1:] = x[:-1]
            prev[1, 1:] = kern[:-1]
            prev[:, off] = [[0.0], [math.inf]]
            small = wmax * kern < -tol * np.maximum(1.0, np.abs(partial)) * np.expm1(-2.0 * beta * (x - prev[0]))
            stop = small & new & (pos >= 2) & (x >= x_star)
            stop[2:] &= small[1:-1] & small[:-2]
            # A non-finite term leaves every partial sum from it on non-finite.
            bad = new & (~np.isfinite(partial) | (x > x_star) & (kern > prev[1] * (1.0 + 1e-9)) & (kern > 1e-305))
            read += n
            if one:
                hits = np.flatnonzero(stop | bad)  # first stop or fault
                upto = int(hits[0]) if hits.size else n - 1
                fail = hits.size > 0 and bool(bad[upto])
                stop_here = hits.size > 0 and not fail
                carry[:, q] = partial[upto], cum[-1]
                count[q] += upto + 1 - old
                done = stop_here or n == old  # stopped, or the stream has ended
                if done:
                    j = at[upto:upto + 1]
                    tail[q] = _tail(x, kern, cum, j, np.maximum(j - _WINDOW + 1, 0), beta)[0]
                stopped[q], failed[q], going[i] = stop_here, fail, not (done or fail)
            else:
                hit = np.minimum.reduceat(np.where(stop | bad, at, n), off)  # first stop or fault
                found = hit <= last
                fail = found & bad[np.minimum(hit, n - 1)]
                stop_here = found ^ fail
                upto = np.minimum(hit, last)
                carry[0, r] = partial[upto]
                carry[1, r] = cum[last]
                count[r] += upto + 1 - off - old
                done = stop_here | (got == old)  # stopped, or the stream has ended
                j = upto[done]
                if j.size:
                    tail[r[done]] = _tail(x, kern, cum, j, np.maximum(j - _WINDOW + 1, off[done]), beta)
                stopped[r] = stop_here
                failed[r] = fail
                going[i:k] = ~(done | fail)
            if read >= _MAX_TERMS and count.max() >= _MAX_TERMS:
                raise _over_budget(count.max(), s, beta)
            i = k
        want[live] = np.minimum(2 * want[live], _BLOCK)
        live = live[going]
    return carry[0], tail, count, stopped, failed


def _single(s: float, beta: float, tol: float, source, first: float):
    """One stream through _sweep: (value, tail bound, terms, stopped by the rule)."""
    value, tail, count, stopped, failed = _sweep(s, beta, tol, source, np.array([first]))
    if failed[0]:
        raise ConvergenceError(f"a term is non-finite or fails to decay (s={s}, beta={beta})")
    return float(value[0]), float(tail[0]), int(count[0]), bool(stopped[0])


def _row_source(s: float, beta: float, alphas: np.ndarray, B: float, head=None):
    """Rows x = alpha_n * m, m = 1, 2, ..., with weights cos(2 pi m B); head,
    if given, receives each row's first kernel E(alpha_n) as the row starts."""

    def source(starts, lengths, live):
        ends = lengths.cumsum()
        n = int(ends[-1])
        off = ends - lengths
        m = np.arange(1.0, n + 1.0) + (starts - off).repeat(lengths)
        x = alphas[live].repeat(lengths) * m
        kern = _envelope(s, beta, x)
        if head is not None:
            fresh = starts == 0
            head[live[fresh]] = kern[off[fresh]]
        term = kern * np.cos((2.0 * math.pi * B) * m) if B != 0.0 else kern
        return x, kern, np.ones(n), term, lengths

    return source


def sum_h(params: SeriesParams, tol: Optional[float] = None) -> EvalResult:
    """Phase-weighted Bessel series h(s, beta, B)."""
    tol = _check_tol(tol)
    s, beta = params.s, params.beta
    reach = _reach(s, beta, tol)
    if math.ceil(reach) + 3 > _MAX_TERMS:
        raise _over_budget(math.ceil(reach) + 3, s, beta)
    with np.errstate(all="ignore"):
        source = _row_source(s, beta, np.ones(1), params.B)
        value, err, terms, _ = _single(s, beta, tol, source, _need(s, beta, tol, 1.0) + 3.0)
    return EvalResult(value, err, terms, "direct_h")


def sum_h0(s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Phase-free series h0(s, beta) = h(s, beta, 0)."""
    return replace(sum_h(SeriesParams(s=s, beta=beta), tol), method="direct_h0")


def sum_g(d: int, s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Punctured-lattice series g(d; s, beta), summed over shells |n|^2 = k."""
    params = SeriesParams(s=s, beta=beta, d=d)
    tol = _check_tol(tol)
    reach = _reach(s, beta, tol)
    if math.ceil(reach * reach) + 3 > _MAX_TERMS:
        raise _over_budget(math.ceil(reach * reach) + 3, s, beta)
    kmax = 0
    ks = rs = np.zeros(0)  # k and r_d(k) of the nonempty shells k <= kmax

    def grow(k):
        nonlocal kmax, ks, rs
        kmax = k
        r = sf.lattice_shell_counts(params.d, kmax)[1:]
        ks = np.flatnonzero(r) + 1.0
        rs = r[r > 0.0]

    def source(starts, lengths, live):
        lo, end = int(starts[0]), int(starts[0] + lengths[0])
        # Shells are added only once the block holds none past the re-read
        # window, so the array stays within twice the largest shell read.
        while ks.size < min(end, lo + _WINDOW + 1):
            grow(2 * kmax)
        k = ks[lo:end]
        w = rs[lo:end]
        kern = k ** -s * _envelope(s, beta, np.sqrt(k))
        return np.sqrt(k), kern, w, w * kern, np.array([k.size])

    # The kernel r_d(k) k^{-s} E(sqrt k) is r_d(k) beta^{2s} E(sqrt k) at order -s,
    # r_d(k) >= 2. |S| often carries that weight too, and then the rule stops far
    # sooner, so the first block ends 3 nodes past the prediction but by 2 reach
    # and by _BLOCK shells.
    need = min(_need(-s, beta, tol, 1.0, math.log(2.0) + 2.0 * s * math.log(beta)), 2.0 * reach)
    grow(min(math.ceil((need + 3.0) ** 2), _BLOCK))
    with np.errstate(all="ignore"):
        value, err, terms, _ = _single(s, beta, tol, source, ks.size)
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
    SeriesParams(s=s, beta=beta, B=B, model=model)  # validates the arguments
    tol = _check_tol(tol)
    if not isinstance(model, ManifoldModel):
        raise DomainError(f"model must be a ManifoldModel, got {type(model).__name__}")
    reach = _reach(s, beta, tol)
    spectrum = model.eigenvalues()
    alphas, mults = array("d"), array("d")  # the spectrum drawn so far
    need = 0  # inner terms the rows drawn need, at ceil(reach/alpha_n) + 2 a row
    spent = 0  # inner terms used by the rows summed so far
    # Per summed row: outer kernel, outer term, inner terms used, weighted tail bound.
    summed = np.zeros((4, 0))

    def draw(n, node=math.inf):
        """Draw the spectrum until it holds n eigenvalues or one past node, or
        ends; refuse as soon as the rows drawn need over _MAX_TERMS terms."""
        nonlocal need
        if len(alphas) >= n or (alphas and alphas[-1] > node):
            return
        for alpha, mult in spectrum:
            alphas.append(alpha)
            mults.append(mult)
            need += math.ceil(reach / alpha) + 2
            if need > _MAX_TERMS:
                raise _over_budget(need, s, beta)
            if len(alphas) >= n or alpha > node:
                return

    def sum_rows(c0, c1):
        """Outer kernel, outer term, inner terms and weighted tail of rows c0..c1-1."""
        a, mult = np.array(alphas[c0:c1]), np.array(mults[c0:c1])
        head = np.empty(a.size)
        # Rows of wider spacing stop sooner: the first row's prediction covers them all.
        first = _need(s, beta, tol, a[0]) / a + 3.0
        vals, tails, counts, _, failed = _sweep(s, beta, tol, _row_source(s, beta, a, B, head), first)
        power = a ** (-2.0 * s)
        weight = mult * power
        kern = power * head / -np.expm1(-2.0 * beta * a)
        return np.array([kern, np.where(failed, np.nan, weight * vals), counts, weight * tails])

    def source(starts, lengths, live):
        nonlocal summed, spent
        lo, end = int(starts[0]), int(starts[0] + lengths[0])
        draw(end)
        end = min(end, len(alphas))
        fresh = [summed]
        for c0 in range(summed.shape[1], end, _ROWS):
            fresh.append(sum_rows(c0, min(end, c0 + _ROWS)))
            spent += int(fresh[-1][2].sum())
            if spent > _MAX_TERMS:
                raise _over_budget(spent, s, beta)
        summed = np.concatenate(fresh, axis=1)
        kern, term = summed[:2, lo:end]
        return np.array(alphas[lo:end]), kern, np.array(mults[lo:end]), term, np.array([end - lo])

    draw(math.inf, reach)
    # The outer kernel is mult_n beta^{2s} E(alpha_n) at order -s, over
    # 1 - e^{-2 alpha_n beta}. As for g, the first block ends 3 rows past the
    # prediction but by 2 reach and by _ROWS rows.
    node = min(_need(-s, beta, tol, 1.0, math.log(mults[0]) + 2.0 * s * math.log(beta)), 2.0 * reach)
    draw(_ROWS, node)
    with np.errstate(all="ignore"):
        first = min(bisect.bisect_right(alphas, node), _ROWS) + 3
        value, err, used, stopped = _single(s, beta, tol, source, first)
    method = "direct_f" if stopped or not isinstance(model, TableModel) else "direct_f_truncated"
    return EvalResult(value, err + float(summed[3, :used].sum()), int(summed[2, :used].sum()), method)
