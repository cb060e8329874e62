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
holds a run of each live stream, at most 2^16 elements per K_nu call, and
each run's partial sums are taken apart from the others'. A stream's first
block reaches just past the node where _need predicts the rule stops it,
w E(x) = tol (1 - e^{-2 beta dx}) with dx the node spacing, E from the
large-argument form of K_s (DLMF 10.40.2) and y = 2 x beta >= |s| + 2.
That is the threshold for |S| <= 1; a larger sum stops sooner. So most
streams take one K_nu evaluation over about the terms they use. The
prediction only sizes blocks; the rule decides the stop. Where the weight w
is beta^{2s} (g, and f's outer stream), a large w often comes with a large
|S|, so those first blocks end by 2 reach (below), by 2^16 shells for g and by
1024 rows for f. A stream not yet stopped gets a block of twice as many new
elements, which starts by re-reading its last 33 elements, the tail bound's
window. So nothing but the partial sums passes between blocks, and the
result does not depend on the block layout. f sums its rows up to 1024 at a
time, as the outer stream asks for them. g doubles its shell array only once
a block has read every shell in it, so past its first block the array stays
below twice the largest shell read.

Budget: a sum predicted to need more than 10^7 terms raises ConvergenceError
at once, from reach = (|s| + 2 + ln(1/tol))/(2 beta): h before it starts
(reach + 3 terms), g likewise (reach^2 + 3 shells). f counts its eigenvalues
in draws of at most 1024, the first up to reach and each next one reach/4
further; a draw whose rows would bring the terms used to over 10^7, at
reach/alpha_n + 2 a row, is refused once the outer stream reaches its first
row (the first draw before any row is summed). So is any stream that passes
10^7 terms.

Tail bound (error_estimate): a geometric series fitted to the last 33
elements (see _tail), which measures how fast the weights accumulate as well
as the decay, since on a lattice shells crowd and their counts grow. For f
the inner rows' bounds are added.
"""

from __future__ import annotations

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


def _need(s: float, beta: float, tol: float, spacing, log_w: float = 0.0) -> np.ndarray:
    """Node x = y/(2 beta) where the rule should stop a stream, per spacing dx.

    Solves w E(x) = tol (1 - e^{-2 beta dx}) for y = 2 x beta >= |s| + 2,
    w = e^log_w the stream's weight, with E from the large-argument form of
    K_s (DLMF 10.40.2, two correction terms):
    E ~ sqrt(pi/2) 2^-s y^(s-1/2) e^-y (1 + m/y + m (4s^2 - 9)/(16 y^2)),
    m = (4s^2 - 1)/8, by a fixed-point step and three Newton steps. That is
    the rule's threshold for |S| <= 1; a larger sum stops sooner. It only
    sizes first blocks. A prediction one element short costs a second K_nu
    call: without the correction terms, or with the fixed-point step alone,
    a quarter of phased h sums need one.
    """
    rhs = np.log(tol * -np.expm1(-2.0 * beta * np.asarray(spacing, dtype=float)))
    rhs = rhs - log_w - 0.5 * math.log(math.pi / 2.0) + s * math.log(2.0)
    a, m, y_min = s - 0.5, (4.0 * s * s - 1.0) / 8.0, abs(s) + 2.0
    y = np.maximum(-rhs, y_min)
    y = np.maximum(y + a * np.log(y), y_min)
    for _ in range(3):
        lhs = a * np.log(y) - y + np.log1p(m / y * (1.0 + (4.0 * s * s - 9.0) / (16.0 * y)))
        y = np.maximum(y - (lhs - rhs) / (a / y - 1.0), y_min)
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
    steps = np.maximum(j - lo, 1)
    xj = x[j]
    xlo = x[lo]
    nj = cum[j]
    kj = kern[j]
    dx = np.where(j > lo, (xj - xlo) / steps, xj)
    p = np.where(j > lo, np.log(nj / cum[lo]) / np.log(xj / xlo), 1.0)
    rho = (kj / kern[lo]) ** (1.0 / steps)
    floor = np.exp(-2.0 * beta * dx)
    rho = np.where(rho < 1.0, np.fmax(rho, floor), floor)
    return 2.0 * p * nj / xj * dx * kj * rho / (1.0 - rho)


def _run_sums(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sums of the rows of a over each run up to every element, pos[i] being
    element i's place in its run.

    A flat cumsum would carry the rounding of a large run into every smaller
    run after it, so several runs are summed apart, by doubling steps
    (Hillis-Steele): each sum then rounds only over its own run's elements.
    """
    if pos[-1] == pos.size - 1:  # a single run
        return np.cumsum(a, axis=-1)
    c = a.copy()
    step, top = 1, pos.max()
    while step <= top:
        c[:, step:] += np.where(pos[step:] >= step, c[:, :-step], 0.0)
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

    Returns per-stream arrays value, tail bound, terms used, stopped, failed;
    raises ConvergenceError when a stream's terms pass _MAX_TERMS.
    """
    rows = len(first)
    x_star = (abs(s) + 2.0) / (2.0 * beta)
    value = np.zeros(rows)
    tail = np.zeros(rows)
    weight = np.zeros(rows)
    count = np.zeros(rows, dtype=np.int64)
    stopped = np.zeros(rows, dtype=bool)
    failed = np.zeros(rows, dtype=bool)
    want = np.minimum(first, _BLOCK).astype(np.int64)
    live = np.arange(rows)
    while live.size:
        start = np.maximum(count[live] - _WINDOW, 0)
        size = np.minimum(count[live] - start + want[live], _BLOCK)
        ends = np.cumsum(size)
        going = np.zeros(live.size, dtype=bool)
        i = 0
        while i < live.size:  # runs of streams, at most _BLOCK elements each
            k = int(np.searchsorted(ends, ends[i] - size[i] + _BLOCK, side="right"))
            r = live[i:k]
            x, kern, wmax, term, got = source(start[i:k], size[i:k], r)
            old = count[r] - start[i:k]  # elements re-read
            off = np.cumsum(got) - got
            last = off + got - 1
            n = x.size
            at = np.arange(n)
            pos = at - np.repeat(off, got)
            new = pos >= np.repeat(old, got)
            sums = _run_sums(np.stack((term, wmax)), pos)
            back = np.where(old > 0, sums[:, off + old - 1], 0.0)  # over the re-read elements
            partial = np.repeat(value[r] - back[0], got) + sums[0]
            cum = np.repeat(weight[r] - back[1], got) + sums[1]
            # A run's first element gets x = 0 and no kernel before it, as at a
            # stream's start. Were it re-read, the rule looks back at it only if
            # the stream is at most 2 elements old, so it is the stream's start.
            dx = np.empty(n)
            dx[1:] = x[1:] - x[:-1]
            dx[off] = x[off]
            env = wmax * kern
            small = env < tol * np.maximum(1.0, np.abs(partial)) * -np.expm1(-2.0 * beta * dx)
            run = small & (pos >= 2)
            run[2:] &= small[1:-1] & small[:-2]
            before = np.empty(n)
            before[1:] = kern[:-1]
            before[off] = math.inf
            grows = (x > x_star) & (kern > before * (1.0 + 1e-9)) & (kern > 1e-305)
            bad = new & (~(np.isfinite(env) & np.isfinite(partial)) | grows)
            stop = np.minimum.reduceat(np.where(run & new & (x >= x_star), at, n), off)
            fail = np.minimum.reduceat(np.where(bad, at, n), off) <= np.minimum(stop, last)
            stop_here = (stop <= last) & ~fail
            upto = np.where(stop_here, stop, last)
            used = new & (at <= np.repeat(upto, got))
            value[r] += np.add.reduceat(np.where(used, term, 0.0), off)
            count[r] += upto + 1 - off - old
            if count[r].max() >= _MAX_TERMS:
                raise _over_budget(count.max(), s, beta)
            done = stop_here | (got == old)  # stopped, or the stream has ended
            j = upto[done]
            tail[r[done]] = _tail(x, kern, cum, j, np.maximum(j - _WINDOW + 1, off[done]), beta)
            stopped[r] = stop_here
            failed[r] = fail
            weight[r] = cum[last]
            going[i:k] = ~(done | fail)
            i = k
        want[live] = np.minimum(2 * want[live], _BLOCK)
        live = live[going]
    return value, tail, count, stopped, failed


def _single(s: float, beta: float, tol: float, source, first: int):
    """One stream through _sweep: (value, tail bound, terms, stopped by the rule)."""
    value, tail, count, stopped, failed = _sweep(s, beta, tol, source, np.array([first]))
    if failed[0]:
        raise ConvergenceError(f"a term is non-finite or fails to decay (s={s}, beta={beta})")
    return float(value[0]), float(tail[0]), int(count[0]), bool(stopped[0])


def _row_source(s: float, beta: float, alphas: np.ndarray, B: float):
    """Rows x = alpha_n * m, m = 1, 2, ..., with weights cos(2 pi m B)."""

    def source(starts, lengths, live):
        n = int(lengths.sum())
        m = np.arange(1.0, n + 1.0) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        x = np.repeat(alphas[live], lengths) * m
        kern = _envelope(s, beta, x)
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
    need = min(float(_need(-s, beta, tol, 1.0, math.log(2.0) + 2.0 * s * math.log(beta))), 2.0 * reach)
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
    params = SeriesParams(s=s, beta=beta, B=B, model=model)
    tol = _check_tol(tol)
    if not isinstance(model, ManifoldModel):
        raise DomainError(f"model must be a ManifoldModel, got {type(model).__name__}")
    reach = _reach(s, beta, tol)
    spectrum = model.eigenvalues()
    ended = False
    alphas, mults = array("d"), array("d")  # the spectrum drawn so far
    draws = [0]  # first row of each budget draw
    extent = reach  # node bound of the last budget draw
    checked = 0  # budget draws passed
    refused = None  # terms needed by a draw over budget
    spent = 0  # inner terms used by the rows summed so far
    # Per summed row: outer kernel, outer term, inner terms used, weighted tail
    # bound; the first `done` columns hold them.
    summed = np.zeros((4, _ROWS))
    done = 0

    def draw(n, node=math.inf):
        """Draw the spectrum until it holds n eigenvalues or one past node, or ends."""
        nonlocal ended, extent
        while not ended and len(alphas) < n and (not alphas or alphas[-1] <= node):
            pair = next(spectrum, None)
            ended = pair is None
            if pair is not None:
                size = len(alphas) - draws[-1]
                if alphas and (size >= _ROWS or pair[0] > extent):
                    extent += reach / 4.0 if size < _ROWS else 0.0
                    draws.append(len(alphas))
                alphas.append(pair[0])
                mults.append(pair[1])

    def next_draw():
        return draws[checked] if checked < len(draws) else len(alphas)

    def over(terms):
        """Whether the next budget draw needs over _MAX_TERMS: terms + reach/alpha_n + 2 a row."""
        nonlocal checked, refused
        if len(draws) == checked + 1:  # draw the rest of the last budget draw
            draw(draws[-1] + _ROWS + 1, extent)
        end = draws[checked + 1] if len(draws) > checked + 1 else len(alphas)
        need = terms + float(np.sum(np.ceil(reach / np.array(alphas[draws[checked]:end])) + 2.0))
        if need > _MAX_TERMS:
            refused = need
            return True
        checked += 1
        return False

    def sum_rows(c0, c1):
        """Outer kernel, outer term, inner terms and weighted tail of rows c0..c1-1."""
        a, mult = np.array(alphas[c0:c1]), np.array(mults[c0:c1])
        first = _need(s, beta, tol, a) / a + 3.0
        vals, tails, counts, _, failed = _sweep(s, beta, tol, _row_source(s, beta, a, params.B), first)
        weight = mult * a ** (-2.0 * s)
        kern = a ** (-2.0 * s) * _envelope(s, beta, a) / -np.expm1(-2.0 * beta * a)
        return np.array([kern, np.where(failed, np.nan, weight * vals), counts, weight * tails])

    def source(starts, lengths, live):
        nonlocal summed, done, spent
        if refused is not None:
            raise _over_budget(refused, s, beta)
        first_new = done
        draw(int(starts[0] + lengths[0]))
        end = min(int(starts[0] + lengths[0]), len(alphas))
        while refused is None and done < end:
            c1 = min(end, done + _ROWS)
            if next_draw() == done and over(spent):
                if done == first_new:
                    raise _over_budget(refused, s, beta)
                break
            new = sum_rows(done, c1)
            # A budget draw starting inside the chunk counts the rows before it.
            while refused is None and next_draw() < c1:
                over(spent + int(new[2, :next_draw() - done].sum()))
            new = new[:, :(next_draw() if refused is not None else c1) - done]
            if done + new.shape[1] > summed.shape[1]:
                summed = np.concatenate((summed, np.zeros_like(summed)), axis=1)
            summed[:, done:done + new.shape[1]] = new
            done += new.shape[1]
            spent += int(new[2].sum())
        kern, term = summed[:2, starts[0]:done]
        return (np.array(alphas[starts[0]:done]), kern, np.array(mults[starts[0]:done]), term,
                np.array([done - starts[0]]))

    draw(1)
    # The outer kernel is mult_n beta^{2s} E(alpha_n) at order -s, over
    # 1 - e^{-2 alpha_n beta}. As for g, the first block ends 3 rows past the
    # prediction but by 2 reach and by _ROWS rows.
    need = min(float(_need(-s, beta, tol, 1.0, math.log(mults[0]) + 2.0 * s * math.log(beta))), 2.0 * reach)
    draw(_ROWS, need)
    with np.errstate(all="ignore"):
        first = len(alphas) - (alphas[-1] > need) + 3
        value, err, used, stopped = _single(s, beta, tol, source, first)
    method = "direct_f" if stopped or not isinstance(model, TableModel) else "direct_f_truncated"
    return EvalResult(value, err + float(summed[3, :used].sum()), int(summed[2, :used].sum()), method)
