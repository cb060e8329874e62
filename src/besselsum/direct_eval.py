"""Direct summation of the Bessel-function series (the ground-truth path).

Every series here converges for all real order parameters thanks to the
exponential decay of K_nu at large argument; these routines sum the terms
outright and report a tail bound. They are the oracles against which the
small-argument expansions are tested, and they deliberately do nothing
clever: no acceleration, no resummation.

Each family is one weighted-kernel sum  sum_j w_j E(x_j),  with
E(x) = (x beta)^s K_s(2 x beta), over one stream of increasing distinct nodes
x_j (B is the phase):

* h(s, beta, B): x = m >= 1, w = cos(2 pi m B); h0(s, beta) = h(s, beta, 0)
* g(d, s, beta) over the punctured Z^d lattice: x = sqrt(k), w = r_d(k) k^{-s},
  one element per nonempty shell |n|^2 = k
* f(model, s, beta, B): x = alpha_n m over the eigenvalues alpha_n and m >= 1,
  w_x = sum over the pairs with alpha_n m = x of mult_n alpha_n^{-2s} cos(2 pi m B),
  the coefficients of the Dirichlet series whose Mellin transform the
  expansion factors as zeta(2t) (or C(2t, B)) times zeta_M(t + s). A sieve
  over the pairs (n, m) gives them (_nodes), so K_s is evaluated once a node.

Stopping rule, the same for every family: element j is small when its
envelope W_j E(x_j) is below tol * max(1, |S_j|) * (1 - e^{-2 beta (x_j - x_{j-1})}),
S_j the partial sum; the factor turns a term into the tail of an
e^{-2 x beta} decay. W_j bounds |w_j| with every |cos| counted as 1, never
|w_j| itself, which a phase can cancel by chance: 1 for h, r_d(k) for g, and
for f the larger of W_x = sum mult_n alpha_n^{-2s} and the weight per unit x
near x times the spacing (see sum_f). The sum stops at the third small
element in a row past x* = (|s| + 2)/(2 beta), beyond which every kernel
decays. A non-finite term, or a kernel growing past x*, met before the stop
raises ConvergenceError: it signals a numerical problem, not a slowly
converging sum.

Blocks: _sweep sums the stream in blocks of at most 2^16 elements, one K_nu
call each. The first block reaches just past the node where the rule is
predicted to stop (_need for h and g, _first_block for f): the threshold for
|S| <= 1, or where every term is positive (B = 0, h and f) for a lower bound
on S, which never makes the block too short. So a sum most often takes one
K_nu evaluation over about the terms it uses. A stream not yet stopped gets
a block of twice as many new elements, which starts by re-reading its last
33 elements, the tail bound's window. The source hands over each element's
rule factor 1 - e^{-2 beta dx} and the running sum of the envelope weights
from the stream's start, so nothing but the partial sum passes between
blocks and the result does not depend on the block layout. A block finds
its stop and first fault on slices of its arrays. g doubles its shell
array, and f its node table, only once a block has read every element in it.

Budget: a sum predicted to need more than 10^7 terms raises ConvergenceError
at once, from reach = (|s| + 2 + ln(1/tol))/(2 beta): h before it starts
(reach + 3 terms), g likewise (reach^2 + 3 shells), f as soon as its rows
alpha_n <= reach, counted in increasing order at ceil(reach/alpha_n) + 2 a
row (about the sieve's pairs), pass 10^7 (_check_rows). A stream past 10^7
terms used is refused.

Tail bound (error_estimate): a geometric series fitted to the last 33
elements (see _tail), taken once, at the stop, in scalar arithmetic. It
measures how fast the weights accumulate as well as the decay, since on a
lattice nodes crowd and their weights grow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import islice, takewhile
from typing import Optional

import numpy as np

from . import specfun as sf
from .errors import ConvergenceError, DomainError
from .manifolds import CircleModel, ManifoldModel, TableModel, TorusModel

__all__ = ["DEFAULT_TOL", "SeriesParams", "EvalResult", "sum_h", "sum_h0", "sum_g", "sum_f"]

DEFAULT_TOL = 1e-12

_MAX_TERMS = 10_000_000
_BLOCK = 1 << 16  # elements evaluated at once
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
        return asdict(self)


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
        y = max(y - (a * math.log(y) - y + math.log(_series(s, y)) - rhs) / (a / y - 1.0), y_min)
    return y / (2.0 * beta)


def _series(s: float, y):
    """1 + a_1/y + a_2/y^2 + a_3/y^3 of DLMF 10.40.2 (see _need) at a float or an array y."""
    a1 = (4.0 * s * s - 1.0) / 8.0
    a2 = a1 * (4.0 * s * s - 9.0) / 16.0
    a3 = a2 * (4.0 * s * s - 25.0) / 24.0
    u = 1.0 / y
    return 1.0 + u * (a1 + u * (a2 + u * a3))


def _tail(x, kern, cum, j: int, beta: float) -> float:
    """Bound on the sum of a stream past the element j >= 2 of a block.

    Over the window [lo, j], lo = j - 32 or the block's first element: rho is
    the kernel's decay per element, and the cumulative weight bound N(x) ~ x^p
    gives p N/x, the weight per unit x. The tail is
    2 (p N_j/x_j) dx kern_j rho/(1 - rho), dx the mean spacing; rho is at
    least e^{-2 beta dx}, since far out every kernel falls like e^{-2 x beta}
    and nearer in its decay only slows down as x grows.
    """
    lo = max(j - _WINDOW + 1, 0)
    xj, xlo, kj, klo, nj = float(x[j]), float(x[lo]), float(kern[j]), float(kern[lo]), float(cum[j])
    dx, p = (xj - xlo) / (j - lo), math.log(nj / float(cum[lo])) / math.log(xj / xlo)
    rho = (kj / klo) ** (1.0 / (j - lo)) if klo > 0.0 else 0.0
    rho = max(rho if rho < 1.0 else 0.0, math.exp(-2.0 * beta * dx))
    return 2.0 * p * nj / xj * dx * kj * rho / (1.0 - rho) if rho < 1.0 else math.inf


def _first(mask) -> int:
    """Index of the first True in mask, or its length if there is none."""
    i = int(mask.argmax()) if mask.size else 0
    return i if i < mask.size and mask[i] else mask.size


def _log_h0_floor(s: float, beta: float) -> float:
    """ln max(1, L), L a lower bound on the partial sums of h0(s, beta) near
    its stop: E(1) >= Gamma(-s)/2 beta^{2s} e^{-2 beta} for s <= -1/2, as
    K_nu(z) >= 2^{nu-1} Gamma(nu) z^{-nu} e^{-z} (nu >= 1/2); for s > 0, as E
    falls from E(0) = Gamma(s)/2, int_0^inf E - E(0) = sqrt(pi) Gamma(s + 1/2)/(4 beta) - Gamma(s)/2."""
    if s <= -0.5:
        return max(math.lgamma(-s) - math.log(2.0) + 2.0 * s * math.log(beta) - 2.0 * beta, 0.0)
    if s > 0.0:
        a = math.lgamma(s + 0.5) + 0.5 * math.log(math.pi) - math.log(4.0 * beta)
        b = math.lgamma(s) - math.log(2.0)
        if a > b:
            return max(a + math.log1p(-math.exp(b - a)), 0.0)
    return 0.0


def _first_block(s: float, beta: float, tol: float, x, geo, wmax, w=None):
    """(elements, 0.0) of a first block that should hold the stop of a stream
    with nodes x, rule factors geo and envelope weights wmax (see _sweep), or
    (len(x) + 1, gap) if no node is predicted to stop it, the envelope lying
    gap >= 1 (in ln) above the threshold over the last window.

    The rule at each node, E from the large-argument form (as in _need) taken
    twice over; the block ends 3 nodes past the third small node in a row.
    For a stream of positive terms w E(x), w given, |S| <= 1 gives way to the
    partial sums of w (y/2)^s K_low(y) e^-y, y = 2 x beta, nu = |s|: for
    nu >= 1/2, K_low is the larger of sqrt(pi/(2y)) (K_nu >= K_{1/2}) and
    2^{nu-1} Gamma(nu) y^-nu; for nu < 1/2, sqrt(pi/(2y)) (1 - (1 - 4 nu^2)/(8y)),
    as the remainder of DLMF 10.40.2 after two terms has the sign of the
    first one left out (DLMF 10.40.10).
    """
    y = 2.0 * beta * x
    log_y = np.log(y)
    # ln (y/2)^s sqrt(pi/(2y)) e^-y, the leading part of E and of the bound
    base = (s - 0.5) * log_y - y + (0.5 * math.log(math.pi / 2.0) - s * math.log(2.0))
    over = base + np.log(wmax * _series(s, y) / geo) + math.log(2.0 / tol)
    if w is not None:
        nu = abs(s)
        if nu >= 0.5:  # ln K_low/K_{1/2}
            c = (nu - 1.0) * math.log(2.0) + math.lgamma(nu) - 0.5 * math.log(math.pi / 2.0)
            corr = np.fmax(c - (nu - 0.5) * log_y, 0.0)
        else:
            corr = np.log(np.fmax(1.0 - (1.0 - 4.0 * nu * nu) / (8.0 * y), 0.0))
        over -= np.fmax(np.logaddexp.accumulate(np.log(w) + base + corr), 0.0)
    small = over[y.searchsorted(abs(s) + 2.0):] < 0.0
    run = small[2:] & small[1:-1] & small[:-2]
    if (hit := _first(run)) < run.size:
        return x.size - small.size + hit + 6, 0.0
    return x.size + 1, float(np.fmax(over[-_WINDOW:].max(initial=1.0), 1.0))


def _sweep(s: float, beta: float, tol: float, source, first: float):
    """Sum one stream under the stopping rule, in blocks: (value, tail bound,
    terms used), value the partial sum at the last term used.

    source(start, size) gives elements start .. start + size - 1, or fewer but
    at least one not read before, as arrays (x, geo, kern, wmax, cum, term): x
    increasing, geo the rule's factor 1 - e^{-2 beta dx}, dx the spacing from
    the element before (x at the stream's start; never read at a re-read
    block's start), wmax * kern >= |term|, cum the running sum of the envelope
    weights from the stream's start; geo and wmax may be numbers. The first
    block has first elements, at most _BLOCK; each later one re-reads the last
    _WINDOW and adds twice as many new ones. Raises ConvergenceError on a
    fault before the stop, and past _MAX_TERMS.
    """
    x_star = (abs(s) + 2.0) / (2.0 * beta)
    value, count, want = 0.0, 0, int(min(first, _BLOCK))
    while True:
        start = max(count - _WINDOW, 0)
        x, geo, kern, wmax, cum, term = source(start, min(count - start + want, _BLOCK))
        n, old = x.size, count - start  # elements given, and re-read
        partial = term.cumsum()
        if old:
            partial += value - partial[old - 1]
        small = wmax * kern < tol * np.maximum(1.0, np.abs(partial)) * geo
        # x increases: the stop is the first new element from lo on to end a run
        # of three small ones, a fault the first new one with a non-finite partial
        # sum (each is, from a non-finite term on) or a kernel growing past x*.
        lo = max(old, 2, int(x.searchsorted(x_star)))
        grow = max(old, 1, int(x.searchsorted(x_star, side="right")))
        bad = ~np.isfinite(partial)
        bad[grow:] |= kern[grow:] > np.maximum(kern[grow - 1:-1] * (1.0 + 1e-9), 1e-305)
        fault = old + _first(bad[old:])
        stop = lo + _first(small[lo:] & small[lo - 1:-1] & small[lo - 2:-2])
        j = min(fault, stop, n - 1)
        value, count = partial[j], count + j + 1 - old
        if count >= _MAX_TERMS:
            raise _over_budget(count, s, beta)
        if fault == j:
            raise ConvergenceError(f"a term is non-finite or fails to decay (s={s}, beta={beta})")
        if stop == j:
            return float(value), _tail(x, kern, cum, j, beta), count
        want = min(2 * want, _BLOCK)


def sum_h(params: SeriesParams, tol: Optional[float] = None) -> EvalResult:
    """Phase-weighted Bessel series h(s, beta, B)."""
    return EvalResult(*_sum_h(params, _check_tol(tol)), "direct_h")


def sum_h0(s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Phase-free series h0(s, beta) = h(s, beta, 0)."""
    return EvalResult(*_sum_h(SeriesParams(s=s, beta=beta), _check_tol(tol)), "direct_h0")


def _sum_h(params: SeriesParams, tol: float):
    """(value, tail bound, terms used) of h(s, beta, B)."""
    s, beta, B = params.s, params.beta, params.B
    reach = _reach(s, beta, tol)
    if math.ceil(reach) + 3 > _MAX_TERMS:
        raise _over_budget(math.ceil(reach) + 3, s, beta)
    geo = -np.expm1(-2.0 * beta)  # the nodes are 1 apart, the first 1 past 0

    def source(start, size):
        m = np.arange(start + 1.0, start + size + 1.0)
        kern = _envelope(s, beta, m)
        term = kern * np.cos((2.0 * math.pi * B) * m) if B != 0.0 else kern
        return m, geo, kern, 1.0, m, term

    # Only with B = 0 is every partial sum bounded below.
    log_floor = _log_h0_floor(s, beta) if B == 0.0 else 0.0
    with np.errstate(all="ignore"):
        return _sweep(s, beta, tol, source, _need(s, beta, tol, 1.0, -log_floor) + 3.0)


def sum_g(d: int, s: float, beta: float, tol: Optional[float] = None) -> EvalResult:
    """Punctured-lattice series g(d; s, beta), summed over shells |n|^2 = k."""
    params = SeriesParams(s=s, beta=beta, d=d)
    tol = _check_tol(tol)
    reach = _reach(s, beta, tol)
    if math.ceil(reach * reach) + 3 > _MAX_TERMS:
        raise _over_budget(math.ceil(reach * reach) + 3, s, beta)
    kmax = 0
    ks = rs = cum = np.zeros(0)  # k, r_d(k) and its running sum over the nonempty shells k <= kmax

    def grow(k):
        nonlocal kmax, ks, rs, cum
        kmax = k
        r = sf.lattice_shell_counts(params.d, kmax)[1:]
        ks = np.flatnonzero(r) + 1.0
        rs = r[r > 0.0]
        cum = rs.cumsum()

    def source(start, size):
        end = start + size
        # Shells are added only once the block holds none past the re-read
        # window, so the array stays within twice the largest shell read.
        while ks.size < min(end, start + _WINDOW + 1):
            grow(2 * kmax)
        k, w = ks[start:end], rs[start:end]
        x = np.sqrt(k)
        kern = k ** -s * _envelope(s, beta, x)
        return x, -np.expm1(-2.0 * beta * np.diff(x, prepend=0.0)), kern, w, cum[start:end], w * kern

    # The kernel r_d(k) k^{-s} E(sqrt k) is r_d(k) beta^{2s} E(sqrt k) at order -s,
    # r_d(k) >= 2. |S| often carries that weight too, and then the rule stops far
    # sooner, so the first block ends 3 nodes past the prediction but by 2 reach
    # and by _BLOCK shells.
    need = min(_need(-s, beta, tol, 1.0, math.log(2.0) + 2.0 * s * math.log(beta)), 2.0 * reach)
    grow(min(math.ceil((need + 3.0) ** 2), _BLOCK))
    with np.errstate(all="ignore"):
        value, err, terms = _sweep(s, beta, tol, source, ks.size)
    return EvalResult(value, err, terms, "direct_g")


def _spectrum(model: ManifoldModel, xmax: float, rows: Optional[int] = None):
    """The eigenvalues alpha_n <= xmax of model, at most rows of them, as
    (q, mult, p), alpha_n = q^(1/p): integers q = n on the circle and torus:1
    (mult a number) and the shells |n|^2 on torus:d (p = 2, mult = r_d); any
    other spectrum is drawn from model.eigenvalues() as floats, q = alpha_n, p = 1.
    """
    if isinstance(model, CircleModel) or (isinstance(model, TorusModel) and model.d == 1):
        mult = 2.0 if isinstance(model, TorusModel) else 1.0
        return np.arange(1, min(math.floor(xmax), rows or math.inf) + 1), mult, 1
    if isinstance(model, TorusModel):
        r = sf.lattice_shell_counts(model.d, math.floor(xmax * xmax))[1:]
        q = np.flatnonzero(r) + 1
        return q, r[q - 1], 2
    drawn = np.array(list(islice(takewhile(lambda e: e[0] <= xmax, model.eigenvalues()), rows))).reshape(-1, 2)
    return drawn[:, 0], drawn[:, 1], 1


def _check_rows(model: ManifoldModel, s: float, beta: float, reach: float) -> float:
    """Terms f's rows alpha_n <= reach need, at ceil(reach/alpha_n) + 2 a row;
    refuses as soon as they pass _MAX_TERMS, counted in increasing order.

    At 3 terms or more a row, _MAX_TERMS // 3 + 1 rows always pass the budget.
    The shells of torus:d are counted from tables 16x apart, the last to
    reach^2.
    """
    stages = 0  # the first of them to 2^16 or less
    while isinstance(model, TorusModel) and model.d > 1 and (reach / 4.0 ** stages) ** 2 > 1 << 16:
        stages += 1
    for k in range(stages, -1, -1):
        q, _, p = _spectrum(model, reach / 4.0 ** k, _MAX_TERMS // 3 + 1)
        need = (np.ceil(reach / (np.sqrt(q) if p == 2 else q)) + 2.0).cumsum()
        over = int(need.searchsorted(_MAX_TERMS, side="right"))
        if over < need.size:
            raise _over_budget(need[over], s, beta)
    return float(need[-1]) if need.size else 0.0


def _nodes(model: ManifoldModel, s: float, B: float, lo: float, hi: float):
    """f's distinct nodes lo < x <= hi, as (x, w, W): the signed weights w_x
    and the weights W_x with every |cos| counted as 1.

    A sieve over the pairs (n, m) with lo < alpha_n m <= hi. A node's pairs
    all fall in one range, and its bin adds them in order of n, so the weights
    do not depend on how the nodes are split into ranges.
    """
    q, mult, p = _spectrum(model, hi)
    if q.dtype.kind == "i":  # keys k = q m^p <= k1 exactly
        k0, k1 = math.floor(lo ** p), math.floor(hi ** p)
        m0, m1 = (k0 // q, k1 // q) if p == 1 else (((k // q) ** (1.0 / p)).astype(np.int64) for k in (k0, k1))
    else:  # one more m each side, then the range decides on the products as rounded
        m0, m1 = np.maximum((lo / q).astype(np.int64) - 1, 0), (hi / q).astype(np.int64) + 1
    per = m1 - m0
    m = np.arange(1, per.sum() + 1) + (m1 - per.cumsum()).repeat(per)
    idx = q.repeat(per) * (m if p == 1 else m ** p)  # the key, which is the node's bin if an integer
    base = (mult * q ** (-2.0 * s / p)).repeat(per)
    if q.dtype.kind != "i":
        inside = (idx > lo) & (idx <= hi)
        base, m = base[inside], m[inside]
        node, idx = np.unique(idx[inside], return_inverse=True)
    W = np.bincount(idx, base)
    w = np.bincount(idx, base * np.cos((2.0 * math.pi * B) * m)) if B != 0.0 else W
    if q.dtype.kind == "i":  # the bins hit: every weight is positive, or adds nothing
        node = W.nonzero()[0]
        W, w = W[node], w[node]
    return node ** (1.0 / p), w, W


def sum_f(model: ManifoldModel, s: float, beta: float, B: float, tol: Optional[float] = None) -> EvalResult:
    """Double series f over model eigenvalues alpha_n and integers m, summed as
    one stream over its distinct nodes x = alpha_n m.

    terms_used counts the nodes. A TableModel whose last eigenvalue lies below
    the node the rule stops at gets method "direct_f_truncated".

    The envelope weight is V_x = max(W_x, rho dx), rho the weight W per unit x
    over the span of length x_0 = alpha_1 that ends at x and dx the spacing
    before x; the tail bound counts the running sum of V. Where the rows' weights differ by orders
    of magnitude (torus:d at s > 0), runs of light nodes lie between the heavy
    ones of the first row, and W alone would stop the stream inside one.
    """
    SeriesParams(s=s, beta=beta, B=B, model=model)  # validates the arguments
    tol = _check_tol(tol)
    if not isinstance(model, ManifoldModel):
        raise DomainError(f"model must be a ManifoldModel, got {type(model).__name__}")
    reach = _reach(s, beta, tol)
    need = _check_rows(model, s, beta, reach)
    xmax = 0.0
    x = w = W = geo = V = cum = np.zeros(0)  # the node table, to xmax

    def extend(hi):
        """Add the nodes xmax < x <= hi to the table, with their rule factors and envelope weights."""
        nonlocal xmax, x, w, W, geo, V, cum
        new = _nodes(model, s, B, xmax, hi)
        x, w, W = (np.concatenate(pair) for pair in zip((x, w, W), new)) if x.size else new
        xmax = hi
        dx = x.copy()
        dx[1:] -= x[:-1]
        cw = np.zeros(x.size + 1)  # 0, then the running sum of W: the weight up to each node
        W.cumsum(out=cw[1:])
        V = np.fmax(W, (cw[1:] - cw[x.searchsorted(x - x[:1], side="right")]) / x[:1] * dx)
        cum = V.cumsum()
        geo = -np.expm1(-2.0 * beta * dx)

    def source(start, size):
        end = start + size
        # As for g: the table grows only once a block has read every node in it.
        while x.size < min(end, start + _WINDOW + 1):
            extend(2.0 * xmax)
        kern = _envelope(s, beta, x[start:end])
        return x[start:end], geo[start:end], kern, V[start:end], cum[start:end], w[start:end] * kern

    with np.errstate(all="ignore"):
        # The table reaches reach, or past it as far as the stop is predicted to
        # lie. Most streams stop a little past reach: a table of few pairs
        # reaches 2 reach at once, which costs less than a second pass.
        extend(reach if need > _BLOCK else 2.0 * reach)
        while True:
            # Only with B = 0 is every term positive, and S bounded below.
            first, gap = _first_block(s, beta, tol, x, geo, V, w if B == 0.0 else None)
            if not gap:
                break
            if x.size > _MAX_TERMS:
                raise _over_budget(x.size, s, beta)
            extend(xmax + gap / (2.0 * beta) if x.size else 2.0 * xmax)
        value, err, used = _sweep(s, beta, tol, source, first)
    truncated = isinstance(model, TableModel) and x[used - 1] > model.alpha_list[-1]
    return EvalResult(value, err, used, "direct_f_truncated" if truncated else "direct_f")
