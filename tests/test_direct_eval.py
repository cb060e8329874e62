"""Direct Bessel-K summation against closed forms and brute-force oracles."""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import besselsum.direct_eval as de
import besselsum.manifolds as mf
import besselsum.specfun as sf
from besselsum.direct_eval import SeriesParams
from besselsum.asymptotics import expand_f0
from besselsum.errors import ConvergenceError, DomainError
from util import count_k

CIRCLE = mf.circle_model()
TORUS2 = mf.torus_model(2)
# Nodes coincide: 2 = 1*2 = 2*1, 6 = 1*6 = 2*3 = 3*2, ...; sqrt(10) m meets none.
TABLE = mf.TableModel(D=2, alphas=[1.0, 2.0, 3.0, math.sqrt(10.0)], mults=[1.0, 2.0, 1.0, 3.0],
                      heat={0: math.pi, 1: -1.0})


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Closed-form anchors via K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
def test_h0_half_closed_form(beta):
    want = (math.sqrt(math.pi) / 2.0) / math.expm1(2.0 * beta)
    assert _rel(de.sum_h0(0.5, beta).value, want) < 1e-13


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
def test_h0_minus_half_closed_form(beta):
    want = -(math.sqrt(math.pi) / (2.0 * beta)) * math.log(-math.expm1(-2.0 * beta))
    assert _rel(de.sum_h0(-0.5, beta, tol=1e-14).value, want) < 1e-13


def test_h_half_phase_closed_form():
    beta = 0.5
    want = -(math.sqrt(math.pi) / 2.0) * math.exp(-2 * beta) / (1 + math.exp(-2 * beta))
    assert _rel(de.sum_h(SeriesParams(0.5, beta, 0.5)).value, want) < 1e-13


def test_h_generic_phase_brute_force():
    s, beta, B = 1.0 / 3.0, 0.8, 0.3
    ms = np.arange(1, 200)
    want = float(np.sum(np.cos(2 * np.pi * B * ms) * (ms * beta) ** s
                        * sps.kv(s, 2 * ms * beta)))
    assert _rel(de.sum_h(SeriesParams(s, beta, B)).value, want) < 1e-13


# ---------------------------------------------------------------------------
# Lattice sums g
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,beta", [(0.7, 0.4), (2.0, 0.9), (-1.5, 0.6)])
def test_g_d1_reduces_to_h0(s, beta):
    # one-dimensional lattice: kernel (beta/n)^s = beta^{2s} (n beta)^{-s}
    want = 2.0 * beta ** (2 * s) * de.sum_h0(-s, beta, tol=1e-14).value
    assert _rel(de.sum_g(1, s, beta, tol=1e-14).value, want) < 1e-13


def test_g_d2_brute_force():
    s, beta = 0.7, 0.8
    n = np.arange(-60, 61)
    X, Y = np.meshgrid(n, n)
    K2 = (X ** 2 + Y ** 2).astype(float).ravel()
    al = np.sqrt(K2[K2 > 0])
    want = float(np.sum((beta / al) ** s * sps.kv(s, 2 * al * beta)))
    assert _rel(de.sum_g(2, s, beta, tol=1e-14).value, want) < 1e-12


def test_g_d3_brute_force_negative_order():
    s, beta = -0.9, 1.1
    n = np.arange(-25, 26)
    X, Y, Z = np.meshgrid(n, n, n)
    K2 = (X ** 2 + Y ** 2 + Z ** 2).astype(float).ravel()
    al = np.sqrt(K2[K2 > 0])
    want = float(np.sum((beta / al) ** s * sps.kv(abs(s), 2 * al * beta)))
    assert _rel(de.sum_g(3, s, beta, tol=1e-14).value, want) < 1e-12


# ---------------------------------------------------------------------------
# Spectral sums f
# ---------------------------------------------------------------------------

def test_f_circle_half_order_closed_form():
    # s = 1/2 collapses each inner sum to a geometric/cosine series
    s, beta, B = 0.5, 0.7, 0.3
    tot = 0.0
    for n in range(1, 400):
        q = math.exp(-2 * n * beta)
        z = q * complex(math.cos(2 * math.pi * B), math.sin(2 * math.pi * B))
        tot += (z / (1 - z)).real / n
    want = math.sqrt(math.pi) / 2.0 * tot
    assert _rel(de.sum_f(CIRCLE, s, beta, B).value, want) < 1e-13


def test_f_circle_brute_force_zero_phase():
    s, beta = 1.0 / 3.0, 1.0
    nn = np.arange(1, 201).reshape(-1, 1)
    mm = np.arange(1, 201).reshape(1, -1)
    want = float(np.sum((mm * beta / nn) ** s * sps.kv(s, 2 * nn * mm * beta)))
    assert _rel(de.sum_f(CIRCLE, s, beta, 0.0).value, want) < 1e-13


def test_f_phase_reflection_symmetry():
    r1 = de.sum_f(CIRCLE, 0.4, 0.9, 0.3).value
    r2 = de.sum_f(CIRCLE, 0.4, 0.9, 0.7).value
    assert _rel(r1, r2) < 1e-14


def test_f_torus2_brute_force():
    import besselsum.specfun as sf
    s, beta, B = 0.6, 0.9, 0.25
    counts = sf.lattice_shell_counts(2, 900)
    tot = 0.0
    for k in range(1, 901):
        if counts[k] == 0:
            continue
        alk = math.sqrt(k)
        for m in range(1, 60):
            tot += (counts[k] * math.cos(2 * math.pi * m * B)
                    * (m * beta / alk) ** s * sps.kv(s, 2 * alk * m * beta))
    assert _rel(de.sum_f(TORUS2, s, beta, B).value, tot) < 1e-12


def test_f_table_model_truncation_flagged():
    tm = mf.TableModel(D=2, alphas=[1.0, math.sqrt(2.0), 2.0],
                       mults=[4.0, 4.0, 4.0],
                       heat={0: math.pi, 1: -1.0})
    res = de.sum_f(tm, 0.5, 1.2, 0.0)
    want = sum(
        mult * (m * 1.2 / a) ** 0.5 * sps.kv(0.5, 2 * a * m * 1.2)
        for a, mult in [(1.0, 4), (math.sqrt(2.0), 4), (2.0, 4)]
        for m in range(1, 40)
    )
    assert _rel(res.value, want) < 1e-13
    assert res.method == "direct_f_truncated"
    assert res.error_estimate > 0.0


@pytest.mark.parametrize("B", [0.0, 0.37])
def test_f_table_model_coinciding_nodes(B):
    # Pairs with equal alpha_n m merge into one node of the stream; the sum
    # must still equal the rows summed one by one.
    s, beta = 0.3, 0.5
    want = math.fsum(
        mult * a ** (-2 * s) * math.fsum(np.cos(2 * np.pi * B * m) * (m * a * beta) ** s
                                         * sps.kv(s, 2 * a * m * beta))
        for a, mult, m in ((a, mult, np.arange(1, 80)) for a, mult in TABLE.eigenvalues())
    )
    res = de.sum_f(TABLE, s, beta, B)
    assert abs(res.value - want) <= res.error_estimate + 1e-13 * abs(want)
    assert res.method == "direct_f_truncated"


# ---------------------------------------------------------------------------
# Error estimates bound the error, at large beta and on lattice spectra
# ---------------------------------------------------------------------------

def _within_estimate(res, terms, rel=1e-11):
    """|value - ref| <= error_estimate + rel sum|terms|, ref a brute-force sum."""
    terms = np.asarray(terms)
    ref = math.fsum(terms)
    assert abs(res.value - ref) <= res.error_estimate + rel * math.fsum(np.abs(terms))


def _f_terms(model, s, beta, B):
    """Every term mult_n alpha_n^{-2s} cos(2 pi m B) E(alpha_n m) of f out to
    where the kernel has fallen below e^{-44-4|s|}, row by row."""
    xmax = (44.0 + 4.0 * abs(s)) / (2.0 * beta) + 3.0
    a, mult = np.array(list(itertools.takewhile(lambda e: e[0] <= xmax, model.eigenvalues()))).T
    per = (xmax / a).astype(int)
    m = np.arange(1, per.sum() + 1) - (per.cumsum() - per).repeat(per)
    a, mult = a.repeat(per), mult.repeat(per)
    return mult * a ** (-2 * s) * np.cos(2 * np.pi * B * m) * (m * a * beta) ** s * sf.bessel_k_many(s, 2 * a * m * beta)


@pytest.mark.parametrize("beta", [15.0, 150.0, 300.0])
def test_h0_half_closed_form_at_large_beta(beta):
    want = (math.sqrt(math.pi) / 2.0) / math.expm1(2.0 * beta)
    res = de.sum_h0(0.5, beta)
    assert abs(res.value - want) <= res.error_estimate + 1e-13 * want


def test_h0_large_beta_matches_mpmath():
    import mpmath as mp
    s, beta = 0.3, 15.0
    with mp.workdps(40):
        want = float(mp.fsum((m * beta) ** s * mp.besselk(s, 2 * m * beta) for m in range(1, 6)))
    res = de.sum_h0(s, beta)
    assert abs(res.value - want) <= res.error_estimate + 1e-13 * want


def _shell_terms(d, s, beta, xmax):
    import besselsum.specfun as sf
    r = sf.lattice_shell_counts(d, int(xmax * xmax))
    k = np.flatnonzero(r[1:]) + 1
    al = np.sqrt(k)
    return r[k] * (beta / al) ** s * sps.kv(abs(s), 2 * al * beta)


@pytest.mark.parametrize("s,beta", [(-2.0, 0.06519), (-1.679, 2.932)])
def test_g_d3_estimate_bounds_error(s, beta):
    # Shells crowd together (sqrt(k+1) - sqrt(k) ~ 1/(2 sqrt k)) and their
    # counts grow like sqrt(k), so the tail is far more than e^{-2 beta} decay
    # of the last shell suggests.
    xmax = (44 + 4 * abs(s)) / (2 * beta) + 3
    _within_estimate(de.sum_g(3, s, beta), _shell_terms(3, s, beta, xmax))


def test_f_torus2_estimate_bounds_error():
    import besselsum.specfun as sf
    s, beta = -2.0809, 0.23269
    xmax = (44 + 4 * abs(s)) / (2 * beta) + 3
    r = sf.lattice_shell_counts(2, int(xmax * xmax))
    terms = []
    for k in np.flatnonzero(r[1:]) + 1:
        al = math.sqrt(k)
        m = np.arange(1, int(xmax / al) + 2)
        terms.append(r[k] * (m * beta / al) ** s * sps.kv(abs(s), 2 * al * m * beta))
    _within_estimate(de.sum_f(TORUS2, s, beta, 0.0), np.concatenate(terms))


def test_f_phase_cancellation_does_not_stop_early():
    # At B = 0.948 the signed weights sum_{n|k} cos(2 pi (k/n) B) cancel by
    # chance at some k; a rule fed |w_k| for the envelope stops there, 1.2e-12
    # off against an estimate of 1.5e-13.
    s, beta, B = 0.0, 0.418, 0.948
    _within_estimate(de.sum_f(CIRCLE, s, beta, B), _f_terms(CIRCLE, s, beta, B), 1e-13)


_F_MODELS = {"circle": CIRCLE, "torus1": mf.torus_model(1), "torus2": TORUS2, "table": TABLE}


@pytest.mark.parametrize("name", sorted(_F_MODELS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(s=st.floats(-2.5, 3.5), u=st.floats(0.0, 1.0),
       B=st.one_of(st.just(0.0), st.floats(0.05, 0.95)))
def test_f_matches_the_brute_double_sum(name, s, u, B):
    beta = 0.05 * 60.0 ** u  # log-uniform on [0.05, 3]
    model = _F_MODELS[name]
    _within_estimate(de.sum_f(model, s, beta, B), _f_terms(model, s, beta, B), 1e-12)


# ---------------------------------------------------------------------------
# Bounded work: the term budget and the block size
# ---------------------------------------------------------------------------

def test_f_over_budget_refused_at_once():
    # A row alpha_n takes about reach/alpha_n terms, reach ~ 1.5e6 here: the
    # first 1024 eigenvalues of the circle already need over 10^7 terms.
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="expand"):
        de.sum_f(CIRCLE, 0.5, 1e-5, 0.0)
    assert time.perf_counter() - t0 < 1.0


def test_f_many_rows_in_bounded_blocks(monkeypatch):
    # Some 1.5e5 eigenvalues lie within reach, and as many nodes: they are
    # summed a block at a time, never more than _BLOCK kernel values at once.
    sizes = []
    envelope = de._envelope

    def spy(s, beta, x):
        sizes.append(np.size(x))
        return envelope(s, beta, x)

    monkeypatch.setattr(de, "_envelope", spy)
    res = de.sum_f(CIRCLE, 0.5, 1e-4, 0.0)
    assert max(sizes) <= de._BLOCK
    want = expand_f0(CIRCLE, 0.5, 4).evaluate(1e-4)
    assert abs(res.value - want) < 1e-10 * want


# Orders as direct-scan draws them: negative, fractional and integer.
_SCAN_S = (-2.4, -1.3, -0.1, 0.05, 0.3, 1.7, 3.4, -2.0, 0.0, 1.0, 3.0)


def test_h_sums_make_one_k_call(monkeypatch):
    # Each first block is sized to hold the stop, so one pass evaluates K_nu.
    calls = count_k(monkeypatch)
    for beta in np.geomspace(1e-3, 3.0, 9):
        for s in _SCAN_S:
            for B in (0.0, 0.27, 0.61):
                calls.clear()
                de.sum_h(SeriesParams(s, beta, B))
                assert len(calls) == 1, (s, beta, B)


def test_f_sums_make_one_k_call(monkeypatch):
    # One stream over f's distinct nodes, its first block sized from their
    # weights before any K_nu call, so one pass evaluates K_nu.
    calls = count_k(monkeypatch)
    for model, betas in ((CIRCLE, np.geomspace(0.05, 3.0, 7)), (mf.torus_model(1), np.geomspace(0.05, 3.0, 7)),
                         (TORUS2, np.geomspace(0.1, 3.0, 6)), (TABLE, np.geomspace(0.05, 3.0, 7))):
        for beta in betas:
            for s in _SCAN_S:
                for B in (0.0, 0.27):
                    calls.clear()
                    de.sum_f(model, s, beta, B)
                    assert len(calls) == 1, (model, s, beta, B)


def test_f_k_points_follow_the_nodes_used(monkeypatch):
    # K_nu is evaluated once a node, and not far past the stop: evaluating it
    # per pair (n, m) again, or a first block sized without the weights, fails.
    points = count_k(monkeypatch)
    for model in (CIRCLE, mf.torus_model(1)):
        for beta in np.geomspace(0.05, 3.0, 7):
            for s in _SCAN_S:
                for B in (0.0, 0.27):
                    points.clear()
                    res = de.sum_f(model, s, beta, B)
                    assert sum(points) <= 1.3 * res.terms_used + 3 * de._WINDOW, (model, s, beta, B)


_S_GRID = (-2.3, -1.0, 0.7, 2.0)  # negative, negative integer, fractional, integer
_LAYOUT_GRID = (
    [("h", lambda s=s, b=b, B=B: de.sum_h(SeriesParams(s, b, B)))
     for b in (1e-3, 0.03, 0.5, 3.0) for s in _S_GRID for B in (0.0, 0.3)]
    + [("g", lambda d=d, s=s, b=b: de.sum_g(d, s, b))
       for d in (1, 2, 3) for b in (0.05, 0.5, 3.0) for s in _S_GRID]
    + [("f", lambda m=m, s=s, b=b, B=B: de.sum_f(m, s, b, B))
       for m, betas in ((CIRCLE, (0.01, 0.2, 3.0)), (mf.torus_model(1), (0.01, 0.2, 3.0)),
                        (TORUS2, (0.1, 1.0, 3.0)))
       for b in betas for s in _S_GRID for B in (0.0, 0.3)]
)


def _short_blocks(monkeypatch):
    # Blocks of at most 256 elements split every stream that a default block
    # holds whole.
    monkeypatch.setattr(de, "_BLOCK", 256)


def _tiny_first_blocks(monkeypatch):
    # First blocks of 1, 2 and 3 elements (h; g starts from the shells up to
    # 1, 4 or 9), so later blocks re-read fewer than _WINDOW elements and the
    # rule looks back across a block start.
    sizes = itertools.cycle((1, 2, 3))
    monkeypatch.setattr(de, "_need", lambda *args: next(sizes) - 3.0)
    monkeypatch.setattr(de, "_first_block", lambda *args: (next(sizes), 0.0))


@pytest.mark.parametrize("layout", [_short_blocks, _tiny_first_blocks], ids=["short", "tiny_first"])
def test_block_layout_does_not_change_the_result(monkeypatch, layout):
    # The rule must see the same elements and stop at the same one.
    default = [f() for _, f in _LAYOUT_GRID]
    layout(monkeypatch)
    for (family, f), want in zip(_LAYOUT_GRID, default):
        got = f()
        assert (got.terms_used, got.error_estimate) == (want.terms_used, want.error_estimate), family
        assert abs(got.value - want.value) <= 1e-13 * max(1.0, abs(want.value)), family


@pytest.mark.parametrize("d, s, beta", [(1, -12.0, 0.02), (2, -5.0, 0.05), (3, -3.0, 0.1)])
def test_g_shell_array_stays_within_twice_the_stop(monkeypatch, d, s, beta):
    # At s < 0 and small beta the weight beta^{2s} pushes the prediction far
    # past the stop; the shells built must still follow the shells read.
    asked = []
    counts = de.sf.lattice_shell_counts
    monkeypatch.setattr(de.sf, "lattice_shell_counts", lambda dim, k: asked.append(k) or counts(dim, k))
    res = de.sum_g(d, s, beta)
    shells = np.flatnonzero(counts(d, max(asked))[1:]) + 1
    assert max(asked) <= max(2 * shells[res.terms_used - 1], de._BLOCK)


# ---------------------------------------------------------------------------
# Diagnostics and validation
# ---------------------------------------------------------------------------

def test_error_estimate_bounds_tolerance_change():
    for s, beta in ((0.3, 0.5), (-2.2, 0.8)):
        lo = de.sum_h0(s, beta, tol=1e-8)
        hi = de.sum_h0(s, beta, tol=1e-14)
        assert abs(lo.value - hi.value) <= max(lo.error_estimate, 1e-15)


def test_eval_result_to_dict_keys():
    res = de.sum_h0(0.5, 0.5)
    d = res.to_dict()
    assert list(d.keys()) == ["value", "error_estimate", "terms_used", "method"]


@pytest.mark.parametrize("kwargs", [
    dict(s=float("nan"), beta=0.5),
    dict(s=0.5, beta=0.0),
    dict(s=0.5, beta=-1.0),
    dict(s=0.5, beta=0.5, B=1.0),
    dict(s=0.5, beta=0.5, B=-0.1),
])
def test_series_params_validation(kwargs):
    with pytest.raises(DomainError):
        SeriesParams(**kwargs)


def test_sum_g_validates_dimension():
    with pytest.raises(DomainError):
        de.sum_g(0, 0.5, 0.5)


def test_sum_f_validates_model():
    with pytest.raises(DomainError):
        de.sum_f("circle", 0.5, 0.5, 0.0)


def test_tol_validation():
    with pytest.raises(DomainError):
        de.sum_h0(0.5, 0.5, tol=-1e-9)
