"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that inputs follow from the seed alone, that tracing does not
change any value the program returns, and that the references agree with
mpmath.
"""

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from run import OUT, child_env  # noqa: E402
from workloads import KNOWN_FAULT_OPS, WORKLOADS, Stream  # noqa: E402


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b, c = Stream(workload, 7), Stream(workload, 7), Stream(workload, 8)
    for r in (0, 1, 5):
        assert a.round(r) == b.round(r)
        assert a.round(r) != c.round(r)
    assert json.dumps(a.round(3)) == json.dumps(Stream(workload, 7).round(3))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_have_fixed_slots_and_no_repeats(workload):
    stream = Stream(workload, 3)
    seen = set()
    shape = None
    for r in range(40):
        ops = stream.round(r)
        kinds = [op[0] if isinstance(op, list) else op["kind"] for op in ops]
        shape = shape or kinds
        assert kinds == shape
        for op in ops:
            if isinstance(op, dict) and op in KNOWN_FAULT_OPS:
                continue
            key = json.dumps(op, sort_keys=True)
            assert key not in seen
            seen.add(key)


# ---------------------------------------------------------------------------
# Tracing changes no value
# ---------------------------------------------------------------------------


def _worker(workload, tag, trace=False):
    """Outputs of the worker's traced prefix of rounds (it stops there at --seconds 0)."""
    records = os.path.join(OUT, f"test-records-{workload}-{tag}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", "5", "--records", records]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, f"test-spans-{workload}.json")]
    subprocess.run(cmd, env=child_env(), capture_output=True, check=True, timeout=300)
    with open(records, encoding="utf-8") as fh:
        return [json.loads(line)[2] for line in fh]


@pytest.mark.parametrize("workload", ["direct-scan", "expand-tables"])
def test_traced_and_untraced_values_identical(workload):
    os.makedirs(OUT, exist_ok=True)
    plain = _worker(workload, "plain")
    traced = _worker(workload, "traced", trace=True)
    assert json.dumps(plain) == json.dumps(traced)


# ---------------------------------------------------------------------------
# References against mpmath
# ---------------------------------------------------------------------------

mp.mp.dps = 30


def _mp_h(s, beta, B=0.0):
    return float(mp.nsum(lambda m: mp.cos(2 * mp.pi * m * B) * (m * beta) ** s
                         * mp.besselk(s, 2 * m * beta), [1, mp.inf]))


@pytest.mark.parametrize("s,beta,B", [(0.7, 0.3, 0.0), (-1.3, 0.8, 0.27), (2.0, 0.05, 0.0)])
def test_brute_force_h_matches_mpmath(s, beta, B):
    got, _ = refs.h(s, beta, B)
    assert got == pytest.approx(_mp_h(s, beta, B), rel=1e-13)


def test_h0_half_closed_form_matches_brute_force():
    for beta in (0.01, 0.4, 3.0):
        assert refs.h0_half(beta)[0] == pytest.approx(refs.h(0.5, beta)[0], rel=1e-13)


def test_mass_sum_matches_mpmath():
    m, L, D = 0.3, 1.2, 5
    nu = D / 2 - 1
    want = mp.nsum(lambda n: (m / (n * L)) ** nu * mp.besselk(nu, n * L * m), [1, mp.inf])
    assert refs.mass_sum(m, L, D)[0] == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("nu", [-3.3, -1.0, -0.4, 0.3, 1.0, 1.5, 4.2])
@pytest.mark.parametrize("x", [0.1, 0.37, 0.8])
def test_polylog_pair_matches_mpmath(nu, x):
    want = 2 * mp.re(mp.polylog(nu, mp.exp(2j * mp.pi * x)))
    assert refs.polylog_pair(nu, x) == pytest.approx(float(want), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("u", [-1.7, 0.3, 0.9, 2.6])
def test_epstein_z2_matches_zeta_times_beta(u):
    want = 4 * mp.zeta(u) * mp.dirichlet(u, [0, 1, 0, -1])
    assert refs.epstein(2, u) == pytest.approx(float(want), rel=1e-12)


def test_epstein_z3_matches_mpmath_theta_integral():
    u = 0.8
    theta = lambda t: mp.jtheta(3, 0, mp.exp(-mp.pi * t)) ** 3 - 1  # noqa: E731
    lam = mp.quad(lambda t: theta(t) * (t ** (u - 1) + t ** (1.5 - u - 1)), [1, mp.inf])
    want = mp.pi ** u * (lam + 1 / (u - 1.5) - 1 / u) / mp.gamma(u)
    assert refs.epstein(3, u) == pytest.approx(float(want), rel=1e-12)
    # functional equation pi^-u Gamma(u) Z(u) = pi^-(d/2-u) Gamma(d/2-u) Z(d/2-u)
    for v in (-0.7, 2.4):
        lhs = math.pi ** -v * math.gamma(v) * refs.epstein(3, v)
        rhs = math.pi ** -(1.5 - v) * math.gamma(1.5 - v) * refs.epstein(3, 1.5 - v)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_generic_h0_expansion_matches_mpmath_residues():
    s, order = 0.37, 6.0
    terms, rem = refs.expansion("h0", s, order)
    want = {-1.0: mp.sqrt(mp.pi) / 4 * mp.gamma(s + 0.5), 0.0: -mp.gamma(s) / 4}
    j = 0
    while 2 * s + 2 * j <= order:
        want[2 * s + 2 * j] = (mp.mpf(-1) ** j / mp.factorial(j) / 2
                               * mp.gamma(-s - j) * mp.zeta(-2 * s - 2 * j))
        j += 1
    assert sorted(terms) == pytest.approx(sorted(want))
    for p, (c, lg) in terms.items():
        key = min(want, key=lambda q: abs(q - p))
        assert c == pytest.approx(float(want[key]), rel=1e-12) and lg == 0.0
    assert rem == pytest.approx(2 * s + 2 * j)


def test_half_expansion_matches_bernoulli_closed_form():
    engine, _ = refs.expansion("h0", 0.5, 9.0)
    closed = refs.h0_half_expansion(9.0)
    assert sorted(engine) == sorted(closed)
    for p, (c, _lg) in closed.items():
        assert engine[p][0] == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("family,s,kw", [
    ("h0", 1.0, {}), ("h0", -1.5, {}), ("h", 2.0, {"x": 0.3}), ("h", -1.0, {"x": 0.3}),
    ("f0", 1.0, {"model": refs.Model("circle")}),
])
def test_double_pole_limits_match_brute_force(family, s, kw):
    """Special orders: the s0 +- EPS limit sums to the series at small beta."""
    beta = 0.05
    terms, rem = refs.expansion(family, s, 8.0, **kw)
    value, scale = refs.evaluate(terms, beta)
    if family == "h0":
        want = refs.h(s, beta)[0]
    elif family == "h":
        want = refs.h(s, beta, kw["x"])[0]
    else:
        want = refs.f(kw["model"], s, beta, 0.0)[0]
    remainder = 0.0 if rem is None else 1e3 * beta ** rem * max(1.0, abs(want))
    # the s0 +- EPS limit is good to ~1e-9 of the size of its pieces
    assert abs(value - want) <= remainder + 1e-7 * scale
