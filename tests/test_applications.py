"""Applications layer: Poisson check, product zeta, Casimir piston, mass sums.

Every numerical assertion here is against an oracle built independently of the
code under test: closed-form lattice sums, hand-assembled Bessel sums via
scipy.special.kv, finite differences of direct energies, or symmetric
eps-limits around singular parameter values.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from besselsum import applications as ap
from besselsum import asymptotics as asy
from besselsum import direct_eval as de
from besselsum import specfun as sf
from besselsum.errors import ConfigError, ConvergenceError, DomainError, PoleError
from besselsum.manifolds import CircleModel, TableModel, circle_model, torus_model

from util import poisson_check

CIRCLE = circle_model()


# ---------------------------------------------------------------------------
# Poisson resummation self-check
# ---------------------------------------------------------------------------


class TestPoissonCheck:
    def test_generic_point(self):
        lhs, rhs = poisson_check(0.7, 1.2, 0.3)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))

    def test_self_dual_point(self):
        lhs, rhs = poisson_check(1.0, math.sqrt(math.pi), 0.0)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))

    def test_small_t_limit(self):
        # As t -> 0 both sides approach b / sqrt(pi t).
        lhs, rhs = poisson_check(0.02, 0.9, 0.2)
        limit = 0.9 / math.sqrt(math.pi * 0.02)
        assert abs(lhs - limit) < 1e-12 * limit
        assert abs(rhs - limit) < 1e-12 * limit

    def test_random_points(self):
        rng = np.random.RandomState(42)
        for _ in range(10):
            t = float(10.0 ** rng.uniform(-1, 1))
            b = float(10.0 ** rng.uniform(-0.5, 0.5))
            B = float(rng.uniform(0, 1))
            lhs, rhs = poisson_check(t, b, B)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Product zeta: direct value against independent assemblies
# ---------------------------------------------------------------------------


def _inner_quartic(a, B):
    """sum_m ((m+B)^2 + a^2)^(-2) over all integers m, in closed form."""
    u = 2.0 * math.pi * a
    if u > 40.0:
        return math.pi / (2.0 * a ** 3)
    k = math.cos(2.0 * math.pi * B)
    ch = math.cosh(u)
    sh = math.sinh(u)
    G = (math.pi / a) * sh / (ch - k)
    return G / (2.0 * a * a) - (math.pi ** 2 / (a * a)) * (1.0 - k * ch) / (ch - k) ** 2


def _brute_quartic(beta, B):
    """Quartic product zeta (s=2.5, d=1, circle factor) by explicit summation."""
    s, d = 2.5, 1
    c = math.pi / beta
    P = sf.gamma(s - d / 2.0) / ((4.0 * math.pi) ** (d / 2.0) * sf.gamma(s))
    N = 400
    total = math.fsum(c ** -4.0 * _inner_quartic(n / c, B) for n in range(1, N + 1))
    tail = (math.pi / (2.0 * c)) * (
        1.0 / (2.0 * N ** 2) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    )
    return P * (total + tail)


def _hand_d0(s, beta, B):
    """d=0 product zeta assembled by hand from scipy Bessel functions."""
    bracket = [sf.gamma(s - 0.5) * sf.riemann_zeta(2.0 * s - 1.0)]
    for n in range(1, 200):
        row = 0.0
        for k in range(1, 400):
            z = 2.0 * n * k * beta
            if z > 45.0:
                break
            row += (
                math.cos(2.0 * math.pi * k * B)
                * (k * beta / n) ** (s - 0.5)
                * float(sps.kv(s - 0.5, z))
            )
        bracket.append(4.0 * row)
        if 2.0 * n * beta > 45.0:
            break
    return beta / (math.sqrt(math.pi) * sf.gamma(s)) * math.fsum(bracket)


class _ShiftedPoleModel(CircleModel):
    """Circle spectrum with an artificial extra zeta pole at u = -3/2.

    Exercises the limit branch where a nonpositive-integer order parameter
    lands exactly on a spectral-zeta pole, which no bundled model reaches.
    """

    def zeta(self, s):
        return sf.riemann_zeta(2.0 * s) + 1.0 / (s + 1.5)

    def zeta_poles(self):
        return (Fraction(1, 2), Fraction(-3, 2))

    def zeta_res(self, s0):
        if s0 == Fraction(-3, 2):
            return 1.0
        return super().zeta_res(s0)

    def zeta_fp(self, s0):
        if s0 == Fraction(-3, 2):
            return sf.riemann_zeta(-3.0)
        return super().zeta_fp(s0)


class TestProductZeta:
    @pytest.mark.parametrize("B", [0.0, 0.3])
    def test_quartic_brute_force(self, B):
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=1.0, B=B)
        got = ap.product_zeta(geom, 2.5).value
        want = _brute_quartic(1.0, B)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_d0_hand_assembly(self):
        geom = ap.ProductGeometry(d=0, model=CIRCLE, beta=0.7, B=0.3)
        got = ap.product_zeta(geom, 1.2).value
        want = _hand_d0(1.2, 0.7, 0.3)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_phase_reflection_invariance(self):
        gA = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.8, B=0.3)
        gB = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.8, B=0.7)
        a = ap.product_zeta(gA, 1.7).value
        b = ap.product_zeta(gB, 1.7).value
        assert abs(a - b) < 1e-11 * max(1.0, abs(a))

    def test_pole_of_spectral_zeta_raises(self):
        # d=1 shifts the circle zeta pole u=1/2 to s = 3/2.
        with pytest.raises(PoleError):
            ap.product_zeta(ap.ProductGeometry(d=1, model=CIRCLE, beta=1.0), 1.5)

    @pytest.mark.parametrize("s0", [0.0, -1.0])
    def test_nonpositive_integer_s_matches_eps_limit(self, s0):
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.9, B=0.25)
        v0 = ap.product_zeta(geom, s0).value
        eps = 1e-6
        vp = ap.product_zeta(geom, s0 + eps).value
        vm = ap.product_zeta(geom, s0 - eps).value
        assert abs(v0 - 0.5 * (vp + vm)) < 1e-8

    def test_gamma_pole_cancelled_by_zeta_zero(self):
        # d=0 circle at s=-1/2: the gamma pole meets an exact trivial zero.
        geom = ap.ProductGeometry(d=0, model=CIRCLE, beta=0.9, B=0.25)
        v0 = ap.product_zeta(geom, -0.5).value
        eps = 1e-6
        vp = ap.product_zeta(geom, -0.5 + eps).value
        vm = ap.product_zeta(geom, -0.5 - eps).value
        assert abs(v0 - 0.5 * (vp + vm)) < 1e-8 * max(1.0, abs(v0))

    def test_gamma_pole_with_nonzero_zeta_raises(self):
        # d=0 circle at s=1/2: shifted argument 0 has zeta_N(0) = -1/2 != 0.
        with pytest.raises(PoleError):
            ap.product_zeta(ap.ProductGeometry(d=0, model=CIRCLE, beta=0.9), 0.5)

    @pytest.mark.parametrize("s", [-340.5, -171.5, -200.3])
    def test_gamma_underflow_is_a_domain_error(self, s):
        # Gamma(s) underflows to 0 there, so 1/Gamma(s) leaves double range.
        assert sf.gamma(s) == 0.0
        geom = ap.ProductGeometry(0, CIRCLE, 0.5, 0.25)
        with pytest.raises(DomainError, match="Gamma"):
            ap.product_zeta(geom, s)
        with pytest.raises(DomainError, match="Gamma"):
            ap.product_zeta_expansion(geom, s, 3.0)

    def test_nonpositive_integer_s_on_zeta_pole(self):
        toy = _ShiftedPoleModel()
        geom = ap.ProductGeometry(d=0, model=toy, beta=0.9, B=0.25)
        v0 = ap.product_zeta(geom, -1.0).value
        eps = 1e-6
        vp = ap.product_zeta(geom, -1.0 + eps).value
        vm = ap.product_zeta(geom, -1.0 - eps).value
        assert abs(v0 - 0.5 * (vp + vm)) < 1e-7


_GRID_MODELS = {"circle": CIRCLE, "torus:1": torus_model(1), "torus:2": torus_model(2),
                "torus:3": torus_model(3)}
_GRID_S = [k / 2.0 for k in range(-10, 12)] + [0.3, -2.7, 1.2, 3.71]


class TestProductZetaExpansion:
    def _check_against_direct(self, geom, s, order, beta, scale):
        ex = ap.product_zeta_expansion(geom, s, order)
        direct = ap.product_zeta(geom, s).value
        diff = abs(ex.evaluate(beta) - direct)
        if ex.remainder_power is None:
            # Terminating expansion: only the exponentially small dual sum is
            # left out.
            bound = scale
        else:
            bound = 50.0 * beta ** ex.remainder_power
        assert diff < bound

    def test_matches_direct_circle(self):
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.15, B=0.3)
        self._check_against_direct(geom, 1.2, 8.0, 0.15, 2e-11)

    def test_matches_direct_circle_B0(self):
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.15, B=0.0)
        self._check_against_direct(geom, 1.2, 8.0, 0.15, 2e-11)

    def test_matches_direct_torus(self):
        geom = ap.ProductGeometry(d=1, model=torus_model(2), beta=0.2, B=0.4)
        self._check_against_direct(geom, 2.3, 8.0, 0.2, 2e-10)

    def test_leading_power(self):
        # Leading infrared power is 2s - d - Q for a Q-dimensional model.
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.15, B=0.3)
        ex = ap.product_zeta_expansion(geom, 1.2, 8.0)
        lead = min(t.power for t in ex.terms)
        assert abs(lead - (2 * 1.2 - 1 - 1)) < 1e-12

    def test_gamma_weighted_value_finite_at_small_s(self):
        # Gamma(s) * zeta_prod(s) has a finite s -> 0+ limit.
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.15, B=0.3)
        vals = []
        for s in (1e-4, 1e-5):
            ex = ap.product_zeta_expansion(geom, s, 6.0)
            vals.append(sf.gamma(s) * ex.evaluate(0.15))
        assert all(math.isfinite(v) for v in vals)
        assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[1])

    def test_nonpositive_integer_s_is_exact(self):
        geom = ap.ProductGeometry(d=1, model=CIRCLE, beta=0.15, B=0.3)
        ex = ap.product_zeta_expansion(geom, 0.0, 6.0)
        want = ap.product_zeta(geom, 0.0).value
        assert abs(ex.evaluate(0.15) - want) < 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("name", sorted(_GRID_MODELS))
    def test_refuses_exactly_where_the_direct_value_does(self, name):
        # one pole rule for both: a log term in the engine's residue at t = 0
        model = _GRID_MODELS[name]
        mismatched = []
        for d in range(4):
            for s in _GRID_S:
                try:
                    ap.product_zeta(ap.ProductGeometry(d, model, 0.3, 0.25), s)
                    direct = False
                except PoleError:
                    direct = True
                for order in (0.0, 4.0, 10.0):
                    try:
                        ap.product_zeta_expansion(ap.ProductGeometry(d, model, 1.0, 0.25), s, order)
                        expanded = False
                    except PoleError:
                        expanded = True
                    if expanded != direct:
                        mismatched.append((d, s, order, direct))
        assert mismatched == []

    @pytest.mark.parametrize("name", ["circle", "torus:1", "torus:2"])
    def test_gamma_pole_on_an_exact_zeta_zero_expands(self, name):
        # s' = s - (d+1)/2 a nonpositive integer where zeta_N(s') = 0: the
        # boundary term has a finite limit, and so does the table
        model = _GRID_MODELS[name]
        for d, s in [(0, -2.5), (0, -1.5), (0, -0.5), (2, -2.5), (2, -1.5), (2, -0.5), (2, 0.5)]:
            ex = ap.product_zeta_expansion(ap.ProductGeometry(d, model, 1.0, 0.25), s, 10.0)
            for beta in (0.05, 0.1, 0.2):
                r = ap.product_zeta(ap.ProductGeometry(d, model, beta, 0.25), s)
                lb = math.log(beta)
                size = sum((abs(t.const_coeff) + abs(t.log_coeff * lb)) * beta ** t.power
                           for t in ex.terms)
                assert abs(ex.evaluate(beta) - r.value) <= r.error_estimate + 1e-10 * size


# ---------------------------------------------------------------------------
# Casimir piston
# ---------------------------------------------------------------------------


def _piston_config(model, d, beta, L):
    return ap.PistonConfig(
        geometry=ap.ProductGeometry(d=d, model=model, beta=beta, B=0.5), L=L
    )


def _energy_direct(model, d, beta, L):
    return 0.5 * ap.piston_zeta(_piston_config(model, d, beta, L), -0.5).value


PISTON_GEOMETRIES = [
    ("torus1_D1", torus_model(1), 0),
    ("circle_D1", circle_model(), 0),
    ("torus1_D2", torus_model(1), 1),
    ("torus1_D3", torus_model(1), 2),
    ("torus2_D2", torus_model(2), 1),
]


class TestCasimir:
    @pytest.mark.parametrize(
        "model,d", [(m, d) for _, m, d in PISTON_GEOMETRIES],
        ids=[name for name, _, _ in PISTON_GEOMETRIES],
    )
    def test_energy_matches_direct_half_zeta(self, model, d):
        cfg = _piston_config(model, d, 0.3, 2.0)
        pole, finite = ap.casimir_energy(cfg)
        # Flat factors have vanishing odd heat coefficients, so no pole.
        assert pole == 0.0
        direct = _energy_direct(model, d, 0.3, 2.0)
        assert abs(finite - direct) < 1e-9 * max(1.0, abs(direct))

    def test_force_matches_finite_difference(self):
        model, d, beta, L = torus_model(1), 0, 0.3, 2.0
        F = ap.casimir_force(_piston_config(model, d, beta, L))
        h = 1e-3

        def two_chamber(b):
            return _energy_direct(model, d, b, L) + _energy_direct(model, d, L - b, L)

        fd1 = -(two_chamber(beta + h) - two_chamber(beta - h)) / (2 * h)
        fd2 = -(two_chamber(beta + h / 2) - two_chamber(beta - h / 2)) / h
        fd = (4.0 * fd2 - fd1) / 3.0
        # The closed-form energy drops a dual-sum remainder ~ e^(-pi^2/a); at
        # the far chamber a = L - beta this dominates the discrepancy, so the
        # comparison is made at that remainder scale rather than machine
        # precision.
        rem_bound = 2.0 * math.exp(-math.pi ** 2 / (L - beta))
        assert abs(F - fd) < rem_bound
        assert abs(F - fd) < 1e-2 * abs(F)

    def test_force_is_derivative_of_its_own_energy(self):
        # Pins the differentiation algebra: finite differences of the
        # closed-form energy itself must reproduce the analytic force.
        model, d, beta, L = torus_model(1), 0, 0.3, 2.0
        F = ap.casimir_force(_piston_config(model, d, beta, L))
        h = 1e-3

        def two_chamber_series(b):
            ea = ap.casimir_energy(_piston_config(model, d, b, L))[1]
            eb = ap.casimir_energy(_piston_config(model, d, L - b, L))[1]
            return ea + eb

        sd1 = -(two_chamber_series(beta + h) - two_chamber_series(beta - h)) / (2 * h)
        sd2 = -(two_chamber_series(beta + h / 2) - two_chamber_series(beta - h / 2)) / h
        sfd = (4.0 * sd2 - sd1) / 3.0
        assert abs(F - sfd) < 1e-9 * max(1.0, abs(F))

    def test_force_antisymmetry(self):
        model, d, beta, L = torus_model(1), 0, 0.3, 2.0
        F = ap.casimir_force(_piston_config(model, d, beta, L))
        Fm = ap.casimir_force(_piston_config(model, d, L - beta, L))
        assert abs(Fm + F) < 1e-13 * max(1.0, abs(F))

    def test_piston_zeta_pole_raises(self):
        cfg = _piston_config(torus_model(1), 0, 0.3, 2.0)
        with pytest.raises(PoleError):
            ap.piston_zeta(cfg, 1.0)

    def test_table_model_pole_coefficient(self):
        tab = TableModel(
            D=1,
            alphas=[1.0, 2.0, 3.0],
            mults=[1.0, 1.0, 1.0],
            heat={0: math.sqrt(math.pi) / 2.0, 0.5: -0.5, 1.0: 0.1, 1.5: 0.7},
        )
        cfg = _piston_config(tab, 0, 0.4, 1.0)
        pole, _ = ap.casimir_energy(cfg)
        want = 0.4 * 0.7 / (16.0 * math.pi)
        assert abs(pole - want) < 1e-14

    def test_table_model_force_antisymmetry(self):
        # Log channels are active here; antisymmetry must still be exact.
        tab = TableModel(
            D=1,
            alphas=[1.0, 2.0, 3.0],
            mults=[1.0, 1.0, 1.0],
            heat={0: math.sqrt(math.pi) / 2.0, 0.5: -0.5, 1.0: 0.1, 1.5: 0.7},
        )
        F = ap.casimir_force(_piston_config(tab, 0, 0.4, 1.0))
        Fm = ap.casimir_force(_piston_config(tab, 0, 0.6, 1.0))
        assert abs(Fm + F) < 1e-12 * max(1.0, abs(F))

    def test_chamber_width_must_be_inside_piston(self):
        with pytest.raises(ConfigError):
            _piston_config(torus_model(1), 0, 2.5, 2.0)


# ---------------------------------------------------------------------------
# Mass sums
# ---------------------------------------------------------------------------


class TestMassSeries:
    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    @pytest.mark.parametrize("beta", [0.2, 0.8])
    def test_identity_with_h0(self, D, beta):
        L = 1.0
        m = 2.0 * beta / L
        got = ap.mass_sum(m, L, D, tol=1e-14).value
        h0 = de.sum_h0(1.0 - D / 2.0, beta, tol=1e-14).value
        want = (2.0 / L ** 2) ** (D / 2.0 - 1.0) * beta ** (D - 2) * h0
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_identity_other_length(self):
        got = ap.mass_sum(2.0 * 0.4 / 2.5, 2.5, 4, tol=1e-14).value
        want = (2.0 / 2.5 ** 2) * 0.4 ** 2 * de.sum_h0(-1.0, 0.4, tol=1e-14).value
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_small_mass_within_tolerance(self):
        # the terms fall like 1/n^2 until n ~ 1/(mL): stopping at the first
        # small terms would miss the tail by far more than tol
        m, L = 1e-4, 1.0
        got = ap.mass_sum(m, L, 4).value
        want = ap.mass_expansion(m, L, 4, 12.0).evaluate(m)
        assert abs(got - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("block", [None, 4])
    @pytest.mark.parametrize("m, L, D", [(0.7, 1.0, 4), (1.3, 0.5, 2), (0.05, 2.0, 3), (2e-3, 1.0, 6)])
    def test_block_step_matches_the_term_loop(self, monkeypatch, m, L, D, block):
        # The rule applied term by term to the same terms gives the same sum,
        # stop and estimate; blocks of 4 carry runs of small terms across
        # block starts.
        if block:
            monkeypatch.setattr(ap, "_BLOCK", block)
        got = ap.mass_sum(m, L, D)
        nu, x, tol = 0.5 * D - 1.0, L * m, de.DEFAULT_TOL
        ns = np.arange(1.0, got.terms_used + 11.0)
        decay, small, running, used = -math.expm1(-x), 0, 0.0, []
        for n, term in enumerate(((m / (ns * L)) ** nu * sf.bessel_k_many(nu, ns * x)).tolist(), 1):
            used.append(term)
            running += term
            small = small + 1 if n >= (nu + 2.0) / x and term < tol * max(1.0, running) * decay else 0
            if small == 3:
                break
        assert (got.value, got.terms_used) == (math.fsum(used), len(used))
        assert got.error_estimate == 2.0 * used[-1] * math.exp(-x) / decay

    @pytest.mark.parametrize("m", [1e-6, 1e-9])
    def test_mass_past_the_term_budget_refused_at_once(self, m):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="mass_expansion"):
            ap.mass_sum(m, 1.0, 4)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("m", [1.0, 0.1])
    def test_non_finite_term_refused(self, m):
        # At D = 340, K_169(n L m) overflows for the first n.
        with pytest.raises(ConvergenceError, match="non-finite"):
            ap.mass_sum(m, 1.0, 340)

    @pytest.mark.parametrize("L, D, order", [(1.0, 340, 8.0), (3000.0, 4, 100.0)])
    def test_expansion_past_double_range_refused(self, L, D, order):
        # Finite h0 coefficients leave double range once rescaled: at D = 340
        # (s = -169), and at L = 3000, where (L/2)^98 alone overflows.
        with pytest.raises(DomainError, match="double range"):
            ap.mass_expansion(1.0, L, D, order)

    def test_first_block_holds_the_stop(self, monkeypatch):
        # The h0 predictor sizes the first block: over direct-scan's range of
        # masses, lengths and dimensions, one K_nu call per sum.
        calls = []
        bessel_k_many = sf.bessel_k_many
        monkeypatch.setattr(sf, "bessel_k_many", lambda nu, x: calls.append(1) or bessel_k_many(nu, x))
        for m in np.geomspace(0.01, 3.0, 9):
            for L in (0.5, 1.1, 2.0):
                for D in (2, 3, 4, 5, 6):
                    calls.clear()
                    ap.mass_sum(m, L, D)
                    assert len(calls) == 1, (m, L, D)

    def test_expansion_matches_direct_D4(self):
        m, L = 0.2, 1.0
        ex = ap.mass_expansion(m, L, 4, 8.0)
        direct = ap.mass_sum(m, L, 4, tol=1e-14).value
        assert ex.remainder_power is not None
        assert abs(ex.evaluate(m) - direct) < 50.0 * m ** ex.remainder_power

    def test_log_coefficient_D3(self):
        L = 1.0
        ex = ap.mass_expansion(0.01, L, 3, 6.0)
        want = -math.sqrt(math.pi / 2.0) / L
        got = [t.log_coeff for t in ex.terms if abs(t.power) < 1e-12]
        assert len(got) == 1
        assert abs(got[0] - want) < 1e-13

    def test_log_coefficient_D3_against_direct_fit(self):
        # Strip the log channel, then fit the residual of the direct sum
        # against log(m) at two small masses.
        L = 1.0
        ex = ap.mass_expansion(0.01, L, 3, 6.0)
        nolog = [asy.ExpansionTerm(t.power, t.const_coeff, 0.0) for t in ex.terms]
        ex_nolog = asy.Expansion(
            "mass_series", ex.case_tag, ex.params, tuple(nolog),
            ex.max_power, ex.remainder_power,
        )
        resid = []
        for m in (0.01, 0.005):
            resid.append(ap.mass_sum(m, L, 3, tol=1e-14).value - ex_nolog.evaluate(m))
        fit = (resid[0] - resid[1]) / (math.log(0.01) - math.log(0.005))
        want = -math.sqrt(math.pi / 2.0) / L
        assert abs(fit - want) < 1e-4
