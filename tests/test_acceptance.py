"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints ``[PASS] criterion N: ...`` or ``[FAIL] criterion N: ...``
before asserting, so the per-criterion verdict is visible in the report
(run pytest with ``-rA`` or ``-s`` to see the lines for passing tests).
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

import besselsum.asymptotics as asym
import besselsum.direct_eval as de
import besselsum.manifolds as mf
import besselsum.specfun as sf
from besselsum import applications as ap
from besselsum.mellin_oracle import contour_h, contour_h0

from util import (
    INSTANCES,
    direct_value,
    expansion_for,
    instance_id,
    mass_sum_mp,
    poisson_check,
    richardson_eps_limit,
    special_instances,
)

mp.mp.dps = 40


def _report(num, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num}: {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# 1. Closed-form anchors for the zero-phase series at s = +-1/2.
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_anchors():
    failures = []
    for beta in (0.3, 0.5, 1.0):
        want_plus = (math.sqrt(math.pi) / 2.0) / math.expm1(2.0 * beta)
        got_plus = de.sum_h0(0.5, beta).value
        if _rel(got_plus, want_plus) >= 1e-10:
            failures.append(f"s=+1/2 beta={beta}: {_rel(got_plus, want_plus):.2e}")
        want_minus = -(math.sqrt(math.pi) / (2.0 * beta)) * math.log(-math.expm1(-2.0 * beta))
        got_minus = de.sum_h0(-0.5, beta).value
        if _rel(got_minus, want_minus) >= 1e-10:
            failures.append(f"s=-1/2 beta={beta}: {_rel(got_minus, want_minus):.2e}")
    _report(1, "zero-phase closed forms at s = +-1/2 (1e-10)", failures)


# ---------------------------------------------------------------------------
# 2. Expansion truncation error scales like beta^remainder_power on every
#    implemented branch (all five families; circle and torus(2) models;
#    lattice dimensions 1-3): err(0.1)/err(0.2) within a factor 4 of
#    2^{-remainder_power}.
# ---------------------------------------------------------------------------


def test_criterion_02_remainder_order_scaling():
    failures = []
    for inst in INSTANCES:
        family, model_key, d, s, x, order = inst
        name = instance_id(inst)
        ex = expansion_for(family, model_key, d, s, x, order)
        rp = ex.remainder_power
        if rp is None or not math.isfinite(rp):
            failures.append(f"{name}: no measurable remainder")
            continue
        errs = []
        for beta in (0.1, 0.2):
            direct = direct_value(family, model_key, d, s, beta, x)
            errs.append(abs(ex.evaluate(beta) - direct))
        if errs[1] == 0.0:
            failures.append(f"{name}: zero error at beta=0.2")
            continue
        ratio = errs[0] / errs[1]
        expected = 2.0 ** (-rp)
        if not (expected / 4.0 <= ratio <= expected * 4.0):
            failures.append(
                f"{name}: ratio {ratio:.3g} vs expected {expected:.3g} (rp={rp})"
            )
    _report(2, "truncation error tracks 2^-remainder_power on every branch "
               "(factor 4)", failures)


# ---------------------------------------------------------------------------
# 3. Every special-case branch equals the Richardson eps-limit of the generic
#    branch at beta = 0.15 to 1e-4.
# ---------------------------------------------------------------------------


def test_criterion_03_special_branches_match_generic_limit():
    failures = []
    for inst in special_instances():
        family, model_key, d, s, x, order = inst
        exact = expansion_for(family, model_key, d, s, x, order).evaluate(0.15)
        approx = richardson_eps_limit(family, model_key, d, s, x, order, 0.15)
        err = _rel(approx, exact)
        if err >= 1e-4:
            failures.append(f"{instance_id(inst)}: {err:.2e}")
    _report(3, "special branches match generic-branch eps-limits at beta=0.15 "
               "(1e-4)", failures)


# ---------------------------------------------------------------------------
# 4. The d=1 lattice series reduces to the zero-phase series: termwise in the
#    expansions (with the beta^{2s} prefactor shifting every power by 2s) and
#    as summed values, both to 1e-12.
# ---------------------------------------------------------------------------


def test_criterion_04_lattice_d1_reduction():
    failures = []
    for s in (0.7, 2.0, -1.0, -1.5):
        eg = asym.expand_g(1, s, 6.0)
        eh = asym.expand_h0(-s, 6.0 - 2 * s)
        shifted = {round(t.power + 2 * s, 9): t for t in eh.terms}
        if len(eg.terms) != len(shifted):
            failures.append(f"s={s}: term count {len(eg.terms)} != {len(shifted)}")
            continue
        for t in eg.terms:
            other = shifted.get(round(t.power, 9))
            if other is None:
                failures.append(f"s={s}: no partner for power {t.power}")
                continue
            dc = abs(t.const_coeff - 2.0 * other.const_coeff)
            dl = abs(t.log_coeff - 2.0 * other.log_coeff)
            if dc > 1e-12 * max(1.0, abs(t.const_coeff)):
                failures.append(f"s={s} power={t.power}: const diff {dc:.2e}")
            if dl > 1e-12 * max(1.0, abs(t.log_coeff)):
                failures.append(f"s={s} power={t.power}: log diff {dl:.2e}")
    for s in (0.7, 2.0, -1.0, -1.5):
        for beta in (0.5, 1.0):
            got = de.sum_g(1, s, beta, tol=1e-15).value
            want = 2.0 * beta ** (2 * s) * de.sum_h0(-s, beta, tol=1e-15).value
            if _rel(got, want) >= 1e-12:
                failures.append(f"sum s={s} beta={beta}: {_rel(got, want):.2e}")
    _report(4, "d=1 lattice series reduces to the zero-phase series "
               "(termwise and summed, 1e-12)", failures)


# ---------------------------------------------------------------------------
# 5. Poisson resummation identity: residual < 1e-12 for 10 random (t, b, B).
# ---------------------------------------------------------------------------


def test_criterion_05_poisson_identity():
    failures = []
    rng = np.random.RandomState(42)
    for i in range(10):
        t = float(10.0 ** rng.uniform(-1, 1))
        b = float(10.0 ** rng.uniform(-0.5, 0.5))
        B = float(rng.uniform(0, 1))
        lhs, rhs = poisson_check(t, b, B)
        resid = _rel(lhs, rhs)
        if resid >= 1e-12:
            failures.append(f"draw {i} (t={t:.3g}, b={b:.3g}, B={B:.3g}): {resid:.2e}")
    _report(5, "Poisson resummation identity on 10 random inputs (1e-12)", failures)


# ---------------------------------------------------------------------------
# 6. Heat-kernel/zeta structure for circle and torus models: pole residues,
#    values at nonpositive integers, and the small-t trace, all to 1e-10.
# ---------------------------------------------------------------------------


def test_criterion_06_heat_zeta_identities():
    failures = []
    models = [
        ("circle", mf.circle_model(), 0.05),
        ("torus1", mf.torus_model(1), 0.05),
        ("torus2", mf.torus_model(2), 0.1),
        ("torus3", mf.torus_model(3), 0.2),
    ]
    for name, model, t in models:
        for u0 in model.zeta_poles():
            want = model.heat_coeff(Fraction(model.D, 2) - u0)
            got = sf.gamma(float(u0)) * model.zeta_res(u0)
            if _rel(got, want) >= 1e-10:
                failures.append(f"{name} residue at {u0}: {_rel(got, want):.2e}")
        for k in (0, 1, 2):
            want = (-1) ** k * math.factorial(k) * model.heat_coeff(
                Fraction(model.D, 2) + k)
            got = model.zeta(-float(k))
            if _rel(got, want) >= 1e-10:
                failures.append(f"{name} zeta(-{k}): {_rel(got, want):.2e}")
        want = math.fsum(
            model.heat_coeff(j) * t ** (float(j) - model.D / 2.0)
            for j in model.heat_support()
        )
        got = mf.heat_trace(model, t)
        if abs(got - want) >= 1e-10 * max(1.0, abs(want)):
            failures.append(f"{name} trace t={t}: {abs(got - want):.2e}")
    _report(6, "heat-kernel/zeta identities: residues, negative-integer "
               "values, small-t trace (1e-10)", failures)


# ---------------------------------------------------------------------------
# 7. Integer-lattice zeta: reflection formula (d in 1..3), exact value -1 at
#    the origin, and the d=2 closed form 4*zeta(2)*Catalan corroborated by a
#    shell-count brute force.
# ---------------------------------------------------------------------------


def test_criterion_07_lattice_zeta_reflection_and_values():
    failures = []
    ctx = {d: sf.EpsteinContext(d) for d in (1, 2, 3)}
    for d, u in [(1, 0.3), (1, -0.6), (2, 0.3), (2, 0.8), (3, 0.4), (3, 1.1)]:
        lhs = sf.epstein_zeta(ctx[d], u)
        rhs = (math.pi ** (2 * u - d / 2.0)
               * sf.gamma(d / 2.0 - u) / sf.gamma(u)
               * sf.epstein_zeta(ctx[d], d / 2.0 - u))
        if abs(lhs - rhs) >= 1e-10:
            failures.append(f"reflection d={d} u={u}: {abs(lhs - rhs):.2e}")
    for d in (1, 2, 3):
        if sf.epstein_zeta(ctx[d], 0.0) != -1.0:
            failures.append(f"zeta_E(0) not exactly -1 for d={d}")
    want = 4.0 * float(mp.zeta(2)) * float(mp.catalan)
    got = sf.epstein_zeta(ctx[2], 2.0)
    if _rel(got, want) >= 1e-10:
        failures.append(f"d=2 closed form: {_rel(got, want):.2e}")
    K = 40000
    counts = sf.lattice_shell_counts(2, K)
    k = np.arange(1, K + 1, dtype=float)
    brute = float(np.sum(np.asarray(counts[1:], dtype=float) / k ** 2)) + math.pi / K
    if abs(got - brute) >= 1e-5:
        failures.append(f"d=2 brute force: {abs(got - brute):.2e}")
    _report(7, "lattice zeta reflection (1e-10), exact -1 at origin, d=2 "
               "closed form vs brute force", failures)


# ---------------------------------------------------------------------------
# 8. Contour-integral oracle agrees with direct summation to 1e-7 and is
#    independent of the line abscissa to 1e-8.
# ---------------------------------------------------------------------------


def test_criterion_08_contour_oracle():
    failures = []
    for s in (1.0 / 3.0, 0.9, -0.4):
        for beta in (0.5, 1.0):
            want0 = direct_value("h0", None, None, s, beta, None)
            got0 = contour_h0(s, beta)
            if abs(got0 - want0) >= 1e-7 * max(1.0, abs(want0)):
                failures.append(f"h0 s={s:.3g} beta={beta}: {abs(got0 - want0):.2e}")
            wantp = direct_value("h", None, None, s, beta, 0.3)
            gotp = contour_h(s, beta, 0.3)
            if abs(gotp - wantp) >= 1e-7 * max(1.0, abs(wantp)):
                failures.append(f"h s={s:.3g} beta={beta}: {abs(gotp - wantp):.2e}")
        lo = contour_h0(s, 0.7, c=1.0)
        hi = contour_h0(s, 0.7, c=2.0)
        if abs(lo - hi) >= 1e-8 * max(1.0, abs(lo)):
            failures.append(f"h0 c-dependence s={s:.3g}: {abs(lo - hi):.2e}")
        lo = contour_h(s, 0.7, 0.3, c=1.0)
        hi = contour_h(s, 0.7, 0.3, c=2.0)
        if abs(lo - hi) >= 1e-8 * max(1.0, abs(lo)):
            failures.append(f"h c-dependence s={s:.3g}: {abs(lo - hi):.2e}")
    _report(8, "contour oracle vs direct sums (1e-7), abscissa-independent "
               "(1e-8)", failures)


# ---------------------------------------------------------------------------
# 9. Polylog pair: Bernoulli-polynomial reduction at integer order n=2,3,4
#    (1e-10), half-phase reduction to scaled Riemann zeta (1e-12), and
#    direct-sum agreement for order > 1 (1e-10).
# ---------------------------------------------------------------------------


def test_criterion_09_polylog_pair_reductions():
    failures = []
    for n in (2, 4):
        for x in (0.1, 0.3, 0.45):
            want = ((-1) ** (1 + n // 2) * (2.0 * math.pi) ** n
                    * float(mp.bernpoly(n, x)) / math.factorial(n))
            got = sf.polylog_pair(float(n), x)
            if _rel(got, want) >= 1e-10:
                failures.append(f"n={n} x={x}: {_rel(got, want):.2e}")
    # Odd n: the sine pair carries the Bernoulli form; brute-force the sine
    # sum and compare against the polynomial.
    for x in (0.1, 0.3, 0.45):
        m = np.arange(1, 400001, dtype=float)
        brute = float(np.sum(np.sin(2.0 * math.pi * x * m) / m ** 3))
        bern = (2.0 * math.pi) ** 3 * float(mp.bernpoly(3, x)) / (2.0 * math.factorial(3))
        if abs(abs(brute) - abs(bern)) >= 1e-10:
            failures.append(f"n=3 x={x}: {abs(abs(brute) - abs(bern)):.2e}")
    for nu in (0.7, 1.5, 2.0, 3.3, -0.4, -1.0):
        want = 2.0 * (2.0 ** (1.0 - nu) - 1.0) * sf.riemann_zeta(nu)
        got = sf.polylog_pair(nu, 0.5)
        if _rel(got, want) >= 1e-12:
            failures.append(f"half-phase nu={nu}: {_rel(got, want):.2e}")
    for nu in (1.5, 2.7, 6.0):
        for x in (0.2, 0.5, 0.9):
            want = float((mp.polylog(nu, mp.e ** (2j * mp.pi * x))
                          + mp.polylog(nu, mp.e ** (-2j * mp.pi * x))).real)
            got = sf.polylog_pair(nu, x)
            if _rel(got, want) >= 1e-10:
                failures.append(f"direct nu={nu} x={x}: {_rel(got, want):.2e}")
    _report(9, "polylog pair: Bernoulli reduction n=2,3,4 (1e-10), half-phase "
               "zeta reduction (1e-12), order>1 sums (1e-10)", failures)


# ---------------------------------------------------------------------------
# 10. Applications: mass-sum identity against a 30-digit sum (1e-12
#     relative), piston force antisymmetry (1e-12), force vs finite difference
#     of the direct two-chamber energy at beta=0.3, L=2 within the dual-sum
#     remainder scale, and the D=3 log coefficient within 1% of its closed form.
# ---------------------------------------------------------------------------


def _piston(model, d, beta, L):
    return ap.PistonConfig(
        geometry=ap.ProductGeometry(d=d, model=model, beta=beta, B=0.5), L=L
    )


def test_criterion_10_applications():
    failures = []
    # (a) mass-sum identity: the direct mass sum and the zero-phase series,
    #     each against the 30-digit quadrature of the mass series (mass_sum
    #     sums h0's stream, so the two are not held to each other).
    for D in (2, 3, 4, 5):
        for beta in (0.2, 0.8):
            L = 1.0
            m = 2.0 * beta / L
            want = mass_sum_mp(m, L, D)
            got = ap.mass_sum(m, L, D, tol=1e-14).value
            h0 = de.sum_h0(1.0 - D / 2.0, beta, tol=1e-14).value
            via_h0 = (2.0 / L ** 2) ** (D / 2.0 - 1.0) * beta ** (D - 2) * h0
            for name, value in (("mass_sum", got), ("h0", via_h0)):
                if abs(value - want) >= 1e-12 * want:
                    failures.append(f"mass identity D={D} beta={beta} ({name}): "
                                    f"{abs(value - want) / want:.2e}")
    # (b) force antisymmetry about the piston midpoint.
    model, d, beta, L = mf.torus_model(1), 0, 0.3, 2.0
    F = ap.casimir_force(_piston(model, d, beta, L))
    Fm = ap.casimir_force(_piston(model, d, L - beta, L))
    if abs(F + Fm) >= 1e-12 * max(1.0, abs(F)):
        failures.append(f"force antisymmetry: {abs(F + Fm):.2e}")
    # (c) force vs Richardson finite difference of the direct chamber energy.
    #     The closed-form energy omits a dual-sum remainder ~ e^{-pi^2/a};
    #     at the far chamber a = L - beta that sets the agreement scale.
    h = 1e-3

    def two_chamber(b):
        ea = 0.5 * ap.piston_zeta(_piston(model, d, b, L), -0.5).value
        eb = 0.5 * ap.piston_zeta(_piston(model, d, L - b, L), -0.5).value
        return ea + eb

    fd1 = -(two_chamber(beta + h) - two_chamber(beta - h)) / (2 * h)
    fd2 = -(two_chamber(beta + h / 2) - two_chamber(beta - h / 2)) / h
    fd = (4.0 * fd2 - fd1) / 3.0
    rem_bound = 2.0 * math.exp(-math.pi ** 2 / (L - beta))
    if not (abs(F - fd) < rem_bound and abs(F - fd) < 1e-2 * abs(F)):
        failures.append(f"force vs FD: |diff|={abs(F - fd):.2e} "
                        f"remainder bound={rem_bound:.2e}")
    # (d) D=3 mass-series log coefficient within 1% of -sqrt(pi/2)/L.
    L3 = 1.0
    ex = ap.mass_expansion(0.01, L3, 3, 6.0)
    want_log = -math.sqrt(math.pi / 2.0) / L3
    log_terms = [t.log_coeff for t in ex.terms if abs(t.power) < 1e-12]
    if not log_terms or abs(log_terms[0] - want_log) >= 0.01 * abs(want_log):
        failures.append("log coefficient (expansion) outside 1%")
    nolog = [asym.ExpansionTerm(t.power, t.const_coeff, 0.0) for t in ex.terms]
    ex_nolog = asym.Expansion("mass_series", ex.case_tag, ex.params,
                              tuple(nolog), ex.max_power, ex.remainder_power)
    resid = [ap.mass_sum(m, L3, 3, tol=1e-14).value - ex_nolog.evaluate(m)
             for m in (0.01, 0.005)]
    fit = (resid[0] - resid[1]) / (math.log(0.01) - math.log(0.005))
    if abs(fit - want_log) >= 0.01 * abs(want_log):
        failures.append(f"log coefficient (direct fit): {fit:.6f} vs {want_log:.6f}")
    _report(10, "mass identity vs 30-digit sum (1e-12), force antisymmetry (1e-12), force vs "
                "FD within remainder scale, D=3 log coefficient (1%)", failures)
