"""Expansion-engine mechanics: dispatch, double poles, term invariants."""

import math
import time

import pytest

import besselsum.asymptotics as asym
import besselsum.specfun as sf
from besselsum.errors import DomainError, PoleError

from util import CIRCLE, TORUS2


# ---------------------------------------------------------------------------
# Case dispatch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,s,dim,tag", [
    ("h0", 1.5, None, "generic"),
    ("h0", -0.5, None, "neg_half"),
    ("h0", -3, None, "neg_int"),
    ("h0", 0.0, None, "neg_int"),
    ("h", 2, None, "pos_int"),
    ("h", 1.0 / 3.0, None, "generic"),
    ("h", -1.5, None, "generic"),
    ("g", 2, 2, "pos_int_evenD"),
    ("g", 0, 3, "pos_int_oddD"),
    ("g", -1.5, 3, "generic"),
    ("g", 0.5, 3, "pos_half_oddD"),
    ("g", 0.5, 2, "generic"),
    ("g", -1, 2, "neg_int_evenD"),
    ("f", -2, 3, "neg_int"),
    ("f", 0.5, 1, "pos_half_oddD"),
    ("f0", 0.5, 2, "pos_half_evenD"),
    ("f0", -0.5, 3, "neg_half"),
    ("f0", 2, 2, "pos_int_evenD"),
])
def test_dispatch_case(family, s, dim, tag):
    assert asym.dispatch_case(family, s, dim) == tag


def test_dispatch_validation():
    with pytest.raises(DomainError):
        asym.dispatch_case("bogus", 0.5)
    with pytest.raises(DomainError):
        asym.dispatch_case("g", 0.5)  # missing dimension


# ---------------------------------------------------------------------------
# double_pole_residue
# ---------------------------------------------------------------------------

def test_double_pole_reduces_when_finite_parts_vanish():
    assert asym.double_pole_residue(2.0, 5.0, 3.0, 0.0, 7.0, 0.0) == pytest.approx(
        3.0 * 5.0 * 7.0, rel=1e-14)


def test_double_pole_symmetric_in_pole_factors():
    a = asym.double_pole_residue(1.1, 2.2, 3.3, 4.4, 5.5, 6.6)
    b = asym.double_pole_residue(3.3, 4.4, 1.1, 2.2, 5.5, 6.6)
    assert a == pytest.approx(b, rel=1e-14)


def test_double_pole_gamma_squared_oracle():
    # Gamma(t)^2 r(t) at t=0 with r(t) = beta^{-2t}:
    # residue = -2*gamma - 2*ln(beta)
    beta = 0.37
    got = asym.double_pole_residue(1.0, -sf.EULER_GAMMA, 1.0, -sf.EULER_GAMMA,
                                   1.0, -2.0 * math.log(beta))
    assert got == pytest.approx(-2.0 * sf.EULER_GAMMA - 2.0 * math.log(beta),
                                rel=1e-14)


# ---------------------------------------------------------------------------
# Expansion container invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ex", [
    asym.expand_h0(0.5, 8.0),
    asym.expand_h(1.0 / 3.0, 0.3, 6.0),
    asym.expand_g(2, -1.0, 6.0),
    asym.expand_f0(TORUS2, 0.5, 5.0),
    asym.expand_f(CIRCLE, -0.5, 0.3, 6.0),
])
def test_terms_sorted_nonzero_unique(ex):
    powers = [t.power for t in ex.terms]
    assert powers == sorted(powers)
    assert len(set(powers)) == len(powers)  # merged: one term per power
    for t in ex.terms:
        assert t.const_coeff != 0.0 or t.log_coeff != 0.0
    if ex.remainder_power is not None:
        assert ex.remainder_power > ex.max_power


def test_evaluate_function_matches_method():
    ex = asym.expand_h0(1.0 / 3.0, 6.0)
    assert asym.evaluate(ex, 0.1) == ex.evaluate(0.1)


def test_evaluate_rejects_bad_beta():
    ex = asym.expand_h0(0.5, 4.0)
    with pytest.raises(DomainError):
        ex.evaluate(0.0)
    with pytest.raises(DomainError):
        ex.evaluate(float("inf"))


def test_expansion_to_dict_shape():
    ex = asym.expand_h0(-0.5, 4.0)
    d = ex.to_dict()
    assert list(d.keys()) == ["family", "case_tag", "params", "terms",
                              "max_power", "remainder_power"]
    assert d["terms"][0].keys() == {"power", "const_coeff", "log_coeff"}


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------

def test_order_must_be_finite():
    with pytest.raises(DomainError):
        asym.expand_h0(0.5, float("inf"))


def test_phase_must_be_interior():
    with pytest.raises(DomainError):
        asym.expand_h(0.5, 0.0, 4.0)
    with pytest.raises(DomainError):
        asym.expand_h(0.5, 1.0, 4.0)


def test_near_collision_raises_pole_error():
    # an order parameter pathologically close to (but not on) a special value
    # makes two pole ladders nearly collide; the engine refuses to produce
    # catastrophically cancelling terms
    with pytest.raises(PoleError):
        asym.expand_h0(1e-9, 6.0)


@pytest.mark.parametrize("d,s,order,remainder", [
    (2, 9.0 + 4e-8, 2.0, 4.0),
    (3, 10.5 + 5e-8, 2.0, 4.0),
    (3, 6.5 + 3e-8, 1.0, 2.0),
])
def test_near_collision_past_the_remainder_is_not_reached(d, s, order, remainder):
    # the two Gamma ladders nearly collide near t = -s, far past the first
    # nonzero residue beyond the order, so the walk never reaches them
    ex = asym.expand_g(d, s, order)
    assert ex.remainder_power == remainder
    assert ex.terms
    for t in ex.terms:
        assert math.isfinite(t.const_coeff) and math.isfinite(t.log_coeff)


def test_one_pole_table_per_expansion(monkeypatch):
    calls = []
    group = asym._group_poles
    monkeypatch.setattr(asym, "_group_poles", lambda *a: calls.append(a) or group(*a))
    ex = asym.expand_f0(CIRCLE, 0.5, 12.0)  # terminates: no remainder term
    assert ex.remainder_power is None
    assert len(calls) == 1


def test_order_cap():
    for order in (asym.MAX_ORDER + 1.0, 1e9):
        with pytest.raises(DomainError):
            asym.expand_h0(0.5, order)
    ex = asym.expand_h(0.3, 0.3, asym.MAX_ORDER)
    assert ex.remainder_power is not None and ex.remainder_power > asym.MAX_ORDER
    for t in ex.terms:
        assert math.isfinite(t.const_coeff) and math.isfinite(t.log_coeff)


def test_gamma_residue_past_double_precision_raises_domain_error():
    # s = -200 needs 1/j! for j near 200 at beta^0
    with pytest.raises(DomainError):
        asym.expand_h0(-200.0, 2.0)


@pytest.mark.parametrize("s", [-1e7, -1e12, -1e12 - 0.3])
def test_far_negative_s_refused_at_once(s):
    # the Gamma(t+s) ladder holds about -s poles above the order; only the
    # first 172 are enumerated, and the refusal comes before any residue
    start = time.perf_counter()
    with pytest.raises(DomainError):
        asym.expand_h0(s, 2.0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("build", [
    lambda: asym.expand_h(-35.3, 0.3, 2),
    lambda: asym.expand_f(CIRCLE, -35.3, 0.3, 2),
    lambda: asym.expand_f(CIRCLE, -100.7, 0.3, 2),
], ids=["h_-35.3", "f_circle_-35.3", "f_circle_-100.7"])
def test_far_negative_s_polylog_tables_finite(build):
    # C(2t, x) at orders 2t up to ~200, and zeta(-201.4) at beta^0
    ex = build()
    assert ex.terms
    for t in ex.terms:
        assert math.isfinite(t.const_coeff) and math.isfinite(t.log_coeff)


@pytest.mark.parametrize("build", [
    lambda: asym.expand_f(CIRCLE, -140.3, 0.3, 2),
    lambda: asym.expand_f0(CIRCLE, -140.3, 2),
    lambda: asym.expand_g(2, -130.1, 2),
], ids=["f_circle_-140.3", "f0_circle_-140.3", "g2_-130.1"])
def test_far_negative_s_coefficient_past_double_range_refused(build):
    # zeta(2s) and the Epstein zeta pass 1.8e308 at the beta^0 or beta^-1 term
    with pytest.raises(DomainError):
        build()


def test_far_negative_s_unevaluable_group_past_order_is_the_remainder():
    # below the first non-finite group the table stands, and that group,
    # which cannot be evaluated, gives the remainder power
    ex = asym.expand_f(CIRCLE, -140.3, 0.3, -1.0)
    assert [t.power for t in ex.terms] == pytest.approx([-281.6, -280.6])
    assert ex.remainder_power == 0.0


def test_remainder_power_present_for_truncated_series():
    ex = asym.expand_h0(0.5, 8.0)
    assert ex.remainder_power is not None and ex.remainder_power > 8.0
    ex = asym.expand_h(1.0 / 3.0, 0.3, 6.0)
    assert ex.remainder_power is not None and ex.remainder_power > 6.0
