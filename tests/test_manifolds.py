"""Eigenvalue models: heat coefficients, spectral zetas, file parsing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import besselsum.manifolds as mf
import besselsum.specfun as sf
from besselsum.errors import DomainError, ParseError, WindowError

CIRCLE = mf.circle_model()
TORUS1 = mf.torus_model(1)
TORUS2 = mf.torus_model(2)
TORUS3 = mf.torus_model(3)


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Heat coefficients and the three structural zeta identities
# ---------------------------------------------------------------------------

def test_circle_heat_coefficients():
    assert CIRCLE.D == 1
    assert CIRCLE.heat_coeff(Fraction(0)) == math.sqrt(math.pi) / 2.0
    assert CIRCLE.heat_coeff(Fraction(1, 2)) == -0.5
    assert CIRCLE.heat_coeff(Fraction(3, 2)) == 0.0  # complete: known zero


@pytest.mark.parametrize("model", [TORUS1, TORUS2, TORUS3])
def test_torus_heat_coefficients(model):
    d = model.D
    assert model.heat_coeff(Fraction(0)) == math.pi ** (d / 2.0)
    assert model.heat_coeff(Fraction(d, 2)) == -1.0
    assert model.heat_coeff(Fraction(d + 1, 2)) == 0.0


@pytest.mark.parametrize("model", [CIRCLE, TORUS1, TORUS2, TORUS3])
def test_pole_residues_match_heat_coefficients(model):
    # residue of Gamma(u) zeta_N(u) at each pole u0 equals A_{D/2 - u0}
    for u0 in model.zeta_poles():
        j = Fraction(model.D, 2) - u0
        want = model.heat_coeff(j)
        got = sf.gamma(float(u0)) * model.zeta_res(u0)
        assert _rel(got, want) < 1e-12
        # numeric limit cross-check
        eps = 1e-6
        num = eps * sf.gamma(float(u0) + eps) * model.zeta(float(u0) + eps)
        assert _rel(num, want) < 1e-4


@pytest.mark.parametrize("model", [CIRCLE, TORUS1, TORUS2, TORUS3])
def test_zeta_at_nonpositive_integers_from_heat(model):
    # zeta_N(-k) = (-1)^k k! A_{D/2 + k}
    for k in (0, 1, 2):
        want = (-1) ** k * math.factorial(k) * model.heat_coeff(
            Fraction(model.D, 2) + k)
        assert model.zeta_nonpos_int(k) == want
        assert _rel(model.zeta(-float(k)), want) < 1e-10


def test_circle_residue_from_heat_coefficients():
    assert CIRCLE.zeta_poles() == (Fraction(1, 2),)
    assert CIRCLE.zeta_res(0.5) == 0.5
    assert CIRCLE.zeta_res(1.5) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_torus_residue_from_heat_coefficients(d):
    # the Epstein pole at d/2 has residue pi^(d/2) / Gamma(d/2)
    model = mf.torus_model(d)
    assert model.zeta_poles() == (Fraction(d, 2),)
    assert model.zeta_res(d / 2.0) == sf.epstein_res_fp(model.ctx).residue
    assert model.zeta_res(d / 2.0 + 1.0) == 0.0


@pytest.mark.parametrize("model,t", [(CIRCLE, 0.05), (TORUS1, 0.05),
                                     (TORUS2, 0.1), (TORUS3, 0.2)])
def test_heat_trace_small_time_asymptotics(model, t):
    want = math.fsum(
        model.heat_coeff(j) * t ** (float(j) - model.D / 2.0)
        for j in model.heat_support()
    )
    assert abs(mf.heat_trace(model, t) - want) < 1e-10 * max(1.0, abs(want))


def test_heat_trace_brute_force_torus2():
    t = 0.4
    n = np.arange(-30, 31)
    X, Y = np.meshgrid(n, n)
    want = float(np.sum(np.exp(-t * (X ** 2 + Y ** 2)))) - 1.0
    assert _rel(mf.heat_trace(TORUS2, t), want) < 1e-14


def test_heat_trace_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        mf.heat_trace(CIRCLE, 0.0)


# ---------------------------------------------------------------------------
# Spectral zeta continuations
# ---------------------------------------------------------------------------

def test_circle_zeta_is_riemann():
    for s in (1.2, 0.3, -0.7):
        assert _rel(CIRCLE.zeta(s), sf.riemann_zeta(2.0 * s)) < 1e-12


def test_torus_zeta_is_epstein():
    ctx = sf.EpsteinContext(2)
    for s in (1.4, 2.0, -0.3):
        assert _rel(TORUS2.zeta(s), sf.epstein_zeta(ctx, s)) < 1e-12


def test_torus_pole_location():
    assert TORUS2.zeta_poles() == (Fraction(1),)
    assert _rel(TORUS2.zeta_res(Fraction(1)), math.pi) < 1e-12


def test_torus1_eigenvalues_equal_the_shell_route():
    # The shell route yields (sqrt(k), r_1(k)) over the nonempty shells k of
    # lattice_shell_counts. Its array to n = 10^4 would hold 10^8 shells
    # (800 MB), so it is built to 2^22: the first 2048 pairs are checked
    # against it, the rest only against its closed form (n, r_1(n^2) = 2).
    pairs = list(itertools.islice(TORUS1.eigenvalues(), 10 ** 4))
    r = sf.lattice_shell_counts(1, 1 << 22)
    ks = np.flatnonzero(r[1:]) + 1
    assert ks.size == 2048
    assert pairs[:ks.size] == [(math.sqrt(k), float(r[k])) for k in ks.tolist()]
    assert pairs[ks.size:] == [(float(n), 2.0) for n in range(ks.size + 1, 10 ** 4 + 1)]


# ---------------------------------------------------------------------------
# TableModel: windowed data, loud failures outside the window
# ---------------------------------------------------------------------------

def _table():
    return mf.TableModel(
        D=2,
        alphas=[1.0, math.sqrt(2.0), 2.0],
        mults=[4.0, 4.0, 4.0],
        heat={Fraction(0): math.pi, Fraction(1): -1.0},
    )


def test_table_model_basic():
    tm = _table()
    assert tm.D == 2
    assert tm.heat_coeff(Fraction(1)) == -1.0
    with pytest.raises(WindowError):
        tm.heat_coeff(Fraction(3, 2))  # outside supplied window


def test_table_model_zeta_window():
    tm = _table()
    # convergent region 2s > D is summable from the table
    got = tm.zeta(2.0)
    want = sum(m * a ** -4.0 for a, m in [(1.0, 4), (math.sqrt(2), 4), (2.0, 4)])
    assert _rel(got, want) < 1e-12
    with pytest.raises(WindowError):
        tm.zeta(0.5)  # continuation needs data the table does not have
    with pytest.raises(WindowError):
        tm.zeta_deriv(2.0)


def test_table_model_validation():
    with pytest.raises(DomainError):
        mf.TableModel(D=2, alphas=[2.0, 1.0], mults=[1.0, 1.0], heat={})
    with pytest.raises(DomainError):
        mf.TableModel(D=0, alphas=[1.0], mults=[1.0], heat={})
    with pytest.raises(DomainError):
        mf.TableModel(D=2, alphas=[1.0], mults=[-1.0], heat={})


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

GOOD_FILE = """\
# comment line
D 2
alpha 1.0 4
alpha 1.4142135623730951 4   # sqrt 2
alpha 2.0 4
A 0 3.141592653589793
A 1 -1.0
"""


def test_table_model_file_roundtrip(tmp_path):
    p = tmp_path / "model.txt"
    p.write_text(GOOD_FILE, encoding="utf-8")
    tm = mf.table_model(str(p))
    assert tm.D == 2
    assert len(tm.alpha_list) == 3
    assert tm.heat_coeff(Fraction(0)) == math.pi


@pytest.mark.parametrize("body,msg", [
    ("alpha 1.0\n", "missing"),               # no D line
    ("D 2\nbogus 1\n", "unknown"),            # unknown key
    ("D 2\nalpha 2.0\nalpha 1.0\n", ""),      # decreasing eigenvalues
    ("D 2\nA 0.25 1.0\n", ""),                # non-half-integer heat index
    ("D x\n", ""),                            # bad integer
])
def test_table_model_file_errors(tmp_path, body, msg):
    p = tmp_path / "bad.txt"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError):
        mf.table_model(str(p))


def test_table_model_file_missing():
    with pytest.raises(ParseError):
        mf.table_model("/nonexistent/path/model.txt")
