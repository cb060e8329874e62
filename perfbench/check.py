"""Checks of program outputs against the references in refs.py.

Each check returns None when the output passes, else a one-line reason.

* Direct sums pass when |value - ref| <= error_estimate + FLOOR * sum|terms|,
  where sum|terms| comes from the reference; FLOOR covers rounding in sums of
  up to ~1e5 terms.
* Expansion tables must have the reference's powers and remainder power, and
  each coefficient pair must agree within TOL_GENERIC (simple poles) or
  TOL_SPECIAL (orders where poles collide, whose reference is a limit taken
  at s0 +- refs.EPS) of |const| + |log|. Each evaluation at a small beta must
  agree within the same share of sum (|const| + |log ln beta|) beta^power.
"""

from __future__ import annotations

import json
import math

import refs

FLOOR = 1e-11
TOL_GENERIC = 1e-10
TOL_SPECIAL = 1e-5
CONTOUR_TOL = 1e-7  # the CLI oracle's own default bound on |contour - direct|

_MODELS: dict = {}


def model(name):
    if name not in _MODELS:
        _MODELS[name] = refs.Model(name)
    return _MODELS[name]


def _direct(value, err, ref):
    v, a = ref
    if not (math.isfinite(value) and abs(value - v) <= err + FLOOR * a):
        return f"value {value!r} vs reference {v!r} (error_estimate {err!r}, sum|terms| {a!r})"
    return None


def _special(s) -> bool:
    return abs(2.0 * s - round(2.0 * s)) < 2e-12


def _table(got_terms, got_rem, want_terms, want_rem, tol, betas=(), evals=()):
    got = {round(p, 9): (c, l) for p, c, l in got_terms}
    want = {round(p, 9): cl for p, cl in want_terms.items()}
    if set(got) != set(want):
        return f"powers {sorted(got)} vs reference {sorted(want)}"
    for p, (c, l) in want.items():
        gc, gl = got[p]
        if abs(gc - c) + abs(gl - l) > tol * (abs(c) + abs(l)):
            return f"beta^{p} coefficients ({gc!r}, {gl!r}) vs reference ({c!r}, {l!r})"
    if (got_rem is None) != (want_rem is None) or (
            want_rem is not None and abs(got_rem - want_rem) > 1e-9):
        return f"remainder power {got_rem!r} vs reference {want_rem!r}"
    for b, v in zip(betas, evals):
        rv, ra = refs.evaluate(want_terms, b)
        if not abs(v - rv) <= tol * ra:
            return f"value at beta={b!r}: {v!r} vs reference {rv!r}"
    return None


def _half_remainder(order):
    """Next power with a nonzero Bernoulli coefficient beyond order."""
    n = math.floor(order + 1e-12) + 2
    while True:
        if n <= 1 or n % 2 == 0:
            return float(n - 1)
        n += 1


def check_op(op, out) -> str | None:
    """None if the in-process output `out` of operation `op` is right."""
    if "error" in out:
        return out["error"]
    k = op["kind"]
    if k == "sum_h0":
        ref = refs.h0_half(op["beta"]) if op["s"] == 0.5 and op["beta"] < 10 else \
            refs.h(op["s"], op["beta"])
        return _direct(out["value"], out["err"], ref)
    if k == "sum_h":
        return _direct(out["value"], out["err"], refs.h(op["s"], op["beta"], op["B"]))
    if k == "sum_g":
        return _direct(out["value"], out["err"], refs.g(op["d"], op["s"], op["beta"]))
    if k == "sum_f":
        return _direct(out["value"], out["err"],
                       refs.f(model(op["model"]), op["s"], op["beta"], op["B"]))
    if k == "product_zeta":
        return _direct(out["value"], out["err"], refs.product_zeta(
            model(op["model"]), op["d"], op["s"], op["beta"], op["B"]))
    if k == "piston_zeta":
        return _direct(out["value"], out["err"], refs.piston_zeta(
            model(op["model"]), op["D"], op["s"], op["beta"]))
    if k == "mass_sum":
        return _direct(out["value"], out["err"], refs.mass_sum(op["m"], op["L"], op["D"]))
    if k == "casimir":
        return _casimir(op, out["pole"], out["finite"], out["force"])
    if k == "product_zeta_expansion":
        want, rem = refs.product_zeta_expansion(model(op["model"]), op["d"], op["s"],
                                                op["B"], op["order"])
        tol = TOL_GENERIC
    elif k == "mass_expansion":
        want, rem = refs.mass_expansion(op["L"], op["D"], op["order"])
        tol = TOL_SPECIAL if _special(1.0 - 0.5 * op["D"]) else TOL_GENERIC
    elif k == "expand_h0" and op["s"] == 0.5:
        want, rem = refs.h0_half_expansion(op["order"]), _half_remainder(op["order"])
        tol = TOL_GENERIC
    else:
        family = k[len("expand_"):]
        mdl = model(f"torus:{op['d']}") if family == "g" else \
            (model(op["model"]) if "model" in op else None)
        want, rem = refs.expansion(family, op["s"], op["order"], x=op.get("x"), model=mdl)
        tol = TOL_SPECIAL if _special(op["s"]) else TOL_GENERIC
    return _table(out["terms"], out["rem"], want, rem, tol, op["betas"], out["evals"])


def _casimir(op, pole, finite, force):
    mdl = model(op["model"])
    want_pole, want_finite = refs.casimir_energy(mdl, op["D"], op["beta"])
    want_force = refs.casimir_force(mdl, op["D"], op["beta"], op["L"])
    scale = abs(want_finite) + abs(refs.casimir_energy(mdl, op["D"], op["L"] - op["beta"])[1])
    if pole != want_pole:
        return f"pole coefficient {pole!r} vs reference {want_pole!r}"
    if abs(finite - want_finite) > 1e-12 * abs(want_finite):
        return f"finite energy {finite!r} vs reference {want_finite!r}"
    if abs(force - want_force) > 1e-7 * scale / min(op["beta"], op["L"] - op["beta"]):
        return f"force {force!r} vs reference {want_force!r}"
    return None


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def _argv_dict(argv):
    out = {"cmd": argv[0]}
    for key, val in zip(argv[1::2], argv[2::2]):
        out[key.lstrip("-")] = val
    return out


def check_cli(argv, code, stdout: bytes) -> str | None:
    """None if one `besselsum ARGV` invocation exited 0 with the right JSON."""
    if code != 0:
        return f"exit code {code}"
    try:
        res = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    a = _argv_dict(argv)
    cmd = a["cmd"]
    if cmd == "eval":
        return _direct(res["value"], res["error_estimate"],
                       refs.h(float(a["s"]), float(a["beta"]), float(a["B"])))
    if cmd == "expand":
        want, rem = refs.expansion("f", float(a["s"]), float(a["order"]), x=float(a["B"]),
                                   model=model(a["model"]))
        terms = [[t["power"], t["const_coeff"], t["log_coeff"]] for t in res["terms"]]
        return _table(terms, res["remainder_power"], want, rem, TOL_GENERIC,
                      [float(a["beta"])], [res["value"]])
    if cmd == "compare":
        s, beta = float(a["s"]), float(a["beta"])
        bad = _direct(res["value"], res["error_estimate"], refs.h(s, beta))
        want, rem = refs.expansion("h0", s, float(a["order"]))
        terms = [[t["power"], t["const_coeff"], t["log_coeff"]] for t in res["terms"]]
        return bad or _table(terms, res["remainder_power"], want, rem, TOL_GENERIC,
                             [beta], [res["expansion_value"]])
    if cmd == "oracle":
        v, a_ = refs.h(float(a["s"]), float(a["beta"]))
        if not abs(res["value"] - v) <= CONTOUR_TOL * max(1.0, abs(v)):
            return f"contour value {res['value']!r} vs reference {v!r}"
        # The oracle prints no error estimate for its direct sum: allow the
        # default summation tolerance (1e-12 relative), twice over.
        return _direct(res["direct_value"], 2e-12 * abs(v), (v, a_))
    if cmd == "casimir":
        op = {"model": a["model"], "D": int(a["D"]), "beta": float(a["beta"]), "L": float(a["L"])}
        return _casimir(op, res["pole_coeff"], res["value"], res["force"])
    if cmd == "mass":
        m, L, D = float(a["m"]), float(a["L"]), int(a["D"])
        bad = _direct(res["value"], res["error_estimate"], refs.mass_sum(m, L, D))
        want, rem = refs.mass_expansion(L, D, float(a["order"]))
        tol = TOL_SPECIAL if _special(1.0 - 0.5 * D) else TOL_GENERIC
        terms = [[t["power"], t["const_coeff"], t["log_coeff"]] for t in res["terms"]]
        return bad or _table(terms, res["remainder_power"], want, rem, tol,
                             [m], [res["expansion_value"]])
    return f"no check for {cmd!r}"
