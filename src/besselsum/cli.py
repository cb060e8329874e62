"""Command-line front door: evaluate, expand, compare, and run applications.

Subcommands
-----------
eval      direct summation of one series instance
expand    small-scale asymptotic expansion (term table, optional value)
compare   direct sum vs expansion, with a remainder-order ratio test
oracle    Mellin contour integration vs direct sum
casimir   piston vacuum energy (pole + finite part) and force
mass      compactified mass correction: direct sum and expansion
models    list built-in eigenvalue models or validate a model file

Exit codes: 0 success; 1 usage error; 2 domain/validation error;
3 numerical-tolerance failure in ``compare``/``oracle``.

Output is deterministic: JSON with fixed key order and floats printed with
17 significant digits, or CSV with terms flattened one per row.  A
terminating expansion has ``remainder_power`` None, which serializes as null.
The ``BESSELSUM_TOL`` environment variable overrides the default summation
tolerance when ``--tol`` is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import applications as _apps
from . import asymptotics as _asym
from . import direct_eval as _direct
from . import manifolds as _manifolds
from . import mellin_oracle as _mellin
from .errors import BesselSumError, DomainError

__all__ = ["run", "main"]

_FAMILIES = ("h", "h0", "g", "f", "f0")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        if obj == 0.0:
            obj = 0.0
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt_csv_scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        if obj == 0.0:
            obj = 0.0
        return f"{obj:.17g}"
    if isinstance(obj, (list, tuple)):
        # Lists become a single semicolon-joined cell so rows stay 2-3 fields.
        return ";".join(_fmt_csv_scalar(v) for v in obj)
    return str(obj)


def _emit(request: dict, result: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_fmt_json({"request": request, "result": result}) + "\n")
        return
    lines = []
    for key, val in request.items():
        lines.append(f"request.{key},{_fmt_csv_scalar(val)}")
    for key, val in result.items():
        if key == "terms":
            continue
        lines.append(f"result.{key},{_fmt_csv_scalar(val)}")
    for term in result.get("terms", ()):
        lines.append(
            "term,{},{},{}".format(
                _fmt_csv_scalar(term["power"]),
                _fmt_csv_scalar(term["const_coeff"]),
                _fmt_csv_scalar(term["log_coeff"]),
            )
        )
    sys.stdout.write("\n".join(lines) + "\n")


def _result_dict(value, error_estimate, terms, case_tag, method, **extras) -> dict:
    out = {
        "value": value,
        "error_estimate": error_estimate,
        "terms": terms,
        "case_tag": case_tag,
        "method": method,
    }
    out.update(extras)
    return out


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="besselsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p, beta_required=True):
        p.add_argument("--s", type=float, required=True, help="series order s")
        p.add_argument("--beta", type=float, required=beta_required,
                       help="scale parameter (> 0)")
        p.add_argument("--B", type=float, default=None,
                       help="phase parameter in [0, 1) (h and f families)")
        p.add_argument("--d", type=int, default=None,
                       help="lattice dimension (g family)")
        p.add_argument("--model", type=str, default=None,
                       help="eigenvalue model: 'circle', 'torus:<d>', or a file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_eval = sub.add_parser("eval", help="direct summation")
    p_eval.add_argument("--series", choices=_FAMILIES, required=True)
    add_common(p_eval)
    p_eval.add_argument("--tol", type=float, default=None)

    p_expand = sub.add_parser("expand", help="asymptotic expansion")
    p_expand.add_argument("--series", choices=_FAMILIES, required=True)
    add_common(p_expand, beta_required=False)
    p_expand.add_argument("--order", type=float, required=True,
                          help="truncation order (max power retained)")

    p_cmp = sub.add_parser("compare", help="direct sum vs expansion")
    p_cmp.add_argument("--series", choices=_FAMILIES, required=True)
    add_common(p_cmp)
    p_cmp.add_argument("--order", type=float, required=True)
    p_cmp.add_argument("--tol", type=float, default=None)

    p_or = sub.add_parser("oracle", help="Mellin contour vs direct sum")
    p_or.add_argument("--series", choices=("h0", "h"), required=True)
    p_or.add_argument("--s", type=float, required=True)
    p_or.add_argument("--beta", type=float, required=True)
    p_or.add_argument("--B", type=float, default=None)
    p_or.add_argument("--c", type=float, default=None, help="contour abscissa")
    p_or.add_argument("--ymax", type=float, default=None)
    p_or.add_argument("--quad-tol", type=float, default=None, dest="quad_tol")
    p_or.add_argument("--bound", type=float, default=None,
                      help="max |contour - direct| (default max(quad_tol, 1e-7))")
    p_or.add_argument("--tol", type=float, default=None)
    p_or.add_argument("--format", choices=("json", "csv"), default="json")

    p_cas = sub.add_parser("casimir", help="piston energy and force")
    p_cas.add_argument("--D", type=int, required=True, help="piston dimension (>= 1)")
    p_cas.add_argument("--model", type=str, required=True)
    p_cas.add_argument("--beta", type=float, required=True, help="chamber length")
    p_cas.add_argument("--L", type=float, required=True, help="total piston length")
    p_cas.add_argument("--order", type=float, default=16.0)
    p_cas.add_argument("--format", choices=("json", "csv"), default="json")

    p_mass = sub.add_parser("mass", help="compactified mass correction")
    p_mass.add_argument("--m", type=float, required=True)
    p_mass.add_argument("--L", type=float, required=True)
    p_mass.add_argument("--D", type=int, required=True)
    p_mass.add_argument("--order", type=float, default=8.0)
    p_mass.add_argument("--tol", type=float, default=None)
    p_mass.add_argument("--format", choices=("json", "csv"), default="json")

    p_mod = sub.add_parser("models", help="list built-ins or validate a model file")
    p_mod.add_argument("--file", type=str, default=None)
    p_mod.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _env_tol() -> Optional[float]:
    raw = os.environ.get("BESSELSUM_TOL")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise DomainError(f"BESSELSUM_TOL must be a float, got {raw!r}")


def _resolve_tol(args) -> Optional[float]:
    tol = getattr(args, "tol", None)
    if tol is not None:
        return tol
    return _env_tol()


def _resolve_model(spec: str) -> _manifolds.ManifoldModel:
    if spec == "circle":
        return _manifolds.circle_model()
    if spec.startswith("torus:"):
        tail = spec[len("torus:"):]
        try:
            d = int(tail)
        except ValueError:
            raise DomainError(f"bad torus dimension {tail!r} in model spec {spec!r}")
        return _manifolds.torus_model(d)
    return _manifolds.table_model(spec)


def _series_args(args):
    """Validate the family/flag combination and return (B, d, model)."""
    fam = args.series
    B = args.B
    d = args.d
    model_spec = args.model
    if fam in ("h", "f"):
        if B is None:
            B = 0.0
    elif B is not None:
        raise DomainError(f"series {fam!r} takes no --B")
    if fam == "g":
        if d is None:
            raise DomainError("series 'g' requires --d")
    elif d is not None:
        raise DomainError(f"series {fam!r} takes no --d")
    model = None
    if fam in ("f", "f0"):
        if model_spec is None:
            raise DomainError(f"series {fam!r} requires --model")
        model = _resolve_model(model_spec)
    elif model_spec is not None:
        raise DomainError(f"series {fam!r} takes no --model")
    return B, d, model


def _direct_value(fam, s, beta, B, d, model, tol) -> _direct.EvalResult:
    if fam == "h":
        return _direct.sum_h(_direct.SeriesParams(s=s, beta=beta, B=B), tol)
    if fam == "h0":
        return _direct.sum_h0(s, beta, tol)
    if fam == "g":
        return _direct.sum_g(d, s, beta, tol)
    if fam == "f":
        return _direct.sum_f(model, s, beta, B, tol)
    return _direct.sum_f(model, s, beta, 0.0, tol)


def _expansion(fam, s, B, d, model, order) -> _asym.Expansion:
    if fam == "h":
        return _asym.expand_h(s, B, order)
    if fam == "h0":
        return _asym.expand_h0(s, order)
    if fam == "g":
        return _asym.expand_g(d, s, order)
    if fam == "f":
        return _asym.expand_f(model, s, B, order)
    return _asym.expand_f0(model, s, order)


# ---------------------------------------------------------------------------
# Subcommand handlers (return exit code)
# ---------------------------------------------------------------------------

def _req(args, keys) -> dict:
    out = {"subcommand": args.subcommand}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _cmd_eval(args) -> int:
    B, d, model = _series_args(args)
    tol = _resolve_tol(args)
    res = _direct_value(args.series, args.s, args.beta, B, d, model, tol)
    request = _req(args, ("series", "s", "beta", "B", "d", "model", "tol"))
    _emit(request, _result_dict(res.value, res.error_estimate, [], None, res.method,
                                terms_used=res.terms_used), args.format)
    return 0


def _cmd_expand(args) -> int:
    B, d, model = _series_args(args)
    ex = _expansion(args.series, args.s, B, d, model, args.order)
    value = ex.evaluate(args.beta) if args.beta is not None else None
    request = _req(args, ("series", "s", "beta", "B", "d", "model", "order"))
    _emit(request,
          _result_dict(value, None, [t.to_dict() for t in ex.terms], ex.case_tag,
                       f"expand_{args.series}", max_power=ex.max_power,
                       remainder_power=ex.remainder_power),
          args.format)
    return 0


def _ratio_test(fam, s, B, d, model, tol, ex, beta):
    """err(beta)/err(2*beta) vs 2^{-remainder_power}, within a factor 4."""
    rp = ex.remainder_power
    if rp is None:
        return None, None, "skip"
    direct1 = _direct_value(fam, s, beta, B, d, model, tol)
    direct2 = _direct_value(fam, s, 2.0 * beta, B, d, model, tol)
    err1 = abs(ex.evaluate(beta) - direct1.value)
    err2 = abs(ex.evaluate(2.0 * beta) - direct2.value)
    # Below its own error bound a direct sum cannot measure the remainder.
    eps = 1e3 * sys.float_info.epsilon
    floor1 = max(eps * max(1.0, abs(direct1.value)), direct1.error_estimate)
    floor2 = max(eps * max(1.0, abs(direct2.value)), direct2.error_estimate)
    if err1 < floor1 or err2 < floor2:
        return None, 2.0 ** (-rp), "skip"
    ratio = err1 / err2
    expected = 2.0 ** (-rp)
    status = "pass" if expected / 4.0 <= ratio <= expected * 4.0 else "fail"
    return ratio, expected, status


def _cmd_compare(args) -> int:
    B, d, model = _series_args(args)
    tol = _resolve_tol(args)
    res = _direct_value(args.series, args.s, args.beta, B, d, model, tol)
    ex = _expansion(args.series, args.s, B, d, model, args.order)
    exp_value = ex.evaluate(args.beta)
    diff = abs(res.value - exp_value)
    ratio, expected, status = _ratio_test(args.series, args.s, B, d, model, tol,
                                          ex, args.beta)
    request = _req(args, ("series", "s", "beta", "B", "d", "model", "order", "tol"))
    _emit(request,
          _result_dict(res.value, res.error_estimate,
                       [t.to_dict() for t in ex.terms], ex.case_tag, "compare",
                       expansion_value=exp_value, abs_diff=diff,
                       remainder_power=ex.remainder_power, ratio=ratio,
                       ratio_expected=expected, ratio_status=status),
          args.format)
    return 3 if status == "fail" else 0


def _cmd_oracle(args) -> int:
    tol = _resolve_tol(args)
    cfg_kwargs = {}
    if args.c is not None:
        cfg_kwargs["c"] = args.c
    if args.ymax is not None:
        cfg_kwargs["y_max"] = args.ymax
    if args.quad_tol is not None:
        cfg_kwargs["quad_tol"] = args.quad_tol
    cfg = _mellin.ContourConfig(**cfg_kwargs)
    if args.series == "h0":
        if args.B is not None:
            raise DomainError("series 'h0' takes no --B")
        contour = _mellin.contour_h0(args.s, args.beta, cfg)
        direct = _direct.sum_h0(args.s, args.beta, tol)
    else:
        B = args.B if args.B is not None else 0.0
        contour = _mellin.contour_h(args.s, args.beta, B, cfg)
        direct = _direct.sum_h(_direct.SeriesParams(s=args.s, beta=args.beta, B=B), tol)
    diff = abs(contour - direct.value)
    bound = args.bound if args.bound is not None else max(cfg.quad_tol, 1e-7)
    status = "pass" if diff <= bound else "fail"
    request = _req(args, ("series", "s", "beta", "B", "c", "ymax", "quad_tol",
                          "bound", "tol"))
    _emit(request,
          _result_dict(contour, None, [], None, f"contour_{args.series}",
                       direct_value=direct.value, abs_diff=diff, bound=bound,
                       status=status),
          args.format)
    return 3 if status == "fail" else 0


def _cmd_casimir(args) -> int:
    model = _resolve_model(args.model)
    if args.D < 1:
        raise DomainError(f"piston dimension D must be >= 1, got {args.D}")
    geom = _apps.ProductGeometry(d=args.D - 1, model=model, beta=args.beta, B=0.5)
    cfg = _apps.PistonConfig(geometry=geom, L=args.L)
    pole_coeff, finite = _apps.casimir_energy(cfg)
    force = _apps.casimir_force(cfg, order=args.order)
    request = _req(args, ("D", "model", "beta", "L", "order"))
    _emit(request,
          _result_dict(finite, None, [], None, "casimir",
                       pole_coeff=pole_coeff, force=force),
          args.format)
    return 0


def _cmd_mass(args) -> int:
    tol = _resolve_tol(args)
    res = _apps.mass_sum(args.m, args.L, args.D, tol)
    ex = _apps.mass_expansion(args.m, args.L, args.D, args.order)
    exp_value = ex.evaluate(args.m)
    request = _req(args, ("m", "L", "D", "order", "tol"))
    _emit(request,
          _result_dict(res.value, res.error_estimate,
                       [t.to_dict() for t in ex.terms], ex.case_tag, "mass",
                       expansion_value=exp_value,
                       abs_diff=abs(res.value - exp_value),
                       remainder_power=ex.remainder_power),
          args.format)
    return 0


def _cmd_models(args) -> int:
    request = _req(args, ("file",))
    if args.file is None:
        result = _result_dict(None, None, [], None, "models",
                              builtins=["circle", "torus:<d> (integer d >= 1)"])
        _emit(request, result, args.format)
        return 0
    model = _manifolds.table_model(args.file)
    support = [str(j) for j in model.heat_support()]
    result = _result_dict(None, None, [], None, "models",
                          D=model.D, eigenvalues=len(model.alpha_list),
                          heat_support=support, status="valid")
    _emit(request, result, args.format)
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "casimir": _cmd_casimir,
    "mass": _cmd_mass,
    "models": _cmd_models,
}


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except BesselSumError as exc:
        sys.stderr.write(f"besselsum: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
