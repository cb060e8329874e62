"""Spans around the public functions of besselsum, installed from outside.

install() wraps every public function and model method of the package and
patches each name where its callers look it up (module globals, names
imported into other modules, class attributes). A wrapper records one span
(name, start, end, parent, extra) per call while `Tracer.recording` is true;
`extra` is the work count the caller can see (K points, terms_used, expansion
terms, eigenvalues yielded). Spans stay in memory until dump().

per_layer() turns spans into the per-layer metrics. A layer's self time is the
sum over its spans of duration minus the time covered by child spans. A call
into a group counts once, at the outermost span of that group.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# group -> wrapped names, per module
_SPECFUN = {
    "bessel_k": ("bessel_k_many", "bessel_k"),
    "zeta": ("riemann_zeta", "riemann_zeta_deriv", "hurwitz_zeta", "hurwitz_zeta_deriv",
             "epstein_zeta", "epstein_zeta_deriv", "epstein_res_fp"),
    "polylog": ("polylog_pair", "polylog_pair_deriv"),
}
_MODEL_METHODS = {
    "eigenvalues": ("eigenvalues",),
    "mzeta": ("zeta", "zeta_deriv", "zeta_res", "zeta_fp"),
    "model": ("heat_coeff", "heat_support", "zeta_poles"),
}
_ASYM = {
    "expand": ("expand_h", "expand_h0", "expand_g", "expand_f", "expand_f0"),
    "asym": ("dispatch_case", "double_pole_residue"),
}

PER_LAYER = (
    ("specfun.bessel_k.calls", "count"),
    ("specfun.bessel_k.points", "count"),
    ("specfun.bessel_k.self_ms", "ms"),
    ("direct_eval.calls", "count"),
    ("direct_eval.terms", "count"),
    ("direct_eval.self_ms", "ms"),
    ("direct_eval.ns_per_term", "ns"),
    ("manifolds.eigenvalues.yielded", "count"),
    ("manifolds.self_ms", "ms"),
    ("manifolds.zeta.calls", "count"),
    ("asymptotics.expand.calls", "count"),
    ("asymptotics.terms", "count"),
    ("asymptotics.self_ms", "ms"),
    ("asymptotics.evaluate.self_ms", "ms"),
    ("specfun.zeta.calls", "count"),
    ("specfun.zeta.self_ms", "ms"),
    ("specfun.polylog.calls", "count"),
    ("specfun.polylog.self_ms", "ms"),
    ("applications.calls", "count"),
    ("applications.self_ms", "ms"),
    ("mellin_oracle.calls", "count"),
    ("mellin_oracle.self_ms", "ms"),
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
)


class Tracer:
    def __init__(self):
        self.names: list = []  # name id -> (name, layer, group)
        self.spans: list = []
        self.stack: list = []
        self.recording = True

    def _name_id(self, name, layer, group) -> int:
        self.names.append((name, layer, group))
        return len(self.names) - 1

    def wrap(self, fn, name, layer, group, extra=None):
        nid = self._name_id(name, layer, group)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent,
                              extra(args, result) if extra and result is not None else 0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_generator(self, fn, name, layer, group):
        """Wrap a generator method: one span (extra=1) per value it yields."""
        nid = self._name_id(name, layer, group)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not tracer.recording:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                spans, stack = tracer.spans, tracer.stack
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    spans[idx] = (nid, t0, clock(), parent, 0)
                    stack.pop()
                    return
                spans[idx] = (nid, t0, clock(), parent, 1)
                stack.pop()
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": self.spans,
                       "meta": extra or {}}, fh)


def _patch_everywhere(package_modules, old, new) -> None:
    for mod in package_modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of besselsum in place (it must be imported)."""
    from besselsum import (applications, asymptotics, direct_eval, manifolds,
                           mellin_oracle, specfun)

    mods = [m for name, m in sys.modules.items()
            if name == "besselsum" or name.startswith("besselsum.")]

    def patch(module, attr, layer, group, extra=None):
        old = getattr(module, attr)
        new = tracer.wrap(old, f"{module.__name__.split('.')[-1]}.{attr}", layer, group, extra)
        _patch_everywhere(mods, old, new)

    def k_points(args, _result):
        return int(np.size(args[1])) if len(args) > 1 else 1

    for group, attrs in _SPECFUN.items():
        for attr in attrs:
            patch(specfun, attr, "specfun", group,
                  k_points if group == "bessel_k" else None)
    for attr in direct_eval.__all__:
        if attr.startswith("sum_"):
            patch(direct_eval, attr, "direct_eval", "direct_eval",
                  lambda _a, r: r.terms_used)
    for group, attrs in _ASYM.items():
        for attr in attrs:
            patch(asymptotics, attr, "asymptotics", group,
                  (lambda _a, r: len(r.terms)) if group == "expand" else None)
    patch(asymptotics, "evaluate", "asymptotics", "evaluate")
    asymptotics.Expansion.evaluate = tracer.wrap(
        asymptotics.Expansion.evaluate, "asymptotics.Expansion.evaluate",
        "asymptotics", "evaluate")
    for attr in ("circle_model", "torus_model", "table_model", "heat_trace"):
        patch(manifolds, attr, "manifolds", "model")
    for cls in (manifolds.CircleModel, manifolds.TorusModel, manifolds.TableModel):
        for group, methods in _MODEL_METHODS.items():
            for meth in methods:
                if meth not in vars(cls):
                    continue
                name = f"manifolds.{cls.__name__}.{meth}"
                if group == "eigenvalues":
                    new = tracer.wrap_generator(vars(cls)[meth], name, "manifolds", group)
                else:
                    new = tracer.wrap(vars(cls)[meth], name, "manifolds", group)
                setattr(cls, meth, new)
    for attr in applications.__all__:
        obj = getattr(applications, attr)
        if callable(obj) and not isinstance(obj, type):
            patch(applications, attr, "applications", "applications")
    for attr in mellin_oracle.__all__:
        if attr.startswith("contour_"):
            patch(mellin_oracle, attr, "mellin_oracle", "mellin")


def per_layer(dumps: list) -> dict:
    """Per-layer metrics summed over span dumps (each a dict from dump())."""
    calls: dict = {}
    extra: dict = {}
    self_ns: dict = {}
    group_self: dict = {}
    for d in dumps:
        names = d["names"]
        spans = d["spans"]
        child_ns = [0] * len(spans)
        for _nid, t0, t1, parent, _x in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (nid, t0, t1, parent, x) in enumerate(spans):
            _name, layer, group = names[nid]
            own = (t1 - t0) - child_ns[i]
            self_ns[layer] = self_ns.get(layer, 0) + own
            group_self[group] = group_self.get(group, 0) + own
            if parent < 0 or names[spans[parent][0]][2] != group:
                calls[group] = calls.get(group, 0) + 1
                extra[group] = extra.get(group, 0) + x
    ms = 1e-6
    terms = extra.get("direct_eval", 0)
    de_ns = group_self.get("direct_eval", 0)
    return {
        "specfun.bessel_k.calls": calls.get("bessel_k", 0),
        "specfun.bessel_k.points": extra.get("bessel_k", 0),
        "specfun.bessel_k.self_ms": group_self.get("bessel_k", 0) * ms,
        "direct_eval.calls": calls.get("direct_eval", 0),
        "direct_eval.terms": terms,
        "direct_eval.self_ms": de_ns * ms,
        "direct_eval.ns_per_term": de_ns / terms if terms else 0.0,
        "manifolds.eigenvalues.yielded": extra.get("eigenvalues", 0),
        "manifolds.self_ms": self_ns.get("manifolds", 0) * ms,
        "manifolds.zeta.calls": calls.get("mzeta", 0),
        "asymptotics.expand.calls": calls.get("expand", 0),
        "asymptotics.terms": extra.get("expand", 0),
        "asymptotics.self_ms": self_ns.get("asymptotics", 0) * ms,
        "asymptotics.evaluate.self_ms": group_self.get("evaluate", 0) * ms,
        "specfun.zeta.calls": calls.get("zeta", 0),
        "specfun.zeta.self_ms": group_self.get("zeta", 0) * ms,
        "specfun.polylog.calls": calls.get("polylog", 0),
        "specfun.polylog.self_ms": group_self.get("polylog", 0) * ms,
        "applications.calls": calls.get("applications", 0),
        "applications.self_ms": self_ns.get("applications", 0) * ms,
        "mellin_oracle.calls": calls.get("mellin", 0),
        "mellin_oracle.self_ms": self_ns.get("mellin_oracle", 0) * ms,
    }
