"""Seeded inputs for the three workloads.

This module imports only numpy and the standard library: both the process that
runs the program and the process that checks its outputs build the same
inputs from the seed, and neither shares code with besselsum.

A run attempts whole rounds. Every round of a workload has the same slots (the
same families, models and branches, in the same order); only the values drawn
for them change. Within a slot, beta (or the analogous scale) walks a
Kronecker sequence u_r = frac(u_0 + r * phi) with a seeded start u_0, so over a
run every slot sweeps its log-range evenly and the cost of R rounds varies much
less with the seed than independent draws would. No input tuple repeats within
a run, apart from the three fixed large-beta points of direct-scan.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("direct-scan", "expand-tables", "cli-oneshot")

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PSI = math.sqrt(2.0) - 1.0  # second step, so (beta, s) pairs fill the plane

# Large-beta direct sums that fail their check because of the K_nu fault
# (absolute e^-45 truncation and a fixed trapezoid step in
# specfun.bessel_k_many). They do not depend on the seed.
KNOWN_FAULT_OPS = (
    {"kind": "sum_h0", "s": 0.5, "beta": 15.0},
    {"kind": "sum_h0", "s": 0.3, "beta": 15.0},
    {"kind": "sum_h0", "s": 0.5, "beta": 300.0},
)

# direct-scan slots: (kind, options). "lo"/"hi" bound beta (or m) log-uniformly.
_DIRECT_SLOTS = (
    ("sum_h0", {"lo": 1e-3, "hi": 3.0}),
    ("sum_h0", {"lo": 1e-3, "hi": 3.0}),
    ("sum_h0_half", {"lo": 1e-3, "hi": 3.0}),
    ("sum_h", {"lo": 1e-3, "hi": 3.0}),
    ("sum_h", {"lo": 1e-3, "hi": 3.0}),
    ("sum_f", {"model": "circle", "phase": False, "lo": 0.05, "hi": 3.0}),
    ("sum_f", {"model": "circle", "phase": True, "lo": 0.05, "hi": 3.0}),
    ("sum_f", {"model": "torus:1", "phase": False, "lo": 0.05, "hi": 3.0}),
    ("sum_f", {"model": "torus:1", "phase": True, "lo": 0.05, "hi": 3.0}),
    ("product_zeta", {"model": "circle", "lo": 0.1, "hi": 3.0}),
    ("piston_zeta", {"model": "torus:1", "lo": 0.1, "hi": 1.5}),
    ("mass_sum", {"lo": 0.01, "hi": 3.0}),
)

# expand-tables slots: (family, model or lattice dimension, branch).
_SPECIAL_S = {
    "pos_int": (1.0, 2.0, 3.0),
    "nonneg_int": (0.0, 1.0, 2.0, 3.0),
    "neg_int": (-1.0, -2.0, -3.0),
    "nonpos_int": (0.0, -1.0, -2.0),
    "neg_half": (-0.5, -1.5, -2.5),
    "pos_half": (0.5, 1.5, 2.5),
}

_EXPAND_SLOTS = (
    ("h", None, "generic"),
    ("h", None, "pos_int"),
    ("h", None, "nonpos_int"),
    ("h0", None, "generic"),
    ("h0", None, "pos_int"),
    ("h0", None, "nonpos_int"),
    ("h0", None, "neg_half"),
    ("h0", None, "half"),
    ("g", 2, "generic"),
    ("g", 2, "nonneg_int"),
    ("g", 2, "neg_int"),
    ("g", 3, "generic"),
    ("g", 3, "nonneg_int"),
    ("g", 3, "neg_int"),
    ("g", 3, "pos_half"),
    ("f", "circle", "generic"),
    ("f", "circle", "pos_int"),
    ("f", "circle", "neg_half"),
    ("f", "torus:1", "generic"),
    ("f", "torus:1", "pos_half"),
    ("f", "torus:2", "generic"),
    ("f", "torus:2", "pos_int"),
    ("f", "torus:2", "pos_half"),
    ("f", "torus:3", "generic"),
    ("f", "torus:3", "pos_int"),
    ("f0", "circle", "generic"),
    ("f0", "torus:2", "generic"),
    ("f0", "torus:3", "pos_half"),
    ("product_zeta_expansion", "circle", "generic"),
    ("product_zeta_expansion", "torus:2", "generic"),
    ("mass_expansion", None, "special"),
    ("casimir", "circle", None),
    ("casimir", "torus:2", None),
)

# Small-beta points at which every expansion table is evaluated.
EVAL_BETA_LO, EVAL_BETA_HI, N_EVAL = 0.02, 0.5, 3

_CLI_SLOTS = ("eval", "expand", "compare", "oracle", "casimir", "mass")


class Stream:
    """Deterministic round generator for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = int(seed)
        nslots = {"direct-scan": len(_DIRECT_SLOTS),
                  "expand-tables": len(_EXPAND_SLOTS),
                  "cli-oneshot": len(_CLI_SLOTS)}[workload]
        rng = np.random.default_rng([self.seed, 0x5eed])
        self._u0 = rng.random(nslots)
        self._v0 = rng.random(nslots)

    def _u(self, slot: int, r: int) -> float:
        """Kronecker point of slot `slot` in round `r` (in [0, 1))."""
        return math.fmod(self._u0[slot] + r * _PHI, 1.0)

    def round(self, r: int) -> list:
        """The operations of round r (a list of plain dicts)."""
        rng = np.random.default_rng([self.seed, r + 1])
        build = {"direct-scan": self._direct, "expand-tables": self._expand,
                 "cli-oneshot": self._cli}[self.workload]
        return build(rng, r)

    # -- helpers -----------------------------------------------------------

    def _log_point(self, slot, r, lo, hi) -> float:
        return math.exp(math.log(lo) + self._u(slot, r) * math.log(hi / lo))

    @staticmethod
    def _generic_s(rng, lo, hi) -> float:
        """s in (lo, hi) at least 0.05 away from every half-integer."""
        while True:
            s = float(rng.uniform(lo, hi))
            if abs(2.0 * s - round(2.0 * s)) > 0.1:
                return s

    @staticmethod
    def _phase(rng) -> float:
        """Twist B in (0.05, 0.95), at least 0.02 away from 1/2."""
        while True:
            b = float(rng.uniform(0.05, 0.95))
            if abs(b - 0.5) > 0.02:
                return b

    def _direct_s(self, r, slot) -> float:
        """Order s cycling through negative, fractional and integer values,
        each swept by a second Kronecker sequence."""
        v = math.fmod(self._v0[slot] + r * _PSI, 1.0)
        kind = (r + slot) % 3
        if kind == 0:
            return -(0.1 + 2.4 * v)
        if kind == 1:
            return 0.05 + 3.45 * v
        return float(math.floor(6.0 * v) - 2)

    # -- workloads ---------------------------------------------------------

    def _direct(self, rng, r) -> list:
        ops = []
        for slot, (kind, opt) in enumerate(_DIRECT_SLOTS):
            beta = self._log_point(slot, r, opt["lo"], opt["hi"])
            if kind == "sum_h0":
                ops.append({"kind": kind, "s": self._direct_s(r, slot), "beta": beta})
            elif kind == "sum_h0_half":
                ops.append({"kind": "sum_h0", "s": 0.5, "beta": beta})
            elif kind == "sum_h":
                ops.append({"kind": kind, "s": self._direct_s(r, slot), "beta": beta,
                            "B": self._phase(rng)})
            elif kind == "sum_g":
                ops.append({"kind": kind, "d": opt["d"], "s": self._direct_s(r, slot),
                            "beta": beta})
            elif kind == "sum_f":
                ops.append({"kind": kind, "model": opt["model"],
                            "s": self._direct_s(r, slot), "beta": beta,
                            "B": self._phase(rng) if opt["phase"] else 0.0})
            elif kind == "product_zeta":
                ops.append({"kind": kind, "model": opt["model"], "d": int(rng.integers(0, 3)),
                            "s": self._generic_s(rng, 0.3, 3.3), "beta": beta,
                            "B": self._phase(rng)})
            elif kind == "piston_zeta":
                ops.append({"kind": kind, "model": opt["model"], "D": int(rng.integers(1, 4)),
                            "s": self._generic_s(rng, -1.4, 1.4), "beta": beta,
                            "L": beta * float(rng.uniform(1.5, 3.0))})
            elif kind == "mass_sum":
                ops.append({"kind": kind, "m": beta, "L": float(rng.uniform(0.5, 2.0)),
                            "D": int(rng.integers(2, 7))})
        ops.extend(dict(op) for op in KNOWN_FAULT_OPS)
        return ops

    def _expand(self, rng, r) -> list:
        ops = []
        for slot, (family, where, branch) in enumerate(_EXPAND_SLOTS):
            u = self._u(slot, r)
            order = 1.0 + 9.0 * u
            betas = sorted(
                math.exp(math.log(EVAL_BETA_LO)
                         + float(v) * math.log(EVAL_BETA_HI / EVAL_BETA_LO))
                for v in rng.random(N_EVAL))
            if family == "casimir":
                beta = float(rng.uniform(0.2, 2.0))
                ops.append({"kind": "casimir", "model": where,
                            "D": int(rng.integers(1, 5)), "beta": beta,
                            "L": beta * float(rng.uniform(1.5, 4.0)),
                            "order": float(rng.integers(4, 17))})
                continue
            if family == "mass_expansion":
                ops.append({"kind": family, "m": float(rng.uniform(0.01, 0.5)),
                            "L": float(rng.uniform(0.5, 2.0)), "D": int(rng.integers(2, 7)),
                            "order": order, "betas": betas})
                continue
            if family == "product_zeta_expansion":
                ops.append({"kind": family, "model": where, "d": int(rng.integers(0, 3)),
                            "s": self._generic_s(rng, 0.3, 3.3),
                            "B": self._phase(rng) if r % 2 else 0.0,
                            "order": order, "betas": betas})
                continue
            if branch == "generic":
                s = self._generic_s(rng, -3.4, 3.9)
            elif branch == "half":
                s = 0.5
            else:
                choices = _SPECIAL_S[branch]
                s = choices[int(rng.integers(0, len(choices)))]
            op = {"kind": "expand_" + family, "s": s, "order": order, "betas": betas}
            if family == "g":
                op["d"] = where
            if family in ("f", "f0"):
                op["model"] = where
            if family in ("h", "f"):
                op["x"] = self._phase(rng)
            ops.append(op)
        return ops

    def _cli(self, rng, r) -> list:
        """Each op is an argv for `python -m besselsum.cli`."""
        def g(v):
            return repr(float(v))

        u = [self._u(slot, r) for slot in range(len(_CLI_SLOTS))]
        b_eval = math.exp(math.log(0.05) + u[0] * math.log(2.0 / 0.05))
        # compare stays where the expansion remainder at beta is far above the
        # direct sum's own error; below it the CLI's ratio test misfires (see
        # the FOUND line on cli._ratio_test in CHANGES.md).
        b_cmp = math.exp(math.log(0.1) + u[2] * math.log(0.4 / 0.1))
        b_or = math.exp(math.log(0.1) + u[3] * math.log(2.0 / 0.1))
        b_cas = 0.2 + 1.8 * u[4]
        m_mass = math.exp(math.log(0.01) + u[5] * math.log(0.5 / 0.01))
        return [
            ["eval", "--series", "h", "--s", g(self._direct_s(r, 0)),
             "--beta", g(b_eval), "--B", g(self._phase(rng))],
            ["expand", "--series", "f", "--model", "torus:1",
             "--s", g(self._generic_s(rng, -2.4, 2.9)), "--B", g(self._phase(rng)),
             "--order", g(1.0 + 9.0 * u[1]),
             "--beta", g(math.exp(math.log(0.02) + float(rng.random()) * math.log(25.0)))],
            ["compare", "--series", "h0", "--s", g(self._generic_s(rng, 0.1, 2.4)),
             "--beta", g(b_cmp), "--order", g(float(rng.integers(1, 4)))],
            ["oracle", "--series", "h0", "--s", g(self._generic_s(rng, -0.9, 2.9)),
             "--beta", g(b_or)],
            ["casimir", "--D", str(int(rng.integers(1, 5))), "--model", "torus:2",
             "--beta", g(b_cas), "--L", g(b_cas * float(rng.uniform(1.5, 4.0)))],
            ["mass", "--m", g(m_mass), "--L", g(float(rng.uniform(0.5, 2.0))),
             "--D", str(int(rng.integers(2, 7))),
             "--order", g(float(rng.integers(2, 11)))],
        ]
