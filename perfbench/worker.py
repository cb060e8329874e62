"""One workload in a fresh interpreter: set up, run rounds for a time, report.

    python perfbench/worker.py --workload W --seed N --setup-only
    python perfbench/worker.py --workload W --seed N --records PATH
                               [--seconds T] [--trace-out PATH]

Prints one JSON object on stdout: monotonic timestamps of interpreter start,
of the end of `import besselsum` and of the end of set-up, and (unless
--setup-only) the rounds run and the time spent in them. Rounds run until
--seconds have passed and at least the traced prefix is done. Each operation
appends one JSON line to the records file (round, latency in ns, outputs)
after its round, so this process holds no more than one round of outputs
and its peak RSS stays the program's. The outputs are checked by the parent
process, so this process imports nothing but besselsum, numpy and the
standard library. Program functions are looked up on their modules at call
time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import time

T_START = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Rounds whose spans a traced run keeps (per-layer counts come from these).
TRACE_ROUNDS = {"direct-scan": 16, "expand-tables": 12}


def _import_program(workload):
    if workload == "cli-oneshot":
        import besselsum.cli as mod
    else:
        import besselsum as mod
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        sys.exit(f"besselsum was imported from {mod.__file__}, not from {SRC}")
    return mod


def _models():
    from besselsum import manifolds as mf
    return {"circle": mf.circle_model(), "torus:1": mf.torus_model(1),
            "torus:2": mf.torus_model(2), "torus:3": mf.torus_model(3)}


def _expansion_out(ex, betas):
    return {"terms": [[t.power, t.const_coeff, t.log_coeff] for t in ex.terms],
            "rem": ex.remainder_power, "tag": ex.case_tag,
            "evals": [ex.evaluate(b) for b in betas]}


def run_op(op, models):
    from besselsum import applications as ap, asymptotics as asy, direct_eval as de
    k = op["kind"]
    if k.startswith("sum_") or k in ("product_zeta", "piston_zeta", "mass_sum"):
        if k == "sum_h0":
            r = de.sum_h0(op["s"], op["beta"])
        elif k == "sum_h":
            r = de.sum_h(de.SeriesParams(s=op["s"], beta=op["beta"], B=op["B"]))
        elif k == "sum_g":
            r = de.sum_g(op["d"], op["s"], op["beta"])
        elif k == "sum_f":
            r = de.sum_f(models[op["model"]], op["s"], op["beta"], op["B"])
        elif k == "product_zeta":
            geom = ap.ProductGeometry(d=op["d"], model=models[op["model"]],
                                      beta=op["beta"], B=op["B"])
            r = ap.product_zeta(geom, op["s"])
        elif k == "piston_zeta":
            geom = ap.ProductGeometry(d=op["D"] - 1, model=models[op["model"]],
                                      beta=op["beta"], B=0.5)
            r = ap.piston_zeta(ap.PistonConfig(geometry=geom, L=op["L"]), op["s"])
        else:
            r = ap.mass_sum(op["m"], op["L"], op["D"])
        return {"value": r.value, "err": r.error_estimate, "terms_used": r.terms_used}
    if k == "casimir":
        geom = ap.ProductGeometry(d=op["D"] - 1, model=models[op["model"]],
                                  beta=op["beta"], B=0.5)
        cfg = ap.PistonConfig(geometry=geom, L=op["L"])
        pole, finite = ap.casimir_energy(cfg)
        return {"pole": pole, "finite": finite, "force": ap.casimir_force(cfg, op["order"])}
    if k == "product_zeta_expansion":
        geom = ap.ProductGeometry(d=op["d"], model=models[op["model"]], beta=1.0, B=op["B"])
        ex = ap.product_zeta_expansion(geom, op["s"], op["order"])
    elif k == "mass_expansion":
        ex = ap.mass_expansion(op["m"], op["L"], op["D"], op["order"])
    elif k == "expand_h":
        ex = asy.expand_h(op["s"], op["x"], op["order"])
    elif k == "expand_h0":
        ex = asy.expand_h0(op["s"], op["order"])
    elif k == "expand_g":
        ex = asy.expand_g(op["d"], op["s"], op["order"])
    elif k == "expand_f":
        ex = asy.expand_f(models[op["model"]], op["s"], op["x"], op["order"])
    elif k == "expand_f0":
        ex = asy.expand_f0(models[op["model"]], op["s"], op["order"])
    else:
        raise ValueError(f"unknown operation {k!r}")
    return _expansion_out(ex, op["betas"])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--records", default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    _import_program(args.workload)
    t_imported = time.monotonic_ns()
    report = {"t_start": T_START, "t_imported": t_imported}
    if args.workload != "cli-oneshot":
        from workloads import Stream

        models = _models()
        stream = Stream(args.workload, args.seed)
        pending = stream.round(0)
    report["t_ready"] = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps(report), flush=True)
        os._exit(0)  # a set-up probe is timed to ready; skip the interpreter's teardown

    tracer = None
    prefix = TRACE_ROUNDS[args.workload]
    if args.trace_out:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    clock = time.perf_counter_ns
    budget = int(args.seconds * 1e9)
    busy_ns = prefix_ns = 0  # time inside rounds; generating inputs and writing records is left out
    start = clock()
    r = 0
    with open(args.records, "w", encoding="utf-8") as rec:
        while True:
            if tracer:
                tracer.recording = r < prefix
            done = []
            t_round = clock()
            for op in pending:
                t0 = clock()
                try:
                    out = run_op(op, models)
                except Exception as exc:  # recorded and counted as a failed operation
                    out = {"error": f"{type(exc).__name__}: {exc}"}
                done.append((clock() - t0, out))
            busy_ns += clock() - t_round
            for ns, out in done:
                rec.write(json.dumps([r, ns, out]) + "\n")
            r += 1
            if r == prefix:
                prefix_ns = busy_ns
            if clock() - start >= budget and r >= prefix:
                break
            pending = stream.round(r)
    report.update(busy_ns=busy_ns, rounds=r, prefix_rounds=prefix, prefix_ns=prefix_ns)
    if tracer:
        tracer.dump(args.trace_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
