"""Benchmark of besselsum: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload {direct-scan,expand-tables,cli-oneshot}
                             --seed N --seconds T --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. Each
workload runs in fresh interpreters started here, one caller, one thread
(BLAS pools pinned to one thread). The last line of stdout is one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

SETUP_PROBES = 4  # fresh interpreters timed for set-up before the timed loop, and again after
CLI_TRACE_ROUNDS = 2  # cli-oneshot rounds whose spans the traced run keeps


def child_env() -> dict:
    env = dict(os.environ)
    # Bytecode is cached as in an installed package, so only the untimed
    # first run compiles besselsum.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd, env, tag):
    """Run cmd to completion; (exit code, stdout, spawn time, end time, peak RSS kB).

    Output goes through files in OUT so a child never blocks on a full pipe;
    os.wait4 gives the child's own peak RSS.
    """
    out_path = os.path.join(OUT, f"{tag}.stdout")
    err_path = os.path.join(OUT, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    if proc.returncode != 0 and tag.startswith("worker"):
        with open(err_path, "rb") as fh:
            sys.stderr.write(fh.read().decode(errors="replace")[-2000:])
    return proc.returncode, stdout, t0, t1, usage.ru_maxrss


def setup_probes(workload, seed, env, first):
    """Time SETUP_PROBES fresh interpreters from spawn to ready; [(report, spawn time)]."""
    probes = []
    for i in range(first, first + SETUP_PROBES):
        code, out, t0, _, _ = spawn([sys.executable, os.path.join(HERE, "worker.py"),
                                     "--workload", workload, "--seed", str(seed),
                                     "--setup-only"], env, f"worker-setup-{i}")
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}")
        probes.append((json.loads(out), t0))
    return probes


def run_in_process(args, env):
    """direct-scan / expand-tables: one worker process runs the rounds."""
    from check import check_op
    from workloads import Stream
    import spans

    probes = setup_probes(args.workload, args.seed, env, 0)
    records_path = os.path.join(OUT, f"records-{args.workload}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--records", records_path]
    trace_path = os.path.join(OUT, f"spans-{args.workload}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    code, out, t0, _, rss_kb = spawn(cmd, env, "worker-run")
    if code != 0:
        raise SystemExit(f"worker failed with exit code {code}")
    rep = json.loads(out)
    probes.append((rep, t0))
    probes += setup_probes(args.workload, args.seed, env, SETUP_PROBES)

    stream = Stream(args.workload, args.seed)
    ops = [op for r in range(rep["rounds"]) for op in stream.round(r)]
    failures = []
    latencies = []
    prefix_ops = 0
    with open(records_path, encoding="utf-8") as fh:
        for op, line in zip(ops, fh, strict=True):
            r, ns, output = json.loads(line)
            latencies.append(ns)
            prefix_ops += r < rep["prefix_rounds"]
            reason = check_op(op, output)
            if reason is not None:
                failures.append((op, reason))
    n = len(latencies)
    info = {"ops_per_s": n / (rep["busy_ns"] * 1e-9),
            "prefix_ops_per_s": prefix_ops / (rep["prefix_ns"] * 1e-9),
            "rounds": rep["rounds"]}
    result = {
        "attempted": n,
        "failures": failures,
        "setup": [(p["t_ready"] - t) * 1e-9 for p, t in probes],
        "interp_start": [(p["t_start"] - t) * 1e-6 for p, t in probes],
        "import": [(p["t_imported"] - p["t_start"]) * 1e-6 for p, _ in probes],
        "ops_per_s": info["ops_per_s"],
        "p50_ms": statistics.median(latencies) * 1e-6,
        "rss_mb": rss_kb / 1024.0,
        "info": info,
    }
    if args.trace:
        with open(trace_path, encoding="utf-8") as fh:
            layer = spans.per_layer([json.load(fh)])
        layer.update({"cli.interp_start_ms": statistics.median(result["interp_start"]),
                      "cli.import_ms": statistics.median(result["import"]),
                      "cli.run_ms": 0.0, "cli.stdout_bytes": 0})
        result["per_layer"] = layer
    return result


def run_cli(args, env):
    """cli-oneshot: one fresh `python -m besselsum.cli` process per operation."""
    from check import check_cli
    from workloads import Stream
    import spans

    stream = Stream(args.workload, args.seed)
    pending = stream.round(0)
    # Untimed first invocation: compiles the bytecode, and its stdout must be
    # byte-identical to the timed repeat of the same command below.
    _, first_stdout, _, _, _ = spawn([sys.executable, "-m", "besselsum.cli", *pending[0]],
                                     env, "cli-warmup")
    probes = setup_probes(args.workload, args.seed, env, 0)

    # The timed loop only runs the processes; checks and span files come after.
    done = []  # (round, slot, argv, exit code, stdout, spawn time, end time, peak RSS kB)
    budget = int(args.seconds * 1e9)
    start = time.monotonic_ns()
    r = 0
    while True:
        for i, argv in enumerate(pending):
            if args.trace:
                cmd = [sys.executable, os.path.join(HERE, "launch_cli.py"),
                       os.path.join(OUT, f"spans-cli-{r}-{i}.json"), *argv]
            else:
                cmd = [sys.executable, "-m", "besselsum.cli", *argv]
            done.append((r, i, argv, *spawn(cmd, env, "cli-op")))
        r += 1
        if time.monotonic_ns() - start >= budget and r >= CLI_TRACE_ROUNDS:
            break
        pending = stream.round(r)
    elapsed = time.monotonic_ns() - start
    probes += setup_probes(args.workload, args.seed, env, SETUP_PROBES)

    failures = []
    for k, (_, _, argv, code, stdout, _, _, _) in enumerate(done):
        reason = check_cli(argv, code, stdout)
        if reason is None and k == 0 and stdout != first_stdout:
            reason = "stdout differs between two runs of the same command"
        if reason is not None:
            failures.append((argv, reason))
    n = len(done)
    result = {
        "attempted": n,
        "failures": failures,
        "setup": [(p["t_ready"] - t) * 1e-9 for p, t in probes],
        "ops_per_s": n / (elapsed * 1e-9),
        "p50_ms": statistics.median(t1 - t0 for *_, t0, t1, _ in done) * 1e-6,
        "rss_mb": max(kb for *_, kb in done) / 1024.0,
        "info": {"ops_per_s": n / (elapsed * 1e-9), "rounds": r},
    }
    if args.trace:
        dumps, interp, imports, runs, out_bytes = [], [], [], [], 0
        for rr, i, _, _, stdout, t0, _, _ in done:
            if rr >= CLI_TRACE_ROUNDS:
                continue
            with open(os.path.join(OUT, f"spans-cli-{rr}-{i}.json"), encoding="utf-8") as fh:
                dump = json.load(fh)
            meta = dump["meta"]
            dumps.append(dump)
            interp.append((meta["t_start"] - t0) * 1e-6)
            imports.append((meta["t_imported"] - meta["t_start"]) * 1e-6)
            runs.append((meta["t_run1"] - meta["t_run0"]) * 1e-6)
            out_bytes += len(stdout)
        layer = spans.per_layer(dumps)
        layer.update({"cli.interp_start_ms": statistics.median(interp),
                      "cli.import_ms": statistics.median(imports),
                      "cli.run_ms": statistics.median(runs),
                      "cli.stdout_bytes": out_bytes})
        result["per_layer"] = layer
    return result


def main(argv=None) -> int:
    from workloads import KNOWN_FAULT_OPS, WORKLOADS
    import spans

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besselsum", "__init__.py")):
        sys.stderr.write(f"run.py: no besselsum package under {SRC}; "
                         "run from the root of a besselsum checkout\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    # quad in refs.py reports round-off near its tolerance floor; the values
    # stay within 3e-14 of mpmath there (test_perfbench.py).
    import scipy.integrate
    warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
    env = child_env()
    if args.workload == "cli-oneshot":
        res = run_cli(args, env)
    else:
        spawn([sys.executable, "-c", "import besselsum"], env, "warmup")
        res = run_in_process(args, env)

    unexpected = [(op, why) for op, why in res["failures"] if op not in KNOWN_FAULT_OPS]
    for op, why in unexpected[:20]:
        sys.stderr.write(f"failed: {op}: {why}\n")
    res["info"]["known_fault_failures"] = len(res["failures"]) - len(unexpected)
    sys.stderr.write(f"info: {json.dumps(res['info'])}\n")
    if args.trace:
        units = dict(spans.PER_LAYER)
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    correct = not unexpected
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
