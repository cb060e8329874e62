"""Traced stand-in for `python -m besselsum.cli ARGS...`.

    python perfbench/launch_cli.py OUT.json ARGS...

Imports besselsum.cli, installs the span wrappers, calls besselsum.cli.run
with ARGS and exits with its code; stdout is the program's own. OUT.json
receives the spans and the monotonic timestamps of interpreter start, end of
import and start and end of run.
"""

import time

T_START = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import besselsum.cli  # noqa: E402

T_IMPORTED = time.monotonic_ns()

import spans  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    t0 = time.monotonic_ns()
    code = besselsum.cli.run(argv)
    t1 = time.monotonic_ns()
    sys.stdout.flush()
    tracer.dump(out, {"t_start": T_START, "t_imported": T_IMPORTED,
                      "t_run0": t0, "t_run1": t1})
    sys.exit(code)


if __name__ == "__main__":
    main()
