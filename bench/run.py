"""Run one benchmark workload and print its metrics as one JSON line.

    PYTHONPATH=src python3 bench/run.py --workload dense-128 --seed 1 --seconds 20 --trace 0

The code measured is the checkout's own ``src/`` (the package is not
installed); the runner puts it first on ``sys.path`` itself, so setting
PYTHONPATH is optional, and it records ``geospectral.__file__``.  The
last line of standard output is {"correct", "attempted", "failed",
"metrics"}; progress and a readable table go to standard error, and the
full record goes to ``bench/results/``.
"""

import argparse
import json
import os
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("cli-corpus", "dense-128", "identity-suite", "apply-stream")

# One BLAS thread: the load is one closed-loop client on a 2-core machine,
# and the thread count changes both timings and the last bits of residuals.
BLAS_THREADS = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # must precede the numpy import
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "geospectral", "__init__.py")):
        print(f"error: no geospectral sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    start = perf_counter()
    import numpy  # noqa: F401  (timed: part of set-up)
    import geospectral
    from geospectral import cli, matio, realdecomp, verify  # noqa: F401
    import_s = perf_counter() - start

    if os.path.dirname(os.path.abspath(geospectral.__file__)) != os.path.join(src, "geospectral"):
        print(f"error: imported {geospectral.__file__}, not the checkout's src", file=sys.stderr)
        return 2

    sys.path.insert(0, BENCH_DIR)
    import harness

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    line, record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        root=ROOT, import_s=import_s, blas_threads=BLAS_THREADS,
        results_dir=os.path.join(BENCH_DIR, "results"), log=log,
    )
    for name, m in line["metrics"].items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for op, reason in record["failures"]:
        print(f"failed op {op}: {reason}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
