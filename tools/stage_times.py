"""Time each eigensolver stage and the identity suite of source trees on the bench's dense recipe.

Usage: python tools/stage_times.py SRC [SRC ...]

Each SRC is a directory that holds a ``geospectral`` package (for example
a parent commit's ``src`` and this checkout's ``src``).  The inputs are
built once, from this checkout: one matrix of the bench's dense recipe
(``bench/workloads.grid_spectrum`` with n/4 pairs, basis condition cap
1e6, rng ``[1, 5, n]``) for each n in SIZES.  Each tree then runs in
its own subprocess with one BLAS thread.  There it first runs
``eigensystem`` on M once with its stages wrapped, to take the
arguments each stage is given there, and then times with
``perf_counter``, best of at least 5 passes that each call every stage
once, and of as many more as fill one second per size:

- ``hessenberg_reduce`` on M scaled as ``eigensystem`` scales it
- ``real_schur`` on its output, with the number of Francis sweeps and
  of bulge steps (a sweep on the block [lo, hi] makes hi - lo of them)
- ``right_eigenvectors`` on the Schur form
- the inverse of the real eigenvector basis: ``eigensolve.basis_inverse``,
  or ``densecore.inverse`` in a tree that predates it
- ``realdecomp.decompose`` of M
- ``verify.run_identity_suite`` of M: decompose and every identity check
- ``np.linalg.eig`` of M (LAPACK, the reference speed)

Each size runs in its own subprocess.  In each of ROUNDS rounds, every
size runs in every tree in turn, the first tree rotating from round to
round, and each figure is the least over the rounds.  So the trees take
turns within seconds of each other, and a slow spell of a shared machine
falls on every tree alike.  The script prints one table per tree in
milliseconds, with Schur's microseconds per bulge step, and, for two or
more trees, each later tree's times divided by the first tree's.  Give
the same tree twice to see the noise floor: on a shared 2-core machine
such a run read ratios of 0.93 to 1.02 for all 28 figures.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from geospectral import verify  # noqa: E402
from workloads import grid_spectrum  # noqa: E402

SIZES = (16, 64, 128, 256)
ROUNDS = 3
STAGES = ("hessenberg", "schur", "right_vecs", "basis_inv", "decompose", "suite", "np_eig")
COLUMNS = (*STAGES, "us/step")

# run as ``python -c`` in each tree: argv[1] is the inputs, argv[2] the output
_CHILD = """
import json, sys, time
import numpy as np
from geospectral import densecore, eigensolve, realdecomp, verify

# the stages eigensystem calls, each timed on the arguments it is given there;
# a tree that predates basis_inverse inverts the basis with densecore's LU
CALLED = {
    "hessenberg": (eigensolve, "hessenberg_reduce"),
    "schur": (eigensolve, "real_schur"),
    "right_vecs": (eigensolve, "right_eigenvectors"),
    "basis_inv": (
        (eigensolve, "basis_inverse") if hasattr(eigensolve, "basis_inverse")
        else (densecore, "inverse")
    ),
    "sweep": (eigensolve, "_francis_step"),
}

def record(m):
    # run eigensystem(m) once with every stage wrapped; return each stage's
    # first arguments, the number of calls of each and the bulge steps
    args, calls = {}, dict.fromkeys([*CALLED, "steps"], 0)
    saved = {key: getattr(mod, name) for key, (mod, name) in CALLED.items()}

    def wrap(key, fn):
        def stage(*given):
            args.setdefault(key, given)
            calls[key] += 1
            if key == "sweep":  # _francis_step(a, lo, hi, r1, r2)
                calls["steps"] += given[2] - given[1]
            return fn(*given)
        return stage

    for key, (mod, name) in CALLED.items():
        setattr(mod, name, wrap(key, saved[key]))
    try:
        eigensolve.eigensystem(m)
    finally:
        for key, (mod, name) in CALLED.items():
            setattr(mod, name, saved[key])
    return args, calls

rows = []
with np.load(sys.argv[1]) as inputs:
    for key in sorted(inputs.files):
        m = inputs[key]
        args, calls = record(m)
        stages = {
            key: (lambda fn=getattr(mod, name), given=args[key]: fn(*given))
            for key, (mod, name) in CALLED.items()
            if key != "sweep"
        }
        stages["decompose"] = lambda: realdecomp.decompose(m)
        stages["suite"] = lambda: verify.run_identity_suite(m)
        stages["np_eig"] = lambda: np.linalg.eig(m)
        row = dict.fromkeys(stages, float("inf"))
        # each pass times every stage once, so a slow spell hits them alike;
        # small sizes get more passes, so that one spell cannot cover them all
        passes, until = 0, time.perf_counter() + 1.0
        while passes < 5 or time.perf_counter() < until:
            passes += 1
            for name, fn in stages.items():
                start = time.perf_counter()
                fn()
                row[name] = min(row[name], (time.perf_counter() - start) * 1e3)
        rows.append(dict(row, n=m.shape[0], sweeps=calls["sweep"], steps=calls["steps"]))
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(rows, fh)
"""


def build_inputs():
    """One dense-recipe matrix per size, keyed so that sorting keeps the order."""
    return {
        f"n{i:02d}": verify.gen_test_matrix(
            grid_spectrum(np.random.default_rng([1, 5, n]), n, n // 4, 1e6)
        )
        for i, n in enumerate(SIZES)
    }


def run_tree(src, inputs_path, out_path):
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **threads)
    subprocess.run(
        [sys.executable, "-c", _CHILD, inputs_path, out_path],
        env=env,
        cwd=os.path.dirname(inputs_path),
        check=True,
    )
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def _table(title, rows, fmt):
    print(title)
    print(f"{'n':>5}" + "".join(f"{s:>12}" for s in COLUMNS) + f"{'sweeps':>8}{'steps':>8}")
    for row in rows:
        cells = "".join(f"{fmt(row[s]):>12}" for s in COLUMNS)
        print(f"{row['n']:>5}{cells}{row['sweeps']:>8}{row['steps']:>8}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    srcs = parser.parse_args(argv).src
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for key, m in build_inputs().items():
            paths.append(os.path.join(tmp, f"{key}.npz"))
            np.savez(paths[-1], **{key: m})
        out_path = os.path.join(tmp, "out.json")
        best = [[None] * len(paths) for _ in srcs]
        for r in range(ROUNDS):
            for j, inputs_path in enumerate(paths):
                for i in np.roll(np.arange(len(srcs)), -r).tolist():
                    [row] = run_tree(srcs[i], inputs_path, out_path)
                    prev = best[i][j]
                    if prev is not None:
                        row.update({s: min(row[s], prev[s]) for s in STAGES})
                    best[i][j] = row
    for rows in best:
        for row in rows:
            row["us/step"] = row["schur"] * 1e3 / row["steps"]
    for src, rows in zip(srcs, best):
        _table(f"{src}: ms, best of >= 5 passes x {ROUNDS} rounds", rows, "{:.2f}".format)
    for src, rows in zip(srcs[1:], best[1:]):
        ratios = [
            dict(row, **{s: row[s] / first[s] for s in COLUMNS}) for row, first in zip(rows, best[0])
        ]
        _table(f"{src} / {srcs[0]}", ratios, "{:.3f}".format)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
