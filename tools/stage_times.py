"""Time each eigensolver stage, apply, reconstruct and the identity suite of source trees on the bench's dense recipe.

Usage: python tools/stage_times.py SRC [SRC ...]

Each SRC is a directory that holds a ``geospectral`` package (for example
a parent commit's ``src`` and this checkout's ``src``).  The inputs are
built once, from this checkout: one matrix of the bench's dense recipe
(``bench/workloads.grid_spectrum`` with n/4 pairs, basis condition cap
1e6, rng ``[1, 5, n]``) for each n in SIZES.  Each tree then runs in
its own subprocess with one BLAS thread.  There it first runs
``eigensystem`` on M once with its stages wrapped, to keep a copy of
the arguments each stage is given there, and then times with
``perf_counter``, best of at least 5 passes that each call every stage
once, and of as many more as fill one second per size.  Every call gets
a fresh copy of its recorded arguments, made before the clock starts,
because a stage may work on them in place (``hessenberg_reduce`` and
``real_schur`` reduce one work array), and a stage replayed on an array
an earlier call already reduced does other work:

- ``hessenberg_reduce`` on the work array ``eigensystem`` builds from M
- ``real_schur`` on its output, with the number of Francis sweeps and
  of bulge steps (a sweep on the block [lo, hi] makes hi - lo of them)
- ``right_eigenvectors`` on the Schur form
- ``basis_inverse``: the inverse of the real eigenvector basis
- ``eigensolve.eigensystem`` of M: every stage above and what joins them
- ``realdecomp.decompose`` of M
- ``cli``: in-process ``cli.main(["decompose", FILE, "-o", OUT])`` on M,
  written once as Matrix Market: parsing, ``decompose`` and the JSON
  report, the path the bench's cli-corpus workload times
- ``assembly``: ``realdecomp.decompose`` of M with ``eigensystem``
  replaced by a function that returns its result for M, computed once:
  the rows' check and the residual alone, which
  ``decompose - eigensystem`` gives only to within both stages' noise;
  the term records are built on their first read (the JSON report, in
  ``cli``), not inside ``decompose``
- ``apply``: ``realdecomp.apply`` of M's decomposition, computed once, to
  a vector drawn from rng ``[7, n]``: the read side, as the bench's
  apply-stream workload times it
- ``reconstruct``: ``realdecomp.reconstruct`` of that decomposition
- ``verify.run_identity_suite`` of M: decompose and every identity check
- ``checks``: ``verify._decomposition_checks`` of M brought to unit scale,
  as the suite brings it, on its decomposition, computed once: the
  identity checks alone, which ``suite - decompose`` gives only to within
  both stages' noise
- ``np.linalg.eig`` of M (LAPACK, the reference speed)

Each size runs in its own subprocess.  In each of ROUNDS rounds, every
size runs in every tree in turn, the first tree rotating from round to
round, and each figure is the least over the rounds.  So the trees take
turns within seconds of each other, and a slow spell of a shared machine
falls on every tree alike.  The script prints one table per tree in
milliseconds, with Schur's microseconds per bulge step (nan at a size
whose Schur form needs no sweep, such as n = 2), and, for two or more
trees, each later tree's times divided by the first tree's.  SIZES
starts with n = 2 and 8, sizes of the acceptance corpus (n = 2..16),
where a call's fixed cost outweighs its arithmetic.  Give the same tree
twice to see the noise floor: on a shared 2-core machine such a run read
ratios of 0.92 to 1.11 for all 48 timings, the widest at n = 2 and 16.
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

SIZES = (2, 8, 16, 64, 128, 256)
ROUNDS = 3
STAGES = ("hessenberg", "schur", "right_vecs", "basis_inv", "eigensystem", "decompose", "cli",
          "assembly", "apply", "reconstruct", "suite", "checks", "np_eig")
COLUMNS = (*STAGES, "us/step")

# run as ``python -c`` in each tree: argv[1] is the inputs, argv[2] the output
_CHILD = """
import copy, json, sys, time
from functools import partial
import numpy as np
from geospectral import cli, densecore, eigensolve, matio, realdecomp, verify

# the stages eigensystem calls, each timed on copies of the arguments it is given there
CALLED = {
    "hessenberg": (eigensolve, "hessenberg_reduce"),
    "schur": (eigensolve, "real_schur"),
    "right_vecs": (eigensolve, "right_eigenvectors"),
    "basis_inv": (eigensolve, "basis_inverse"),
    "sweep": (eigensolve, "_francis_step"),
}

def record(m):
    # run eigensystem(m) once with every stage wrapped; return a copy of each
    # stage's first arguments, as the stage got them, the number of calls of
    # each and the bulge steps
    args, calls = {}, dict.fromkeys([*CALLED, "steps"], 0)
    saved = {key: getattr(mod, name) for key, (mod, name) in CALLED.items()}

    def wrap(key, fn):
        def stage(*given):
            if key != "sweep" and key not in args:
                args[key] = copy.deepcopy(given)
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

def assembly(m, system):
    # decompose(m) on a precomputed eigensystem: everything after the solver
    saved = eigensolve.eigensystem
    eigensolve.eigensystem = lambda _m: system
    try:
        realdecomp.decompose(m)
    finally:
        eigensolve.eigensystem = saved

rows = []
with np.load(sys.argv[1]) as inputs:
    for key in sorted(inputs.files):
        m = inputs[key]
        args, calls = record(m)
        stages = {
            key: (getattr(mod, name), args[key])
            for key, (mod, name) in CALLED.items()
            if key != "sweep"
        }
        stages["eigensystem"] = eigensolve.eigensystem, (m,)
        stages["decompose"] = realdecomp.decompose, (m,)
        # the whole command on M, written once in the working directory
        matio.write_matrix_market(f"{key}.mtx", m)
        stages["cli"] = cli.main, (["decompose", f"{key}.mtx", "-o", f"{key}.json"],)
        stages["assembly"] = partial(assembly, system=eigensolve.eigensystem(m)), (m,)
        dec = realdecomp.decompose(m)
        x = np.random.default_rng([7, len(m)]).standard_normal(len(m))
        stages["apply"] = realdecomp.apply, (dec, x)
        stages["reconstruct"] = realdecomp.reconstruct, (dec,)
        stages["suite"] = verify.run_identity_suite, (m,)
        unit = m / densecore.pow2_scale(m)
        stages["checks"] = verify._decomposition_checks, (unit, realdecomp.decompose(unit))
        stages["np_eig"] = np.linalg.eig, (m,)
        row = dict.fromkeys(stages, float("inf"))
        # each pass times every stage once, so a slow spell hits them alike;
        # small sizes get more passes, so that one spell cannot cover them all
        passes, until = 0, time.perf_counter() + 1.0
        while passes < 5 or time.perf_counter() < until:
            passes += 1
            for name, (fn, recorded) in stages.items():
                given = copy.deepcopy(recorded)  # fresh, outside the timed region
                start = time.perf_counter()
                fn(*given)
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


def us_per_step(row):
    """Schur's microseconds per bulge step in a result row; nan for a size
    whose Schur form took no bulge step."""
    return row["schur"] * 1e3 / row["steps"] if row["steps"] else float("nan")


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
            row["us/step"] = us_per_step(row)
    for src, rows in zip(srcs, best):
        _table(f"{src}: ms, best of >= 5 passes x {ROUNDS} rounds", rows, "{:.3f}".format)
    for src, rows in zip(srcs[1:], best[1:]):
        ratios = [
            dict(row, **{s: row[s] / first[s] for s in COLUMNS}) for row, first in zip(rows, best[0])
        ]
        _table(f"{src} / {srcs[0]}", ratios, "{:.3f}".format)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
