"""Check that two source trees give the same decomposition reports.

Usage: python tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``geospectral`` package
(for example a parent commit's ``src`` and this checkout's ``src``).  The
783 inputs are built once, from this checkout: 400 matrices of the
bench's cli-corpus recipe (seeds 1 and 2), the dense recipe at n = 16,
32, 64 and 128 with 0, n/4 and n/2 pairs, 120 planted spectra drawn from
small pools of repeated values at scales 2^-900, 1 and 2^900, and a list
of edge cases.  Each tree then decomposes every input in its own
subprocess with one BLAS thread, as ``tools/stage_times.py`` runs its
trees, and under ``-W error::RuntimeWarning``: at n >= 128 the last bits
of a report depend on the BLAS thread count, so a byte-identity claim
holds for one thread count only.  Each child records the JSON report
text, or the exception type and message, and the identity suite's verdict:
the sorted names of the checks ``verify.run_identity_suite`` fails, or the
type of the exception it raises.  It also records every check the suite
reports as ``(name, tolerance)``, in order, with its residual, whether
the report, loaded by ``matio.doc_to_decomposition`` and dumped again,
comes back byte for byte, whether a C-ordered copy of the input (most
inputs are built Fortran-ordered) gives the same report, and the read
side: ``realdecomp.apply(dec, x)`` for one seeded standard-normal x per
input, the same x for both trees, and ``realdecomp.reconstruct(dec)``,
and the ``c.a`` and ``nu`` the decomposition keeps (``dec.ca`` and
``dec.nu``).
Last, it writes the input to a Matrix Market file in a temporary
directory of its own and records what
``cli.main(["canonical", path, "-o", out])`` gives: the exit code and the
JSON text, or the error line.  The child calls only names that every
tree has (``cli.main`` and ``matio.write_matrix_market``), so trees whose
``real_canonical_form`` return different tuples compare alike.

Each child also loads a pool of refused reports, built once from this
checkout: for every 20th input that decomposes and has at least two
rows, its report with one term made degenerate in each way that applies
(the first real term's ``c`` orthogonal or nearly orthogonal to ``a``,
or scaled by 2^-1040, so that ``c.a`` is subnormal; the first plane
term's ``d`` and ``q`` turned nearly orthogonal to ``b``, so that ``nu``
is far below its floor; either term's first vector with a NaN entry or
its last vector one entry short), and records what
``matio.doc_to_decomposition`` gives: "ok" or the exception type's name.

Two JSON reports are compared on the fields both carry, recursively and
value by value as JSON text, ignoring ``schema_version``; a field that
only one of them carries counts apart, so trees with different report
schemas can be compared.  The script prints how many inputs differ on
shared fields (or in the error one tree raised), how many of them differ
in each shared field's path ("(error)" for the error), how many inputs
that both trees decompose differ in their field sets, and the paths of the
fields only one tree writes, how many verdicts differ (one tree raised,
or the two raised different exception types), how many inputs that both
trees decompose have different eigenvalues (each term's ``alpha``, or
its ``sigma`` and ``omega``), how many identity-suite verdicts differ,
how many identity-suite tolerance lists differ, how many of NEW_SRC's
reports change in that round trip and how many of NEW_SRC's reports
depend on the input's memory order, and how many inputs that both trees
apply give different ``apply`` outputs, with the largest
``||delta|| / (||M||_F ||x||)`` and its input, how many give different
``reconstruct`` outputs, with the largest ``||delta||_F / ||M||_F`` and
its input, how many have a ``dec.ca`` or ``dec.nu`` that differs bit for
bit, and, for each check name, of the inputs whose suites on both
trees report it, how many give residuals that differ bit for bit, and
how many inputs' ``canonical`` outputs differ.  For each check name it
then prints the largest residual / tolerance on each tree, with the
input it came from: how close that tree came to flipping the check's
verdict, measured against the tolerance, so that a residual at rounding
level cannot dominate.  It exits 1 if any input differs on shared
fields, in its ``canonical`` output, in its identity-suite verdict or in
its identity-suite tolerance list, or if a refused report's load
outcome differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from geospectral import matio, realdecomp, verify  # noqa: E402
from geospectral.densecore import frobenius_norm  # noqa: E402
from geospectral.errors import GeoSpectralError  # noqa: E402
from workloads import corpus_spectrum, grid_spectrum  # noqa: E402

_POOL_REAL = (0.0, 1.0, -0.5)
_POOL_PAIR = ((0.0, 1.0), (1.0, 2.0))

# run as ``python -c`` in each tree: argv[1] is the inputs, argv[2] the output
_CHILD = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
from geospectral import cli, matio, realdecomp, verify

def dump(dec):
    text = io.StringIO()
    matio.dump_json(matio.decomposition_to_doc(dec), text)
    return text.getvalue()

def report_of(m):
    try:
        dec = realdecomp.decompose(m)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", None
    return dump(dec), dec

def called(fn, *args):
    try:
        return fn(*args).tolist()
    except Exception as exc:
        return type(exc).__name__

def canonical(m, key):
    matio.write_matrix_market(key + ".mtx", m)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(["canonical", key + ".mtx", "-o", key + ".json"])
    except Exception as exc:
        return [None, f"{type(exc).__name__}: {exc}"]
    if code != 0:
        return [code, err.getvalue().strip()]
    with open(key + ".json", encoding="utf-8") as fh:
        return [code, fh.read()]

def load_outcome(doc):
    try:
        matio.doc_to_decomposition(doc)
    except Exception as exc:
        return type(exc).__name__
    return "ok"

inputs_path, out_path = map(os.path.abspath, sys.argv[1:3])
out = []
with np.load(inputs_path) as inputs, tempfile.TemporaryDirectory() as work:
    refusals = [load_outcome(doc) for doc in json.loads(str(inputs["refusals"]))]
    os.chdir(work)  # canonical's files, under the same relative names in every tree
    for key in sorted(k for k in inputs.files if k.startswith("m")):
        report, dec = report_of(inputs[key])
        same_in_c_order = report_of(np.ascontiguousarray(inputs[key]))[0] == report
        kept = action = recon = None
        if dec is not None:
            kept = dec.ca.tolist() + dec.nu.tolist()
            action = called(realdecomp.apply, dec, inputs["x" + key[1:]])
            recon = called(realdecomp.reconstruct, dec)
        round_trip = None
        if report.startswith("{"):
            try:
                round_trip = dump(matio.doc_to_decomposition(json.loads(report))) == report
            except Exception:
                round_trip = False
        try:
            checks = verify.run_identity_suite(inputs[key]).checks
            suite = sorted(c.name for c in checks if not c.passed)
            tolerances = [[c.name, c.tolerance] for c in checks]
            residuals = [c.residual for c in checks]
        except Exception as exc:
            suite = tolerances = residuals = type(exc).__name__
        out.append([report, suite, tolerances, residuals, round_trip, same_in_c_order, kept,
                    action, recon, canonical(inputs[key], key)])
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"inputs": out, "refusals": refusals}, fh)
"""


def _repeated_spectrum(rng):
    """A planted spectrum of 1..12 eigenvalues drawn from small pools, so
    most draws repeat an eigenvalue."""
    n = int(rng.integers(1, 13))
    reals, pairs = [], []
    while n > 0:
        if n >= 2 and rng.random() < 0.5:
            pairs.append(_POOL_PAIR[rng.integers(len(_POOL_PAIR))])
            n -= 2
        else:
            reals.append(_POOL_REAL[rng.integers(len(_POOL_REAL))])
            n -= 1
    return verify.PlantedSpectrum(reals, pairs, basis_seed=int(rng.integers(2**63)))


def build_inputs():
    """(label, matrix) for every input, in a fixed order."""
    inputs = []
    for seed in (1, 2):
        rng = np.random.default_rng([seed, 1])
        for i in range(200):
            m = verify.gen_test_matrix(corpus_spectrum(rng, 2 + i % 15))
            inputs.append((f"corpus seed {seed} #{i}", m))
    rng = np.random.default_rng([1, 2])
    for n in (16, 32, 64, 128):
        for k in (0, n // 4, n // 2):
            m = verify.gen_test_matrix(grid_spectrum(rng, n, k, 1e6))
            inputs.append((f"dense n={n} k={k}", m))
    rng = np.random.default_rng(3)
    for i in range(120):
        m = verify.gen_test_matrix(_repeated_spectrum(rng))
        for e in (-900, 0, 900):
            inputs.append((f"repeated #{i} 2^{e}", m * 2.0**e))
    edge = {
        "eye(3)": np.eye(3),
        "zeros(4, 4)": np.zeros((4, 4)),
        "n=0": np.zeros((0, 0)),
        "[[-0.5]]": np.array([[-0.5]]),
        "[[3]]": np.array([[3.0]]),
        "[[1,2],[-2,1]]": np.array([[1.0, 2.0], [-2.0, 1.0]]),
        "[[1,2],[-2,1]] 1e200": np.array([[1.0, 2.0], [-2.0, 1.0]]) * 1e200,
        "[[1,1],[0,1]]": np.array([[1.0, 1.0], [0.0, 1.0]]),
        "diag(1.5e308, 1.5e308)": np.diag([1.5e308, 1.5e308]),
        "[[1e308,1e308],[0,1.5e308]]": np.array([[1e308, 1e308], [0.0, 1.5e308]]),
        "diag(3,1,2,1)": np.diag([3.0, 1.0, 2.0, 1.0]),
    }
    inputs.extend(edge.items())
    return inputs


def _perp(v):
    """A vector exactly orthogonal to v, a list of at least two floats, and
    as long as v: v's largest entry v_i and the next one v_k placed as
    (-v_k, v_i) at i and k, so the dot's two products cancel."""
    i = max(range(len(v)), key=lambda x: abs(v[x]))
    k = (i + 1) % len(v)
    out = [0.0] * len(v)
    out[i], out[k] = -v[k], v[i]
    return out


def degenerate_reports(doc):
    """(how, report) for each way the report doc, of at least two rows, has
    one term made degenerate: each a copy of doc with one term changed."""
    out = []
    for kind, keys in (("real_terms", "ac"), ("plane_terms", "bpdq")):
        if not doc[kind]:
            continue
        first, last = keys[0], keys[-1]
        t = doc[kind][0]
        edits = {"NaN entry": {first: [math.nan] + t[first][1:]},
                 "one entry short": {last: t[last][:-1]}}
        if kind == "real_terms":
            # a is a unit vector and |c| at least sqrt(2 / n): c.a is 0, or
            # 2^-45, below 1e-12 |c| |a| for n <= 128
            edits["c orthogonal to a"] = {"c": _perp(t["a"])}
            edits["c nearly orthogonal to a"] = {
                "c": [x + 2.0**-45 * y for x, y in zip(_perp(t["a"]), t["a"])]}
            edits["subnormal c.a"] = {"c": [x * 2.0**-1040 for x in t["c"]]}
        else:
            # d.b is 2^-45 |b|^2 and q.b is 0: nu / (|d| |b| + |q| |b|)^2 is
            # 2^-92 to 2^-93 n, far below the floor 1e-24
            perp = _perp(t["b"])
            edits["nu below the floor"] = {"d": [x + 2.0**-45 * y for x, y in zip(perp, t["b"])],
                                           "q": perp}
        for how, fields in edits.items():
            edited = json.loads(json.dumps(doc))
            edited[kind][0].update(fields)
            out.append((f"{kind[:-6]} term: {how}", edited))
    return out


def refusal_pool(inputs):
    """(label, report) for every degenerate report of every 20th input that
    decomposes, on this checkout, and has at least two rows."""
    pool = []
    for label, m in inputs[::20]:
        if len(m) < 2:
            continue
        try:
            dec = realdecomp.decompose(m)
        except GeoSpectralError:
            continue
        pool += [(f"{label}, {how}", doc)
                 for how, doc in degenerate_reports(matio.decomposition_to_doc(dec))]
    return pool


def _verdict(report):
    """The string "ok" for a JSON report, else the exception type's name."""
    return "ok" if report.startswith("{") else report.split(":", 1)[0]


def compare_docs(old, new, only, path=""):
    """The set of paths of the fields both JSON values carry that differ,
    ignoring schema_version; empty if none does.  Objects compare key by
    key and lists of one length item by item; any other pair compares as
    JSON text, so -0.0 differs from 0.0 and 1 from 1.0.  A path is "a.b"
    for a nested key and "a[].b" for a key of a list's items.  Each object
    key only one side carries is added to the set `only` as ("old" or
    "new", path)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for side, x, y in (("old", old, new), ("new", new, old)):
            only.update((side, f"{path}.{k}" if path else k) for k in x.keys() - y.keys())
        keys = sorted(old.keys() & new.keys() - {"schema_version"})
        return set().union(*[compare_docs(old[k], new[k], only, f"{path}.{k}" if path else k)
                             for k in keys])
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return set().union(*[compare_docs(a, b, only, f"{path}[]") for a, b in zip(old, new)])
    return {path} if json.dumps(old) != json.dumps(new) else set()


def _eigenvalues(doc):
    """The eigenvalues a report's terms carry, as JSON text."""
    return json.dumps([[t["alpha"] for t in doc["real_terms"]],
                       [[t["sigma"], t["omega"]] for t in doc["plane_terms"]]])


def closest_to_tolerance(labels, tols, residuals):
    """{check name: (ratio, label)}: the largest finite residual / tolerance
    of each check with a nonzero tolerance over one tree's suites, and the
    input it came from (a suite that raised, recorded as a string, has no
    checks)."""
    worst = {}
    for label, checks, values in zip(labels, tols, residuals):
        if isinstance(checks, str):
            continue
        for (name, tol), residual in zip(checks, values):
            if tol > 0.0 and np.isfinite(residual):
                worst[name] = max(worst.get(name, (-1.0, "")), (residual / tol, label))
    return worst


def residual_changes(old_tols, new_tols, old_res, new_res):
    """{check name: (differ, both)}: of the inputs whose suites on both trees
    report the check (a suite that raised, recorded as a string, reports
    none), how many give residuals that differ bit for bit, compared as
    JSON text, and how many there are."""
    counts = {}
    for tols_a, tols_b, a, b in zip(old_tols, new_tols, old_res, new_res):
        if isinstance(a, str) or isinstance(b, str):
            continue
        theirs = {name: residual for (name, _), residual in zip(tols_b, b)}
        for (name, _), residual in zip(tols_a, a):
            if name in theirs:
                differ, both = counts.get(name, (0, 0))
                counts[name] = (differ + (json.dumps(residual) != json.dumps(theirs[name])), both + 1)
    return counts


def apply_changes(labels, old, new, scales):
    """(count, (ratio, label)): how many inputs have apply (or reconstruct)
    outputs on both trees (lists of floats; None where a tree did not
    decompose, an exception's name where the call raised) that differ as
    JSON text, and the largest ||new - old||_F / scale among them with its
    input, where scale is ||M||_F ||x|| (or ||M||_F)."""
    count, worst = 0, (0.0, "none")
    for label, a, b, scale in zip(labels, old, new, scales):
        if isinstance(a, list) and isinstance(b, list) and json.dumps(a) != json.dumps(b):
            count += 1
            worst = max(worst, (frobenius_norm(np.subtract(b, a)) / scale, label))
    return count, worst


def run_tree(src, inputs_path, out_path):
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **threads)
    return subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _CHILD, inputs_path, out_path],
        env=env,
        cwd=os.path.dirname(inputs_path),
    )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 64
    inputs = build_inputs()
    rng = np.random.default_rng(4)
    xs = [rng.standard_normal(len(m)) for _, m in inputs]
    pool = refusal_pool(inputs)
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = os.path.join(tmp, "inputs.npz")
        np.savez(inputs_path, **{f"m{i:04d}": m for i, (_, m) in enumerate(inputs)},
                 **{f"x{i:04d}": x for i, x in enumerate(xs)},
                 refusals=np.array(json.dumps([doc for _, doc in pool])))
        outs = [os.path.join(tmp, f"{side}.json") for side in ("old", "new")]
        procs = [run_tree(src, inputs_path, out) for src, out in zip(argv[1:], outs)]
        if any([p.wait() != 0 for p in procs]):
            print("a tree failed to run; see its traceback above", file=sys.stderr)
            return 1
        records = [json.loads(Path(out).read_text(encoding="utf-8")) for out in outs]
    (old, old_suite, old_tols, old_res, _, _, old_kept, old_apply, old_recon, old_canon), (
        new, new_suite, new_tols, new_res, new_trips, new_layout, new_kept, new_apply, new_recon,
        new_canon) = (zip(*r["inputs"]) for r in records)
    old_refusals, new_refusals = (r["refusals"] for r in records)
    verdicts = [(_verdict(a), _verdict(b)) for a, b in zip(old, new)]
    both, differ, field_sets, only, by_field = [], [], 0, set(), Counter()
    for (label, _), a, b, v in zip(inputs, old, new, verdicts):
        if v == ("ok", "ok"):
            both.append((json.loads(a), json.loads(b)))
            own = set()
            changed = compare_docs(*both[-1], own)
            field_sets += bool(own)
            only |= own
        else:
            changed = {"(error)"} if a != b else set()
        by_field.update(changed)
        if changed:
            differ.append(label)
    for label in differ[:10]:
        print(f"differs: {label}")
    print(f"{len(differ)} of {len(inputs)} inputs differ on shared fields")
    print("inputs that differ in each shared field: "
          + (", ".join(f"{path}: {count}" for path, count in sorted(by_field.items())) or "none"))
    print(f"{field_sets} of {len(both)} inputs that both trees decompose differ in their field sets")
    for side, tree in (("old", argv[1]), ("new", argv[2])):
        paths = sorted(path for s, path in only if s == side)
        print(f"fields only {tree} writes: {', '.join(paths) or 'none'}")
    print(f"{sum(va != vb for va, vb in verdicts)} of {len(inputs)} verdicts differ")
    eigs = sum(_eigenvalues(a) != _eigenvalues(b) for a, b in both)
    print(f"{eigs} of {len(both)} inputs that both trees decompose differ in eigenvalues")
    suites = sum(a != b for a, b in zip(old_suite, new_suite))
    print(f"{suites} of {len(inputs)} identity-suite verdicts differ")
    tols = sum(a != b for a, b in zip(old_tols, new_tols))
    print(f"{tols} of {len(inputs)} identity-suite tolerance lists differ")
    trips = [t for t in new_trips if t is not None]
    print(f"{trips.count(False)} of {len(trips)} new reports change in a load-and-dump round trip")
    print(f"{new_layout.count(False)} of {len(inputs)} reports depend on the input's memory order")
    labels = [label for label, _ in inputs]
    scales = [frobenius_norm(m) * np.linalg.norm(x) for (_, m), x in zip(inputs, xs)]
    changed, (ratio, where) = apply_changes(labels, old_apply, new_apply, scales)
    print(f"{changed} of {len(both)} inputs that both trees decompose differ in apply(dec, x); "
          f"largest |delta| / (||M||_F ||x||) {ratio:.3g} ({where})")
    norms = [frobenius_norm(m) for _, m in inputs]
    changed, (ratio, where) = apply_changes(labels, old_recon, new_recon, norms)
    print(f"{changed} of {len(both)} inputs that both trees decompose differ in reconstruct(dec); "
          f"largest ||delta||_F / ||M||_F {ratio:.3g} ({where})")
    changed, _ = apply_changes(labels, old_kept, new_kept, norms)
    print(f"{changed} of {len(both)} inputs that both trees decompose differ in dec.ca or dec.nu")
    residuals = residual_changes(old_tols, new_tols, old_res, new_res)
    print("identity-suite residuals that differ bit for bit: "
          + (", ".join(f"{name}: {d} of {b}" for name, (d, b) in sorted(residuals.items())) or "none"))
    canon = sum(a != b for a, b in zip(old_canon, new_canon))
    print(f"{canon} of {len(inputs)} inputs differ in their canonical output")
    refused = [label for (label, _), a, b in zip(pool, old_refusals, new_refusals) if a != b]
    for label in refused[:10]:
        print(f"load outcome differs: {label}")
    print(f"{len(refused)} of {len(pool)} degenerate reports differ in their load outcome; "
          + ", ".join(f"{outcome}: {count}" for outcome, count in sorted(Counter(new_refusals).items())))
    old_worst = closest_to_tolerance(labels, old_tols, old_res)
    new_worst = closest_to_tolerance(labels, new_tols, new_res)
    for name in sorted(old_worst.keys() | new_worst.keys()):
        sides = [f"{w[name][0]:.3g} ({w[name][1]})" if name in w else "none"
                 for w in (old_worst, new_worst)]
        print(f"{name}: largest residual / tolerance {sides[0]} -> {sides[1]}")
    return 1 if differ or canon or suites or tols or refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
