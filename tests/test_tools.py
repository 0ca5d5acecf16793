import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from geospectral import matio, realdecomp, verify

ROOT = Path(__file__).resolve().parent.parent


def _import_tool(name):
    # the tool puts src and bench first on sys.path when imported
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_stage_times_runs_every_stage(tmp_path):
    st = _import_tool("stage_times")
    n = 12
    m = st.verify.gen_test_matrix(st.grid_spectrum(np.random.default_rng([1, 5, n]), n, n // 4, 1e6))
    inputs_path = tmp_path / "inputs.npz"
    np.savez(inputs_path, n00=m)
    [row] = st.run_tree(ROOT / "src", str(inputs_path), str(tmp_path / "out.json"))
    assert row["n"] == n
    assert all(np.isfinite(row[stage]) for stage in st.STAGES)
    assert row["sweeps"] >= 1
    assert row["steps"] >= 2 * row["sweeps"]
    # the cli stage, beside decompose, wrote M's file and its report in the
    # child's working directory, the inputs' directory
    assert st.STAGES.index("cli") == st.STAGES.index("decompose") + 1
    # the read side, apply and reconstruct of M's decomposition, follows
    # the term assembly, as its layer follows in the pipeline
    assert st.STAGES.index("apply") == st.STAGES.index("assembly") + 1
    assert st.STAGES.index("reconstruct") == st.STAGES.index("apply") + 1
    assert matio.parse_matrix(str(tmp_path / "n00.mtx"))[0].tobytes() == m.tobytes()
    report = json.loads((tmp_path / "n00.json").read_text(encoding="utf-8"))
    assert report["dim"] == n and report["input_digest"].startswith("sha256:")


def test_compare_docs_reads_shared_fields_only():
    cr = _import_tool("compare_reports")
    old = {"schema_version": "1", "dim": 1, "eigenvalues": [{"alpha": 3.0}],
           "plane_terms": [{"sigma": 1.0, "nu": 0.25}], "diagnostics": {"basis_rcond": 0.5}}
    new = {"schema_version": "2", "dim": 1, "plane_terms": [{"sigma": 1.0}],
           "diagnostics": {"basis_rcond": 0.5, "kappa": [1.0]}}
    only = set()
    assert cr.compare_docs(old, new, only) == set()
    assert only == {("old", "eigenvalues"), ("old", "plane_terms[].nu"),
                    ("new", "diagnostics.kappa")}
    # shared fields compare as JSON text: a type, a length or a sign of zero
    # differs, and the path of the field that differs is returned
    for edit, path in (({"dim": 1.0}, "dim"), ({"plane_terms": [{"sigma": 1.0}] * 2}, "plane_terms"),
                       ({"plane_terms": [{"sigma": 2.0}]}, "plane_terms[].sigma"),
                       ({"diagnostics": {"basis_rcond": 0.25}}, "diagnostics.basis_rcond")):
        assert cr.compare_docs(old, dict(new, **edit), set()) == {path}
    assert cr.compare_docs({"x": 0.0}, {"x": -0.0}, set()) == {"x"}
    # each differing path once, however many list items differ in it
    two = [{"a": 1, "b": 2}] * 2
    assert cr.compare_docs({"t": two, "d": 1}, {"t": [{"a": 0, "b": 2}, {"a": 0, "b": 3}], "d": 2},
                           set()) == {"t[].a", "t[].b", "d"}


def test_closest_to_tolerance_measures_against_the_tolerance():
    cr = _import_tool("compare_reports")
    checks = [["diagonalizable", 0.0], ["transposition", 1e-12]]
    labels = ["rounding", "near", "raised"]
    tols = [checks, checks, "ShapeError"]
    # "rounding" moves 21x at rounding level and "near" only 1.2x, but
    # "near" lies 200 times closer to the tolerance, so it is reported
    old = [[0.0, 2.5e-15], [0.0, 5e-13], "ShapeError"]
    new = [[0.0, 1.2e-16], [0.0, 6e-13], "ShapeError"]
    assert cr.closest_to_tolerance(labels, tols, old) == {"transposition": (0.5, "near")}
    assert cr.closest_to_tolerance(labels, tols, new) == {"transposition": (0.6, "near")}
    # a check with no tolerance, or a residual that is not finite, is left out
    assert cr.closest_to_tolerance(labels[:2], tols[:2], [[np.inf, 1e-13], [0.0, np.inf]]) == {
        "transposition": (0.1, "rounding")}
    # residuals compare bit for bit per check name, over the inputs whose
    # suites on both trees report it: NaN matches NaN, -0.0 differs from 0.0
    assert cr.residual_changes(tols, tols, old, new) == {"diagonalizable": (0, 2),
                                                          "transposition": (2, 2)}
    assert cr.residual_changes(tols, tols, old, old) == {"diagonalizable": (0, 2),
                                                          "transposition": (0, 2)}
    fewer = [checks[:1], checks, "ShapeError"]
    assert cr.residual_changes(tols, fewer, [[np.nan, 1e-13], [0.0, 1e-13], "ShapeError"],
                               [[np.nan], [-0.0, 1e-13], "ShapeError"]) == {
        "diagonalizable": (1, 2), "transposition": (0, 1)}


def test_stage_times_covers_a_size_without_bulge_steps(tmp_path):
    # n = 2 deflates before any sweep: every stage is timed, eigensystem
    # among them, and Schur's time per bulge step is nan, not a division by 0
    st = _import_tool("stage_times")
    assert 2 in st.SIZES and "eigensystem" in st.STAGES
    inputs_path = tmp_path / "inputs.npz"
    m = st.verify.gen_test_matrix(st.grid_spectrum(np.random.default_rng([1, 5, 2]), 2, 0, 1e6))
    np.savez(inputs_path, n00=m)
    [row] = st.run_tree(ROOT / "src", str(inputs_path), str(tmp_path / "out.json"))
    assert row["n"] == 2 and row["sweeps"] == row["steps"] == 0
    assert all(np.isfinite(row[stage]) for stage in st.STAGES)
    assert np.isnan(st.us_per_step(row))
    assert st.us_per_step(dict(row, schur=0.5, steps=4)) == 125.0


def test_apply_changes_counts_outputs_both_trees_give():
    cr = _import_tool("compare_reports")
    labels = ["same", "moved", "zero sign", "old raised", "new failed"]
    old = [[1.0, 2.0], [1.0, 2.0], [0.0], [1.0], "AccuracyError"]
    new = [[1.0, 2.0], [1.0, 2.0 + 3e-13], [-0.0], None, [1.0]]
    scales = [1.0, 2.0, 1.0, 1.0, 1.0]
    count, (ratio, label) = cr.apply_changes(labels, old, new, scales)
    # only inputs both trees applied count; -0.0 differs from 0.0 as JSON text
    assert count == 2
    assert (ratio, label) == (((2.0 + 3e-13) - 2.0) / 2.0, "moved")
    assert cr.apply_changes(labels[:1], old[:1], new[:1], scales[:1]) == (0, (0.0, "none"))


# appended to a copy of eigensolve.py: each stage refuses arguments that
# differ from those of its first call in the process
_SAME_ARGUMENTS_GUARD = '''

def _same_arguments_each_call(fn):
    first = []

    def stage(*args):
        given = [np.asarray(x).tobytes() for x in args]
        first[:] = first or given
        if given != first:
            raise AssertionError(f"{fn.__name__} given arguments an earlier call changed")
        return fn(*args)

    return stage


hessenberg_reduce = _same_arguments_each_call(hessenberg_reduce)
real_schur = _same_arguments_each_call(real_schur)
right_eigenvectors = _same_arguments_each_call(right_eigenvectors)
basis_inverse = _same_arguments_each_call(basis_inverse)
'''


def test_stage_times_gives_each_call_the_arguments_eigensystem_gave(tmp_path):
    # hessenberg_reduce and real_schur reduce their work array in place, so
    # a stage timed again on its recorded arguments would reduce an array an
    # earlier call already reduced; in this tree every stage raises then
    st = _import_tool("stage_times")
    tree = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "geospectral", tree / "geospectral",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "geospectral" / "eigensolve.py", "a", encoding="utf-8") as fh:
        fh.write(_SAME_ARGUMENTS_GUARD)
    n = 12
    m = st.verify.gen_test_matrix(st.grid_spectrum(np.random.default_rng([1, 5, n]), n, n // 4, 1e6))
    inputs_path = tmp_path / "inputs.npz"
    np.savez(inputs_path, n00=m)
    [row] = st.run_tree(tree, str(inputs_path), str(tmp_path / "out.json"))
    assert all(np.isfinite(row[stage]) for stage in st.STAGES)


def test_compare_reports_child_records_canonical_output(tmp_path):
    # the child writes each input to a .mtx file and records what
    # ``geospectral canonical`` gives: the exit code and the JSON text, or
    # the error line (a 0 x 0 Matrix Market file does not parse)
    cr = _import_tool("compare_reports")
    pair = np.array([[1.0, 2.0], [-2.0, 1.0]])
    inputs_path = tmp_path / "inputs.npz"
    np.savez(inputs_path, m0000=pair, x0000=np.ones(2), m0001=np.zeros((0, 0)), x0001=np.ones(0),
             refusals=np.array("[]"))
    out = tmp_path / "out.json"
    assert cr.run_tree(ROOT / "src", str(inputs_path), str(out)).wait() == 0
    records = json.loads(out.read_text(encoding="utf-8"))["inputs"]
    [*_, kept, _, recon, (code, text)], [*_, empty_kept, _, empty_recon, (empty_code, line)] = records
    # reconstruct(dec) beside the apply record: the pair back to rounding,
    # and the 0 x 0 matrix as an empty list; before them the decomposition's
    # kept c.a and nu, none for the 0 x 0 matrix
    assert np.linalg.norm(np.subtract(recon, pair)) <= 1e-15 * np.linalg.norm(pair)
    assert empty_recon == empty_kept == []
    dec = realdecomp.decompose(pair)
    assert kept == dec.ca.tolist() + dec.nu.tolist() and len(kept) == 1
    doc = json.loads(text)
    assert code == 0 and set(doc) == {"schema_version", "B_real", "L_real", "similarity_residual"}
    assert doc["L_real"] == pair.tolist() and doc["similarity_residual"] <= 1e-15
    assert empty_code == 1 and line.startswith("error: ") and "0x0" in line
    assert not list(tmp_path.glob("*.mtx"))


def test_compare_reports_exits_1_when_suite_verdicts_or_tolerances_differ(tmp_path, monkeypatch, capsys):
    # trees whose reports agree but whose identity suites do not: one fails
    # eigen-action everywhere, one states another transposition tolerance;
    # and one whose kept nu moves by an ulp once the report's residual is
    # taken, which is counted but does not set the exit code
    cr = _import_tool("compare_reports")
    monkeypatch.setattr(cr, "build_inputs", lambda: [("pair", np.array([[1.0, 2.0], [-2.0, 1.0]]))])
    edits = {"verdict": ("verify", '("eigen_action", eigact.max())', '("eigen_action", np.inf)'),
             "tolerance": ("verify", '"transposition": 1e-12', '"transposition": 2e-12'),
             "nu": ("realdecomp", "    return dec\n",
                    "    object.__setattr__(dec, 'nu', dec.nu * (1 + 2**-52))\n    return dec\n")}
    for name, (module, old, new) in edits.items():
        source = (ROOT / "src" / "geospectral" / f"{module}.py").read_text(encoding="utf-8")
        assert old in source
        shutil.copytree(ROOT / "src" / "geospectral", tmp_path / name / "geospectral",
                        ignore=shutil.ignore_patterns("__pycache__"))
        edited = tmp_path / name / "geospectral" / f"{module}.py"
        edited.write_text(source.replace(old, new), encoding="utf-8")
    src = str(ROOT / "src")
    assert cr.main(["compare_reports.py", src, src]) == 0
    out = capsys.readouterr().out
    assert "0 of 1 identity-suite verdicts differ" in out
    assert "0 of 1 inputs that both trees decompose differ in dec.ca or dec.nu" in out
    assert cr.main(["compare_reports.py", src, str(tmp_path / "nu")]) == 0
    assert "1 of 1 inputs that both trees decompose differ in dec.ca or dec.nu" in capsys.readouterr().out
    assert cr.main(["compare_reports.py", src, str(tmp_path / "verdict")]) == 1
    out = capsys.readouterr().out
    assert "0 of 1 inputs differ on shared fields" in out
    assert "1 of 1 identity-suite verdicts differ" in out
    assert "0 of 1 identity-suite tolerance lists differ" in out
    assert cr.main(["compare_reports.py", src, str(tmp_path / "tolerance")]) == 1
    out = capsys.readouterr().out
    assert "0 of 1 identity-suite verdicts differ" in out
    assert "1 of 1 identity-suite tolerance lists differ" in out


def test_compare_reports_child_records_how_refused_reports_load(tmp_path):
    # each degenerate report is refused with the check's own exception type,
    # and the report it was made from loads
    cr = _import_tool("compare_reports")
    m = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0], [0.0, -2.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0, -1.0]])
    doc = matio.decomposition_to_doc(cr.realdecomp.decompose(m))
    pool = cr.degenerate_reports(doc)
    assert [how for how, _ in pool] == [
        "real term: NaN entry", "real term: one entry short", "real term: c orthogonal to a",
        "real term: c nearly orthogonal to a", "real term: subnormal c.a",
        "plane term: NaN entry", "plane term: one entry short", "plane term: nu below the floor"]
    inputs_path = tmp_path / "inputs.npz"
    np.savez(inputs_path, m0000=m, x0000=np.ones(4),
             refusals=np.array(json.dumps([doc] + [edited for _, edited in pool])))
    out = tmp_path / "out.json"
    assert cr.run_tree(ROOT / "src", str(inputs_path), str(out)).wait() == 0
    refusals = json.loads(out.read_text(encoding="utf-8"))["refusals"]
    assert refusals == ["ok"] + ["ShapeError"] * 2 + ["DegeneratePairError"] * 3 + [
        "ShapeError"] * 2 + ["DegeneratePairError"]
    # the pool takes every 20th input of at least two rows that decomposes
    inputs = [("m", m)] + [("skipped", m)] * 19 + [("one row", np.eye(1))]
    labels = [label for label, _ in cr.refusal_pool(inputs)]
    assert len(labels) == 8 and all(label.startswith("m, ") for label in labels)


def _import_bench(*names):
    """The bench modules of those names; bench is on sys.path only while
    they are imported."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path[:] = saved


def _wrong_pair(dec):
    """dec with its first pair's sigma 1e-6 off: a wrong output that is still
    a well-formed decomposition, built from its rows."""
    sigma = dec.sigma.copy()
    sigma[0] += 1e-6
    return realdecomp.SpectralDecomposition(dec.alpha, sigma, dec.omega, dec.right, dec.left,
                                            dec.diagnostics)


def test_bench_checks_fail_a_wrong_decomposition(tmp_path, monkeypatch):
    # bench/tests perturbs a decomposition through its terms, which the one
    # constructor no longer takes; this keeps, from the rows, what it checks
    harness, oracles, workloads = _import_bench("harness", "oracles", "workloads")
    spec = verify.PlantedSpectrum((0.5,), ((0.2, 1.0), (-1.0, 0.7)), basis_seed=3)
    m = verify.gen_test_matrix(spec)
    dec = realdecomp.decompose(m)
    assert oracles.check_decomposition(m, dec, spec)["rel_residual"] <= 1e-9
    with pytest.raises(oracles.CheckFailed):
        oracles.check_decomposition(m, _wrong_pair(dec), spec)
    runs = [workloads.WORKLOADS["dense-128"](3, str(tmp_path), n=12),
            workloads.WORKLOADS["identity-suite"](3, str(tmp_path), n=8)]
    decompose = realdecomp.decompose
    monkeypatch.setattr(realdecomp, "decompose", lambda m, *a: _wrong_pair(decompose(m, *a)))
    for workload in runs:
        phase = harness.measure(workload, 0.02)
        # each operation ran, and its output's check, not an exception, failed it
        assert phase.latencies and len(phase.failures) == len(phase.latencies)
        assert all(error.startswith("check: ") for _, error in phase.failures)
