"""The benchmark's own tests: tiny sizes of every workload, corrupted
outputs counted as failures, and the tracer's bookkeeping.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from array import array
from dataclasses import replace

import numpy as np
import pytest

from geospectral import cli, geoalg, matio, realdecomp, verify
from geospectral.errors import ConvergenceError

import harness
import oracles
import tracing
from conftest import BENCH_DIR, ROOT
from workloads import WORKLOADS, grid_spectrum, planted

SMOKE_SIZES = {
    "cli-corpus": {"inputs": 6},
    "dense-128": {"n": 12},
    "identity-suite": {"n": 8},
    "apply-stream": {"n": 8},
}
SMOKE_SWEEP = (4, 8)


def smoke(name, trace, tmp_path):
    return harness.run_workload(
        name, 7, 0.05, trace, root=ROOT, import_s=0.0, blas_threads=1,
        results_dir=str(tmp_path), sizes=SMOKE_SIZES[name], setups=1,
        sweep_sizes=SMOKE_SWEEP, cold_starts=1,
    )


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_harness():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced_emits_end_to_end_metrics(name, tmp_path):
    line, record = smoke(name, False, tmp_path)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    prov = record["provenance"]
    for key in ("git_commit", "seed", "geospectral_file", "python", "numpy", "nproc", "blas_threads"):
        assert key in prov
    assert prov["geospectral_file"].startswith(os.path.join(ROOT, "src"))
    assert (tmp_path / f"{name}-seed7-trace0.json").is_file()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_emits_layer_metrics(name, tmp_path):
    line, record = smoke(name, True, tmp_path)
    assert line["correct"] and line["failed"] == 0
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert set(metrics) == set(harness.per_layer_units(SMOKE_SWEEP))
    for span, fields in harness.SPAN_METRICS.items():
        if "self_ms" in fields:
            assert metrics[f"{span}.self_ms"] <= metrics[f"{span}.busy_ms"] + 1e-9
    assert metrics["trace.absent"] == len(record["absent"])
    assert set(record["absent"]) <= set(metrics)
    for n in SMOKE_SWEEP:
        assert metrics[f"sweep.n{n}.decompose_ms"] > 0
        assert metrics[f"sweep.n{n}.np_eig_ms"] > 0
    assert (tmp_path / record["spans_file"]).is_file()


def test_times_scale_to_reference_speed():
    phase = harness.Phase(0, 2, array("d", [1.0, 3.0, 1.0, 5.0]), array("d", [2 * harness.REFERENCE_S]))
    assert phase.slowdown() == pytest.approx(2.0)
    assert phase.p50_s() == pytest.approx(2.5 / 2)  # median of per-input means 1 and 4
    assert phase.ops_per_s() == pytest.approx(4 / 10 * 2)


def test_self_time_never_exceeds_busy_time():
    m, _ = planted(grid_spectrum(np.random.default_rng(0), 10, 2, 1e4))
    with tracing.Tracer(tuple(harness.SPAN_METRICS)) as tracer:
        tracer.op = 0
        verify.run_identity_suite(m)
    stats = tracing.summarize(tracer.spans, [0])
    assert stats["verify.run_identity_suite"]["calls"] == 1
    for entry in stats.values():
        assert 0.0 <= entry["self_s"] <= entry["busy_s"]


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    path, out = str(tmp_path / "m.mtx"), str(tmp_path / "m.json")
    matio.write_matrix_market(path, np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    originals = (realdecomp.decompose, geoalg.wedge)
    with tracing.Tracer(("realdecomp.decompose", "geoalg.wedge")) as tracer:
        assert cli.decompose is realdecomp.decompose is not originals[0]
        assert realdecomp.wedge is verify.wedge is geoalg.wedge is not originals[1]
        tracer.op = 0
        assert cli.main(["decompose", path, "-o", out]) == 0
    names = [s[0] for s in tracer.spans]
    assert names.count("realdecomp.decompose") == 1 and "geoalg.wedge" in names
    assert (realdecomp.decompose, geoalg.wedge) == originals
    assert cli.decompose is originals[0] and verify.wedge is originals[1]


def test_missing_function_is_absent_not_an_error(tmp_path, monkeypatch):
    with tracing.Tracer(("eigensolve.no_such_stage", "realdecomp.decompose")) as tracer:
        tracer.op = 0
        realdecomp.decompose(np.diag([1.0, 2.0, 3.0]))
    assert tracer.absent == ["eigensolve.no_such_stage"]
    assert [s[0] for s in tracer.spans] == ["realdecomp.decompose"]

    monkeypatch.setitem(harness.SPAN_METRICS, "eigensolve.no_such_stage", ("busy_ms",))
    line, record = smoke("dense-128", True, tmp_path)
    assert line["correct"]
    assert line["metrics"]["eigensolve.no_such_stage.busy_ms"]["value"] == 0.0
    assert record["absent"]["eigensolve.no_such_stage.busy_ms"] == "function not found"


def _perturbed(dec):
    t = dec.plane_terms[0]
    return replace(dec, plane_terms=(replace(t, sigma=t.sigma + 1e-6),) + dec.plane_terms[1:])


def test_oracle_rejects_perturbed_decomposition():
    spec = verify.PlantedSpectrum((0.5,), ((0.2, 1.0), (-1.0, 0.7)), basis_seed=3)
    m = verify.gen_test_matrix(spec)
    dec = realdecomp.decompose(m)
    assert oracles.check_decomposition(m, dec, spec)["rel_residual"] <= 1e-9
    np.testing.assert_allclose(oracles.term_sum(dec), realdecomp.reconstruct(dec), atol=1e-12)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_decomposition(m, _perturbed(dec), spec)
    wrong_spec = verify.PlantedSpectrum((0.5,), ((0.2, 1.0), (-1.0, 0.7 + 1e-6)), basis_seed=3)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_decomposition(m, dec, wrong_spec)


def _corrupt(monkeypatch, name):
    """Patch the library so that each workload's operation returns a
    slightly wrong output."""
    decompose, apply, to_doc = realdecomp.decompose, realdecomp.apply, matio.decomposition_to_doc
    if name == "cli-corpus":
        def bad_doc(dec, input_digest=None):
            doc = to_doc(dec, input_digest)
            key, vec = ("real_terms", "a") if dec.real_terms else ("plane_terms", "b")
            doc[key][0][vec][0] += 1e-6
            return doc
        monkeypatch.setattr(matio, "decomposition_to_doc", bad_doc)
    elif name == "apply-stream":
        monkeypatch.setattr(realdecomp, "apply", lambda dec, x: apply(dec, x) * (1 + 1e-6))
    else:
        monkeypatch.setattr(realdecomp, "decompose", lambda m, *a: _perturbed(decompose(m, *a)))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name](3, str(tmp_path), **SMOKE_SIZES[name])
    _corrupt(monkeypatch, name)
    phase = harness.measure(workload, 0.02)
    assert phase.latencies and len(phase.failures) == len(phase.latencies)


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    workload = WORKLOADS["dense-128"](3, str(tmp_path), n=8)

    def boom(m, *args):
        raise ConvergenceError(3, 99)

    monkeypatch.setattr(realdecomp, "decompose", boom)
    phase = harness.measure(workload, 0.01)
    assert len(phase.failures) == len(phase.latencies) >= 1
    assert "raised" in phase.failures[0][1]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
