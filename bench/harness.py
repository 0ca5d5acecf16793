"""Measurement loop, traced run, size sweep and result assembly.

Load is one process running one closed-loop client: the next operation
starts when the previous one (and its untimed check) has finished.
Operations cycle through the workload's inputs, so a run makes several
passes over them.  Times are reported at reference speed (see
REFERENCE_S); the plain figures over every operation are kept in the
result file.

End-to-end metrics come from untraced runs only; a traced run measures
half its time untraced and half traced, reports per-layer figures from
the traced half, and then sweeps the decompose path over SWEEP_SIZES.
"""

import gzip
import hashlib
import json
import operator
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import geospectral
from geospectral import matio, realdecomp, verify

from oracles import check_decomposition
from tracing import Tracer, count_under, summarize
from workloads import WORKLOADS, grid_spectrum, planted

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced functions ("<module>.<function>" in geospectral) and the
# per-operation figures reported for each.
SPAN_METRICS = {
    "cli.main": ("busy_ms", "self_ms"),
    "matio.parse_matrix": ("busy_ms",),
    "matio.decomposition_to_doc": ("busy_ms",),
    "matio.dump_json": ("busy_ms",),
    "realdecomp.decompose": ("busy_ms", "self_ms"),
    "realdecomp.reconstruct": ("calls", "busy_ms"),
    "realdecomp.apply": ("calls", "busy_ms"),
    "realdecomp.plane_term_left_form": ("calls", "busy_ms"),
    "realdecomp.plane_term_right_form": ("calls", "busy_ms"),
    "eigensolve.eigensystem": ("busy_ms", "self_ms"),
    "eigensolve.hessenberg_reduce": ("busy_ms",),
    "eigensolve.real_schur": ("busy_ms",),
    "eigensolve.right_eigenvectors": ("busy_ms",),
    "eigensolve.left_eigenvectors": ("busy_ms",),
    "densecore.lu_factor": ("calls", "busy_ms"),
    "densecore.lu_solve": ("calls", "busy_ms"),
    "densecore.inverse": ("calls", "busy_ms"),
    "geoalg.wedge": ("calls", "busy_ms"),
    "verify.brute_force_reconstruct": ("busy_ms",),
    "verify.run_identity_suite": ("busy_ms", "self_ms"),
}
FIELD_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms"}

SWEEP_SIZES = (16, 64, 128, 256)
SWEEP_STAGES = ("hessenberg_reduce", "real_schur", "right_eigenvectors", "left_eigenvectors")

OTHER_LAYER_METRICS = {
    "densecore.lu_solve.per_eigenvalue": "ratio",
    "realdecomp.reconstruct.per_decompose": "ratio",
    "matio.report_bytes": "bytes",
    "accuracy.max_rel_residual": "ratio",
    "accuracy.max_eig_err": "ratio",
    "op_p95_ms": "ms",
    "cold_start_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.absent": "count",
}


def per_layer_units(sweep_sizes=SWEEP_SIZES):
    units = {
        f"{span}.{field}": FIELD_UNITS[field]
        for span, fields in SPAN_METRICS.items()
        for field in fields
    }
    units.update(OTHER_LAYER_METRICS)
    for n in sweep_sizes:
        for stage in SWEEP_STAGES + ("decompose", "np_eig"):
            units[f"sweep.n{n}.{stage}_ms"] = "ms"
    return units


# How the accuracy figures returned by the checks combine over operations.
COMBINE = {"rel_residual": max, "eig_err": max, "report_bytes": operator.add,
           "eigenvalues": operator.add}


def merge_figures(acc, figures):
    for key, value in figures.items():
        acc[key] = COMBINE[key](acc[key], value) if key in acc else value


# On a shared machine the speed of the same code drifts: in runs of tens
# of milliseconds it flips between two speeds about 1.7x apart, and the
# share of slow time changes over minutes.  The harness therefore spends
# CALIBRATION_SHARE of the operation time, between operations, timing a
# fixed reference task, and scales time-based metrics by REFERENCE_S over
# its mean duration: they read as on a machine where the task takes
# REFERENCE_S, and repeat across those drifts.
REFERENCE_S = 1e-3
CALIBRATION_SHARE = 0.1
MIN_CALIBRATION_S = 0.1  # several of the fast/slow stretches
_REFERENCE_MATRIX = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0


def reference_work():
    """Seconds taken by a fixed mix of interpreter steps and small numpy
    calls, the same kind of work as the eigensolver's inner loops."""
    a = _REFERENCE_MATRIX
    start = perf_counter()
    acc = 0.0
    for k in range(200):
        acc += float(a[0] @ a[k % 64]) + float(np.outer(a[1, :8], a[2, :8])[3, 4]) + k
    a @ a
    return perf_counter() - start


def calibrate(seconds):
    """Reference-task timings that sum to at least ``seconds``."""
    samples = [reference_work()]
    while sum(samples) < seconds:
        samples.append(reference_work())
    return samples


def slowdown_over(elapsed_s):
    """Mean reference-task time over REFERENCE_S, timed for
    CALIBRATION_SHARE of elapsed_s but at least MIN_CALIBRATION_S."""
    samples = calibrate(max(CALIBRATION_SHARE * elapsed_s, MIN_CALIBRATION_S))
    return statistics.fmean(samples) / REFERENCE_S


@dataclass
class Phase:
    """One timed stretch of operations with ids first .. first+len-1;
    operation i ran on input i % inputs.  Figures are combined as they
    arrive, so memory does not grow with the number of operations."""

    first: int
    inputs: int
    latencies: array = field(default_factory=lambda: array("d"))
    reference: array = field(default_factory=lambda: array("d"))
    figures: dict = field(default_factory=dict)
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ops(self):
        return range(self.first, self.first + len(self.latencies))

    def slowdown(self):
        """Mean reference-task time over REFERENCE_S (above 1: slower)."""
        return statistics.fmean(self.reference) / REFERENCE_S

    def ops_per_s(self):
        """Operations per second of operation time, at reference speed."""
        return len(self.latencies) / sum(self.latencies) * self.slowdown()

    def p50_s(self):
        """Median over inputs of each input's mean latency over its
        passes, at reference speed."""
        sums = defaultdict(float)
        counts = defaultdict(int)
        for i, latency in zip(self.ops, self.latencies):
            sums[i % self.inputs] += latency
            counts[i % self.inputs] += 1
        return statistics.median(sums[k] / counts[k] for k in sums) / self.slowdown()


def measure(workload, seconds, first=0, tracer=None):
    """Run operations until their summed time reaches ``seconds``.

    An operation fails if it raises or its output fails the check; it is
    counted and the loop goes on.  Before each operation the reference
    task runs until it has taken CALIBRATION_SHARE of the operation time
    so far.
    """
    phase = Phase(first, workload.inputs)
    busy = 0.0
    calibration = 0.0
    i = first
    while busy < seconds:
        while calibration <= CALIBRATION_SHARE * busy:
            phase.reference.append(reference_work())
            calibration += phase.reference[-1]
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            out = workload.run(i)
            error = None
        except Exception as exc:  # a failed operation is a result, not a crash
            error = f"raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                merge_figures(phase.figures, workload.check(i, out))
                phase.checked += 1
            except Exception as exc:  # CheckFailed, or output too broken to check
                error = f"check: {exc}"
        if error is not None:
            phase.failures.append((i, error))
        phase.latencies.append(elapsed)
        busy += elapsed
        i += 1
    return phase


def p95_with_support(latencies):
    """(p95, number of samples above it)."""
    p95 = float(np.quantile(latencies, 0.95))
    return p95, sum(1 for x in latencies if x > p95)


def sweep(tracer, seed, sizes, failures):
    """Traced decompose at each n, with numpy.linalg.eig as the reference;
    each step's times are scaled to reference speed."""
    out = {}
    for n in sizes:
        rng = np.random.default_rng([seed, 5, n])
        m, spec = planted(grid_spectrum(rng, n, n // 4, 1e6))
        op = f"sweep-{n}"
        tracer.op = op
        start = perf_counter()
        try:
            dec = realdecomp.decompose(m)
        except Exception as exc:  # recorded as a failed operation
            dec = None
            failures.append((op, f"raised {exc!r}"))
        elapsed = perf_counter() - start
        tracer.op = None
        figures = {}
        if dec is not None:
            try:
                figures = check_decomposition(m, dec, spec)
            except Exception as exc:
                failures.append((op, f"check: {exc}"))
        eig_times = []
        for _ in range(3):
            t = perf_counter()
            np.linalg.eig(m)
            eig_times.append(perf_counter() - t)
        out[n] = {"op": op, "decompose_s": elapsed, "np_eig_s": statistics.median(eig_times),
                  "slowdown": slowdown_over(elapsed + sum(eig_times)), "figures": figures}
    return out


def cold_start(workdir, root, runs, failures):
    """Median wall time of a fresh ``python -m geospectral.cli decompose``
    on a 2x2 file, in milliseconds at reference speed."""
    path = os.path.join(workdir, "cold.mtx")
    out = os.path.join(workdir, "cold.json")
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    matio.write_matrix_market(path, m)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "geospectral.cli", "decompose", path, "-o", out],
            env=env, cwd=workdir, capture_output=True, timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            failures.append(("cold-start", f"exit code {proc.returncode}: {proc.stderr[-300:]!r}"))
            continue
        try:
            with open(out, encoding="utf-8") as fh:
                dec = matio.doc_to_decomposition(json.load(fh))
            check_decomposition(m, dec, verify.PlantedSpectrum((), ((1.0, 2.0),), 0))
        except Exception as exc:  # CheckFailed, or a report too broken to check
            failures.append(("cold-start", f"check: {exc}"))
    return statistics.median(times) * 1e3 / slowdown_over(sum(times))


def provenance(root, seed, blas_threads):
    src = os.path.join(root, "src", "geospectral")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "geospectral_file": geospectral.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def layer_metrics(plain, traced, tracer, sweep_out, cold_ms):
    """Per-layer figures as {name: value}, plus {name: reason} for those
    that could not be measured (reported as 0)."""
    ops = list(traced.ops)
    per_op = 1.0 / len(ops)
    ms_per_op = 1e3 * per_op / traced.slowdown()
    stats = summarize(tracer.spans, ops)
    values, absent = {}, {}

    def mark(name, reason):
        values[name] = 0.0
        absent[name] = reason

    for span, fields in SPAN_METRICS.items():
        entry = stats.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in fields:
            name = f"{span}.{field}"
            if span in tracer.absent:
                mark(name, "function not found")
            elif field == "calls":
                values[name] = entry["calls"] * per_op
            else:
                values[name] = entry[field.replace("_ms", "_s")] * ms_per_op

    accuracy = {}
    for figures in [plain.figures, traced.figures] + [s["figures"] for s in sweep_out.values()]:
        merge_figures(accuracy, figures)

    found = traced.figures.get("eigenvalues", 0)
    if {"densecore.lu_solve", "eigensolve.right_eigenvectors"} & set(tracer.absent):
        mark("densecore.lu_solve.per_eigenvalue", "function not found")
    elif found == 0:
        mark("densecore.lu_solve.per_eigenvalue", "no eigenvalues found in this workload")
    else:
        solves = count_under(tracer.spans, ops, "densecore.lu_solve", "eigensolve.right_eigenvectors")
        values["densecore.lu_solve.per_eigenvalue"] = solves / found

    decomposes = stats.get("realdecomp.decompose", {"calls": 0})["calls"]
    if {"realdecomp.reconstruct", "realdecomp.decompose"} & set(tracer.absent):
        mark("realdecomp.reconstruct.per_decompose", "function not found")
    elif decomposes == 0:
        mark("realdecomp.reconstruct.per_decompose", "no decompose in this workload")
    else:
        inner = count_under(tracer.spans, ops, "realdecomp.reconstruct", "realdecomp.decompose")
        values["realdecomp.reconstruct.per_decompose"] = inner / decomposes

    if "report_bytes" in traced.figures:
        values["matio.report_bytes"] = traced.figures["report_bytes"] / traced.checked
    else:
        mark("matio.report_bytes", "no report in this workload")
    for name, key in (("accuracy.max_rel_residual", "rel_residual"),
                      ("accuracy.max_eig_err", "eig_err")):
        if key in accuracy:
            values[name] = accuracy[key]
        else:
            mark(name, "not produced by this workload")

    p95, beyond = p95_with_support(plain.latencies)
    if beyond >= 10:
        values["op_p95_ms"] = p95 * 1e3 / plain.slowdown()
    else:
        mark("op_p95_ms", f"only {beyond} samples beyond p95")
    if cold_ms is None:
        mark("cold_start_ms", "measured on cli-corpus only")
    else:
        values["cold_start_ms"] = cold_ms

    values["trace.overhead_ms"] = (
        traced.p50_s() - plain.p50_s()
    ) * 1e3
    keep = set(ops)
    values["trace.spans_per_op"] = sum(1 for s in tracer.spans if s[4] in keep) * per_op

    for n, result in sweep_out.items():
        by_stage = summarize(tracer.spans, [result["op"]])
        ms = 1e3 / result["slowdown"]
        for stage in SWEEP_STAGES:
            name = f"sweep.n{n}.{stage}_ms"
            if f"eigensolve.{stage}" in tracer.absent:
                mark(name, "function not found")
            else:
                values[name] = by_stage.get(f"eigensolve.{stage}", {"busy_s": 0.0})["busy_s"] * ms
        values[f"sweep.n{n}.decompose_ms"] = result["decompose_s"] * ms
        values[f"sweep.n{n}.np_eig_ms"] = result["np_eig_s"] * ms

    values["trace.absent"] = float(len(absent))
    return values, absent


def run_workload(name, seed, seconds, trace, *, root, import_s, blas_threads, results_dir,
                 sizes=None, setups=5, sweep_sizes=SWEEP_SIZES, cold_starts=5, log=None):
    """Set up, measure and check one workload; returns (line, record): the
    result line the runner prints and the full per-run record, which is
    also written to ``results_dir``."""
    log = log or (lambda msg: None)
    os.makedirs(results_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=results_dir)
    try:
        setup_times, reference = [], []
        for _ in range(setups):
            reference += calibrate(MIN_CALIBRATION_S)
            start = perf_counter()
            workload = WORKLOADS[name](seed, workdir, **(sizes or {}))
            setup_times.append(perf_counter() - start)
        setup_slowdown = statistics.fmean(reference) / REFERENCE_S
        log(f"set-up {[round(t, 3) for t in setup_times]} s, slowdown {setup_slowdown:.3f}")
        record = {"workload": name, "seconds": seconds, "trace": trace,
                  "provenance": provenance(root, seed, blas_threads),
                  "setup_runs_s": setup_times, "import_s": import_s,
                  "setup_slowdown": setup_slowdown}
        if not trace:
            phase = measure(workload, seconds)
            lat = phase.latencies
            values = {
                "ops_per_s": phase.ops_per_s(),
                "op_p50_ms": phase.p50_s() * 1e3,
                "setup_s": (import_s + statistics.median(setup_times)) / setup_slowdown,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            p95, beyond = p95_with_support(lat)
            record["latency"] = {
                "samples": len(lat), "inputs": workload.inputs, "passes": len(lat) / workload.inputs,
                "all_ops_per_s": len(lat) / sum(lat), "all_p50_ms": statistics.median(lat) * 1e3,
                "all_p95_ms": p95 * 1e3, "beyond_p95": beyond,
                "slowdown": phase.slowdown(), "reference_samples": len(phase.reference),
            }
            failures = phase.failures
            attempted = len(lat)
        else:
            plain = measure(workload, seconds / 2.0)
            log(f"untraced half: {len(plain.latencies)} ops")
            extra_failures = []
            with Tracer(tuple(SPAN_METRICS)) as tracer:
                traced = measure(workload, seconds / 2.0, plain.first + len(plain.latencies), tracer)
                log(f"traced half: {len(traced.latencies)} ops; sweeping n = {sweep_sizes}")
                sweep_out = sweep(tracer, seed, sweep_sizes, extra_failures)
            cold_ms = None
            if name == "cli-corpus":
                cold_ms = cold_start(workdir, root, cold_starts, extra_failures)
            values, absent = layer_metrics(plain, traced, tracer, sweep_out, cold_ms)
            units = per_layer_units(sweep_sizes)
            record["absent"] = absent
            record["untraced_all_p50_ms"] = statistics.median(plain.latencies) * 1e3
            record["traced_all_p50_ms"] = statistics.median(traced.latencies) * 1e3
            failures = plain.failures + traced.failures + extra_failures
            attempted = (len(plain.latencies) + len(traced.latencies) + len(sweep_out)
                         + (cold_starts if cold_ms is not None else 0))
            record["spans_file"] = write_spans(results_dir, name, seed, tracer.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    line = {
        "correct": not failures and all(np.isfinite(m["value"]) for m in metrics.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record.update(line, failures=[[str(i), e] for i, e in failures[:20]])
    path = os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def write_spans(results_dir, name, seed, spans):
    """All spans, written once at the end of the run."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    path = os.path.join(results_dir, f"{name}-seed{seed}.spans.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": names, "fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans]}, fh)
    return os.path.basename(path)
