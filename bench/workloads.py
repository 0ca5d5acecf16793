"""The benchmark's workloads: inputs from the seed, one operation, one check.

Every input is a planted-spectrum matrix from ``verify.gen_test_matrix``.
A workload object does its set-up in ``__init__`` (input generation,
input files, warm-up) and holds ``inputs`` distinct inputs; ``run(i)`` is
the timed operation on input ``i % inputs`` and ``check(i, out)`` the
untimed oracle, which raises CheckFailed or returns accuracy figures.
Short operations make several passes over their pool, so each input's
latency is a mean over passes.
Library calls go through module attributes (``realdecomp.decompose``,
never a local binding) so that the tracer's wrappers see them.
"""

import json
import os

import numpy as np

from geospectral import cli, matio, realdecomp, verify

from oracles import CheckFailed, check_apply, check_decomposition, check_report


def corpus_spectrum(rng, n, cond_cap=1e4, min_separation=0.05):
    """The acceptance-corpus recipe: 0..n/2 pairs, eigenvalues uniform in
    [-2, 2] x [0.3, 2], redrawn until separated by min_separation."""
    while True:
        k = int(rng.integers(0, n // 2 + 1))
        reals = rng.uniform(-2.0, 2.0, n - 2 * k)
        pairs = [(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)) for _ in range(k)]
        spec = verify.PlantedSpectrum(
            reals, pairs, basis_seed=int(rng.integers(2**63)), condition_cap=cond_cap
        )
        if spec.min_separation() >= min_separation:
            return spec


def grid_spectrum(rng, n, k, cond_cap):
    """n - 2k real eigenvalues and k pairs with real parts on jittered
    grids over [-2, 2], so eigenvalues stay separated at any n (uniform
    draws at n = 128 would almost never pass the corpus's 0.05 rule)."""

    def grid(count):
        return -2.0 + 4.0 * (np.arange(count) + 0.5 + rng.uniform(-0.3, 0.3, count)) / max(count, 1)

    pairs = list(zip(grid(k), rng.uniform(0.3, 2.0, k)))
    return verify.PlantedSpectrum(
        grid(n - 2 * k), pairs, basis_seed=int(rng.integers(2**63)), condition_cap=cond_cap
    )


def planted(spec):
    return verify.gen_test_matrix(spec), spec


class CliCorpus:
    """In-process ``geospectral decompose FILE -o OUT`` over a 200-matrix
    corpus (n = 2..16).  Small n: per-call Python overhead in the
    eigensolver loops, term assembly, parsing and JSON output dominates."""

    def __init__(self, seed, workdir, inputs=200):
        rng = np.random.default_rng([seed, 1])
        self.items = []
        for i in range(inputs):
            m, spec = planted(corpus_spectrum(rng, 2 + i % 15))
            path = os.path.join(workdir, f"m{i:03d}.mtx")
            matio.write_matrix_market(path, m)
            self.items.append((m, spec, path, os.path.join(workdir, f"m{i:03d}.json")))
        self.inputs = inputs
        self.check(0, self.run(0))

    def run(self, i):
        _, _, path, out = self.items[i % self.inputs]
        return cli.main(["decompose", path, "-o", out])

    def check(self, i, code):
        m, spec, _, out = self.items[i % self.inputs]
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        dec = matio.doc_to_decomposition(json.loads(text))
        return dict(check_decomposition(m, dec, spec), report_bytes=len(text.encode()))


class Dense:
    """Library ``decompose`` at n = 128 with n/4 pairs, condition cap 1e6:
    the eigensolver (Schur QR and inverse iteration) does nearly all work."""

    def __init__(self, seed, workdir, n=128, inputs=12):
        rng = np.random.default_rng([seed, 2])
        self.items = [planted(grid_spectrum(rng, n, n // 4, 1e6)) for _ in range(inputs)]
        self.inputs = inputs
        warm, spec = planted(grid_spectrum(rng, 16, 4, 1e6))
        check_decomposition(warm, realdecomp.decompose(warm), spec)

    def run(self, i):
        return realdecomp.decompose(self.items[i % self.inputs][0])

    def check(self, i, dec):
        m, spec = self.items[i % self.inputs]
        return check_decomposition(m, dec, spec)


class IdentitySuite:
    """``verify.run_identity_suite`` at n = 48 with only pairs (k = 24):
    the per-term, per-phase-sample identity checks dominate."""

    def __init__(self, seed, workdir, n=48, inputs=16):
        rng = np.random.default_rng([seed, 3])
        self.items = [planted(grid_spectrum(rng, n, n // 2, 1e4)) for _ in range(inputs)]
        self.inputs = inputs
        warm, _ = planted(grid_spectrum(rng, 8, 4, 1e4))
        check_report(verify.run_identity_suite(warm))

    def run(self, i):
        return verify.run_identity_suite(self.items[i % self.inputs][0])

    def check(self, i, report):
        m = self.items[i % self.inputs][0]
        return dict(check_report(report), eigenvalues=m.shape[0])


class ApplyStream:
    """One decompose at n = 64 (n/4 pairs) in set-up, then
    ``realdecomp.apply`` on seeded vectors: the read side, where the
    eigensolver does no timed work."""

    def __init__(self, seed, workdir, n=64, inputs=1024):
        rng = np.random.default_rng([seed, 4])
        self.m, spec = planted(grid_spectrum(rng, n, n // 4, 1e6))
        self.dec = realdecomp.decompose(self.m)
        check_decomposition(self.m, self.dec, spec)
        self.xs = rng.standard_normal((inputs, n))
        self.inputs = inputs
        for i in range(100):
            self.check(i, self.run(i))

    def run(self, i):
        return realdecomp.apply(self.dec, self.xs[i % self.inputs])

    def check(self, i, y):
        return check_apply(self.m, self.xs[i % self.inputs], y)


WORKLOADS = {
    "cli-corpus": CliCorpus,
    "dense-128": Dense,
    "identity-suite": IdentitySuite,
    "apply-stream": ApplyStream,
}
