"""Acceptance suite: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The shared corpus is 200 seeded planted-spectrum matrices
with n in 2..16 and basis condition capped at 1e4.
"""

import json
import time

import numpy as np
import pytest

from geospectral import geoalg as ga
from geospectral import matio
from geospectral import realdecomp as rd
from geospectral import verify as vf
from geospectral.cli import main
from geospectral.densecore import frobenius_norm
from geospectral.eigensolve import canonicalize_phase

CORPUS_SIZE = 200
CORPUS_COND_CAP = 1e4
_MIN_SEPARATION = 0.05


def _corpus_spec(i):
    rng = np.random.default_rng(10_000 + i)
    n = 2 + i % 15
    while True:
        k = int(rng.integers(0, n // 2 + 1))
        reals = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n - 2 * k))
        pairs = tuple(
            (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0)))
            for _ in range(k)
        )
        spec = vf.PlantedSpectrum(reals, pairs, basis_seed=i, condition_cap=CORPUS_COND_CAP)
        if spec.min_separation() >= _MIN_SEPARATION:
            return spec


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    items = []
    for i in range(CORPUS_SIZE):
        m = vf.gen_test_matrix(_corpus_spec(i))
        items.append((m, rd.decompose(m)))
    elapsed = time.perf_counter() - start
    return items, elapsed


def _report(number, label, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"[{status}] criterion {number:2d}: {label}: worst {worst:.3e} <= {tol:.0e}{tail}")
    assert worst <= tol, f"criterion {number}: {worst:.3e} > {tol:.0e}"


def test_criterion_01_reconstruction(corpus):
    items, elapsed = corpus
    worst = max(
        frobenius_norm(rd.reconstruct(dec) - m) / frobenius_norm(m) for m, dec in items
    )
    _report(1, "reconstruction over 200 planted matrices", worst, 1e-9,
            extra=f"(corpus built+decomposed in {elapsed:.2f}s)")
    assert elapsed < 5.0, f"corpus runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_02_form_equality(corpus):
    items, _ = corpus
    worst = 0.0
    for _, dec in items:
        for t in dec.plane_terms:
            left = ga.plane_term_left_form(t)
            right = ga.plane_term_right_form(t)
            worst = max(worst, frobenius_norm(left - right) / frobenius_norm(left))
    _report(2, "left/right plane-term form equality", worst, 1e-10)


def test_criterion_03_eigen_action_and_annihilation(corpus):
    items, _ = corpus
    worst_action = 0.0
    worst_annih = 0.0
    for _, dec in items:
        for t in dec.plane_terms:
            mat = ga.plane_term_left_form(t)
            norm_t = frobenius_norm(mat)
            scale_r = norm_t * (np.linalg.norm(t.b) + np.linalg.norm(t.p))
            scale_l = norm_t * (np.linalg.norm(t.d) + np.linalg.norm(t.q))
            worst_action = max(
                worst_action,
                np.linalg.norm(mat @ t.b - (t.sigma * t.b - t.omega * t.p)) / scale_r,
                np.linalg.norm(mat @ t.p - (t.omega * t.b + t.sigma * t.p)) / scale_r,
                np.linalg.norm(mat.T @ t.d - (t.sigma * t.d + t.omega * t.q)) / scale_l,
                np.linalg.norm(mat.T @ t.q - (t.sigma * t.q - t.omega * t.d)) / scale_l,
            )
            for other in dec.real_terms:
                worst_annih = max(
                    worst_annih,
                    np.linalg.norm(mat @ other.a) / (norm_t * np.linalg.norm(other.a)),
                )
            for other in dec.plane_terms:
                if other is t:
                    continue
                worst_annih = max(
                    worst_annih,
                    np.linalg.norm(mat @ other.b) / (norm_t * np.linalg.norm(other.b)),
                    np.linalg.norm(mat @ other.p) / (norm_t * np.linalg.norm(other.p)),
                )
    _report(3, "plane-term eigen-action (right and left)", worst_action, 1e-9)
    _report(3, "plane-term annihilation of other eigenvectors", worst_annih, 1e-9)


def test_criterion_04_blade_orthogonality():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        u, v, x = (rng.standard_normal(5) for _ in range(3))
        w = ga.wedge(u, v)
        bound = np.dot(x, x) * frobenius_norm(w)
        worst = max(worst, abs(np.dot(x, w @ x)) / bound)
    _report(4, "x.(u^v)x = 0 over 1000 random triples in R^5", worst, 1e-12)


def test_criterion_05_bivector_square_root_of_minus_one():
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pair = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
        e1, e2 = np.linalg.qr(pair)[0].T
        w = ga.wedge(e1, e2)
        sq = w @ w
        projector = np.outer(e1, e1) + np.outer(e2, e2)
        worst = max(worst, frobenius_norm(sq + projector))
    _report(5, "wedge of orthonormal pair squares to -(plane projector)", worst, 1e-13)
    # exactly -I when the plane is the whole 2d space
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    w = ga.wedge(e1, e2)
    np.testing.assert_array_equal(w @ w, -np.eye(2))


def test_criterion_06_biorthogonality(corpus):
    items, _ = corpus
    worst = 0.0
    for _, dec in items:
        for t in dec.plane_terms:
            scale = (
                np.linalg.norm(t.d) * np.linalg.norm(t.b)
                + np.linalg.norm(t.q) * np.linalg.norm(t.p)
            )
            r1 = np.dot(t.d, t.b) - np.dot(t.q, t.p)
            r2 = np.dot(t.q, t.b) + np.dot(t.d, t.p)
            worst = max(worst, abs(r1) / scale, abs(r2) / scale)
            for other in dec.plane_terms:
                if other is t:
                    continue
                cr = np.dot(t.d, other.b) + np.dot(t.q, other.p)
                ci = np.dot(t.d, other.p) - np.dot(t.q, other.b)
                worst = max(worst, abs(cr) / scale, abs(ci) / scale)
            for other in dec.real_terms:
                worst = max(
                    worst,
                    abs(np.dot(t.d, other.a)) / scale,
                    abs(np.dot(t.q, other.a)) / scale,
                )
    _report(6, "same-pair and cross-pair biorthogonality", worst, 1e-10)


def test_criterion_07_phase_invariance(corpus):
    items, _ = corpus
    rng = np.random.default_rng(79)
    worst = 0.0
    for _, dec in items[:40]:
        for t in dec.plane_terms:
            base = ga.plane_term_left_form(t)
            norm_b = frobenius_norm(base)
            for theta in rng.uniform(0.0, 2.0 * np.pi, 100):
                c, s = np.cos(theta), np.sin(theta)
                b = c * t.b - s * t.p
                p = s * t.b + c * t.p
                d = c * t.d - s * t.q
                q = s * t.d + c * t.q
                rot = rd.ComplexPlaneTerm(t.sigma, t.omega, b, p, d, q)
                worst = max(worst, frobenius_norm(ga.plane_term_left_form(rot) - base) / norm_b)
    _report(7, "plane term invariant under 100 random phases", worst, 1e-10)
    # bitwise idempotency of the canonical phase
    for _ in range(100):
        re1, im1 = canonicalize_phase(rng.standard_normal(5), rng.standard_normal(5))
        re2, im2 = canonicalize_phase(re1, im1)
        assert np.array_equal(re1, re2) and np.array_equal(im1, im2)
    print("[PASS] criterion  7: canonicalize_phase idempotent bit-for-bit")


def test_criterion_08_transposition(corpus):
    items, _ = corpus
    worst = 0.0
    for _, dec in items:
        for t in dec.plane_terms:
            left = ga.plane_term_left_form(t)
            swapped = ga.plane_term_left_form(ga.transpose_term(t))
            worst = max(worst, frobenius_norm(swapped - left.T) / frobenius_norm(left))
    _report(8, "right/left swap equals matrix transpose", worst, 1e-12)


def test_criterion_09_normal_matrices():
    worst_dot = 0.0
    worst_norm = 0.0
    built = 0
    seed = 0
    while built < 50:
        rng = np.random.default_rng(20_000 + seed)
        n = 2 + seed % 15
        seed += 1
        k = int(rng.integers(1, n // 2 + 1))
        reals = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n - 2 * k))
        pairs = tuple(
            (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0)))
            for _ in range(k)
        )
        spec = vf.PlantedSpectrum(reals, pairs, basis_seed=seed)
        if spec.min_separation() < _MIN_SEPARATION:
            continue
        m = vf.gen_test_matrix(spec, orthogonal_basis=True)
        dec = rd.decompose(m)
        for t in dec.plane_terms:
            nb, npp = np.linalg.norm(t.b), np.linalg.norm(t.p)
            worst_dot = max(worst_dot, abs(np.dot(t.b, t.p)) / (nb * npp))
            worst_norm = max(worst_norm, abs(nb - npp) / nb)
        built += 1
    _report(9, "normal matrices: b and p orthogonal", worst_dot, 1e-9)
    _report(9, "normal matrices: b and p of equal norm", worst_norm, 1e-9)


def test_criterion_10_real_canonical_form(corpus):
    items, _ = corpus
    worst = 0.0
    for m, dec in items:
        b_real, l_real, _ = rd.real_canonical_form(dec)
        resid = frobenius_norm(b_real @ l_real @ np.linalg.inv(b_real) - m)
        worst = max(worst, resid / frobenius_norm(m))
    _report(10, "B_real L_real B_real^-1 similarity over the corpus", worst, 1e-9)


def test_criterion_11_oracle_equivalence(corpus):
    items, _ = corpus
    worst = 0.0
    worst_imag = 0.0
    for m, dec in items:
        norm_m = frobenius_norm(m)
        lam, b = np.linalg.eig(np.asarray(m, dtype=float))
        total = (b * lam) @ np.linalg.inv(b)
        worst_imag = max(worst_imag, frobenius_norm(np.imag(total)) / norm_m)
        oracle = vf.brute_force_reconstruct(m)
        worst = max(worst, frobenius_norm(oracle - rd.reconstruct(dec)) / norm_m)
    _report(11, "complex-arithmetic oracle agreement", worst, 1e-9)
    _report(11, "oracle imaginary residue", worst_imag, 1e-10)


def test_criterion_12_hand_verified_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n-2,1\n")
    report = tmp_path / "report.json"
    rc = main(["decompose", str(path), "-o", str(report)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["real_terms"] == []
    (pair,) = doc["plane_terms"]
    assert pair["sigma"] == pytest.approx(1.0, abs=1e-12)
    assert pair["omega"] == pytest.approx(2.0, abs=1e-12)
    dec = matio.doc_to_decomposition(doc)
    (t,) = dec.plane_terms
    m_lambda = ga.plane_term_left_form(t)
    np.testing.assert_allclose(m_lambda, [[1.0, 2.0], [-2.0, 1.0]], atol=1e-12)
    # under the d^dag b = 1 normalization nu is 1/4; the unit-eigenvector
    # scaling used in the worked example has nu = 1, so compare 4*nu
    assert 4.0 * t.nu == pytest.approx(1.0, abs=1e-10)
    rc = main(["verify", str(path)])
    capsys.readouterr()
    assert rc == 0
    print("[PASS] criterion 12: worked example M=[[1,2],[-2,1]] end to end via CLI")
