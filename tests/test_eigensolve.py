import math

import numpy as np
import pytest

from geospectral import eigensolve as eg
from geospectral.cli import _draw_spectrum
from geospectral.densecore import frobenius_norm
from geospectral.errors import (
    ConvergenceError,
    NotDiagonalizableError,
    ShapeError,
)
from geospectral.realdecomp import decompose
from geospectral.verify import PlantedSpectrum, gen_test_matrix


def _companion(coeffs):
    """Companion matrix of a monic polynomial with the given lower coeffs."""
    n = len(coeffs)
    c = np.zeros((n, n))
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = [-a for a in coeffs]
    return c


def _assert_quasi_triangular(t):
    """Nothing below the first subdiagonal, and no two consecutive nonzero
    subdiagonal entries."""
    assert np.all(t[np.tril_indices(t.shape[0], -2)] == 0.0)
    sub = np.diag(t, -1)
    assert not np.any((sub[:-1] != 0.0) & (sub[1:] != 0.0))


def _as_complex(eigs):
    """Every eigenvalue: each pair's omega > 0 entry, then its conjugate."""
    return np.concatenate([eigs, eigs[eigs.imag > 0].conj()])


def _assert_eigs_equal(eigs, want):
    """Exact equality with a complex array of the same shape."""
    np.testing.assert_array_equal(eigs, np.array(want, dtype=complex), strict=True)


def _real_eigs(eigs):
    assert not np.any(eigs.imag)
    return np.sort(eigs.real)


def test_hessenberg_2x2_is_noop():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    h, q = eg.hessenberg_reduce(m)
    np.testing.assert_array_equal(h, m)
    np.testing.assert_array_equal(q, np.eye(2))


def test_hessenberg_triangular_is_noop():
    m = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    h, q = eg.hessenberg_reduce(m)
    np.testing.assert_array_equal(h, m)
    np.testing.assert_array_equal(q, np.eye(4))


def test_hessenberg_random_similarity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((5, 5))
        h, q = eg.hessenberg_reduce(m)
        assert np.all(h[np.tril_indices(5, -2)] == 0.0)
        assert frobenius_norm(q @ h @ q.T - m) <= 1e-12 * frobenius_norm(m)
        assert frobenius_norm(q @ q.T - np.eye(5)) <= 1e-13


@pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
def test_hessenberg_extreme_scale_exact(e):
    # M is worked on over an exact power of two, so H scales with it bit for
    # bit; unscaled, the norms overflow at 2^600 and underflow at 2^-600
    m = np.array([[1, 2, 3, 1], [4, 5, 6, 2], [7, 8, 10, 3], [1, 1, 2, 5]], dtype=float)
    h, q = eg.hessenberg_reduce(m)
    hs, qs = eg.hessenberg_reduce(m * 2.0**e)
    np.testing.assert_array_equal(hs.view(np.int64), (h * 2.0**e).view(np.int64))
    np.testing.assert_array_equal(qs.view(np.int64), q.view(np.int64))


@pytest.mark.parametrize("e", [1e-160, 1e-165, 1e-170])
def test_hessenberg_tiny_column_gets_orthogonal_reflector(e):
    # after the first reflector, the second column to reduce holds only
    # entries near e, whose squares underflow: unscaled, that column's
    # reflector is far from orthogonal, or it is skipped and left nonzero
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 1:] = 0.5
    m[1:, 0] = 0.7, e, e
    h, q = eg.hessenberg_reduce(m)
    assert np.all(np.tril(h, -2) == 0.0)
    assert frobenius_norm(q @ q.T - np.eye(4)) <= 1e-14
    assert frobenius_norm(q @ h @ q.T - m) <= 1e-14 * frobenius_norm(m)
    eigs = np.sort(eg.eigensystem(m).eigenvalues.real)
    np.testing.assert_allclose(eigs, np.sort(np.linalg.eigvals(m).real), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "h,q",
    [
        (np.random.default_rng(0).standard_normal((6, 6)), np.eye(6)),
        (np.triu(np.ones((6, 6)), -1), np.eye(5)),
        (np.triu(np.ones((6, 6)), -1), np.eye(6)[:, :5]),
        (np.ones((6, 5)), np.eye(6)),
    ],
    ids=["not-hessenberg", "q-too-small", "q-not-square", "h-not-square"],
)
def test_real_schur_refuses_input_it_cannot_factor(h, q):
    with pytest.raises(ShapeError):
        eg.real_schur(h, q)


def test_schur_diagonal_is_noop():
    d = np.diag([3.0, 1.0, 2.0])
    t, z, eigs = eg.real_schur(d, np.eye(3))
    np.testing.assert_array_equal(t, d)
    np.testing.assert_array_equal(z, np.eye(3))
    _assert_eigs_equal(eigs, [3.0, 1.0, 2.0])


def test_schur_rotation_block_kept():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    t, z, eigs = eg.real_schur(j, np.eye(2))
    # lambda^2 + 1 = 0: one 2x2 block with eigenvalues +-i
    _assert_eigs_equal(eigs, [1j])
    assert frobenius_norm(z @ t @ z.T - j) <= 1e-13


def test_schur_companion_known_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    c = _companion([-6.0, 11.0, -6.0])
    h, q = eg.hessenberg_reduce(c)
    t, z, eigs = eg.real_schur(h, q)
    np.testing.assert_allclose(_real_eigs(eigs), [1.0, 2.0, 3.0], atol=1e-10)
    assert frobenius_norm(z @ t @ z.T - c) <= 1e-12 * frobenius_norm(c)


def test_schur_semisimple_triple_eigenvalue_converges():
    # the trailing subdiagonals stall near eps*||H||, above the local
    # eps*(|t_ll| + |t_l-1,l-1|) deflation threshold
    b = np.random.default_rng(5).standard_normal((6, 6))
    m = b @ np.diag([1.0, 1.0, 1.0, -0.5, 2.0, 0.3]) @ np.linalg.inv(b)
    h, q = eg.hessenberg_reduce(m)
    t, z, eigs = eg.real_schur(h, q)
    assert frobenius_norm(z @ t @ z.T - m) <= 1e-12 * frobenius_norm(m)
    np.testing.assert_allclose(_real_eigs(eigs), [-0.5, 0.3, 1.0, 1.0, 1.0, 2.0], atol=1e-8)
    assert decompose(m).diagnostics.reconstruction_residual <= 1e-9


def test_schur_clustered_spectrum_converges():
    # a real triple and two pair doubles, each cluster 1.2e-8 wide: with the
    # bulge's first column built from the shifts' sum and product, x is
    # rounding noise and the sweep stalls on a 3x3 block for 480 sweeps
    spec = PlantedSpectrum(
        [-1.7727715, -1.772771488, -1.772771476, -1.889441675, 1.440067507, 1.440067519],
        [(0.766644726, 0.42891062), (-0.171471424, 1.767586424), (-0.171471412, 1.767586424),
         (1.442834046, 1.115891314), (1.442834057, 1.115891314)],
        basis_seed=2154093266,
        condition_cap=1e4,
    )
    m = gen_test_matrix(spec)
    dec = decompose(m)
    assert dec.diagnostics.reconstruction_residual <= 1e-13
    found = np.array(
        [complex(t.alpha) for t in dec.real_terms]
        + [complex(t.sigma, s * t.omega) for t in dec.plane_terms for s in (1, -1)]
    )
    gap = np.abs(spec.as_complex()[:, None] - found[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12 * frobenius_norm(m)


def test_schur_random_residual():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        m = rng.standard_normal((n, n))
        h, q = eg.hessenberg_reduce(m)
        t, z, _ = eg.real_schur(h, q)
        assert frobenius_norm(z @ t @ z.T - m) <= 1e-12 * frobenius_norm(m)
        _assert_quasi_triangular(t)


def _assert_eigs_match_blocks(t, eigs):
    """Each entry is exactly its block's value on T: a 1x1 block's diagonal
    entry, with zero subdiagonals at both block edges, or a kept 2x2
    block's (a + d) / 2 + i sqrt(-disc), disc < 0."""
    n = t.shape[0]
    starts = eg.block_starts(eigs)
    assert starts[-1] == n
    for e, i, end in zip(eigs, starts, starts[1:]):
        assert i == 0 or t[i, i - 1] == 0.0
        assert end == n or t[end, end - 1] == 0.0
        if end - i == 1:
            assert e == t[i, i]
        else:
            (a, b), (c, d) = t[i:end, i:end]
            disc = ((a - d) / 2.0) ** 2 + b * c
            assert c != 0.0 and disc < 0.0
            assert e == complex((a + d) / 2.0, np.sqrt(-disc))


@pytest.mark.parametrize(
    "n,k",
    [
        pytest.param(64, 16, id="64"),
        pytest.param(128, 32, id="128"),
        # no real eigenvalue: every block goes through the complex rotation
        pytest.param(64, 32, id="64-all-pairs"),
    ],
)
def test_schur_planted_structure(n, k):
    # the bench's dense recipe: k pairs on jittered grids, cap 1e6
    reals, pairs = _draw_spectrum(np.random.default_rng(n), n - 2 * k, k)
    spec = PlantedSpectrum(reals, pairs, basis_seed=n, condition_cap=1e6)
    m = gen_test_matrix(spec)
    norm_m = frobenius_norm(m)
    h, q = eg.hessenberg_reduce(m)
    t, z, eigs = eg.real_schur(h, q)
    assert frobenius_norm(z @ t @ z.T - m) <= 1e-12 * norm_m
    assert frobenius_norm(z.T @ z - np.eye(n)) <= 1e-12
    _assert_quasi_triangular(t)
    _assert_eigs_match_blocks(t, eigs)
    gap = np.abs(spec.as_complex()[:, None] - _as_complex(eigs)[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-8 * norm_m
    # each column block X_j of the right vectors satisfies M X_j = X_j L_j,
    # and T and Z are left as they were
    t0, z0 = t.copy(), z.copy()
    x, y_r = eg.right_eigenvectors(t, z, eigs)
    np.testing.assert_array_equal(t, t0, strict=True)
    np.testing.assert_array_equal(z, z0, strict=True)
    # Y_r is X in Schur coordinates, exactly 0 below its diagonal blocks
    assert frobenius_norm(z @ y_r - x) <= n * eg.EPS
    starts, worst = eg.block_starts(eigs), 0.0
    for e, lo, hi in zip(eigs, starts, starts[1:]):
        assert not np.any(y_r[hi:, lo:hi])
        if hi - lo == 1:
            lam = np.array([[e.real]])
        else:
            lam = np.array([[e.real, e.imag], [-e.imag, e.real]])
        xj = x[:, lo:hi]
        worst = max(worst, frobenius_norm(m @ xj - xj @ lam))
    assert worst <= 1e-12 * norm_m


def _dense_spectrum(n):
    """The bench's dense recipe: n/4 pairs on jittered grids, cap 1e6."""
    reals, pairs = _draw_spectrum(np.random.default_rng(n), n - 2 * (n // 4), n // 4)
    return PlantedSpectrum(reals, pairs, basis_seed=n, condition_cap=1e6)


def _dense_hessenberg(n):
    return eg.hessenberg_reduce(gen_test_matrix(_dense_spectrum(n)))


def test_schur_same_bits_for_either_memory_order():
    # T and Z are worked on in one C-ordered array whatever h's order, and
    # both come back C-ordered
    h, q = _dense_hessenberg(32)
    tc, zc, eigs_c = eg.real_schur(np.ascontiguousarray(h), q)
    tf, zf, eigs_f = eg.real_schur(np.asfortranarray(h), q)
    assert tc.flags.c_contiguous and tf.flags.c_contiguous
    assert zc.flags.c_contiguous and zf.flags.c_contiguous
    np.testing.assert_array_equal(tc, tf, strict=True)
    np.testing.assert_array_equal(zc, zf, strict=True)
    np.testing.assert_array_equal(eigs_c, eigs_f, strict=True)


def _reference_sweep(t, z, lo, hi, r1, r2):
    """The sweep as three products per bulge step on separate T and Z,
    with each bulge column zeroed as soon as its reflector is applied."""
    t00, t10 = t.item(lo, lo), t.item(lo + 1, lo)
    x = ((t00 - r1) * (t00 - r2)).real + t.item(lo, lo + 1) * t10
    y = t10 * (t00 + t.item(lo + 1, lo + 1) - (r1 + r2).real)
    w = t.item(lo + 2, lo + 1) * t10
    for k in range(lo, hi):
        j = min(k + 3, hi + 1)
        alpha = math.hypot(x, y, w)
        if alpha != 0.0:
            u = x + alpha if x >= 0.0 else x - alpha
            v = np.array([u, y, w]) / math.hypot(u, y, w)
            pm = (np.eye(3) - 2.0 * np.outer(v, v))[:j - k, :j - k]
            c0, r = max(lo, k - 1), min(k + 4, hi + 1)
            t[k:j, c0:] = pm @ t[k:j, c0:]
            t[:r, k:j] = t[:r, k:j] @ pm
            z[:, k:j] = z[:, k:j] @ pm
        if k > lo:
            t[k + 1:j, k - 1] = 0.0
        if k < hi - 1:
            x, y = t.item(k + 1, k), t.item(k + 2, k)
            w = t.item(k + 3, k) if k < hi - 2 else 0.0


@pytest.mark.parametrize(
    "n,lo,hi,shifts",
    [
        (10, 2, 7, None),
        # the column slab is clipped at hi + 1 = n
        (10, 0, 9, None),
        # one 3x3 step, then the 2x2 step
        (6, 1, 3, None),
        (8, 3, 5, None),
        (12, 0, 11, (0.3, -0.7)),
        # the first bulge column is exactly zero, so the first step is skipped
        (10, 2, 7, "zero-column"),
    ],
    ids=["inside", "whole-matrix", "three-rows", "short-block", "real-shifts", "zero-column"],
)
def test_francis_sweep_inside_the_matrix_matches_reference(n, lo, hi, shifts):
    # the bulge entries are zeroed once at the end of the sweep, by strided
    # writes over the second and third subdiagonals of [lo, hi] only
    h, q = _dense_hessenberg(n)
    if lo > 0:
        h[lo, lo - 1] = 0.0
    if hi < n - 1:
        h[hi + 1, hi] = 0.0
    if shifts == "zero-column":
        h[lo + 1, lo] = 0.0
        shifts = (h.item(lo, lo), h.item(lo, lo))
    r1, r2 = shifts or eg._eig_2x2(h, hi - 1)
    a = np.empty((n, 2 * n))
    a[:, :n], a[:, n:] = h, q.T
    eg._francis_step(a, lo, hi, r1, r2)
    assert np.all(a[:, :n][np.tril_indices(n, -2)] == 0.0)
    _reference_sweep(h, q, lo, hi, r1, r2)
    np.testing.assert_array_equal(a[:, :n], h, strict=True)
    np.testing.assert_array_equal(a[:, n:].T, q, strict=True)


def test_schur_tiny_entries_scaled_exactly():
    # unscaled, the split's eigenvector norm underflows to 0 and divides
    m = np.full((2, 2), 1e-200)
    t, z, eigs = eg.real_schur(m, np.eye(2))
    np.testing.assert_allclose(np.sort(eigs.real), [0.0, 2e-200], rtol=0.0, atol=1e-215)
    assert not np.any(eigs.imag)
    assert frobenius_norm(z @ t @ z.T - m) <= 1e-15 * frobenius_norm(m)


def test_sweep_budget_exhausted_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(eg, "MAX_SWEEPS_PER_N", 0)
    # (x-1)(x-2)(x-3): no subdiagonal is negligible before the first sweep
    with pytest.raises(ConvergenceError) as err:
        decompose(_companion([-6.0, 11.0, -6.0]))
    assert err.value.subdiagonal_index == 2
    assert err.value.sweeps == 0


def _deflation_case(factor):
    # the diagonal is small against ||T||, so a local rule
    # eps (|t_ll| + |t_l-1,l-1|) would be far below the normwise n eps ||T||_F
    t = np.array([[1e-3, 1.0, 1.0], [0.0, -2e-3, 1.0], [0.0, 0.0, 3e-3]])
    t[1, 0] = t[2, 1] = factor * 3 * eg.EPS * frobenius_norm(t)
    return t


def test_subdiagonal_below_normwise_tol_deflates_without_a_sweep(monkeypatch):
    monkeypatch.setattr(eg, "MAX_SWEEPS_PER_N", 0)
    t, _, eigs = eg.real_schur(_deflation_case(0.5), np.eye(3))
    assert not np.any(np.diag(t, -1))
    _assert_eigs_equal(eigs, [1e-3, -2e-3, 3e-3])


def test_subdiagonal_above_normwise_tol_needs_a_sweep(monkeypatch):
    monkeypatch.setattr(eg, "MAX_SWEEPS_PER_N", 0)
    with pytest.raises(ConvergenceError) as err:
        eg.real_schur(_deflation_case(2.0), np.eye(3))
    assert err.value.subdiagonal_index == 2
    assert err.value.sweeps == 0


def _schur_eigs(m):
    return eg.real_schur(m, np.eye(m.shape[0]))[2]


def test_schur_eigenvalue_cases():
    _assert_eigs_equal(_schur_eigs(np.diag([1.0, 2.0])), [1.0, 2.0])
    # lambda^2 - 2 lambda + 5 = 0 -> 1 +- 2i
    _assert_eigs_equal(_schur_eigs(np.array([[1.0, 2.0], [-2.0, 1.0]])), [1 + 2j])
    _assert_eigs_equal(_schur_eigs(np.array([[0.0, -1.0], [1.0, 0.0]])), [1j])
    _assert_eigs_equal(_schur_eigs(np.zeros((0, 0))), [])
    _assert_eigs_equal(_schur_eigs(np.array([[-2.5]])), [-2.5])
    # discriminant 1: the block is triangularized, and its two entries are
    # T's diagonal after the split
    t, _, eigs = eg.real_schur(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
    assert t[1, 0] == 0.0
    _assert_eigs_equal(eigs, np.diag(t))
    np.testing.assert_allclose(eigs.real, [3.0, 1.0], rtol=0.0, atol=1e-15)


def _schur_right_vectors(m):
    h, q = eg.hessenberg_reduce(m)
    t, z, eigs = eg.real_schur(h, q)
    x, _ = eg.right_eigenvectors(t, z, eigs)
    return eigs, x


def test_right_eigenvectors_diagonal():
    eigs, x = _schur_right_vectors(np.diag([3.0, 7.0]))
    _assert_eigs_equal(eigs, [3.0, 7.0])
    np.testing.assert_allclose(np.abs(x[:, 0]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(x[:, 1]), [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "m,sigma,omega",
    [
        (np.array([[1.0, 2.0], [-2.0, 1.0]]), 1.0, 2.0),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.0, 1.0),
    ],
)
def test_right_eigenvectors_pair_identities(m, sigma, omega):
    eigs, x = _schur_right_vectors(m)
    _assert_eigs_equal(eigs, [complex(sigma, omega)])
    b, p = x[:, 0], x[:, 1]
    np.testing.assert_allclose(m @ b, sigma * b - omega * p, atol=1e-12)
    np.testing.assert_allclose(m @ p, omega * b + sigma * p, atol=1e-12)


def test_left_eigenvectors_symmetric_matrix_match_right():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    m = a + a.T
    system = eg.eigensystem(m)
    for v, l in zip(system.basis.T, system.basis_inv):
        # right vectors are unit, so c = v / (v.v) = v
        np.testing.assert_allclose(l, v / np.dot(v, v), atol=1e-9)


def test_left_eigenvectors_unitary_pair_case():
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    system = eg.eigensystem(m)
    b, p = system.basis.T
    d, q = system.basis_inv / 2.0
    # d^dag b split into real and imaginary parts
    cr = np.dot(d, b) + np.dot(q, p)
    ci = np.dot(d, p) - np.dot(q, b)
    assert abs(cr - 1.0) <= 1e-12
    assert abs(ci) <= 1e-12


def test_left_eigenvectors_triangular_hand_case():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    system = eg.eigensystem(m)
    idx = [i for i, e in enumerate(system.eigenvalues) if e == pytest.approx(2.0)][0]
    c = system.basis_inv[idx]
    # left eigenvector of alpha=2 is proportional to (1, -1)
    np.testing.assert_allclose(c.T @ m, 2.0 * c, atol=1e-12)
    assert c[0] == pytest.approx(-c[1])


def test_biorthogonality_on_generated_matrices():
    specs = [
        PlantedSpectrum((0.5 + seed, -1.0), ((0.3, 1.1), (1.7, 0.4)), basis_seed=seed)
        for seed in range(10)
    ]
    specs.append(_dense_spectrum(64))
    for spec in specs:
        m = gen_test_matrix(spec)
        system = eg.eigensystem(m)
        prod = system.basis_inv @ system.basis
        assert frobenius_norm(prod - np.eye(spec.dim)) <= 1e-10 * spec.dim


def test_eigenvalue_recovery_matches_planted():
    for seed in range(10):
        spec = PlantedSpectrum((2.0, -0.7), ((0.9, 1.3),), basis_seed=100 + seed)
        m = gen_test_matrix(spec)
        system = eg.eigensystem(m)
        norm_m = frobenius_norm(m)
        got = _as_complex(system.eigenvalues)
        for w in spec.as_complex():
            assert np.min(np.abs(got - w)) <= 1e-8 * norm_m


def test_canonicalize_phase_examples():
    re, im = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    c_re, c_im = eg.canonicalize_phase(re, im)
    assert c_re is re and c_im is im  # already canonical, returned unchanged

    rng = np.random.default_rng(3)
    base_re, base_im = eg.canonicalize_phase(rng.standard_normal(4), rng.standard_normal(4))
    theta = 0.7
    rec_re, rec_im = eg.canonicalize_phase(
        np.cos(theta) * base_re - np.sin(theta) * base_im,
        np.sin(theta) * base_re + np.cos(theta) * base_im,
    )
    np.testing.assert_allclose(rec_re, base_re, atol=1e-12)
    np.testing.assert_allclose(rec_im, base_im, atol=1e-12)

    c_re, c_im = eg.canonicalize_phase(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    np.testing.assert_array_equal(c_re, [2.0, 0.0])
    np.testing.assert_array_equal(c_im, [0.0, 0.0])


def test_canonicalize_phase_idempotent_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(50):
        re1, im1 = eg.canonicalize_phase(rng.standard_normal(6), rng.standard_normal(6))
        re2, im2 = eg.canonicalize_phase(re1, im1)
        np.testing.assert_array_equal(re1, re2)
        np.testing.assert_array_equal(im1, im2)


def test_canonicalize_phase_zero_vector_rejected():
    with pytest.raises(ShapeError):
        eg.canonicalize_phase(np.zeros(2), np.zeros(2))


def test_defective_matrix_rejected():
    # exact Jordan structure deflates at once, so each computed eigenvalue
    # repeats exactly and the basis is singular to rounding: the rcond gate
    # refuses it at every scale, and no RuntimeWarning (an error under this
    # suite's filterwarnings) is raised on the way
    c = np.array([[0.5, 2.0], [-2.0, 0.5]])
    jordans = [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
        np.block([[c, np.eye(2)], [np.zeros((2, 2)), c]]),  # a Jordan-coupled pair
    ]
    for m in jordans:
        for e in (-900, 0, 900):
            with pytest.raises(NotDiagonalizableError, match="rcond"):
                eg.eigensystem(m * 2.0**e)


def test_repeated_eigenvalues_diagonalizable():
    system = eg.eigensystem(np.eye(3))
    assert all(e == pytest.approx(1.0) for e in system.eigenvalues)
    b = system.basis
    assert frobenius_norm(b @ b.T - np.eye(3)) <= 1e-10


def test_eigenvalue_residual_property_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        m = rng.standard_normal((n, n))
        norm_m = frobenius_norm(m)
        system = eg.eigensystem(m)
        starts = eg.block_starts(system.eigenvalues)
        for e, col, end in zip(system.eigenvalues, starts, starts[1:]):
            if end - col == 1:
                continue
            b, p = system.basis[:, col], system.basis[:, col + 1]
            sigma, omega = e.real, e.imag
            resid = np.linalg.norm(m @ b - (sigma * b - omega * p))
            resid += np.linalg.norm(m @ p - (omega * b + sigma * p))
            bound = 1e-9 * norm_m * (np.linalg.norm(b) + np.linalg.norm(p))
            assert resid <= bound
