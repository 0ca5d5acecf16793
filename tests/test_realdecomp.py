import numpy as np
import pytest

from geospectral import realdecomp as rd
from geospectral.densecore import frobenius_norm
from geospectral.errors import DegeneratePairError, NotDiagonalizableError, ShapeError
from geospectral.verify import PlantedSpectrum, gen_test_matrix

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _pipeline_terms(seeds):
    for seed in seeds:
        spec = PlantedSpectrum((1.5, -0.4), ((0.6, 1.2), (-0.9, 0.8)), basis_seed=seed)
        m = gen_test_matrix(spec)
        dec = rd.decompose(m)
        yield m, dec


def test_biorthogonality_residual_disjoint_supports():
    b = np.array([1.0, 0.0, 0.0, 0.0])
    p = np.array([0.0, 1.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 1.0, 0.0])
    q = np.array([0.0, 0.0, 0.0, 1.0])
    assert rd.biorthogonality_residual(b, p, d, q) == (0.0, 0.0)


def test_biorthogonality_residual_pipeline():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            r1, r2 = rd.biorthogonality_residual(t.b, t.p, t.d, t.q)
            assert abs(r1) <= 1e-10
            assert abs(r2) <= 1e-10


def test_nu_hand_example():
    assert rd.nu(E1, E1, E2) == 1.0


def test_nu_degenerate():
    b = np.array([0.0, 0.0, 1.0])
    d = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegeneratePairError):
        rd.nu(b, d, q)


def test_nu_homogeneity():
    rng = np.random.default_rng(0)
    b, d, q = (rng.standard_normal(4) for _ in range(3))
    assert rd.nu(3.0 * b, 2.0 * d, 2.0 * q) == pytest.approx(36.0 * rd.nu(b, d, q))


def _unit_term(sigma, omega):
    return rd.ComplexPlaneTerm(sigma, omega, E1, E2, E1, E2, 1.0)


def test_plane_term_hand_examples():
    np.testing.assert_allclose(
        rd.plane_term_left_form(_unit_term(1.0, 2.0)), [[1.0, 2.0], [-2.0, 1.0]]
    )
    np.testing.assert_allclose(
        rd.plane_term_left_form(_unit_term(0.0, 1.0)), [[0.0, 1.0], [-1.0, 0.0]]
    )
    np.testing.assert_allclose(
        rd.plane_term_right_form(_unit_term(1.0, 2.0)), [[1.0, 2.0], [-2.0, 1.0]]
    )
    np.testing.assert_allclose(
        rd.plane_term_right_form(_unit_term(0.0, 1.0)), [[0.0, 1.0], [-1.0, 0.0]]
    )


def test_plane_term_embedded_block():
    e = np.eye(3)
    t = rd.ComplexPlaneTerm(1.0, 2.0, e[:, 0], e[:, 1], e[:, 0], e[:, 1], 1.0)
    expected = np.zeros((3, 3))
    expected[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    np.testing.assert_allclose(rd.plane_term_left_form(t), expected)


def test_form_equality_pipeline():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            left = rd.plane_term_left_form(t)
            right = rd.plane_term_right_form(t)
            assert frobenius_norm(left - right) <= 1e-10 * frobenius_norm(left)


def _dense(t):
    u, c, v = rd.term_factors(t)
    return u @ c @ v.T


def test_real_rank_one_term():
    t = rd.RealTerm(2.0, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(_dense(t), [[2.0, 2.0], [0.0, 0.0]])

    t = rd.RealTerm(0.0, np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    np.testing.assert_array_equal(_dense(t), np.zeros((2, 2)))

    t = rd.RealTerm(5.0, E1, E1)
    np.testing.assert_array_equal(_dense(t), np.diag([5.0, 0.0]))


def test_plane_term_factors_match_left_form():
    # b, p, d, q are unrelated random vectors, so this holds only if the
    # core is the exact identity, not a shortcut assuming d^dag b = 1
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 12):
        for _ in range(10):
            b, p, d, q = (rng.standard_normal(n) for _ in range(4))
            sigma, omega = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)
            t = rd.ComplexPlaneTerm(sigma, omega, b, p, d, q, rd.nu(b, d, q))
            left = rd.plane_term_left_form(t)
            assert frobenius_norm(_dense(t) - left) <= 1e-13 * frobenius_norm(left)


def test_real_term_degenerate_pairing_rejected():
    with pytest.raises(DegeneratePairError):
        rd.RealTerm(1.0, E1, E2)


def test_decompose_identity():
    dec = rd.decompose(np.eye(3))
    assert len(dec.real_terms) == 3
    assert len(dec.plane_terms) == 0
    assert all(t.alpha == pytest.approx(1.0) for t in dec.real_terms)


def test_decompose_single_pair():
    dec = rd.decompose(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    assert len(dec.real_terms) == 0
    (t,) = dec.plane_terms
    assert t.sigma == pytest.approx(1.0, abs=1e-12)
    assert t.omega == pytest.approx(2.0, abs=1e-12)


def test_decompose_mixed_block():
    m = np.zeros((3, 3))
    m[0, 0] = 4.0
    m[1:, 1:] = [[0.0, 1.0], [-1.0, 0.0]]
    dec = rd.decompose(m)
    assert len(dec.real_terms) == 1
    assert len(dec.plane_terms) == 1
    assert dec.real_terms[0].alpha == pytest.approx(4.0, abs=1e-12)
    assert dec.plane_terms[0].sigma == pytest.approx(0.0, abs=1e-12)
    assert dec.plane_terms[0].omega == pytest.approx(1.0, abs=1e-12)


def test_decompose_propagates_not_diagonalizable():
    with pytest.raises(NotDiagonalizableError):
        rd.decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "scale",
    [1e200, 1e-200, 2.0**660, 2.0**-660, 2.0**-1000],
    ids=["1e200", "1e-200", "2^660", "2^-660", "2^-1000"],
)
def test_decompose_extreme_scales(scale):
    # squaring these entries overflows or underflows
    m = np.array([[1.0, 2.0], [-2.0, 1.0]]) * scale
    dec = rd.decompose(m)
    assert dec.real_terms == ()
    (t,) = dec.plane_terms
    assert t.sigma / scale == pytest.approx(1.0, rel=1e-12)
    assert t.omega / scale == pytest.approx(2.0, rel=1e-12)
    assert dec.diagnostics.reconstruction_residual <= 1e-12
    assert np.linalg.norm((rd.reconstruct(dec) - m) / scale) <= 1e-12


@pytest.mark.parametrize("k", [-600, -37, 41, 600])
def test_decompose_scale_equivariant(k):
    # every stage is equivariant under an exact power-of-two scale: the
    # vectors come out bitwise identical, the eigenvalues exactly scaled
    for m, base in _pipeline_terms(range(3)):
        dec = rd.decompose(m * 2.0**k)
        for t, t0 in zip(dec.real_terms, base.real_terms, strict=True):
            assert t.alpha == t0.alpha * 2.0**k
            np.testing.assert_array_equal(t.a, t0.a)
            np.testing.assert_array_equal(t.c, t0.c)
        for t, t0 in zip(dec.plane_terms, base.plane_terms, strict=True):
            assert (t.sigma, t.omega, t.nu) == (t0.sigma * 2.0**k, t0.omega * 2.0**k, t0.nu)
            for f in ("b", "p", "d", "q"):
                np.testing.assert_array_equal(getattr(t, f), getattr(t0, f))


def test_reconstruct_round_trips():
    np.testing.assert_allclose(rd.reconstruct(rd.decompose(np.eye(3))), np.eye(3), atol=1e-12)

    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    assert frobenius_norm(rd.reconstruct(rd.decompose(m)) - m) <= 1e-10 * frobenius_norm(m)

    for m, dec in _pipeline_terms(range(5)):
        assert frobenius_norm(rd.reconstruct(dec) - m) <= 1e-9 * frobenius_norm(m)


def test_apply_hand_case():
    dec = rd.decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(rd.apply(dec, E1), [0.0, -1.0], atol=1e-12)


def test_apply_identity():
    dec = rd.decompose(np.eye(2))
    x = np.array([0.3, -1.7])
    np.testing.assert_allclose(rd.apply(dec, x), x, atol=1e-12)


def test_apply_matches_dense_product():
    rng = np.random.default_rng(1)
    for m, dec in _pipeline_terms(range(5)):
        dense = rd.reconstruct(dec)
        for _ in range(5):
            x = rng.standard_normal(dec.dim)
            got = rd.apply(dec, x)
            assert np.linalg.norm(got - dense @ x) <= 1e-11 * np.linalg.norm(dense @ x)


def test_apply_shape_error():
    dec = rd.decompose(np.eye(2))
    with pytest.raises(ShapeError):
        rd.apply(dec, np.ones(3))


def test_real_canonical_form_hand_cases():
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    b_real, l_real = rd.real_canonical_form(rd.decompose(m))
    np.testing.assert_allclose(l_real, m, atol=1e-12)
    # b is a unit complex phase of (e1 + i e2); columns stay orthonormal
    np.testing.assert_allclose(b_real @ b_real.T, np.eye(2) / 2.0, atol=1e-12)

    b_real, l_real = rd.real_canonical_form(rd.decompose(np.diag([5.0, 6.0])))
    np.testing.assert_allclose(l_real, np.diag([5.0, 6.0]), atol=1e-12)

    m = np.zeros((3, 3))
    m[0, 0] = 4.0
    m[1:, 1:] = [[0.0, 1.0], [-1.0, 0.0]]
    _, l_real = rd.real_canonical_form(rd.decompose(m))
    np.testing.assert_allclose(l_real, m, atol=1e-12)


def test_real_canonical_form_similarity():
    for m, dec in _pipeline_terms(range(5)):
        b_real, l_real = rd.real_canonical_form(dec)
        resid = frobenius_norm(b_real @ l_real @ np.linalg.inv(b_real) - m)
        assert resid <= 1e-9 * frobenius_norm(m)


def test_transpose_term():
    t = _unit_term(1.0, 2.0)
    tt = rd.transpose_term(t)
    np.testing.assert_allclose(
        rd.plane_term_left_form(tt), [[1.0, -2.0], [2.0, 1.0]]
    )
    # symmetric-case term (d=b, q=p) transposes to itself
    sym = rd.transpose_term(_unit_term(0.5, 1.5))
    np.testing.assert_allclose(
        rd.plane_term_left_form(sym), rd.plane_term_left_form(_unit_term(0.5, 1.5)).T
    )

    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            left = rd.plane_term_left_form(t)
            swapped = rd.plane_term_left_form(rd.transpose_term(t))
            assert frobenius_norm(swapped - left.T) <= 1e-12 * frobenius_norm(left)


def test_plane_term_eigen_action():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            mat = rd.plane_term_left_form(t)
            scale = frobenius_norm(mat) * (np.linalg.norm(t.b) + np.linalg.norm(t.p))
            assert np.linalg.norm(mat @ t.b - (t.sigma * t.b - t.omega * t.p)) <= 1e-9 * scale
            assert np.linalg.norm(mat @ t.p - (t.omega * t.b + t.sigma * t.p)) <= 1e-9 * scale


def test_plane_term_annihilates_other_eigenvectors():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            mat = rd.plane_term_left_form(t)
            norm_t = frobenius_norm(mat)
            for other in dec.real_terms:
                assert np.linalg.norm(mat @ other.a) <= 1e-9 * norm_t
            for other in dec.plane_terms:
                if other is t:
                    continue
                assert np.linalg.norm(mat @ other.b) <= 1e-9 * norm_t
                assert np.linalg.norm(mat @ other.p) <= 1e-9 * norm_t


def test_phase_invariance():
    rng = np.random.default_rng(2)
    for _, dec in _pipeline_terms(range(3)):
        for t in dec.plane_terms:
            base = rd.plane_term_left_form(t)
            for theta in rng.uniform(0.0, 2.0 * np.pi, 100):
                c, s = np.cos(theta), np.sin(theta)
                b = c * t.b - s * t.p
                p = s * t.b + c * t.p
                d = c * t.d - s * t.q
                q = s * t.d + c * t.q
                rot = rd.ComplexPlaneTerm(t.sigma, t.omega, b, p, d, q, rd.nu(b, d, q))
                diff = frobenius_norm(rd.plane_term_left_form(rot) - base)
                assert diff <= 1e-10 * frobenius_norm(base)


def test_conjugate_pair_symmetry():
    # the conjugate eigenvalue sigma - i omega with splits (b, -p), (d, -q)
    flip = np.array([1.0, -1.0])
    for _, dec in _pipeline_terms(range(3)):
        for t in dec.plane_terms:
            base = rd.plane_term_left_form(t)
            u, _, v = rd.term_factors(t)
            u, v = u * flip, v * flip
            conj = u @ rd.plane_core(t.sigma, -t.omega, u, v, t.nu) @ v.T
            assert frobenius_norm(conj - base) <= 1e-12 * frobenius_norm(base)


def test_counting_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        dec = rd.decompose(rng.standard_normal((n, n)))
        assert len(dec.real_terms) + 2 * len(dec.plane_terms) == n


def test_normal_matrix_specialization():
    rng = np.random.default_rng(4)
    for seed in range(10):
        spec = PlantedSpectrum((0.4,), ((1.0, 2.0), (-0.5, 0.7)), basis_seed=seed)
        m = gen_test_matrix(spec, orthogonal_basis=True)
        assert frobenius_norm(m @ m.T - m.T @ m) <= 1e-10 * frobenius_norm(m) ** 2
        dec = rd.decompose(m)
        for t in dec.plane_terms:
            nb, np_ = np.linalg.norm(t.b), np.linalg.norm(t.p)
            assert abs(np.dot(t.b, t.p)) <= 1e-9 * nb * np_
            assert abs(nb - np_) <= 1e-9 * nb


def test_term_ordering_is_canonical():
    for _, dec in _pipeline_terms(range(3)):
        alphas = [t.alpha for t in dec.real_terms]
        assert alphas == sorted(alphas)
        keys = [(t.sigma, t.omega) for t in dec.plane_terms]
        assert keys == sorted(keys)
