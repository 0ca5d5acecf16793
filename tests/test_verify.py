import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geospectral import geoalg as ga
from geospectral import realdecomp as rd
from geospectral import verify as vf
from geospectral.densecore import frobenius_norm, pow2_scale
from geospectral.errors import GenerationError, ShapeError
from test_realdecomp import lone_term_stacks


def test_gen_identity_basis_cases():
    # the canonical block builder gen_test_matrix and real_canonical_form
    # share, on a spectrum's eigenvalues as gen_test_matrix passes them
    def blocks(spec):
        return rd.real_block_form(spec.real_eigs, *np.reshape(spec.complex_pairs, (-1, 2)).T)

    spec = vf.PlantedSpectrum((1.0, 2.0, 3.0), (), basis_seed=0)
    np.testing.assert_array_equal(blocks(spec), np.diag([1.0, 2.0, 3.0]))

    spec = vf.PlantedSpectrum((), ((1.0, 2.0),), basis_seed=0)
    np.testing.assert_array_equal(blocks(spec), [[1.0, 2.0], [-2.0, 1.0]])

    spec = vf.PlantedSpectrum((4.0,), ((1.0, 2.0), (-0.5, 0.25)), basis_seed=0)
    expected = np.zeros((5, 5))
    expected[0, 0] = 4.0
    expected[1:3, 1:3] = [[1.0, 2.0], [-2.0, 1.0]]
    expected[3:, 3:] = [[-0.5, 0.25], [-0.25, -0.5]]
    np.testing.assert_array_equal(blocks(spec), expected)
    assert blocks(vf.PlantedSpectrum((), (), basis_seed=0)).shape == (0, 0)
    # both basis paths give the empty matrix, which decomposes into no terms
    for orthogonal in (False, True):
        m = vf.gen_test_matrix(vf.PlantedSpectrum((), (), basis_seed=0), orthogonal_basis=orthogonal)
        assert m.shape == (0, 0)
        dec = rd.decompose(m)
        assert dec.real_terms == () and dec.plane_terms == ()


def test_gen_round_trip_spectrum():
    spec = vf.PlantedSpectrum((4.0,), ((0.0, 1.0),), basis_seed=42)
    m = vf.gen_test_matrix(spec)
    dec = rd.decompose(m)
    norm_m = frobenius_norm(m)
    assert dec.real_terms[0].alpha == pytest.approx(4.0, abs=1e-8 * norm_m)
    assert dec.plane_terms[0].sigma == pytest.approx(0.0, abs=1e-8 * norm_m)
    assert dec.plane_terms[0].omega == pytest.approx(1.0, abs=1e-8 * norm_m)


def test_gen_deterministic():
    spec = vf.PlantedSpectrum((1.0,), ((0.5, 1.5),), basis_seed=7)
    m1 = vf.gen_test_matrix(spec)
    m2 = vf.gen_test_matrix(spec)
    np.testing.assert_array_equal(m1, m2)


def test_gen_condition_cap_unattainable():
    spec = vf.PlantedSpectrum((1.0, 2.0, 3.0, 4.0), (), basis_seed=1, condition_cap=1.0 + 1e-12)
    with pytest.raises(GenerationError):
        vf.gen_test_matrix(spec)


def test_generator_soundness_char_poly():
    # second independent oracle for n <= 4: the characteristic polynomial
    # of the generated matrix (Faddeev-LeVerrier coefficients) must match
    # the polynomial expanded from the planted spectrum
    def char_poly(m):
        n = m.shape[0]
        coeffs = [1.0]
        a = np.array(m)
        for k in range(1, n + 1):
            c = -np.trace(a) / k
            coeffs.append(c)
            a = m @ (a + c * np.eye(n))
        return np.array(coeffs)

    for seed in range(5):
        spec = vf.PlantedSpectrum((1.2, -0.3), ((0.4, 0.9),), basis_seed=seed)
        m = vf.gen_test_matrix(spec)
        got = char_poly(m)
        want = np.real(np.poly(spec.as_complex()))
        np.testing.assert_allclose(got, want, atol=1e-8 * frobenius_norm(m) ** spec.dim)


def test_min_separation():
    spec = vf.PlantedSpectrum((0.0, 1.0), ((0.0, 2.0),), basis_seed=0)
    # closest pair: 0 and 1 on the real axis
    assert spec.min_separation() == pytest.approx(1.0)


def test_brute_force_diagonal():
    m = np.diag([1.0, 2.0])
    np.testing.assert_allclose(vf.brute_force_reconstruct(m), m, atol=1e-14)


def test_brute_force_rotation_block():
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    np.testing.assert_allclose(vf.brute_force_reconstruct(m), m, atol=1e-13)


def test_oracle_agreement_planted():
    rng = np.random.default_rng(0)
    for i in range(20):
        n = 2 + i % 15
        k = int(rng.integers(0, n // 2 + 1))
        reals = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n - 2 * k))
        pairs = tuple(
            (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0)))
            for _ in range(k)
        )
        spec = vf.PlantedSpectrum(reals, pairs, basis_seed=500 + i)
        if spec.min_separation() < 0.05:
            continue
        m = vf.gen_test_matrix(spec)
        oracle = vf.brute_force_reconstruct(m)
        recon = rd.reconstruct(rd.decompose(m))
        assert frobenius_norm(oracle - recon) <= 1e-9 * frobenius_norm(m)


def test_suite_identity_matrix():
    report = vf.run_identity_suite(np.eye(4))
    assert report.overall
    names = {c.name for c in report.checks}
    # no plane terms, so the pair-specific checks are vacuously absent
    assert "form_equality" not in names
    assert "reconstruction" in names


def test_empty_matrix_canonical_form_and_suite():
    empty = np.zeros((0, 0))
    b_real, l_real, b_inv = rd.real_canonical_form(rd.decompose(empty))
    assert b_real.shape == l_real.shape == b_inv.shape == (0, 0)
    assert vf.run_identity_suite(empty).overall


def test_suite_hand_verified_pair():
    report = vf.run_identity_suite(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    assert report.overall
    recon = next(c for c in report.checks if c.name == "reconstruction")
    assert recon.residual <= 1e-12


@pytest.mark.parametrize("check", [vf.run_identity_suite, vf.brute_force_reconstruct])
def test_complex_input_refused(check):
    # not cast to its real part, which the suite would pass
    with pytest.raises(ShapeError, match="complex"):
        check(np.array([[1.0 + 1.0j, 2.0], [-2.0, 1.0]]))


def test_suite_defective_fails_cleanly():
    report = vf.run_identity_suite(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not report.overall
    diag = next(c for c in report.checks if c.name == "diagonalizable")
    assert not diag.passed


def test_suite_deterministic():
    m = vf.gen_test_matrix(vf.PlantedSpectrum((1.0,), ((0.3, 1.0),), basis_seed=3))
    r1 = vf.run_identity_suite(m)
    r2 = vf.run_identity_suite(m)
    assert r1.checks == r2.checks  # timing excluded from comparison


def test_suite_scale_multiplies_every_tolerance():
    m = vf.gen_test_matrix(vf.PlantedSpectrum((1.0,), ((0.3, 1.0),), basis_seed=3))
    base = vf.run_identity_suite(m)
    scaled = vf.run_identity_suite(m, tol=1e-6, scale=10.0)
    assert [c.name for c in scaled.checks] == [c.name for c in base.checks]
    assert len(base.checks) == 9
    tolerances = {c.name: c.tolerance for c in scaled.checks}
    assert tolerances["reconstruction"] == pytest.approx(1e-5)
    for c in base.checks:
        if c.name != "reconstruction":
            assert tolerances[c.name] == pytest.approx(10.0 * c.tolerance)


def _dense_phase_distance(t, left, thetas):
    # reference: rotate both splits by each theta and build each rotated
    # term U C V^T densely from its own vectors, 500 phases at a time
    out = []
    for chunk in np.array_split(thetas, -(-len(thetas) // 500)):
        c, s = np.cos(chunk)[:, None], np.sin(chunk)[:, None]
        u = np.stack((c * t.b - s * t.p, s * t.b + c * t.p), axis=2)
        v = np.stack((c * t.d - s * t.q, s * t.d + c * t.q), axis=2)
        g = np.swapaxes(u, 1, 2) @ v
        cores = rd.plane_core(t.sigma, t.omega, g, np.sum(g[:, :1] ** 2, axis=2, keepdims=True))
        out.append(np.linalg.norm(u @ cores @ np.swapaxes(v, 1, 2) - left, axis=(1, 2)))
    return np.concatenate(out)


def _extreme_phases(t):
    # the two phases whose (cos, -sin) is an eigenvector of G G^T, where
    # nu_theta = |(cos, -sin) G|^2 is least and greatest
    lone, _, _ = lone_term_stacks(t)
    g = lone.gram[0]
    vectors = np.linalg.eigh(g @ g.T)[1]
    return np.arctan2(-vectors[1], vectors[0])


def _fast_phase_distance(t, left):
    # the suite's evaluation for one pair: A = U C V^T against left, then
    # the supremum over every rotation from the Gram alone
    lone, _, cores = lone_term_stacks(t)
    u, c, v = lone.right.T, cores[0] * lone.s, lone.left.T
    a = u @ c @ v.T
    e = a - left
    norm_a, inner, norm_e = (np.array([x]) for x in (frobenius_norm(a), np.vdot(a, e), frobenius_norm(e)))
    return vf._phase_distance(lone.nu, lone.gram, norm_a, inner, norm_e)[0]


def test_phase_distance_matches_dense_rotation():
    # the supremum is the larger of the dense distances at the two extreme
    # phases, and no dense distance over 10,000 phases exceeds it
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    for n, cap in [(2, 1e1), (5, 1e3), (12, 1e5), (21, 1e7)]:
        pairs = [(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)) for _ in range(n // 2)]
        spec = vf.PlantedSpectrum(rng.uniform(-2.0, 2.0, n % 2), pairs, basis_seed=n, condition_cap=cap)
        for t in rd.decompose(vf.gen_test_matrix(spec)).plane_terms:
            left = ga.plane_term_left_form(t)
            tol = 1e-12 * frobenius_norm(left)
            fast = _fast_phase_distance(t, left)
            assert abs(fast - _dense_phase_distance(t, left, _extreme_phases(t)).max()) <= tol
            assert fast >= _dense_phase_distance(t, left, grid).max() - tol
    # unrelated b, p, d, q: the rotated terms differ from the reference by
    # O(1), and the fast evaluation still measures that distance
    for n in (2, 3, 7, 12):
        b, p, d, q = (rng.standard_normal(n) for _ in range(4))
        t = rd.ComplexPlaneTerm(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0), b, p, d, q)
        left = ga.plane_term_left_form(t)
        fast = _fast_phase_distance(t, left)
        dense = _dense_phase_distance(t, left, _extreme_phases(t)).max()
        np.testing.assert_allclose(fast, dense, rtol=1e-9, atol=0.0)
        assert fast >= _dense_phase_distance(t, left, grid).max() * (1.0 - 1e-9)


def test_phase_distance_of_a_singular_gram_is_inf():
    # nu_theta reaches 0, so the rotated term is unbounded: the check reads
    # inf, and fails, without a numpy warning
    g = np.array([[[1.0, 2.0], [2.0, 4.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = vf._phase_distance(np.array([5.0]), g, np.array([1.0]), np.array([-0.5]), np.array([1.0]))
    assert got.tolist() == [np.inf]


# The identity checks as one loop over the plane terms, each check
# evaluated term by term: the reference for the checks that run on all
# pairs at once.


def _loop_checks(m, dec):
    _rel = vf._rel
    norm_m = frobenius_norm(m)
    recon = rd.reconstruct(dec)
    checks = [("reconstruction", _rel(frobenius_norm(recon - m), norm_m))]

    oracle = vf.brute_force_reconstruct(m)
    checks.append(("oracle_agreement", _rel(frobenius_norm(oracle - recon), norm_m)))

    basis, _, _ = rd.real_canonical_form(dec)
    first = len(dec.real_terms)
    form = eigact = annih = bio = phase = transp = 0.0
    for i, t in enumerate(dec.plane_terms):
        left = ga.plane_term_left_form(t)
        right = ga.plane_term_right_form(t)
        norm_t = frobenius_norm(left)
        form = max(form, _rel(frobenius_norm(left - right), norm_t))

        lone, _, cores = lone_term_stacks(t)
        u, c, v = lone.right.T, cores[0] * lone.s, lone.left.T
        block = np.array([[t.sigma, t.omega], [-t.omega, t.sigma]])
        act_r = u @ (c @ (v.T @ u)) - u @ block
        act_l = v @ (c.T @ (u.T @ v)) - v @ block.T
        # each miss over its own vectors' norms, then relative to ||left||
        miss_r = np.linalg.norm(act_r, axis=0).max() / (np.linalg.norm(t.b) + np.linalg.norm(t.p))
        miss_l = np.linalg.norm(act_l, axis=0).max() / (np.linalg.norm(t.d) + np.linalg.norm(t.q))
        eigact = max(eigact, _rel(miss_r, norm_t), _rel(miss_l, norm_t))

        others = np.delete(basis, [first + 2 * i, first + 2 * i + 1], axis=1)
        killed = np.linalg.norm(u @ (c @ (v.T @ others)), axis=0) / np.linalg.norm(others, axis=0)
        annih = max(annih, _rel(killed, norm_t).max(initial=0.0))

        r1, r2 = t.d @ t.b - t.q @ t.p, t.q @ t.b + t.d @ t.p
        cross = np.abs(v.T @ others).max(initial=0.0)
        scale_b = np.linalg.norm(t.d) * np.linalg.norm(t.b) + np.linalg.norm(t.q) * np.linalg.norm(t.p)
        bio = max(bio, _rel(max(abs(r1), abs(r2), cross), scale_b))

        phase = max(phase, _rel(_dense_phase_distance(t, left, _extreme_phases(t)).max(), norm_t))

        lone_t, _, cores_t = lone_term_stacks(ga.transpose_term(t))
        transposed = lone_t.right.T @ (cores_t[0] * lone_t.s) @ lone_t.left
        transp = max(transp, _rel(frobenius_norm(transposed - left.T), norm_t))

    if dec.plane_terms:
        checks.append(("form_equality", form))
        checks.append(("eigen_action", eigact))
        checks.append(("annihilation", annih))
        checks.append(("biorthogonality", bio))
        checks.append(("phase_invariance", phase))
        checks.append(("transposition", transp))
    return checks


def _planted(n, k, cap, seed):
    # n - 2k real eigenvalues and k pairs, real parts on jittered grids over
    # [-2, 2] so that eigenvalues stay apart at any n
    rng = np.random.default_rng(seed)

    def grid(count):
        return -2.0 + 4.0 * (np.arange(count) + 0.5 + rng.uniform(-0.3, 0.3, count)) / max(count, 1)

    pairs = list(zip(grid(k), rng.uniform(0.3, 2.0, k)))
    return vf.gen_test_matrix(vf.PlantedSpectrum(grid(n - 2 * k), pairs, basis_seed=seed, condition_cap=cap))


def _repeated_pair():
    # a pair three times over beside a single one and two real eigenvalues,
    # in compare_reports' pools: its plane is not unique and its transposition
    # residual is the corpus's closest to its tolerance
    spec = vf.PlantedSpectrum((-0.5, 1.0), ((0.0, 1.0),) * 3 + ((1.0, 2.0),), basis_seed=5474906907939464886)
    return vf.gen_test_matrix(spec)


def _planted_case(n, k, cap):
    return pytest.param(functools.partial(_planted, n, k, cap, n + k), id=f"{n}-{k}-{cap}")


# the dense recipe on a grid of sizes and basis condition caps, the
# identity-suite workload's recipe (n = 48 with 24 pairs, cap 1e4) and a
# repeated pair
@pytest.mark.parametrize(
    "make",
    [_planted_case(n, k, cap)
     for n, k in [(2, 0), (2, 1), (7, 0), (7, 1), (7, 3), (16, 0), (16, 1), (16, 8), (64, 0), (64, 1), (64, 32)]
     for cap in (1e2, 1e4, 1e6)]
    + [_planted_case(48, 24, 1e4), pytest.param(_repeated_pair, id="repeated-pair")],
)
def test_checks_match_per_pair_loop(make):
    m = make()
    dec = rd.decompose(m)
    tolerances = dict(vf._TOLERANCES, reconstruction=rd.DEFAULT_TOL)
    got, want = vf._decomposition_checks(m, dec), _loop_checks(m, dec)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, residual), (_, reference) in zip(got, want):
        tol = tolerances[name]
        assert (residual <= tol) == (reference <= tol), name
        assert abs(residual - reference) <= 0.1 * tol, name


def test_checks_draw_nothing_and_read_the_kept_grams(monkeypatch):
    # phase invariance is read off each pair's Gram at its two extreme
    # phases, so the checks draw no random number, and they read the c.a,
    # Grams, nu and s the decomposition's check kept: none is computed again
    m = _planted(16, 5, 1e4, seed=7)
    dec = rd.decompose(m)
    calls = []
    for module, name in ((np.random, "default_rng"), (rd, "_grams"), (rd.dc, "pow2_scale")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    checks = dict(vf._decomposition_checks(m, dec))
    assert calls == []
    assert checks["phase_invariance"] <= vf._TOLERANCES["phase_invariance"]


def test_checks_memory_is_quadratic():
    # a (k, n, n) stack of the terms would alone take 48 n^2 doubles here;
    # the checks keep their peak below 40 n^2
    n = 96
    m = _planted(n, n // 2, 1e6, seed=5)
    dec = rd.decompose(m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vf._decomposition_checks(m, dec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 40 * n * n * 8


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_suite_extreme_scale(exponent):
    # every check is relative and m is brought to unit scale by an exact
    # power of two, so 2^k m reports exactly the checks of m
    spec = vf.PlantedSpectrum((0.5, -1.0), ((0.3, 1.1), (-0.7, 0.6)), basis_seed=3)
    m = vf.gen_test_matrix(spec)
    base = vf.run_identity_suite(m)
    assert base.overall
    assert vf.run_identity_suite(m * 2.0**exponent).checks == base.checks


@pytest.mark.parametrize("exponent", [-300, 300, -600, 600])
def test_checks_keep_their_verdicts_under_an_exact_rescaling_of_the_splits(exponent):
    # b, p -> 2^e b, 2^e p and d, q -> 2^-e d, 2^-e q (a and c alike, so that
    # B_real -> 2^e B_real) leave every term, nu and every core as they are;
    # the rank-two factors of the form comparisons then lie 2^2|e| apart, and
    # their R factors still give the norms; at |e| = 600 a vector's squared
    # norm overflows or underflows, so every vector norm is taken safely
    m = _repeated_pair()
    dec = rd.decompose(m)
    up, down = 2.0**exponent, 2.0**-exponent
    scaled = rd.SpectralDecomposition(dec.alpha, dec.sigma, dec.omega, dec.right * up, dec.left * down)
    tolerances = dict(vf._TOLERANCES, reconstruction=rd.DEFAULT_TOL)
    got, want = vf._decomposition_checks(m, scaled), vf._decomposition_checks(m, dec)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, residual), (_, reference) in zip(got, want):
        assert np.isfinite(residual), name
        assert (residual <= tolerances[name]) == (reference <= tolerances[name]), name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(-300, 300), min_size=6, max_size=6))
@example(3, [0, 0, 0, -40, -40, -40])
@example(3, [-600] * 6)
@example(3, [600] * 6)
def test_checks_keep_their_verdicts_when_each_term_is_scaled_on_its_own(seed, exponents):
    # term i's right vectors times 2^e_i and its left ones times 2^-e_i leave
    # every term's matrix as it is, and every residual stays as it was:
    # biorthogonality takes each cross term d_i.x_j over its own
    # ||d_i|| ||x_j|| (over pair i's ||d|| ||b|| + ||q|| ||p||, the example,
    # whose pairs' (b, p) are times 2^-40 and (d, q) times 2^40, read 1.6e-3
    # against 1e-10), and eigen_action and annihilation each image over its
    # vector's own norms before ||left|| (over their product, the absolute
    # floor 1e-14 took over below 2^-46 and annihilation read 0)
    spec = vf.PlantedSpectrum((0.5, -1.0, 1.5), ((0.2, 1.0), (-0.7, 0.4), (1.1, 2.0)), basis_seed=seed)
    m = vf.gen_test_matrix(spec)
    m = m / pow2_scale(m)  # as run_identity_suite brings m to unit scale
    dec = rd.decompose(m)
    j, k = len(dec.alpha), len(dec.sigma)
    # each term's factor on its one (real) or two (pair) rows
    up = np.repeat(2.0 ** np.array(exponents[:j + k], dtype=float), [1] * j + [2] * k)[:, None]
    scaled = rd.SpectralDecomposition(dec.alpha, dec.sigma, dec.omega, dec.right * up, dec.left / up)
    tolerances = dict(vf._TOLERANCES, reconstruction=rd.DEFAULT_TOL)
    got, want = dict(vf._decomposition_checks(m, scaled)), dict(vf._decomposition_checks(m, dec))
    assert list(got) == list(want)
    for name, reference in want.items():
        assert (got[name] <= tolerances[name]) == (reference <= tolerances[name]), name
    assert want["biorthogonality"] <= tolerances["biorthogonality"]
    for name, reference in want.items():
        assert got[name] == pytest.approx(reference, rel=1e-12, abs=0.0), name
