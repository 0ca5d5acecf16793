import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geospectral import cli, matio
from geospectral import eigensolve as eg
from geospectral import geoalg as ga
from geospectral import realdecomp as rd
from geospectral.cli import _draw_spectrum
from geospectral.densecore import frobenius_norm, pow2_scale
from geospectral.errors import DegeneratePairError, NotDiagonalizableError, ShapeError
from geospectral.verify import PlantedSpectrum, gen_test_matrix
from test_properties import UNDERFLOWING_PAIR

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _decomposition(*terms):
    """The decomposition of terms, real and plane terms each in their given
    order, without diagnostics: their eigenvalues, and their vectors
    stacked into the rows right (each a, then each pair's b, p) and left
    (each c, then each pair's d, q), so that constructing it is the terms'
    one check.  The vectors of each side must share one length."""
    real = [t for t in terms if isinstance(t, rd.RealTerm)]
    plane = [t for t in terms if isinstance(t, rd.ComplexPlaneTerm)]
    right = [t.a for t in real] + [v for t in plane for v in (t.b, t.p)]
    left = [t.c for t in real] + [v for t in plane for v in (t.d, t.q)]
    eigs = ([t.alpha for t in real], [t.sigma for t in plane], [t.omega for t in plane])
    rows = (np.array(v, dtype=float) if v else np.zeros((0, 0)) for v in (right, left))
    return rd.SpectralDecomposition(*(np.array(x, dtype=float) for x in eigs), *rows)


def lone_term_stacks(t):
    """The one term t alone, whose vectors may be of any length (a
    decomposition of one term has n = 1 or 2), as the fields term_stacks
    reads: its eigenvalues, its rows right and left, the c.a, Gram and nu
    the check computes from those rows and the eigenvalues' power of two s;
    returned with its term_stacks w and cores."""
    real = isinstance(t, rd.RealTerm)
    right, left = ([t.a], [t.c]) if real else ([t.b, t.p], [t.d, t.q])
    right, left = np.array(right, dtype=float), np.array(left, dtype=float)
    alpha, sigma, omega = (np.array(x, dtype=float) for x in
                           (([t.alpha], [], []) if real else ([], [t.sigma], [t.omega])))
    ca, gram, nu = rd._grams(right, left, len(alpha))
    lone = SimpleNamespace(alpha=alpha, sigma=sigma, omega=omega, right=right, left=left, ca=ca,
                           gram=gram, nu=nu, s=pow2_scale(np.concatenate((alpha, sigma, omega))))
    return (lone, *rd.term_stacks(lone))


def _pipeline_terms(seeds):
    for seed in seeds:
        spec = PlantedSpectrum((1.5, -0.4), ((0.6, 1.2), (-0.9, 0.8)), basis_seed=seed)
        m = gen_test_matrix(spec)
        dec = rd.decompose(m)
        yield m, dec


def test_biorthogonality_residual_pipeline():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            r1, r2 = t.d @ t.b - t.q @ t.p, t.q @ t.b + t.d @ t.p
            assert abs(r1) <= 1e-10
            assert abs(r2) <= 1e-10


def test_nu_hand_example():
    assert rd.ComplexPlaneTerm(1.0, 2.0, E1, E2, E1, E2).nu == 1.0


def test_nu_degenerate():
    b = np.array([0.0, 0.0, 1.0])
    d = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    # a real term on b makes the length j + 2k = 3
    with pytest.raises(DegeneratePairError):
        _decomposition(rd.RealTerm(1.0, b, b), rd.ComplexPlaneTerm(1.0, 2.0, b, d, d, q))


def test_nu_homogeneity():
    rng = np.random.default_rng(0)
    b, p, d, q = (rng.standard_normal(4) for _ in range(4))
    scaled = rd.ComplexPlaneTerm(1.0, 2.0, 3.0 * b, p, 2.0 * d, 2.0 * q)
    assert scaled.nu == pytest.approx(36.0 * rd.ComplexPlaneTerm(1.0, 2.0, b, p, d, q).nu)


def _unit_term(sigma, omega):
    return rd.ComplexPlaneTerm(sigma, omega, E1, E2, E1, E2)


def test_plane_term_hand_examples():
    np.testing.assert_allclose(
        ga.plane_term_left_form(_unit_term(1.0, 2.0)), [[1.0, 2.0], [-2.0, 1.0]]
    )
    np.testing.assert_allclose(
        ga.plane_term_left_form(_unit_term(0.0, 1.0)), [[0.0, 1.0], [-1.0, 0.0]]
    )
    np.testing.assert_allclose(
        ga.plane_term_right_form(_unit_term(1.0, 2.0)), [[1.0, 2.0], [-2.0, 1.0]]
    )
    np.testing.assert_allclose(
        ga.plane_term_right_form(_unit_term(0.0, 1.0)), [[0.0, 1.0], [-1.0, 0.0]]
    )


def test_plane_term_embedded_block():
    e = np.eye(3)
    t = rd.ComplexPlaneTerm(1.0, 2.0, e[:, 0], e[:, 1], e[:, 0], e[:, 1])
    expected = np.zeros((3, 3))
    expected[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    np.testing.assert_allclose(ga.plane_term_left_form(t), expected)


def test_form_equality_pipeline():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            left = ga.plane_term_left_form(t)
            right = ga.plane_term_right_form(t)
            assert frobenius_norm(left - right) <= 1e-10 * frobenius_norm(left)


def test_plane_forms_match_outer_and_wedge():
    # the forms written with np.outer and geoalg.wedge, as they were first
    # defined: the broadcast products give the same values bit for bit
    def outer_left(t):
        bracket = t.omega * (np.outer(t.d, t.d) + np.outer(t.q, t.q)) - t.sigma * ga.wedge(t.d, t.q)
        return (np.outer(t.b, t.p @ bracket) - np.outer(t.p, t.b @ bracket)) / t.nu

    def outer_right(t):
        bracket = t.omega * (np.outer(t.b, t.b) + np.outer(t.p, t.p)) - t.sigma * ga.wedge(t.b, t.p)
        return (np.outer(bracket @ t.d, t.q) - np.outer(bracket @ t.q, t.d)) / t.nu

    rng = np.random.default_rng(9)
    terms = [t for _, dec in _pipeline_terms(range(3)) for t in dec.plane_terms]
    for n in (2, 5, 48):
        b, p, d, q = (rng.standard_normal(n) for _ in range(4))
        terms.append(rd.ComplexPlaneTerm(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0), b, p, d, q))
    for t in terms:
        np.testing.assert_array_equal(ga.plane_term_left_form(t), outer_left(t))
        np.testing.assert_array_equal(ga.plane_term_right_form(t), outer_right(t))


def test_real_rank_one_term():
    # the term's matrix is its one-term stacks' w^T left
    for alpha, a, c, want in ((2.0, E1, [1.0, 1.0], [[2.0, 2.0], [0.0, 0.0]]),
                              (0.0, [1.0, 2.0], [3.0, 1.0], np.zeros((2, 2))),
                              (5.0, E1, E1, np.diag([5.0, 0.0]))):
        lone, w, _ = lone_term_stacks(rd.RealTerm(alpha, np.array(a), np.array(c)))
        np.testing.assert_array_equal((w.T @ lone.left) * lone.s, want)


def test_plane_term_factors_match_left_form():
    # b, p, d, q are unrelated random vectors, so this holds only if the
    # core is the exact identity, not a shortcut assuming d^dag b = 1
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 12):
        for _ in range(10):
            b, p, d, q = (rng.standard_normal(n) for _ in range(4))
            sigma, omega = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)
            t = rd.ComplexPlaneTerm(sigma, omega, b, p, d, q)
            lone, w, _ = lone_term_stacks(t)
            left = ga.plane_term_left_form(t)
            assert frobenius_norm((w.T @ lone.left) * lone.s - left) <= 1e-13 * frobenius_norm(left)


def test_real_term_degenerate_pairing_rejected():
    # a second, well-paired real term makes the length j + 2k = 2
    with pytest.raises(DegeneratePairError):
        _decomposition(rd.RealTerm(1.0, E1, E2), rd.RealTerm(1.0, E2, E2))


def test_term_with_subnormal_c_a_or_nu_rejected():
    # RealTerm(1, [3e-162], [3e-162]) is the 1x1 matrix [[1]], but its
    # c.a = 9e-324 is subnormal and its core 1 / c.a overflows; the pair of
    # [[1, 2], [-2, 1]] with b, p, d, q times 1e-80 has a subnormal
    # nu = 2.5e-321, which has lost most of its digits
    with pytest.raises(DegeneratePairError, match="c.a"):
        _decomposition(rd.RealTerm(1.0, np.array([3e-162]), np.array([3e-162])))
    t = rd.decompose(np.array([[1.0, 2.0], [-2.0, 1.0]])).plane_terms[0]
    with pytest.raises(DegeneratePairError, match="nu"):
        _decomposition(rd.ComplexPlaneTerm(t.sigma, t.omega,
                                           *(1e-80 * v for v in (t.b, t.p, t.d, t.q))))
    # at the bottom of the normal range the real core is finite, and here exact
    tiny = np.finfo(float).tiny
    dec = _decomposition(rd.RealTerm(1.0, np.array([tiny]), np.array([1.0])))
    assert rd.reconstruct(dec).tolist() == [[1.0]]
    assert rd.apply(dec, [2.0]).tolist() == [2.0]
    # a -> 2^e a, c -> 2^-e c (b, p and d, q alike) leaves each term's matrix
    # and so its verdict as it is: every norm is safe from overflow and
    # underflow, and none raises a warning (an error under pytest's settings);
    # a second real term on e_2 makes the length-2 cases' j + 2k = 2
    for e in (-600, -515, 515, 600):
        r = 2.0**e
        _decomposition(rd.RealTerm(1.0, np.array([r]), np.array([1 / r])))
        _decomposition(rd.RealTerm(1.0, np.array([r, 0.0]), np.array([1 / r, 0.0])),
                       rd.RealTerm(1.0, E2, E2))
        with pytest.raises(DegeneratePairError, match="c.a"):
            _decomposition(rd.RealTerm(1.0, np.array([r, 0.0]), np.array([1e-13, 1.0]) / r),
                           rd.RealTerm(1.0, E2, E2))
        scaled = rd.ComplexPlaneTerm(t.sigma, t.omega, r * t.b, r * t.p, t.d / r, t.q / r)
        _decomposition(scaled)
        assert scaled.nu == t.nu
    # (b, p) -> 2^e (b, p) alone leaves the term's matrix as it is and scales
    # nu = 1/4 by 2^2e: finite up to e = 512, where only the degeneracy
    # floor's (|d| |b| + |q| |b|)^2 would overflow, and refused from 513 on
    for e in (511, 512):
        r = 2.0**e
        scaled = rd.ComplexPlaneTerm(t.sigma, t.omega, r * t.b, r * t.p, t.d, t.q)
        _decomposition(scaled)
        assert scaled.nu == t.nu * r * r
    for e in (513, 600):
        r = 2.0**e
        with pytest.raises(DegeneratePairError, match="nu = inf"):
            _decomposition(rd.ComplexPlaneTerm(t.sigma, t.omega, r * t.b, r * t.p, t.d, t.q))


def test_plane_term_computes_nu():
    rng = np.random.default_rng(6)
    b, p, d, q = (rng.standard_normal(5) for _ in range(4))
    nu = float(np.add.reduce(d * b)) ** 2 + float(np.add.reduce(q * b)) ** 2
    assert rd.ComplexPlaneTerm(0.5, 1.5, b, p, d, q).nu == nu


@pytest.mark.parametrize("real", [True, False], ids=["real-term", "plane-term"])
def test_overflowing_dot_is_refused_as_degenerate(real):
    # finite vectors whose products overflow to +inf and -inf: c.a (d.b,
    # with q.b = 0) is NaN, which the check refuses as degenerate, with no
    # numpy warning (an error here) on the way; a second real term on e_2
    # makes j + 2k = 2
    big = 2.0**600
    a, c = np.array([big, big]), np.array([big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePairError, match="= nan"):
            if real:
                _decomposition(rd.RealTerm(1.0, a, c), rd.RealTerm(2.0, E2, E2))
            else:
                _decomposition(rd.ComplexPlaneTerm(1.0, 2.0, a, E2, c, np.array([1.0, -1.0])))


def test_decomposition_keeps_its_checked_factors_read_only():
    # the rows, eigenvalues, c.a and nu are those of the terms, whose vectors
    # are views of the rows, and none of them can be written afterwards
    _, dec = next(_pipeline_terms([0]))
    j, k = len(dec.real_terms), len(dec.plane_terms)
    rows = [t.a for t in dec.real_terms] + [v for t in dec.plane_terms for v in (t.b, t.p)]
    np.testing.assert_array_equal(dec.right, rows)
    rows = [t.c for t in dec.real_terms] + [v for t in dec.plane_terms for v in (t.d, t.q)]
    np.testing.assert_array_equal(dec.left, rows)
    assert dec.alpha.tolist() == [t.alpha for t in dec.real_terms]
    assert (dec.sigma.tolist(), dec.omega.tolist()) == ([t.sigma for t in dec.plane_terms],
                                                        [t.omega for t in dec.plane_terms])
    assert dec.ca.tolist() == [float(np.add.reduce(t.c * t.a)) for t in dec.real_terms]
    assert dec.nu.tolist() == [t.nu for t in dec.plane_terms]
    assert (len(dec.ca), len(dec.nu)) == (j, k)
    for name in ("right", "left", "alpha", "sigma", "omega", "ca", "gram", "nu"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dec, name)[0] = 1.0
        # each is a view of a read-only owner, which numpy will not make
        # writeable again: a write could not leave nu stale
        with pytest.raises(ValueError, match="WRITEABLE"):
            getattr(dec, name).flags.writeable = True
    # every term vector is a read-only view of the rows: B_real^T is stored once
    assert all(np.shares_memory(dec.right, t.a) and np.shares_memory(dec.left, t.c)
               for t in dec.real_terms)
    assert all(np.shares_memory(dec.right, v) for t in dec.plane_terms for v in (t.b, t.p))
    assert all(np.shares_memory(dec.left, v) for t in dec.plane_terms for v in (t.d, t.q))
    for t in dec.real_terms + dec.plane_terms:
        for name in ("a", "c") if isinstance(t, rd.RealTerm) else "bpdq":
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[:] = 7.0
    # == is identity, so a decomposition hashes as any object does
    assert dec == dec and dec != rd.decompose(_corpus_matrix(0)) and hash(dec) == hash(dec)
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    assert rd.decompose(m) != rd.decompose(m)
    assert len({rd.decompose(m), rd.decompose(m)}) == 2
    # rows given as views of an array its caller keeps are copied, so a
    # later write there changes neither the decomposition nor its kept nu
    rows = np.concatenate((dec.right, dec.left))
    n, reconstructed = len(dec.right), rd.reconstruct(dec)
    view_dec = rd.SpectralDecomposition(dec.alpha, dec.sigma, dec.omega, rows[:n], rows[n:])
    rows[:] = 7.0
    np.testing.assert_array_equal(view_dec.right, dec.right)
    np.testing.assert_array_equal(view_dec.left, dec.left)
    np.testing.assert_array_equal(rd.reconstruct(view_dec), reconstructed)
    assert view_dec.nu.tolist() == [t.nu for t in view_dec.plane_terms] == dec.nu.tolist()


def _ragged_report():
    """A report of one pair whose q is an entry longer than its other
    vectors: the loader stacks term vectors into rows."""
    term = {"sigma": 1.0, "omega": 2.0, "b": [1.0, 0.0], "p": [0.0, 1.0], "d": [1.0, 0.0],
            "q": [0.0, 1.0, 0.0]}
    return matio.doc_to_decomposition(
        {"schema_version": matio.SCHEMA_VERSION, "dim": 2, "real_terms": [],
         "plane_terms": [term], "diagnostics": {"reconstruction_residual": 0.0, "basis_rcond": 1.0}})


def test_plane_term_vectors_must_share_shape():
    one, two, none = np.ones(1), np.array([1.0, 2.0]), np.empty(0)
    with pytest.raises(ShapeError, match="term vectors must be of length j \\+ 2k = 2"):
        _ragged_report()
    # the rows constructor's own refusals: right or left not (n, n) with
    # n = j + 2k, the two of different shapes, an omega per sigma missing
    for args in ((one, none, none, np.eye(2), np.eye(2)),
                 (two, none, none, np.eye(2)[:1], np.eye(2)),
                 (two, none, none, np.eye(2), np.eye(2)[:, :1]),
                 (none, one, one, np.eye(2), np.eye(3)),
                 (none, one, none, np.eye(2), np.eye(2)),
                 (none, one, two, np.eye(2), np.eye(2))):
        with pytest.raises(ShapeError, match="rows must be"):
            rd.SpectralDecomposition(*args)


def test_nu_rejects_nan():
    # finite vectors whose products d_i b_i overflow to +inf and -inf: d.b
    # and so nu are NaN
    b, d, q = np.array([2.0**600, 2.0**600]), np.array([2.0**600, -(2.0**600)]), np.array([1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegeneratePairError, match="nu = nan"):
        _decomposition(rd.ComplexPlaneTerm(1.0, 2.0, b, E2, d, q))


_TINY = float(np.finfo(float).tiny)


def _oracle(real_terms, plane_terms):
    """The exception type the decomposition's check must raise on the terms,
    or None, each condition stated term by term with frobenius_norm: any
    shape fault (a vector not of length j + 2k, an eigenvalue out of range,
    a non-finite entry) is a ShapeError, else any degenerate c.a or nu is
    a DegeneratePairError."""
    n = len(real_terms) + 2 * len(plane_terms)
    vectors = ([v for t in real_terms for v in (t.a, t.c)]
               + [v for t in plane_terms for v in (t.b, t.p, t.d, t.q)])
    if (any(v.shape != (n,) for v in vectors)
            or not all(math.isfinite(t.alpha) for t in real_terms)
            or not all(math.isfinite(t.sigma) and 0.0 < t.omega < math.inf for t in plane_terms)
            or not all(np.isfinite(v).all() for v in vectors)):
        return ShapeError
    for t in real_terms:
        ca = float(np.add.reduce(t.c * t.a))
        if abs(ca) <= 1e-12 * (frobenius_norm(t.c) * frobenius_norm(t.a)) or abs(ca) < _TINY:
            return DegeneratePairError
    for t in plane_terms:
        try:
            nu = float(np.add.reduce(t.d * t.b)) ** 2 + float(np.add.reduce(t.q * t.b)) ** 2
        except OverflowError:
            nu = math.inf
        norm_b, norm_d, norm_q = map(frobenius_norm, (t.b, t.d, t.q))
        root = norm_d * norm_b + norm_q * norm_b
        if not (1e-24 * root * root < nu < math.inf and nu >= _TINY):
            return DegeneratePairError
    return None


def _perp(v):
    """A vector exactly orthogonal to v: its first two entries swapped, one
    negated, so the dot's two products cancel (zero if len(v) < 2)."""
    out = np.zeros_like(v)
    if len(v) >= 2:
        out[0], out[1] = -v[1], v[0]
    return out


_ENTRIES = [0.0, -0.0, 5e-324, 2.0**-1000, 2.0**1000, -(2.0**1000), np.nan, np.inf, -np.inf]
_SCALES = [0.0, 2.0**-1000, 2.0**1000, 2.0**-600, 2.0**600]
_EIGENVALUES = [0.0, -0.0, -1.0, 5e-324, np.nan, np.inf, -np.inf]
# c = perp(a) + eps a: c.a / (|c| |a|) is at least about eps, against the
# floor 1e-12 (2^-39.9); d = perp(b) + eps b: nu / root^2 is about eps^2 / 4,
# so 2^-39 and below fall under the relative floor 1e-24 and 2^-38 pass it
_EPS = [0.0, 2.0**-45, 2.0**-39, 2.0**-38, 2.0**-30]
_FAULTS = st.tuples(
    st.sampled_from(["entry", "scale", "eigenvalue", "orthogonal", "nu", "tiny-nu", "length"]),
    st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**32 - 1), st.lists(_FAULTS, max_size=3))
def test_the_one_check_accepts_what_the_per_term_oracle_accepts(j, k, seed, faults):
    # well-paired random terms, then each fault on one term: an entry or a
    # whole vector set to zero, subnormal, 2^+-1000-scaled, NaN or inf; an
    # eigenvalue out of range; c (nearly) orthogonal to a; nu below the
    # relative floor or at and below the normal range; one side's vectors
    # an entry short
    n = j + 2 * k
    rng = np.random.default_rng(seed)
    reals = [[float(rng.standard_normal()), *rng.standard_normal((2, n))] for _ in range(j)]
    pairs = [[float(rng.standard_normal()), float(rng.uniform(0.1, 2.0)),
              *rng.standard_normal((4, n))] for _ in range(k)]
    short = set()  # the sides a length fault cuts: False for right, True for left
    for kind, i, v, x in faults if j + k else ():
        term = (reals + pairs)[i % (j + k)]
        real = len(term) == 3
        slot = 1 + v % 2 if real else 2 + v % 4  # one of the term's vectors
        vec = term[slot]
        if kind == "entry" and len(vec):
            vec[x // len(_ENTRIES) % len(vec)] = _ENTRIES[x % len(_ENTRIES)]
        elif kind == "scale":
            with np.errstate(over="ignore"):
                term[slot] = vec * _SCALES[x % len(_SCALES)]
        elif kind == "eigenvalue":
            term[v % (1 if real else 2)] = _EIGENVALUES[x % len(_EIGENVALUES)]
        elif kind == "orthogonal" and real:
            term[2] = _perp(term[1]) + _EPS[x % len(_EPS)] * term[1]
        elif kind == "nu" and not real:
            b = term[2]
            term[4], term[5] = _perp(b) + _EPS[x % len(_EPS)] * b, _perp(b)
        elif kind == "tiny-nu" and not real:
            # d.b = 2^-511 or 2^-512 and q.b = 0: nu = 2^-1022, the least
            # normal float, which passes, or 2^-1024, which does not
            e = np.eye(n)[v % n]
            term[2:] = [2.0**-255 * e, e, 2.0**-(256 + x % 2) * e, np.zeros(n)]
        elif kind == "length":
            short.add(slot == 2 if real else slot >= 4)
    # a length fault cuts every vector on its slot's side (right: a, b, p;
    # left: c, d, q) an entry short, once the other faults are in, so that
    # the side's rows are n x (n - 1)
    for left in short:
        for t in reals + pairs:
            for i in ((2,) if left else (1,)) if len(t) == 3 else ((4, 5) if left else (2, 3)):
                t[i] = t[i][:-1]
    real_terms = tuple(rd.RealTerm(*t) for t in reals)
    plane_terms = tuple(rd.ComplexPlaneTerm(*t) for t in pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _oracle(real_terms, plane_terms)
        if want is None:
            _decomposition(*real_terms, *plane_terms)
        else:
            with pytest.raises(want):
                _decomposition(*real_terms, *plane_terms)


@pytest.mark.parametrize(
    "vectors",
    [np.eye(3)[:, [0, 1, 0, 1]].T, [E1, np.array([np.inf, 1.0]), E1, E2]],
    ids=["length", "infinite"],
)
def test_decomposition_rejects_bad_term_vectors(vectors):
    # one pair, so every vector must be finite and of length j + 2k = 2
    with pytest.raises(ShapeError):
        _decomposition(rd.ComplexPlaneTerm(1.0, 2.0, *vectors))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", "acbpdq")
def test_term_rejects_non_finite_vector(field, bad):
    # refused as a shape error before c.a or nu is computed, so neither a
    # DegeneratePairError nor a numpy warning (an error under pytest's
    # settings) comes first; a lone real term's vectors are of length 1
    names = "ac" if field in "ac" else "bpdq"
    vectors = np.array([[1.0], [1.0]]) if names == "ac" else np.array([E1, E2, E1, E2])
    vectors[names.index(field), -1] = bad
    with pytest.raises(ShapeError, match="finite"):
        if names == "ac":
            _decomposition(rd.RealTerm(1.0, *vectors))
        else:
            _decomposition(rd.ComplexPlaneTerm(1.0, 2.0, *vectors))


@pytest.mark.parametrize(
    "build",
    [
        lambda: rd.ComplexPlaneTerm(1.0, 0.0, E1, E2, E1, E2),
        lambda: rd.ComplexPlaneTerm(1.0, np.nan, E1, E2, E1, E2),
        lambda: rd.ComplexPlaneTerm(1.0, np.inf, E1, E2, E1, E2),
        lambda: rd.ComplexPlaneTerm(np.nan, 1.0, E1, E2, E1, E2),
        lambda: rd.RealTerm(np.nan, E1[:1], E1[:1]),
        lambda: rd.RealTerm(-np.inf, E1[:1], E1[:1]),
    ],
    ids=["zero-omega", "nan-omega", "infinite-omega", "nan-sigma", "nan-alpha", "infinite-alpha"],
)
def test_term_rejects_out_of_range_eigenvalue(build):
    # a typed error, so the CLI maps it to an exit code
    with pytest.raises(ShapeError, match="finite"):
        _decomposition(build())


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


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
def test_decompose_rejects_non_positive_tol(tol):
    # a NaN tolerance would pass every residual through `resid > tol`
    with pytest.raises(ValueError):
        rd.decompose(np.array([[1.0, 2.0], [-2.0, 1.0]]), tol)


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


@pytest.mark.parametrize(
    "m",
    [np.diag([1.5e308, 1.5e308]), np.array([[1e308, 1e308], [0.0, 1.5e308]])],
    ids=["diagonal", "triangular"],
)
def test_decompose_frobenius_norm_overflow(m):
    # every entry is finite but ||M||_F is not
    dec = rd.decompose(m)
    assert dec.plane_terms == ()
    assert sorted(t.alpha for t in dec.real_terms) == sorted(np.diag(m))
    assert dec.diagnostics.reconstruction_residual <= 1e-12


def test_decompose_plane_core_near_overflow():
    # the pair 1e308 +- 1e308 i: W = U C and M are finite, C itself is not
    m = np.array([[1e308, 1e308], [-1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = rd.decompose(m)
        (t,) = dec.plane_terms
        assert t.sigma == pytest.approx(1e308, rel=1e-15)
        assert t.omega == pytest.approx(1e308, rel=1e-15)
        assert dec.diagnostics.reconstruction_residual <= 1e-12
        np.testing.assert_allclose(rd.reconstruct(dec), m, rtol=1e-15)
        for x in (E1, E2):
            np.testing.assert_allclose(rd.apply(dec, x), m @ x, rtol=1e-15)


@pytest.mark.parametrize("k",[-600, -37, 41, 600])
def test_decompose_scale_equivariant(k):
    # every stage is equivariant under an exact power-of-two scale: the
    # vectors come out bitwise identical, the eigenvalues exactly scaled;
    # the generated matrix is Fortran-ordered, and its C-ordered copy
    # gives the same bits too
    for m, base in _pipeline_terms(range(3)):
        for x in (m * 2.0**k, np.ascontiguousarray(m) * 2.0**k):
            dec = rd.decompose(x)
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


@pytest.mark.parametrize("m", [[[1 + 1j, 2], [0, 3]], [[1, 2], [3]]], ids=["complex", "ragged"])
def test_decompose_rejects_complex_and_ragged_input(m):
    # a complex entry is refused, not truncated to its real part
    with pytest.raises(ShapeError):
        rd.decompose(m)


@pytest.mark.parametrize("x", [[1 + 5j, 1], [[1, 2], 3]], ids=["complex", "ragged"])
def test_apply_rejects_complex_and_ragged_input(x):
    dec = rd.decompose([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ShapeError):
        rd.apply(dec, x)


def test_decomposition_derives_dim():
    m = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    assert rd.decompose(m).dim == 3
    assert rd.decompose(np.eye(2)).dim == 2


def test_real_canonical_form_hand_cases():
    m = np.array([[1.0, 2.0], [-2.0, 1.0]])
    b_real, l_real, _ = rd.real_canonical_form(rd.decompose(m))
    np.testing.assert_allclose(l_real, m, atol=1e-12)
    # b is a unit complex phase of (e1 + i e2); columns stay orthonormal
    np.testing.assert_allclose(b_real @ b_real.T, np.eye(2) / 2.0, atol=1e-12)

    b_real, l_real, _ = rd.real_canonical_form(rd.decompose(np.diag([5.0, 6.0])))
    np.testing.assert_allclose(l_real, np.diag([5.0, 6.0]), atol=1e-12)

    m = np.zeros((3, 3))
    m[0, 0] = 4.0
    m[1:, 1:] = [[0.0, 1.0], [-1.0, 0.0]]
    _, l_real, _ = rd.real_canonical_form(rd.decompose(m))
    np.testing.assert_allclose(l_real, m, atol=1e-12)


def test_real_canonical_form_similarity():
    for m, dec in _pipeline_terms(range(5)):
        b_real, l_real, b_inv = rd.real_canonical_form(dec)
        for inverse in (np.linalg.inv(b_real), b_inv):
            resid = frobenius_norm(b_real @ l_real @ inverse - m)
            assert resid <= 1e-9 * frobenius_norm(m)


def test_transpose_term():
    t = _unit_term(1.0, 2.0)
    tt = ga.transpose_term(t)
    np.testing.assert_allclose(
        ga.plane_term_left_form(tt), [[1.0, -2.0], [2.0, 1.0]]
    )
    # symmetric-case term (d=b, q=p) transposes to itself
    sym = ga.transpose_term(_unit_term(0.5, 1.5))
    np.testing.assert_allclose(
        ga.plane_term_left_form(sym), ga.plane_term_left_form(_unit_term(0.5, 1.5)).T
    )

    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            left = ga.plane_term_left_form(t)
            swapped = ga.plane_term_left_form(ga.transpose_term(t))
            assert frobenius_norm(swapped - left.T) <= 1e-12 * frobenius_norm(left)


def test_plane_term_eigen_action():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            mat = ga.plane_term_left_form(t)
            scale = frobenius_norm(mat) * (np.linalg.norm(t.b) + np.linalg.norm(t.p))
            assert np.linalg.norm(mat @ t.b - (t.sigma * t.b - t.omega * t.p)) <= 1e-9 * scale
            assert np.linalg.norm(mat @ t.p - (t.omega * t.b + t.sigma * t.p)) <= 1e-9 * scale


def test_plane_term_annihilates_other_eigenvectors():
    for _, dec in _pipeline_terms(range(5)):
        for t in dec.plane_terms:
            mat = ga.plane_term_left_form(t)
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
            base = ga.plane_term_left_form(t)
            for theta in rng.uniform(0.0, 2.0 * np.pi, 100):
                c, s = np.cos(theta), np.sin(theta)
                b = c * t.b - s * t.p
                p = s * t.b + c * t.p
                d = c * t.d - s * t.q
                q = s * t.d + c * t.q
                rot = rd.ComplexPlaneTerm(t.sigma, t.omega, b, p, d, q)
                diff = frobenius_norm(ga.plane_term_left_form(rot) - base)
                assert diff <= 1e-10 * frobenius_norm(base)


def test_conjugate_pair_symmetry():
    # the conjugate eigenvalue sigma - i omega with splits (b, -p), (d, -q)
    flip = np.array([1.0, -1.0])
    for _, dec in _pipeline_terms(range(3)):
        for t in dec.plane_terms:
            base = ga.plane_term_left_form(t)
            lone, _, _ = lone_term_stacks(t)
            u, v = lone.right.T * flip, lone.left.T * flip
            conj = u @ rd.plane_core(t.sigma, -t.omega, u.T @ v, t.nu) @ v.T
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


def _term_matrix(t):
    """The n x n matrix of one term, U C V^T from its one-term stacks."""
    lone, w, _ = lone_term_stacks(t)
    return (w.T @ lone.left) * lone.s


def _kappa(t):
    """The term's eigenvalue condition number ||x|| ||y|| / |y^H x|: for a
    real term ||a|| ||c|| / |c.a|; for a pair x = b + ip and y = d + iq,
    whose |y^H x| is 2 sqrt(nu)."""
    if isinstance(t, rd.RealTerm):
        return frobenius_norm(t.a) * frobenius_norm(t.c) / abs(float(t.c @ t.a))
    return (frobenius_norm(np.array([t.b, t.p])) * frobenius_norm(np.array([t.d, t.q]))
            / (2.0 * math.sqrt(t.nu)))


# the largest move / (kappa_i kappa_max sqrt(n) eps ||M||_F / gap_i) measured
# on the test's own recipe was 11.3 (3,000 draws, each under an orthogonal
# and a permutation similarity); 50 leaves a margin of 4.  Without
# kappa_max, the largest kappa of any term, the ratio reached 1,777 on the
# same draws: a term also moves with its neighbours' conditioning
_COVARIANCE_C = 50.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**20), st.booleans())
def test_terms_are_covariant_under_orthogonal_similarity(i, permutation):
    # every term of decompose(Q M Q^T) is Q term Q^T to within
    # C kappa_i kappa_max sqrt(n) eps ||M||_F / gap_i, gap_i the distance
    # from its eigenvalue to the nearest other one (a pair's conjugate
    # included), for a random orthogonal Q and a random permutation; the
    # corpus recipe's eigenvalues are at least 0.05 apart, so none is
    # repeated
    m = _corpus_matrix(i)
    n = len(m)
    rng = np.random.default_rng([29, i])
    if permutation:
        q = np.eye(n)[rng.permutation(n)]
    else:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
    dec, moved = rd.decompose(m), rd.decompose(q @ m @ q.T)
    terms = dec.real_terms + dec.plane_terms
    lam = np.array([t.alpha for t in dec.real_terms]
                   + [complex(t.sigma, t.omega) for t in dec.plane_terms])
    spectrum = np.concatenate((lam, lam[len(dec.real_terms):].conj()))
    assert (len(moved.real_terms), len(moved.plane_terms)) == (len(dec.real_terms), len(dec.plane_terms))
    unit = max(map(_kappa, terms)) * math.sqrt(n) * np.finfo(float).eps * frobenius_norm(m)
    for u in moved.real_terms + moved.plane_terms:
        mu = u.alpha if isinstance(u, rd.RealTerm) else complex(u.sigma, u.omega)
        nearest = int(np.argmin(np.abs(lam - mu)))
        t = terms[nearest]
        gap = np.sort(np.abs(spectrum - lam[nearest]))[1]
        move = frobenius_norm(_term_matrix(u) - q @ _term_matrix(t) @ q.T)
        assert move <= _COVARIANCE_C * _kappa(t) * unit / gap


def _loop_rows(dec, s):
    """(right, left, w) built term by term: the rows a, c and a times its
    core for a real term, and [b; p], [d; q] and C^T [b; p] for a pair; the
    reference the batched term_stacks must equal bit for bit."""
    rows = [np.zeros((0, dec.dim))] * 3
    for t in dec.real_terms:
        core = t.alpha / s / float(np.add.reduce(t.c * t.a))
        rows += [t.a[None], t.c[None], t.a[None] * core]
    for t in dec.plane_terms:
        ut, vt = np.array([t.b, t.p]), np.array([t.d, t.q])
        core = rd.plane_core(t.sigma / s, t.omega / s, _own_gram(t), t.nu)
        rows += [ut, vt, core.T @ ut]
    return tuple(np.concatenate(rows[i::3]) for i in range(3))


def _own_gram(t):
    """The pair's U^T V = [[b.d, b.q], [p.d, p.q]], each entry summed as
    np.add.reduce sums the products of two of its vectors."""
    return np.array([[np.add.reduce(x * y) for y in (t.d, t.q)] for x in (t.b, t.p)])


def _assert_stacks_match_loop(dec):
    s = pow2_scale([t.alpha for t in dec.real_terms]
                   + [x for t in dec.plane_terms for x in (t.sigma, t.omega)])
    w, _ = rd.term_stacks(dec)
    assert dec.s == s
    refs = _loop_rows(dec, s)
    for got, want in zip((dec.right, dec.left, w), refs):
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
    right, left, w = refs
    x = np.random.default_rng(dec.dim).standard_normal(dec.dim)
    j, k = len(dec.real_terms), len(dec.plane_terms)
    eigs = (np.array([t.alpha for t in dec.real_terms], dtype=float),
            *np.array([(t.sigma, t.omega) for t in dec.plane_terms], dtype=float).reshape(-1, 2).T)
    canonical = (right.T, rd.real_block_form(*eigs), left * np.repeat([1.0, 2.0], [j, 2 * k])[:, None])
    # decompose's own decomposition and one built straight from copies of
    # its terms read the same bits off their kept factors
    copies = _decomposition(
        *(rd.RealTerm(t.alpha, t.a.copy(), t.c.copy()) for t in dec.real_terms),
        *(rd.ComplexPlaneTerm(t.sigma, t.omega, *(v.copy() for v in (t.b, t.p, t.d, t.q)))
          for t in dec.plane_terms))
    for d in (dec, copies):
        assert _bits(rd.apply(d, x)) == _bits((w.T @ (left @ x)) * s)
        assert _bits(rd.reconstruct(d)) == _bits((w.T @ left) * s)
        assert list(map(_bits, rd.real_canonical_form(d))) == list(map(_bits, canonical))


def _corpus_matrix(i):
    """The acceptance-corpus recipe: n = 2..16, uniform eigenvalues at
    least 0.05 apart, basis condition at most 1e4."""
    rng = np.random.default_rng([23, i])
    n = 2 + i % 15
    while True:
        k = int(rng.integers(0, n // 2 + 1))
        pairs = list(zip(rng.uniform(-2.0, 2.0, k), rng.uniform(0.3, 2.0, k)))
        spec = PlantedSpectrum(rng.uniform(-2.0, 2.0, n - 2 * k), pairs, basis_seed=i)
        if spec.min_separation() >= 0.05:
            return gen_test_matrix(spec)


def _dense_matrix(n, k):
    """The dense recipe: eigenvalues on jittered grids, basis condition at
    most 1e6."""
    reals, pairs = _draw_spectrum(np.random.default_rng([5, n, k]), n - 2 * k, k)
    return gen_test_matrix(PlantedSpectrum(reals, pairs, basis_seed=n + k, condition_cap=1e6))


def test_term_stacks_match_per_term_loop_corpus():
    for i in range(30):
        _assert_stacks_match_loop(rd.decompose(_corpus_matrix(i)))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("share", [0, 4, 2])
def test_term_stacks_match_per_term_loop_dense(n, share):
    k = n // share if share else 0
    dec = rd.decompose(_dense_matrix(n, k))
    assert len(dec.plane_terms) == k
    _assert_stacks_match_loop(dec)


@pytest.mark.parametrize(
    "m",
    [np.zeros((0, 0)), np.array([[-0.5]]), np.array([[1.0, 2.0], [-2.0, 1.0]]),
     np.diag([3.0, -1.0, 2.0]), np.kron(np.eye(2), [[0.5, 1.5], [-1.5, 0.5]]) + np.diag([0, 0, 1, 1])],
    ids=["n=0", "one-real", "one-pair", "only-real", "only-pairs"],
)
def test_term_stacks_edge_cases(m):
    dec = rd.decompose(m)
    j, k, n = len(dec.real_terms), len(dec.plane_terms), dec.dim
    w, cores = rd.term_stacks(dec)
    assert dec.right.shape == dec.left.shape == w.shape == (n, n)
    assert dec.alpha.shape == dec.ca.shape == (j,)
    assert dec.gram.shape == cores.shape == (k, 2, 2) and dec.nu.shape == (k,)
    _assert_stacks_match_loop(dec)
    b_real, l_real, b_inv = rd.real_canonical_form(dec)
    assert b_real.shape == l_real.shape == b_inv.shape == (n, n)
    np.testing.assert_allclose(b_real @ l_real @ np.linalg.inv(b_real), m, atol=1e-12)
    np.testing.assert_allclose(b_real @ l_real @ b_inv, m, atol=1e-12)
    np.testing.assert_allclose(b_inv @ b_real, np.eye(n), atol=1e-12)


def test_loaded_decomposition_applies_the_same_bits():
    for m in (_corpus_matrix(7), _corpus_matrix(12), _dense_matrix(64, 16)):
        dec = rd.decompose(m)
        text = json.dumps(matio.decomposition_to_doc(dec))
        loaded = matio.doc_to_decomposition(json.loads(text))
        for x in np.random.default_rng(1).standard_normal((5, dec.dim)):
            np.testing.assert_array_equal(rd.apply(loaded, x), rd.apply(dec, x))
        np.testing.assert_array_equal(rd.reconstruct(loaded), rd.reconstruct(dec))
        for got, want in zip(rd.real_canonical_form(loaded), rd.real_canonical_form(dec)):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("e", [-1000, 1000])
def test_apply_and_reconstruct_scale_exactly(e):
    for m in (_corpus_matrix(9), _corpus_matrix(14), _dense_matrix(64, 16)):
        dec, scaled = rd.decompose(m), rd.decompose(m * 2.0**e)
        x = np.random.default_rng(2).standard_normal(dec.dim)
        np.testing.assert_array_equal(rd.apply(scaled, x), rd.apply(dec, x) * 2.0**e)
        np.testing.assert_array_equal(rd.reconstruct(scaled), rd.reconstruct(dec) * 2.0**e)
        # the stacks are on the eigenvalues' own power of two, so only s moves
        assert scaled.s == dec.s * 2.0**e
        for got, want in zip(rd.term_stacks(scaled), rd.term_stacks(dec)):
            assert _bits(got) == _bits(want)
        for name in ("right", "left", "ca", "gram", "nu"):
            assert _bits(getattr(scaled, name)) == _bits(getattr(dec, name)), name
        assert (_bits(scaled.diagnostics.reconstruction_residual)
                == _bits(dec.diagnostics.reconstruction_residual))


def _reference_decompose(m):
    """decompose as it cut its terms one at a time: each term from its
    columns of basis and rows of basis_inv, then the residual on the
    term_stacks of their decomposition, which it also returns; decompose
    must equal it bit for bit."""
    m = np.ascontiguousarray(m, dtype=float)  # decompose's layout, which the norms' sums follow
    system = eg.eigensystem(m)
    right, rows = np.ascontiguousarray(system.basis.T), system.basis_inv
    real_terms, plane_terms = [], []
    starts = eg.block_starts(system.eigenvalues)
    for lam, i in zip(system.eigenvalues.tolist(), starts.tolist()):
        if lam.imag == 0.0:
            real_terms.append(rd.RealTerm(lam.real, right[i], rows[i]))
        else:
            b, p, d, q = right[i], right[i + 1], rows[i] / 2.0, rows[i + 1] / 2.0
            plane_terms.append(rd.ComplexPlaneTerm(lam.real, lam.imag, b, p, d, q))
    ref = _decomposition(*real_terms, *plane_terms)
    stacks = rd.term_stacks(ref)
    m_s = m / ref.s
    resid = frobenius_norm(stacks[0].T @ ref.left - m_s) / (frobenius_norm(m_s) or 1.0)
    return system, real_terms, plane_terms, ref, stacks, resid


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def _assert_decompose_matches_reference(m, monkeypatch):
    stacks, checked, dotted = [], [], []
    build, row_norms, grams = rd.term_stacks, rd.dc.row_norms, rd._grams
    with monkeypatch.context() as mp:
        mp.setattr(rd, "term_stacks", lambda dec: stacks.append(build(dec)) or stacks[-1])
        mp.setattr(rd.dc, "row_norms", lambda rows: checked.append(len(rows)) or row_norms(rows))
        mp.setattr(rd, "_grams", lambda right, left, j: dotted.append(len(right)) or grams(right, left, j))
        dec = rd.decompose(m)
        # the readers compute no dot product and no scale: they read the
        # c.a, Grams, nu and s the check kept
        mp.setattr(rd.dc, "pow2_scale", lambda a: dotted.append("pow2_scale"))
        rd.apply(dec, np.ones(len(m)))
        rd.reconstruct(dec)
        rd.real_canonical_form(dec)
    # decompose checks its terms once, on all 2n rows, computing every dot
    # product in one Gram pass, and its residual's stacks, as apply's and
    # reconstruct's, read what that check kept
    assert checked == [2 * len(m)]
    assert dotted == [len(m)]
    assert len(stacks) == 3
    system, real_terms, plane_terms, ref_dec, st, resid = _reference_decompose(m)
    assert len(dec.real_terms) == len(real_terms) and len(dec.plane_terms) == len(plane_terms)
    for t, ref in zip(dec.real_terms + dec.plane_terms, real_terms + plane_terms):
        assert type(t) is type(ref)
        for name, value in vars(ref).items():
            got = getattr(t, name)
            assert type(got) is type(value)
            assert _bits(got) == _bits(value), name
            if isinstance(value, np.ndarray):
                assert got.flags.c_contiguous
    # the rows, eigenvalues, c.a, Grams, nu and scale the terms stack into,
    # the rows C-ordered
    for name in ("alpha", "sigma", "omega", "right", "left", "ca", "gram", "nu", "s"):
        got, value = getattr(dec, name), getattr(ref_dec, name)
        assert _bits(got) == _bits(value), name
        if np.ndim(value) >= 2 and value.size:
            assert got.flags.c_contiguous and got.strides == value.strides, name
    # each c.a and Gram is the term's own, summed as np.add.reduce sums its
    # vectors' products, and nu is the squared norm of the Gram's first row
    assert dec.ca.tolist() == [float(np.add.reduce(t.c * t.a)) for t in dec.real_terms]
    for g, t in zip(dec.gram, dec.plane_terms):
        assert _bits(g) == _bits(_own_gram(t))
    assert _bits(dec.nu) == _bits(dec.gram[:, 0, 0] ** 2 + dec.gram[:, 0, 1] ** 2)
    # w and the cores, C-ordered as term_stacks lays them out; the stacks
    # the residual was checked on are those every reader rebuilds
    for name, got, value, again in zip(("w", "cores"), stacks[0], st, stacks[1]):
        assert _bits(got) == _bits(value) == _bits(again), name
        if np.ndim(value) >= 2 and value.size:
            assert got.flags.c_contiguous and got.strides == value.strides, name
    assert _bits(dec.diagnostics.reconstruction_residual) == _bits(resid)
    assert _bits(dec.diagnostics.basis_rcond) == _bits(system.basis_rcond)
    return dec


def test_decompose_matches_per_term_reference_corpus(monkeypatch):
    for i in range(30):
        _assert_decompose_matches_reference(_corpus_matrix(i), monkeypatch)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("share", [0, 4, 2])
def test_decompose_matches_per_term_reference_dense(n, share, monkeypatch):
    k = n // share if share else 0
    dec = _assert_decompose_matches_reference(_dense_matrix(n, k), monkeypatch)
    assert len(dec.plane_terms) == k


@pytest.mark.parametrize(
    ("m", "j", "k"),
    [
        (np.zeros((0, 0)), 0, 0),
        (np.array([[-0.5]]), 1, 0),
        (np.diag([3.0, -1.0, 2.0]), 3, 0),
        (np.kron(np.eye(2), [[0.5, 1.5], [-1.5, 0.5]]) + np.diag([0, 0, 1, 1]), 0, 2),
        # the zero cluster's computed pair has omega near 7e-12 ||M||, which
        # underflows as the eigenvalues are scaled back: a real double
        (UNDERFLOWING_PAIR.matrix(), 7, 0),
    ],
    ids=["n=0", "n=1", "only-real", "only-pairs", "underflowing-pair"],
)
def test_decompose_matches_per_term_reference_edge_cases(m, j, k, monkeypatch):
    dec = _assert_decompose_matches_reference(m, monkeypatch)
    assert (len(dec.real_terms), len(dec.plane_terms)) == (j, k)


def _assert_canonical_reads_the_eigensystem(m, path, monkeypatch):
    """real_canonical_form's B_real, L_real and B_real^-1 are the
    eigensystem's basis, real_block_form of its eigenvalues and its
    basis_inv, bit for bit, and cmd_canonical reads these factors."""
    system = eg.eigensystem(m)
    lam = system.eigenvalues
    j = len(lam) - np.count_nonzero(lam.imag)
    want = (system.basis, rd.real_block_form(lam.real[:j], lam.real[j:], lam.imag[j:]),
            system.basis_inv)
    assert list(map(_bits, rd.real_canonical_form(rd.decompose(m)))) == list(map(_bits, want))
    matio.write_matrix_market(path / "m.mtx", m)
    forms = []
    with monkeypatch.context() as mp:
        mp.setattr(cli, "real_canonical_form",
                   lambda dec: forms.append(rd.real_canonical_form(dec)) or forms[-1])
        assert cli.main(["canonical", str(path / "m.mtx"), "--output-dir", str(path)]) == 0
    [form] = forms
    assert list(map(_bits, form)) == list(map(_bits, want))


def test_canonical_reads_the_eigensystem_corpus(tmp_path, monkeypatch, capsys):
    for i in range(30):
        _assert_canonical_reads_the_eigensystem(_corpus_matrix(i), tmp_path, monkeypatch)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("share", [0, 4, 2])
def test_canonical_reads_the_eigensystem_dense(n, share, tmp_path, monkeypatch, capsys):
    _assert_canonical_reads_the_eigensystem(_dense_matrix(n, n // share if share else 0),
                                            tmp_path, monkeypatch)


def test_underflowing_pair_is_a_pair_before_scaling():
    # the edge case above exercises the split: unscaled, the solver sees a pair
    m = UNDERFLOWING_PAIR.matrix()
    s = pow2_scale(m)
    a = np.concatenate((m / s / frobenius_norm(m / s), np.eye(len(m))), axis=1)
    eg.hessenberg_reduce(a)
    assert np.any(eg.real_schur(a).imag > 0)


@pytest.mark.parametrize(
    ("eigenvalues", "basis_inv"),
    [
        # c_1 = e_2 against a_1 = e_1: c.a = 0
        ([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]]),
        # (2d, 2q) both along e_2 against b = e_1: nu = 0
        ([1.0 + 2.0j], [[0.0, 1.0], [0.0, 1.0]]),
    ],
    ids=["real-term", "plane-term"],
)
def test_decompose_refuses_a_degenerate_term_from_the_eigensystem(eigenvalues, basis_inv,
                                                                   monkeypatch):
    # decompose checks its terms once, as it constructs the decomposition and
    # before its residual, so a term the eigensolver got wrong is refused as
    # degenerate, not returned and not reported as an AccuracyError
    system = eg.EigenSystem(np.array(eigenvalues, dtype=complex), np.eye(2),
                            np.array(basis_inv), 1.0)
    monkeypatch.setattr(eg, "eigensystem", lambda m: system)
    with pytest.raises(DegeneratePairError):
        rd.decompose(np.eye(2))
