"""Property test of the decompose contract: every call either returns a
finite reconstruction residual within tolerance, with its terms in the
canonical order, or raises a typed error.

Inputs are planted matrices M = B L B^-1 with n in 0..24, basis condition
at most 1e4, eigenvalues drawn partly from small pools (so repeated values
occur), optional Jordan couplings between equal adjacent blocks of L, and
an exact scale 2^k for k in [-1000, 1000].  A second property draws
spectra of tight clusters, which must all decompose.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geospectral import realdecomp as rd
from geospectral.errors import GeoSpectralError, NotDiagonalizableError

TOL = rd.DEFAULT_TOL
_COND_CAP = 1e4
_POOL_REAL = (0.0, 1.0, -0.5)
_POOL_PAIR = ((0.0, 1.0), (1.0, 2.0))


@dataclass(frozen=True)
class Case:
    blocks: tuple  # L's diagonal: real eigenvalues and (sigma, omega) pairs
    couplings: tuple  # k: identity coupling from block k to block k + 1
    basis_seed: object  # None for the identity basis
    exponent: int  # M is scaled by 2**exponent

    def matrix(self):
        sizes = [1 if isinstance(b, float) else 2 for b in self.blocks]
        starts = np.cumsum([0] + sizes)
        n = int(starts[-1])
        l = np.zeros((n, n))
        for b, lo in zip(self.blocks, starts):
            if isinstance(b, float):
                l[lo, lo] = b
            else:
                s, w = b
                l[lo:lo + 2, lo:lo + 2] = [[s, w], [-w, s]]
        for k in self.couplings:
            lo, hi, size = starts[k], starts[k + 1], sizes[k]
            l[lo:lo + size, hi:hi + size] = np.eye(size)
        if self.basis_seed is None:
            b = np.eye(n)
        else:
            rng = np.random.default_rng(self.basis_seed)
            b = rng.standard_normal((n, n))
            while n and np.linalg.cond(b) > _COND_CAP:
                b = rng.standard_normal((n, n))
        m = np.linalg.solve(b.T, (b @ l).T).T if n else l
        return m * 2.0**self.exponent

    def planted(self):
        out = []
        for b in self.blocks:
            if isinstance(b, float):
                out.append(complex(b))
            else:
                out.extend([complex(*b), complex(b[0], -b[1])])
        return np.array(out)


def _eigenvalue_gap(case, dec):
    """Largest distance from a planted eigenvalue to the nearest found one,
    or from a found one to the nearest planted one."""
    found = np.array(
        [complex(t.alpha) for t in dec.real_terms]
        + [complex(t.sigma, s * t.omega) for t in dec.plane_terms for s in (1, -1)]
    )
    gap = np.abs(case.planted()[:, None] - found[None, :])
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


_REAL = st.one_of(st.sampled_from(_POOL_REAL), st.floats(-2.0, 2.0))
_PAIR = st.one_of(
    st.sampled_from(_POOL_PAIR), st.tuples(st.floats(-2.0, 2.0), st.floats(0.3, 2.0))
)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 24))
    blocks = []
    while n > 0:
        if n >= 2 and draw(st.booleans()):
            blocks.append(draw(_PAIR))
            n -= 2
        else:
            blocks.append(draw(_REAL))
            n -= 1
    equal = [k for k in range(len(blocks) - 1) if blocks[k] == blocks[k + 1]]
    couplings = tuple(k for k in equal if draw(st.booleans()))
    return Case(
        tuple(blocks),
        couplings,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(-1000, 1000)),
    )


JORDAN_PAIR = Case(((1.0, 2.0), (1.0, 2.0)), (0,), 3, 0)
REPEATED_PAIR = Case(((1.0, 2.0), (1.0, 2.0)), (), 3, 0)
IDENTITY_3 = Case((1.0, 1.0, 1.0), (), None, 0)
# pairs that tie exactly on sigma (identity basis), so only omega orders them
SIGMA_TIES = Case(((1.0, 2.0), 1.0, (1.0, 0.5), -0.5, (0.0, 1.0)), (), None, 900)
# max entry 1.1e-313: the zero cluster's computed pair has omega near
# 7e-12 ||M||, which underflows to 0 as the eigenvalues are scaled back, so
# it must decompose as a real double
UNDERFLOWING_PAIR = Case((2.2250738585e-313, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (), 0, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
@example(JORDAN_PAIR)
@example(REPEATED_PAIR)
@example(IDENTITY_3)
@example(SIGMA_TIES)
@example(UNDERFLOWING_PAIR)
@example(Case((), (), 0, 0))
@example(Case((-0.5,), (), 0, 0))
@example(Case(((1.0, 2.0), (1.0, 2.0)), (0,), 0, 1000))
@example(Case((1.0, 1.0), (0,), 0, 1000))
def test_decompose_residual_within_tol_or_typed_error(case):
    m = case.matrix()
    must_decompose = not case.couplings and case.exponent == 0
    try:
        dec = rd.decompose(m)
    except GeoSpectralError:
        if must_decompose:
            raise
        return
    resid = dec.diagnostics.reconstruction_residual
    assert np.isfinite(resid) and resid <= TOL
    # canonical order: real terms by alpha, then plane terms by (sigma, omega)
    alphas = [t.alpha for t in dec.real_terms]
    assert alphas == sorted(alphas)
    keys = [(t.sigma, t.omega) for t in dec.plane_terms]
    assert keys == sorted(keys)
    assert all(omega > 0.0 for _, omega in keys)
    if not np.any(m):
        return
    # the same residual without the package's norm: an exact power-of-two
    # rescale to max |m_ij| ~ 1 keeps np.linalg.norm from over/underflowing
    scale = 2.0 ** np.frexp(np.max(np.abs(m)))[1]
    diff = np.linalg.norm((rd.reconstruct(dec) - m) / scale)
    norm_m = np.linalg.norm(m / scale)
    assert diff <= TOL * (1.0 + 1e-6) * norm_m
    if must_decompose:
        assert _eigenvalue_gap(case, dec) / scale <= 1e-8 * norm_m


@st.composite
def clustered_cases(draw):
    """n in 4..24 filled with clusters: 1-3 real eigenvalues or 1-2 pairs
    with one shared omega, spacing 10^[-13, -2] and centres of either sign
    and magnitude 1e-3 to 2, so each cluster is narrow against its distance
    from 0 (the floating-point range is the property above's concern)."""
    n = draw(st.integers(4, 24))
    blocks = []
    while n > 0:
        centre = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 2.0))
        spacing = 10.0 ** draw(st.floats(-13.0, -2.0))
        if n >= 2 and draw(st.booleans()):
            k = draw(st.integers(1, min(2, n // 2)))
            omega = draw(st.floats(0.3, 2.0))
            blocks.extend((centre + j * spacing, omega) for j in range(k))
            n -= 2 * k
        else:
            k = draw(st.integers(1, min(3, n)))
            blocks.extend(centre + j * spacing for j in range(k))
            n -= k
    return Case(tuple(blocks), (), draw(st.integers(0, 2**32 - 1)), 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(clustered_cases())
def test_clustered_spectrum_decomposes(case):
    # diagonalizable with basis condition at most 1e4, however tight the
    # clusters, so every draw must decompose to its planted eigenvalues
    m = case.matrix()
    dec = rd.decompose(m)
    assert dec.diagnostics.reconstruction_residual <= TOL
    assert _eigenvalue_gap(case, dec) <= 1e-8 * np.linalg.norm(m)


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
def test_jordan_pair_not_diagonalizable(exponent):
    # the same verdict at every scale: the residual is evaluated scaled,
    # so nothing overflows near ||M|| = 2^1000
    with pytest.raises(NotDiagonalizableError):
        rd.decompose(replace(JORDAN_PAIR, exponent=exponent).matrix())
