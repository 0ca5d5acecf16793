"""Real, coordinate-free spectral decomposition.

Each complex-conjugate eigenvalue pair sigma +- i omega contributes one
real "plane term", built from the real/imaginary splits (b, p) and (d, q)
of the right and left eigenvectors, with nu = (d.b)^2 + (q.b)^2.  Each
real eigenvalue contributes the usual rank-one term alpha a c^T / (c.a).
Their sum reconstructs the matrix.

Every term is computed as a factored product U C V^T: U = [b p],
V = [d q] and the 2x2 core C = J (U^T V)(omega I - sigma J) / nu with
J = [[0, 1], [-1, 0]]; a real term has U = a, V = c and
C = [[alpha / c.a]].  term_stacks builds every term's factors in one
pass from one gather of the terms' vectors, and they stay rows in term
order: TermStacks holds every U^T, V^T and (U C)^T as (j + 2k, n) arrays
and all cores, on the terms' eigenvalues divided by their own exact
power of two s, so no core overflows and the stacks are one function of
the terms.  reconstruct, apply and decompose's residual (on the terms it
returns) are one product of these rows, real_canonical_form reads
B_real, L_real and B_real^-1 off them and verify's identity checks run
on them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import densecore as dc
from . import eigensolve as eg
from .densecore import frobenius_norm
from .errors import (
    AccuracyError,
    DegeneratePairError,
    NotDiagonalizableError,
    ShapeError,
)

DEFAULT_TOL = 1e-9
_NU_REL_FLOOR = 1e-24
# a c.a or nu below the normal range is refused: above it, the core
# (alpha / s) / c.a of an alpha / s < 2 is finite, and nu keeps full precision
_TINY = float(np.finfo(float).tiny)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _check_vectors(*vectors):
    """Refuse term vectors of different shapes or with a non-finite entry,
    before anything computes with them; returns their norms."""
    shapes = [v.shape for v in vectors]
    if len(set(shapes)) != 1:
        raise ShapeError(f"term vectors differ: {shapes}")
    norms = [frobenius_norm(v) for v in vectors]
    # a sum of squares is finite unless an entry is not, or it overflows
    if not math.isfinite(sum(norms)) and not np.isfinite(vectors).all():
        raise ShapeError("term vectors must be finite")
    return norms


@dataclass(frozen=True)
class RealTerm:
    """One real eigenvalue alpha with right/left eigenvectors a, c; a c.a
    at most 1e-12 |c| |a|, or below the normal range, raises
    DegeneratePairError."""

    alpha: float
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ShapeError(f"real term needs a finite alpha, got {self.alpha}")
        norm_a, norm_c = _check_vectors(self.a, self.c)
        ca = float(np.add.reduce(self.c * self.a))
        if abs(ca) <= 1e-12 * (norm_c * norm_a) or abs(ca) < _TINY:
            raise DegeneratePairError(f"left/right product c.a = {ca:.3e} is degenerate")


@dataclass(frozen=True)
class ComplexPlaneTerm:
    """One conjugate pair's plane data: eigenvalue sigma + i omega, right
    split (b, p) and left split (d, q), and the normalization
    nu = (d.b)^2 + (q.b)^2, computed once, on construction.  A nu that is
    not finite, below the normal range or at most
    _NU_REL_FLOOR (|d| |b| + |q| |b|)^2 raises DegeneratePairError."""

    sigma: float
    omega: float
    b: np.ndarray
    p: np.ndarray
    d: np.ndarray
    q: np.ndarray
    nu: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and 0.0 < self.omega < math.inf):
            raise ShapeError(f"plane term needs a finite sigma and finite omega > 0, "
                             f"got {self.sigma}, {self.omega}")
        norm_b, _, norm_d, norm_q = _check_vectors(self.b, self.p, self.d, self.q)
        db, qb = float(np.add.reduce(self.d * self.b)), float(np.add.reduce(self.q * self.b))
        try:
            value = db ** 2 + qb ** 2
        except OverflowError:  # a square above the float range
            value = math.inf
        root = norm_d * norm_b + norm_q * norm_b
        # the floor as (floor root) root overflows only where it exceeds every
        # finite nu; a NaN fails the comparisons, so it is refused too
        if not (_NU_REL_FLOOR * root * root < value < math.inf and value >= _TINY):
            raise DegeneratePairError(f"nu = {value:.3e} below degeneracy floor or not finite")
        object.__setattr__(self, "nu", value)


@dataclass(frozen=True)
class Diagnostics:
    reconstruction_residual: float
    basis_rcond: float


@dataclass(frozen=True)
class SpectralDecomposition:
    """The j real terms and k plane terms of an n x n matrix, n = j + 2k;
    every term vector must be of length n (the terms check that their
    eigenvalues and vectors are finite)."""

    real_terms: tuple
    plane_terms: tuple
    diagnostics: Diagnostics = field(compare=False)

    def __post_init__(self):
        n = self.dim
        vectors = [v for t in self.real_terms for v in (t.a, t.c)]
        vectors += [v for t in self.plane_terms for v in (t.b, t.p, t.d, t.q)]
        if any(v.shape != (n,) for v in vectors):
            raise ShapeError(f"term vectors must be of length j + 2k = {n}")

    @property
    def dim(self):
        return len(self.real_terms) + 2 * len(self.plane_terms)


def plane_core(sigma, omega, g, nu_value):
    """2x2 core C = J G (omega I - sigma J) / nu of the plane term U C V^T from
    the Gram G = U^T V, U = [b p], V = [d q]; exact for any b, p, d, q."""
    return _J @ g @ (omega * np.eye(2) - sigma * _J) / nu_value


@dataclass(frozen=True)
class TermStacks:
    """Every term's factors as (j + 2k, n) rows in term order: right is
    B_real^T (each a, then each pair's b, p), left the left factors (each c,
    then each pair's d, q) and w = (U C)^T's rows (a times its core, C^T [b; p]
    for a pair), so the terms' sum is (w^T left) s; the pairs' Grams U^T V
    and cores as (k, 2, 2), and the eigenvalues and nu as read off the
    terms.  Each core is on the eigenvalues divided by s, the power of two
    with s <= the largest |alpha|, |sigma| or omega < 2s (0.5 if none is
    nonzero)."""

    s: float
    alpha: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    nu: np.ndarray
    right: np.ndarray
    left: np.ndarray
    w: np.ndarray
    gram: np.ndarray
    plane_cores: np.ndarray


def term_stacks(real_terms, plane_terms):
    """TermStacks of the terms from one gather of their vectors: the j real
    terms' a or c, then each pair's (b, p) or (d, q)."""
    j, k = len(real_terms), len(plane_terms)
    right = [t.a for t in real_terms] + [v for t in plane_terms for v in (t.b, t.p)]
    left = [t.c for t in real_terms] + [v for t in plane_terms for v in (t.d, t.q)]
    n = len(right[0]) if right else 0
    right, left = (np.array(rows).reshape(len(rows), n) for rows in (right, left))
    alpha = np.array([t.alpha for t in real_terms], dtype=float)
    sigma, omega, nu_ = np.array([(t.sigma, t.omega, t.nu) for t in plane_terms]).reshape(k, 3).T
    s = dc.pow2_scale(np.concatenate((alpha, sigma, omega)))
    real_cores = alpha / s / np.add.reduce(left[:j] * right[:j], axis=1)
    # (k, b p, n) and (k, d q, n): the pairs' U^T and V^T
    ut, vt = right[j:].reshape(k, 2, n), left[j:].reshape(k, 2, n)
    gram = ut @ np.swapaxes(vt, 1, 2)
    cores = plane_core((sigma / s)[:, None, None], (omega / s)[:, None, None], gram,
                       nu_[:, None, None])
    w = np.concatenate((right[:j] * real_cores[:, None],
                        (np.swapaxes(cores, 1, 2) @ ut).reshape(2 * k, n)))
    return TermStacks(s, alpha, sigma, omega, nu_, right, left, w, gram, cores)


def decompose(m, tol=DEFAULT_TOL):
    """Decompose a real diagonalizable matrix into real rank-one terms and
    complex-pair plane terms.

    Raises ValueError unless tol > 0, NotDiagonalizableError when the
    terms reconstruct m only to a relative residual above tol (a defective
    matrix's computed eigenvalues split and its basis passes the rcond
    check), and AccuracyError when that residual is not finite.
    """
    if not tol > 0.0:
        raise ValueError(f"decompose needs tol > 0, got {tol}")
    m = dc.as_array(m, 2)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeError(f"decompose of non-square {m.shape}")
    system = eg.eigensystem(m)
    lam = system.eigenvalues
    k = int(np.count_nonzero(lam.imag))
    j = n - 2 * k
    alpha, sigma, omega = lam.real[:j], lam.real[j:], lam.imag[j:]
    # row i is basis column i: the real terms' a_i, then each pair's b_i, p_i;
    # basis_inv's rows are the c_i, then each pair's (2d, 2q): d^dag b = 1
    right = np.ascontiguousarray(system.basis.T)
    left = system.basis_inv / np.repeat([1.0, 2.0], [j, 2 * k])[:, None]
    real_terms = tuple(map(RealTerm, alpha.tolist(), right[:j], left[:j]))
    plane_terms = tuple(map(ComplexPlaneTerm, sigma.tolist(), omega.tolist(),
                            right[j::2], right[j + 1::2], left[j::2], left[j + 1::2]))
    # w^T left against M / s, on the stacks of the terms returned: the cores
    # take the eigenvalues over s and left the conditioning, and the rcond gate
    # keeps ||M||_1 within 1e12 ||L_real||_1, so nothing overflows
    st = term_stacks(real_terms, plane_terms)
    m_s = m / st.s
    resid = frobenius_norm(st.w.T @ st.left - m_s) / (frobenius_norm(m_s) or 1.0)
    if not math.isfinite(resid):
        raise AccuracyError(resid, tol)
    if resid > tol:
        raise NotDiagonalizableError(
            f"reconstruction residual {resid:.3e} above tolerance {tol:.3e}"
        )
    return SpectralDecomposition(real_terms, plane_terms, Diagnostics(resid, system.basis_rcond))


def reconstruct(dec):
    """Sum of all rank-one and plane terms, as the one product (w^T left) s
    of their TermStacks."""
    st = term_stacks(dec.real_terms, dec.plane_terms)
    return (st.w.T @ st.left) * st.s


def apply(dec, x):
    """Action of the decomposition on a vector, (w^T (left x)) s from its
    TermStacks, without forming any n x n matrix."""
    x = dc.as_array(x, 1)
    if x.shape[0] != dec.dim:
        raise ShapeError(f"vector dim {x.shape[0]} against decomposition dim {dec.dim}")
    st = term_stacks(dec.real_terms, dec.plane_terms)
    return (st.w.T @ (st.left @ x)) * st.s


def real_block_form(alpha, sigma, omega):
    """L_real: block diagonal with the alpha_i as scalars, then one
    [[sigma_i, omega_i], [-omega_i, sigma_i]] block per pair."""
    blocks = np.diag(np.concatenate((alpha, np.repeat(sigma, 2))))
    i = len(alpha) + 2 * np.arange(len(sigma))
    blocks[i, i + 1] = omega
    blocks[i + 1, i] = -omega
    return blocks


def real_canonical_form(dec):
    """Real similarity form (B_real, L_real, B_real^-1) from one TermStacks:
    B_real's columns are a_i then (b_i, p_i), L_real is real_block_form of
    the terms' eigenvalues, and B_real^-1 is the left factors as rows, each
    pair's doubled (c_i, 2 d_i, 2 q_i, as eigensystem's basis_inv)."""
    st = term_stacks(dec.real_terms, dec.plane_terms)
    doubled = np.repeat([1.0, 2.0], [len(st.alpha), 2 * len(st.sigma)])[:, None]
    return st.right.T, real_block_form(st.alpha, st.sigma, st.omega), st.left * doubled
