"""Real, coordinate-free spectral decomposition.

Each complex-conjugate eigenvalue pair contributes one real "plane term"

    (1/nu) (b^p) [ omega (d d^T + q q^T) - sigma (d^q) ]

built from the real/imaginary splits (b, p) and (d, q) of the right and
left eigenvectors, with nu = (d.b)^2 + (q.b)^2.  Each real eigenvalue
contributes the usual rank-one term alpha a c^T / (c.a).  Their sum
reconstructs the matrix.

Every term is also a factored product U C V^T: U = [b p], V = [d q] and
the 2x2 core C = J (U^T V)(omega I - sigma J) / nu with
J = [[0, 1], [-1, 0]], an exact identity since b^p = U J U^T and the
bracket is V (omega I - sigma J) V^T; a real term has U = a, V = c and
C = [[alpha / c.a]].  reconstruct, apply and decompose's residual all
evaluate these factors, on eigenvalues divided by one exact power of two
so no core overflows, and so do verify's identity checks; the explicit
wedge forms, applied by associativity at O(n^2), stay as the reference.
"""

from dataclasses import dataclass, field

import numpy as np

from . import densecore as dc
from . import eigensolve as eg
from .densecore import dot, frobenius_norm
from .errors import (
    AccuracyError,
    DegeneratePairError,
    NotDiagonalizableError,
    ShapeError,
)

DEFAULT_TOL = 1e-9
_NU_REL_FLOOR = 1e-24
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _check_vectors(*vectors):
    """Refuse term vectors of different shapes or with a non-finite entry,
    before anything computes with them."""
    shapes = [v.shape for v in vectors]
    if len(set(shapes)) != 1:
        raise ShapeError(f"term vectors differ: {shapes}")
    if not np.all(np.isfinite(vectors)):
        raise ShapeError("term vectors must be finite")


@dataclass(frozen=True)
class RealTerm:
    """One real eigenvalue alpha with right/left eigenvectors a, c."""

    alpha: float
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ShapeError(f"real term needs a finite alpha, got {self.alpha}")
        _check_vectors(self.a, self.c)
        ca = dot(self.c, self.a)
        if abs(ca) <= 1e-12 * (np.linalg.norm(self.c) * np.linalg.norm(self.a)):
            raise DegeneratePairError(f"left/right product c.a = {ca:.3e} is degenerate")


@dataclass(frozen=True)
class ComplexPlaneTerm:
    """One conjugate pair's plane data: eigenvalue sigma + i omega, right
    split (b, p) and left split (d, q); the normalization nu is computed
    from b, d and q once, on construction."""

    sigma: float
    omega: float
    b: np.ndarray
    p: np.ndarray
    d: np.ndarray
    q: np.ndarray
    nu: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and 0.0 < self.omega < np.inf):
            raise ShapeError(f"plane term needs a finite sigma and finite omega > 0, "
                             f"got {self.sigma}, {self.omega}")
        _check_vectors(self.b, self.p, self.d, self.q)
        object.__setattr__(self, "nu", nu(self.b, self.d, self.q))


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

    @property
    def max_biorthogonality_residual(self):
        """Largest |d.b - q.p| or |q.b + d.p| over the plane terms."""
        pairs = [biorthogonality_residual(t.b, t.p, t.d, t.q) for t in self.plane_terms]
        return max([0.0] + [abs(r) for pair in pairs for r in pair])


def biorthogonality_residual(b, p, d, q):
    """Residuals of the real-split orthogonality conditions d.b = q.p and
    q.b = -d.p; both vanish for a valid same-pair (b,p)/(d,q) set."""
    return dot(d, b) - dot(q, p), dot(q, b) + dot(d, p)


def nu(b, d, q):
    """Normalization (d.b)^2 + (q.b)^2 of a plane term."""
    value = dot(d, b) ** 2 + dot(q, b) ** 2
    norm_b = np.linalg.norm(b)
    scale = (np.linalg.norm(d) * norm_b + np.linalg.norm(q) * norm_b) ** 2
    # a NaN fails the comparison, so it is refused too
    if not value > _NU_REL_FLOOR * scale:
        raise DegeneratePairError(f"nu = {value:.3e} below degeneracy floor")
    return value


def plane_term_left_form(t):
    """The plane term with the right-eigenvector wedge on the left, applied
    by associativity as (b^p) X = b (p^T X) - p (b^T X).  Every outer
    product, the wedge d^q = d q^T - q d^T among them, is one broadcast
    product, so the form costs a few passes over n x n."""
    d, q = t.d[:, None], t.q[:, None]
    bracket = t.omega * (d * t.d + q * t.q) - t.sigma * (d * t.q - q * t.d)
    return (t.b[:, None] * (t.p @ bracket) - t.p[:, None] * (t.b @ bracket)) / t.nu


def plane_term_right_form(t):
    """Equivalent form with the left-eigenvector wedge on the right, applied
    as X (d^q) = (X d) q^T - (X q) d^T; equal to the left form whenever the
    biorthogonality conditions hold."""
    b, p = t.b[:, None], t.p[:, None]
    bracket = t.omega * (b * t.b + p * t.p) - t.sigma * (b * t.p - p * t.b)
    return ((bracket @ t.d)[:, None] * t.q - (bracket @ t.q)[:, None] * t.d) / t.nu


def plane_core(sigma, omega, g, nu_value):
    """2x2 core C = J G (omega I - sigma J) / nu of the plane term U C V^T from
    the Gram G = U^T V, U = [b p], V = [d q]; exact for any b, p, d, q."""
    return _J @ g @ (omega * np.eye(2) - sigma * _J) / nu_value


def term_factors(t, s=1.0):
    """(U, C, V) with the term's matrix divided by s equal to U C V^T: n x 1
    factors and C = [[(alpha / s) / c.a]] for a real term, n x 2 and
    plane_core on (sigma / s, omega / s) for a pair."""
    if isinstance(t, RealTerm):
        return t.a[:, None], np.array([[t.alpha / s / dot(t.c, t.a)]]), t.c[:, None]
    u = np.column_stack([t.b, t.p])
    v = np.column_stack([t.d, t.q])
    return u, plane_core(t.sigma / s, t.omega / s, u.T @ v, t.nu), v


def stacked_factors(n, terms, s):
    """(W, V) with W = [U_1 C_1, U_2 C_2, ...] and V = [V_1, V_2, ...], so
    the sum of the n x n terms divided by s is W V^T."""
    ws, vs = [np.zeros((n, 0))], [np.zeros((n, 0))]
    for t in terms:
        u, c, v = term_factors(t, s)
        ws.append(u @ c)
        vs.append(v)
    return np.hstack(ws), np.hstack(vs)


def _scaled_factors(dec):
    """(W, V, s) with the sum of dec's terms equal to (W V^T) s, s the power
    of two with s <= the largest |alpha|, |sigma| or omega < 2s."""
    s = dc.pow2_scale([t.alpha for t in dec.real_terms]
                      + [v for t in dec.plane_terms for v in (t.sigma, t.omega)])
    return (*stacked_factors(dec.dim, dec.real_terms + dec.plane_terms, s), s)


def transpose_term(t):
    """Swap the right and left planes; the resulting term's matrix is the
    transpose of the original's.

    The raw swap also flips the sign of omega; composing with the
    conjugate-pair symmetry (negating both imaginary parts) restores the
    omega > 0 representative.
    """
    return ComplexPlaneTerm(
        sigma=t.sigma,
        omega=t.omega,
        b=t.d,
        p=-t.q,
        d=t.b,
        q=-t.p,
    )


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
    # row i is basis column i: a_i, or b_i and p_i in two rows for a pair
    right = np.ascontiguousarray(system.basis.T)
    rows = system.basis_inv
    real_terms = []
    plane_terms = []
    starts = eg.block_starts(system.eigenvalues)
    for lam, i in zip(system.eigenvalues.tolist(), starts.tolist()):
        if lam.imag == 0.0:
            real_terms.append(RealTerm(lam.real, right[i], rows[i]))
        else:
            # basis_inv holds (2d, 2q) for the pair's columns (b, p): d^dag b = 1
            b, p, d, q = right[i], right[i + 1], rows[i] / 2.0, rows[i + 1] / 2.0
            plane_terms.append(ComplexPlaneTerm(lam.real, lam.imag, b, p, d, q))
    # W V^T against M / s, s a power of two with s <= max|m_ij| < 2s: the
    # cores take the eigenvalues over s and V the conditioning, so nothing overflows
    s = dc.pow2_scale(m)
    w, v = stacked_factors(n, real_terms + plane_terms, s)
    m_s = m / s
    resid = frobenius_norm(w @ v.T - m_s) / (frobenius_norm(m_s) or 1.0)
    if not np.isfinite(resid):
        raise AccuracyError(resid, tol)
    if resid > tol:
        raise NotDiagonalizableError(
            f"reconstruction residual {resid:.3e} above tolerance {tol:.3e}"
        )
    return SpectralDecomposition(
        tuple(real_terms), tuple(plane_terms), Diagnostics(resid, system.basis_rcond)
    )


def reconstruct(dec):
    """Sum of all rank-one and plane terms, as the one product (W V^T) s."""
    w, v, s = _scaled_factors(dec)
    return (w @ v.T) * s


def apply(dec, x):
    """Action of the decomposition on a vector, (W (V^T x)) s, without
    forming any n x n matrix."""
    x = dc.as_array(x, 1)
    if x.shape[0] != dec.dim:
        raise ShapeError(f"vector dim {x.shape[0]} against decomposition dim {dec.dim}")
    w, v, s = _scaled_factors(dec)
    return (w @ (v.T @ x)) * s


def real_canonical_form(dec):
    """Real similarity form: B_real columns are a_i then (b_i, p_i); L_real
    is block diagonal with alpha_i scalars and [[sigma, omega], [-omega,
    sigma]] blocks."""
    n = dec.dim
    cols = [np.zeros((n, 0))]
    blocks = np.zeros((n, n))
    i = 0
    for t in dec.real_terms:
        cols.append(t.a)
        blocks[i, i] = t.alpha
        i += 1
    for t in dec.plane_terms:
        cols.append(t.b)
        cols.append(t.p)
        blocks[i:i + 2, i:i + 2] = [[t.sigma, t.omega], [-t.omega, t.sigma]]
        i += 2
    return np.column_stack(cols), blocks
