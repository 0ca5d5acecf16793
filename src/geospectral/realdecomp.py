"""Real, coordinate-free spectral decomposition.

Each complex-conjugate eigenvalue pair contributes one real "plane term"

    (1/nu) (b^p) [ omega (d d^T + q q^T) - sigma (d^q) ]

built from the real/imaginary splits (b, p) and (d, q) of the right and
left eigenvectors, with nu = (d.b)^2 + (q.b)^2.  Each real eigenvalue
contributes the usual rank-one term alpha a c^T / (c.a).  Their sum
reconstructs the matrix.
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
from .geoalg import wedge

DEFAULT_TOL = 1e-9
_NU_REL_FLOOR = 1e-24


@dataclass(frozen=True)
class RealTerm:
    """One real eigenvalue alpha with right/left eigenvectors a, c."""

    alpha: float
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.c.shape:
            raise ShapeError(f"term vectors differ: {self.a.shape} vs {self.c.shape}")
        ca = dot(self.c, self.a)
        if abs(ca) <= 1e-12 * (np.linalg.norm(self.c) * np.linalg.norm(self.a)):
            raise DegeneratePairError(f"left/right product c.a = {ca:.3e} is degenerate")


@dataclass(frozen=True)
class ComplexPlaneTerm:
    """One conjugate pair's plane data: eigenvalue sigma + i omega, right
    split (b, p), left split (d, q) and the normalization nu."""

    sigma: float
    omega: float
    b: np.ndarray
    p: np.ndarray
    d: np.ndarray
    q: np.ndarray
    nu: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"plane term needs omega > 0, got {self.omega}")
        if not self.nu > 0.0:
            raise DegeneratePairError(f"nu = {self.nu:.3e} is not positive")

    @property
    def dim(self):
        return self.b.shape[0]


@dataclass(frozen=True)
class Diagnostics:
    reconstruction_residual: float
    basis_rcond: float
    max_biorthogonality_residual: float


@dataclass(frozen=True)
class SpectralDecomposition:
    dim: int
    real_terms: tuple
    plane_terms: tuple
    diagnostics: Diagnostics = field(compare=False)

    def __post_init__(self):
        if len(self.real_terms) + 2 * len(self.plane_terms) != self.dim:
            raise ShapeError(
                f"term counts j={len(self.real_terms)}, k={len(self.plane_terms)} "
                f"do not satisfy j + 2k = {self.dim}"
            )


def biorthogonality_residual(b, p, d, q):
    """Residuals of the real-split orthogonality conditions d.b = q.p and
    q.b = -d.p; both vanish for a valid same-pair (b,p)/(d,q) set."""
    return dot(d, b) - dot(q, p), dot(q, b) + dot(d, p)


def nu(b, d, q):
    """Normalization (d.b)^2 + (q.b)^2 of a plane term."""
    value = dot(d, b) ** 2 + dot(q, b) ** 2
    scale = (
        np.linalg.norm(d) * np.linalg.norm(b) + np.linalg.norm(q) * np.linalg.norm(b)
    ) ** 2
    if value <= _NU_REL_FLOOR * scale:
        raise DegeneratePairError(f"nu = {value:.3e} below degeneracy floor")
    return value


def _plane_left(sigma, omega, b, p, d, q, nu_value):
    bracket = omega * (np.outer(d, d) + np.outer(q, q)) - sigma * wedge(d, q).rep
    return wedge(b, p).rep @ bracket / nu_value


def _plane_right(sigma, omega, b, p, d, q, nu_value):
    bracket = omega * (np.outer(b, b) + np.outer(p, p)) - sigma * wedge(b, p).rep
    return bracket @ wedge(d, q).rep / nu_value


def plane_term_left_form(t):
    """The plane term with the right-eigenvector wedge on the left."""
    return _plane_left(t.sigma, t.omega, t.b, t.p, t.d, t.q, t.nu)


def plane_term_right_form(t):
    """Equivalent form with the left-eigenvector wedge on the right; equal
    to the left form whenever the biorthogonality conditions hold."""
    return _plane_right(t.sigma, t.omega, t.b, t.p, t.d, t.q, t.nu)


def real_rank_one_term(t):
    """alpha * a c^T / (c.a)."""
    return t.alpha * np.outer(t.a, t.c) / dot(t.c, t.a)


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
        nu=nu(t.d, t.b, -t.p),
    )


def decompose(m, tol=DEFAULT_TOL):
    """Decompose a real diagonalizable matrix into real rank-one terms and
    complex-pair plane terms.

    Raises NotDiagonalizableError when the terms reconstruct m only to a
    relative residual above tol (a defective matrix's computed eigenvalues
    split and its basis passes the rcond check), and AccuracyError when
    that residual is not finite.
    """
    m = dc.as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeError(f"decompose of non-square {m.shape}")
    system = eg.eigensystem(m)
    real_terms = []
    plane_terms = []
    max_bio = 0.0
    for e, v, l in zip(system.eigenvalues, system.right, system.left):
        if isinstance(e, eg.RealEigenvalue):
            real_terms.append(RealTerm(e.alpha, v, l))
        else:
            b, p, d, q = v.re, v.im, l.re, l.im
            r1, r2 = biorthogonality_residual(b, p, d, q)
            max_bio = max(max_bio, abs(r1), abs(r2))
            plane_terms.append(
                ComplexPlaneTerm(e.sigma, e.omega, b, p, d, q, nu(b, d, q))
            )
    norm_m = frobenius_norm(m)
    resid = frobenius_norm(_term_sum(n, real_terms, plane_terms) - m) / (norm_m or 1.0)
    if not np.isfinite(resid):
        raise AccuracyError(resid, tol)
    if resid > tol:
        raise NotDiagonalizableError(
            f"reconstruction residual {resid:.3e} above tolerance {tol:.3e}"
        )
    return SpectralDecomposition(
        n,
        tuple(real_terms),
        tuple(plane_terms),
        Diagnostics(resid, system.basis_rcond, max_bio),
    )


def _term_sum(n, real_terms, plane_terms):
    out = np.zeros((n, n))
    for t in real_terms:
        out += real_rank_one_term(t)
    for t in plane_terms:
        out += plane_term_left_form(t)
    return out


def reconstruct(dec):
    """Sum of all rank-one and plane terms (left form)."""
    return _term_sum(dec.dim, dec.real_terms, dec.plane_terms)


def apply(dec, x):
    """Action of the decomposition on a vector, term by term, without
    forming any n x n matrix."""
    x = dc.as_vector(x)
    if x.shape[0] != dec.dim:
        raise ShapeError(f"vector dim {x.shape[0]} against decomposition dim {dec.dim}")
    out = np.zeros(dec.dim)
    for t in dec.real_terms:
        out += t.alpha * dot(t.c, x) / dot(t.c, t.a) * t.a
    for t in dec.plane_terms:
        # bracket action: omega projection onto the left plane, minus
        # sigma times the left wedge
        y = t.omega * (dot(t.d, x) * t.d + dot(t.q, x) * t.q)
        y -= t.sigma * (dot(t.q, x) * t.d - dot(t.d, x) * t.q)
        # then the right-plane wedge (pi/2 rotation into span(b, p))
        out += (dot(t.p, y) * t.b - dot(t.b, y) * t.p) / t.nu
    return out


def real_canonical_form(dec):
    """Real similarity form: B_real columns are a_i then (b_i, p_i); L_real
    is block diagonal with alpha_i scalars and [[sigma, omega], [-omega,
    sigma]] blocks."""
    n = dec.dim
    cols = []
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
