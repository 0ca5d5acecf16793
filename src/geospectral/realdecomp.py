"""Real, coordinate-free spectral decomposition.

Each conjugate pair sigma +- i omega contributes one real "plane term",
from the real/imaginary splits (b, p) and (d, q) of its right and left
eigenvectors, with nu = (d.b)^2 + (q.b)^2; each real eigenvalue
contributes the rank-one term alpha a c^T / (c.a).  Their sum
reconstructs the matrix.  A SpectralDecomposition is stored once, as its
eigenvalues and the rows B_real^T and B_real^-1 (pair rows halved);
constructing it is the one check, and its terms are records built on
first read, whose vectors are read-only views of those rows.

Every term is computed as a factored product U C V^T: U = [b p],
V = [d q] and the 2x2 core C = J G (omega I - sigma J) / nu with
J = [[0, 1], [-1, 0]] and G = U^T V the pair's Gram, whose first row's
squared norm is nu; a real term has U = a, V = c and C = [[alpha / c.a]].
The one check computes every c.a and Gram, nu and the eigenvalues' power
of two s, and the decomposition keeps them; term_stacks reads them and
builds only w = (U C)^T's rows and the cores, on the eigenvalues divided
by s, so no core overflows.  reconstruct, apply and decompose's residual
are one product of w and the left rows, verify's checks run on them, and
real_canonical_form reads B_real, L_real and B_real^-1 off the
decomposition.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class RealTerm:
    """One real eigenvalue alpha with right/left eigenvectors a, c."""

    alpha: float
    a: np.ndarray
    c: np.ndarray


@dataclass(frozen=True, eq=False)
class ComplexPlaneTerm:
    """One conjugate pair's plane data: eigenvalue sigma + i omega, right
    split (b, p), left split (d, q) and nu = (d.b)^2 + (q.b)^2."""

    sigma: float
    omega: float
    b: np.ndarray
    p: np.ndarray
    d: np.ndarray
    q: np.ndarray

    @cached_property
    def nu(self):
        return float(_grams(np.array([self.b, self.p]), np.array([self.d, self.q]), 0)[2][0])


def _grams(right, left, j):
    """c.a of the j real terms, the Gram G = U^T V = [[b.d, b.q], [p.d, p.q]]
    of each pair after them as (k, 2, 2) and its nu = (d.b)^2 + (q.b)^2,
    from the terms' rows: every dot product in one np.add.reduce of their
    products (NaN, without a warning, where products overflow to
    infinities of both signs; nu inf where it overflows).  The dots are
    read-only, so no view of them can be written."""
    k, n = (len(right) - j) // 2, right.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        products = right[j:].reshape(k, 2, 1, n) * left[j:].reshape(k, 1, 2, n)
        dots = np.add.reduce(np.concatenate((right[:j] * left[:j], products.reshape(4 * k, n))), axis=1)
        dots.flags.writeable = False
        gram = dots[j:].reshape(k, 2, 2)
        return dots[:j], gram, gram[:, 0, 0] ** 2 + gram[:, 0, 1] ** 2


@dataclass(frozen=True)
class Diagnostics:
    reconstruction_residual: float
    basis_rcond: float


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """The j real eigenvalues alpha and k pairs sigma + i omega of an n x n
    matrix, n = j + 2k, and the (n, n) rows right = B_real^T (each a, then
    each pair's b, p) and left (each c, then each pair's d, q: B_real^-1
    with the pair rows halved).  Its construction is the one check: rows
    not both (n, n), an omega per sigma missing, a non-finite eigenvalue or
    entry, or an omega <= 0 raises ShapeError; then, on norms safe from
    overflow and underflow, a c.a at most 1e-12 |c| |a| or a nu at most
    _NU_REL_FLOOR (|d| |b| + |q| |b|)^2, either below the normal range or
    not a number, or a nu that is not finite, raises DegeneratePairError.

    The rows are the decomposition: the arrays it is given, copied only if
    views, are kept read-only beside what the check computes from them,
    each c.a, each pair's Gram U^T V and nu, and the eigenvalues' power of
    two s (s <= the largest |alpha|, |sigma| or omega < 2s, 0.5 if none is
    nonzero).  Each array is exposed as a view of its read-only owner,
    which numpy will not make writeable again.  The terms are records
    built on first read, their vectors read-only views of the rows.  == is
    identity, so a decomposition hashes."""

    alpha: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    right: np.ndarray
    left: np.ndarray
    diagnostics: Diagnostics = None
    ca: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)
    s: float = field(init=False, repr=False)

    def __post_init__(self):
        given = (np.asarray(getattr(self, name), dtype=float)
                 for name in ("alpha", "sigma", "omega", "right", "left"))
        alpha, sigma, omega, right, left = (x if x.flags.owndata else x.copy() for x in given)
        j, k = alpha.size, sigma.size
        n = j + 2 * k
        if (right.shape != (n, n) or left.shape != (n, n) or alpha.shape != (j,)
                or sigma.shape != (k,) or omega.shape != (k,)):
            raise ShapeError(f"rows must be (j + 2k) x (j + 2k) = {n} x {n} with one omega per "
                             f"sigma, got {right.shape}, {left.shape} and {omega.shape}")
        eigs = alpha.tolist() + np.column_stack((sigma, omega)).ravel().tolist()
        bad = [x for x in eigs if not math.isfinite(x)] + [w for w in omega.tolist() if w <= 0]
        if bad:
            raise ShapeError(f"term eigenvalues must be finite and omega > 0, got {bad[0]}")
        rows = np.concatenate((right, left))
        norms = dc.row_norms(rows)
        # a norm is finite unless an entry is not, or it overflows
        if not math.isfinite(sum(norms)) and not np.isfinite(rows).all():
            raise ShapeError("term vectors must be finite")
        cas, gram, nus = _grams(right, left, j)
        # each test is the negation of what a well-formed term satisfies, as a
        # NaN fails every comparison; the floor as (floor root) root overflows
        # only where it exceeds every finite nu
        for ca, norm_a, norm_c in zip(cas.tolist(), norms, norms[n:]):
            if not (1e-12 * (norm_c * norm_a) < abs(ca) and abs(ca) >= _TINY):
                raise DegeneratePairError(f"left/right product c.a = {ca:.3e} is degenerate")
        for nu, nb, nd, nq in zip(nus.tolist(), norms[j:n:2], norms[n + j::2], norms[n + j + 1::2]):
            root = nd * nb + nq * nb
            if not (_NU_REL_FLOOR * root * root < nu < math.inf and nu >= _TINY):
                raise DegeneratePairError(f"nu = {nu:.3e} below degeneracy floor or not finite")
        kept = {"alpha": alpha, "sigma": sigma, "omega": omega, "right": right, "left": left,
                "ca": cas, "gram": gram, "nu": nus}
        for name, value in kept.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value.view())
        object.__setattr__(self, "s", dc.pow2_scale(np.concatenate((alpha, sigma, omega))))

    @property
    def dim(self):
        return len(self.right)

    @cached_property
    def real_terms(self):
        j = len(self.alpha)
        return tuple(map(RealTerm, self.alpha.tolist(), self.right[:j], self.left[:j]))

    @cached_property
    def plane_terms(self):
        j, right, left = len(self.alpha), self.right, self.left
        return tuple(map(ComplexPlaneTerm, self.sigma.tolist(), self.omega.tolist(),
                         right[j::2], right[j + 1::2], left[j::2], left[j + 1::2]))


def plane_core(sigma, omega, g, nu_value):
    """2x2 core C = J G (omega I - sigma J) / nu of the plane term U C V^T from
    the Gram G = U^T V, U = [b p], V = [d q]; exact for any b, p, d, q."""
    return _J @ g @ (omega * np.eye(2) - sigma * _J) / nu_value


def term_stacks(dec):
    """(w, cores) of the decomposition, from its rows, eigenvalues, c.a,
    Grams, nu and s: w = (U C)^T's rows in term order (a times its core,
    C^T [b; p] for a pair), so the terms' sum is (w^T left) s, and the
    pairs' cores as (k, 2, 2), each on the eigenvalues divided by s."""
    j, k, n = len(dec.alpha), len(dec.sigma), dec.right.shape[1]
    s = dec.s
    cores = plane_core((dec.sigma / s)[:, None, None], (dec.omega / s)[:, None, None], dec.gram,
                       dec.nu[:, None, None])
    # (k, b p, n): the pairs' U^T
    ut = dec.right[j:].reshape(k, 2, n)
    w = np.concatenate((dec.right[:j] * (dec.alpha / s / dec.ca)[:, None],
                        (np.swapaxes(cores, 1, 2) @ ut).reshape(2 * k, n)))
    return w, cores


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
    dec = SpectralDecomposition(alpha, sigma, omega, right, left)  # the check, before the residual
    # w^T left - M / s on the stacks of the decomposition returned: the cores
    # take the eigenvalues over s and left the conditioning, and the rcond
    # gate keeps ||M||_1 <= 1e12 ||L_real||_1: nothing overflows
    w, _ = term_stacks(dec)
    m_s = m / dec.s
    resid = frobenius_norm(w.T @ left - m_s) / (frobenius_norm(m_s) or 1.0)
    if not math.isfinite(resid):
        raise AccuracyError(resid, tol)
    if resid > tol:
        raise NotDiagonalizableError(
            f"reconstruction residual {resid:.3e} above tolerance {tol:.3e}"
        )
    object.__setattr__(dec, "diagnostics", Diagnostics(resid, system.basis_rcond))
    return dec


def reconstruct(dec):
    """Sum of all rank-one and plane terms, as the one product (w^T left) s
    of their term_stacks."""
    w, _ = term_stacks(dec)
    return (w.T @ dec.left) * dec.s


def apply(dec, x):
    """Action of the decomposition on a vector, (w^T (left x)) s from its
    term_stacks, without forming any n x n matrix."""
    x = dc.as_array(x, 1)
    if x.shape[0] != dec.dim:
        raise ShapeError(f"vector dim {x.shape[0]} against decomposition dim {dec.dim}")
    w, _ = term_stacks(dec)
    return (w.T @ (dec.left @ x)) * dec.s


def real_block_form(alpha, sigma, omega):
    """L_real: block diagonal with the alpha_i as scalars, then one
    [[sigma_i, omega_i], [-omega_i, sigma_i]] block per pair."""
    blocks = np.diag(np.concatenate((alpha, np.repeat(sigma, 2))))
    i = len(alpha) + 2 * np.arange(len(sigma))
    blocks[i, i + 1] = omega
    blocks[i + 1, i] = -omega
    return blocks


def real_canonical_form(dec):
    """Real similarity form (B_real, L_real, B_real^-1) read off the
    decomposition's rows and eigenvalues: B_real's columns are a_i then
    (b_i, p_i), L_real is real_block_form of the eigenvalues, and
    B_real^-1 is the left rows, each pair's doubled (c_i, 2 d_i, 2 q_i, as
    eigensystem's basis_inv)."""
    doubled = np.repeat([1.0, 2.0], [len(dec.alpha), 2 * len(dec.sigma)])[:, None]
    return dec.right.T, real_block_form(dec.alpha, dec.sigma, dec.omega), dec.left * doubled
