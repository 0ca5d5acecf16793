"""Self-contained dense real eigensolver.

Pipeline: Householder reduction to Hessenberg form, Francis implicit
double-shift QR to real Schur form Z T Z^T, deflating at every subdiagonal
entry of at most n eps ||T||_F and recording each 1x1/2x2 diagonal block's
eigenvalue as it deflates, right eigenvectors by back-substitution on the
complex triangular form of T (MATLAB rsf2csf, LAPACK ztrevc), mapped back
through Z, and the inverse of the resulting real eigenvector basis B, read
off the Schur factors: in Schur coordinates the vectors form a real block
upper triangular Y_r with B = Z Y_r up to column order, so B^-1 = Y_r^-1 Z^T
with Y_r^-1 from one block back-substitution (as LAPACK dtrevc3 relates
eigenvectors to Schur vectors).  Its rows are the left eigenvectors,
biorthogonal to the basis up to rounding.

Both reductions work on one C-ordered n x 2n array, as LAPACK dgeev's
dgehrd and dhseqr overwrite one H and Q: eigensystem checks its input,
scales it to ||M||_F = 1 and lays out [M | I] once; hessenberg_reduce
reduces that array in place to [H | Q^T], and real_schur carries on in
place to [T | Z^T], so Q^T is carried along rather than formed
afterwards, and neither stage copies, checks or rescales.  A reflector is
symmetric, so applying it takes two products: one on the contiguous rows
of both halves that it mixes, one on the matrix's columns.  The
Hessenberg reduction works that way on its last _HESS_NX columns only
(LAPACK dgehd2).  Before them it reduces panels of _HESS_NB columns
(LAPACK dgehrd and dlahr2; Quintana-Orti and van de Geijn, ACM TOMS
32(2), 2006): a panel's reflectors are gathered in compact WY form
I - V T V^T, each panel column takes the earlier reflectors' products
as matrix-vector products when it is reached, and the rest of the work
array takes the whole panel's as GEMMs, one left GEMM covering both
halves.  The QR sweep is Python-bound, not flop-bound: each bulge
reflector is built from Python floats, packed by one struct call into a
buffer and applied to views of the work array, both of which real_schur
makes once per call (_francis_step).  A deflated 2x2 block with two real
eigenvalues is made triangular in closed form, as LAPACK dlanv2
standardizes one, by one rotation applied as a bulge step is.

As in LAPACK dgeev, the eigenvalues are one complex array, an entry per
diagonal block: exactly real for a real eigenvalue, sigma + i omega with
omega > 0 for the pair sigma +- i omega.  The basis is one real n x n
matrix in which a pair takes two adjacent columns (re, im), as
block_starts counts them; its inverse and every term are real too.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import densecore as dc
from .densecore import EPS
from .errors import ConvergenceError, NotDiagonalizableError, ShapeError

MAX_SWEEPS_PER_N = 30
_RCOND_MIN = 1e-12
# Hessenberg reduces panels of _HESS_NB columns while more than _HESS_NX
# remain (_HESS_NB <= _HESS_NX, so every panel is whole); both measured
_HESS_NB = 32
_HESS_NX = 32
_NORM_MIN = 2.0**-480  # above it, a sum of squares keeps full precision
_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])
_pack_3x3 = struct.Struct("9d").pack_into  # nine floats into a 3x3 array, row by row
_pack_2x2 = struct.Struct("4d").pack_into


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues of a real matrix with its real eigenvector basis.

    eigenvalues is the complex array of the module docstring, real
    entries first.  Columns of basis follow it: a_i for each real
    eigenvalue, then (b_i, p_i), the real and imaginary parts of the unit
    right eigenvector, for each pair.  The matching rows of basis_inv are
    c_i and (2 d_i, 2 q_i), where (d_i, q_i) is the left eigenvector scaled
    so that d_i^dag b_j = delta_ij; basis_inv is Y_r^-1 Z^T (basis_inverse),
    and basis_rcond its 1-norm reciprocal condition with basis.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray
    basis_rcond: float


def _house_vec(x):
    """Unit reflector direction v with (I - 2 v v^T) x = alpha e1, or None.
    An x with norm below _NORM_MIN is first divided exactly by the power of
    two dc.pow2_scale(x), so its squares do not underflow (LAPACK dlarfg)."""
    v = np.array(x, dtype=float)  # contiguous, so each norm is one dot
    normx = math.sqrt(v.dot(v))
    if normx < _NORM_MIN:
        v /= dc.pow2_scale(v)
        normx = math.sqrt(v.dot(v))
    if normx == 0.0:
        return None
    v[0] += normx if v[0] >= 0.0 else -normx
    return v / math.sqrt(v.dot(v))


def _hessenberg_panel(a, k, nb):
    """Reduce columns k..k+nb-1 of H in the work array a = [H | Q^T], as
    LAPACK dlahr2 and dgehrd do.

    The panel's reflectors I - 2 v_j v_j^T multiply to I - V T V^T (compact
    WY, Schreiber and Van Loan 1989), kept as V and W = V T, built a column
    at a time, with Y = A W for A the matrix at the panel's start.  Each
    panel column is brought up to date only when it is reached: the right
    products of the reflectors before it (A - Y V^T), then their left
    products (I - V W^T), both as matrix-vector products.  The loop needs
    rows k+1.. of Y only; rows 0..k take their right products afterwards
    with GEMMs, as do the trailing columns of H, and rows k+1.. of the
    trailing columns and of Q^T take the left products as one more.
    """
    n = a.shape[0]
    # rows k+1..n-1 of V, W and Y; v_j starts at row k+j+1, index j
    v, w, y = np.zeros((3, n - k - 1, nb))
    for j in range(nb):
        col = a[k + 1:, k + j]
        if j:
            col -= y[:, :j] @ v[j - 1, :j]
            col -= v[:, :j] @ (w[:, :j].T @ col)
        u = _house_vec(col[j:])
        if u is None:
            continue
        col[j] -= 2.0 * u[0] * (u @ col[j:])
        col[j + 1:] = 0.0
        v[j:, j] = u
        vu = v[j:, :j].T @ u
        w[:, j] = -2.0 * (w[:, :j] @ vu)
        w[j:, j] += 2.0 * u
        y[:, j] = 2.0 * (a[k + 1:, k + j + 1:n] @ u - y[:, :j] @ vu)
    top = a[:k + 1, k + 1:n]
    top -= (top @ w) @ v.T
    a[k + 1:, k + nb:n] -= y @ v[nb - 1:].T
    rows = a[k + 1:, k + nb:]
    rows -= v @ (w.T @ rows)


def hessenberg_reduce(a):
    """Householder similarity reduction, in place, of the C-ordered n x 2n
    work array a = [M | I] to [H | Q^T], with Q H Q^T = M.

    While more than _HESS_NX columns remain to reduce, a panel of _HESS_NB
    of them is reduced at once (_hessenberg_panel); the last _HESS_NX
    columns, and so every n <= _HESS_NX + 2, take one reflector at a time,
    its left product on the rows it mixes of both halves of the work array
    and its right product on H's columns (LAPACK dgehd2).  eigensystem
    hands it M with ||M||_F = 1, so no product overflows.
    """
    n = a.shape[0]
    k = 0
    while n - 2 - k > _HESS_NX:
        _hessenberg_panel(a, k, _HESS_NB)
        k += _HESS_NB
    for k in range(k, n - 2):
        v = _house_vec(a[k + 1:, k])
        if v is None:
            continue
        v2 = 2.0 * v
        rows = a[k + 1:, k:]
        rows -= v2[:, None] * (v @ rows)
        cols = a[:, k + 1:n]
        cols -= (cols @ v)[:, None] * v2
        a[k + 2:, k] = 0.0


def _bulge_slabs(a):
    """Views of the work array a = [T | Z^T] that a sweep's steps transform,
    one entry for each k < n - 2.  Its first two are the 3x3 bulge step's
    at row k: rows k..k+2 from column k-1 on (from column 0 at k = 0), and
    columns k..k+2 of T down to row k+3.  Its last two are the closing 2x2
    step's of a sweep whose active block ends at row k + 2: rows k+1..k+2
    from column k on, and columns k+1..k+2 of T down to row k+2."""
    return [
        (a[k:k + 3, max(k - 1, 0):], a[:k + 4, k:k + 3], a[k + 1:k + 3, k:], a[:k + 3, k + 1:k + 3])
        for k in range(a.shape[0] - 2)
    ]


def _francis_step(a, lo, hi, r1, r2, slabs, pm, pm2, flat):
    """One implicit double-shift sweep on the active block [lo, hi] of the
    work array a = [T | Z^T] (C-ordered, n x 2n).

    r1 and r2 are the shifts, two reals or a conjugate pair; the first
    column of (T - r1 I)(T - r2 I) subtracts each before multiplying, so a
    cluster far from 0 does not cancel it to rounding noise (LAPACK dlahqr).
    Each bulge reflector is built from (x, y, w) in Python floats, packed
    into the 3x3 buffer pm and applied only where the Hessenberg bulge is
    nonzero (Golub & Van Loan, Matrix Computations, section 7.5.5).  The
    reflector is symmetric, so one left product on rows k..k+2 of a, from
    column max(lo, k-1) on, updates those rows of T and columns k..k+2 of
    Z together; the right product touches columns k..k+2 of T down to row
    min(k+3, hi).  slabs is _bulge_slabs(a); only the first step's rows
    and the last 3x3 step's columns are sliced here.  The last step
    (w = 0) is a 2x2 reflector, packed into the 2x2 buffer pm2.  The
    entries the reflectors zero below the subdiagonal are never read again
    in the sweep, so two strided writes through flat, a's flat view, set
    the second and third subdiagonals of [lo, hi] to 0 at its end.
    real_schur makes slabs, pm, pm2 and flat once per call.
    """
    t00, t10 = a.item(lo, lo), a.item(lo + 1, lo)
    x = ((t00 - r1) * (t00 - r2)).real + a.item(lo, lo + 1) * t10
    y = t10 * (t00 + a.item(lo + 1, lo + 1) - (r1 + r2).real)
    w = a.item(lo + 2, lo + 1) * t10
    last = hi - 2
    steps = slabs[lo:last + 1]
    # the first step's rows start at column lo and the last step's columns
    # end at row hi, so no product takes in column lo - 1 or row hi + 1
    steps[0] = a[lo:lo + 3, lo:], steps[0][1], None, None
    steps[-1] = steps[-1][0], a[:hi + 1, last:last + 3], None, None
    for k, (rows, cols, _, _) in enumerate(steps, lo):
        alpha = math.hypot(x, y, w)
        if alpha != 0.0:
            u = x + alpha if x >= 0.0 else x - alpha
            nv = math.hypot(u, y, w)
            u, v, c = u / nv, y / nv, w / nv
            uv, uc, vc = -2.0 * u * v, -2.0 * u * c, -2.0 * v * c
            _pack_3x3(
                pm, 0,
                1.0 - 2.0 * u * u, uv, uc,
                uv, 1.0 - 2.0 * v * v, vc,
                uc, vc, 1.0 - 2.0 * c * c,
            )
            rows[...] = pm.dot(rows)
            cols[...] = cols.dot(pm)
        x, y = a.item(k + 1, k), a.item(k + 2, k)
        w = a.item(k + 3, k) if k < last else 0.0
    alpha = math.hypot(x, y)
    if alpha != 0.0:
        u = x + alpha if x >= 0.0 else x - alpha
        nv = math.hypot(u, y)
        u, v = u / nv, y / nv
        uv = -2.0 * u * v
        _pack_2x2(pm2, 0, 1.0 - 2.0 * u * u, uv, uv, 1.0 - 2.0 * v * v)
        rows, cols = slabs[last][2:]
        rows[...] = pm2.dot(rows)
        cols[...] = cols.dot(pm2)
    d = a.shape[1] + 1  # a[i, i - s] is flat[i * d - s]
    flat[(lo + 2) * d - 2:hi * d:d] = 0.0
    flat[(lo + 3) * d - 3:hi * d:d] = 0.0


def _triangularize_blocks(t, z, los, lams):
    """Rotate the disjoint 2x2 pair blocks of the complex t at rows los to
    upper triangular, each with its eigenvalue lams[i] at its top left:
    t <- G^H t G and z <- z G for the block diagonal unitary G whose block
    at lo has the block's unit eigenvector for lam as its first column
    (MATLAB rsf2csf).  Each product is one update of the gathered row or
    column pairs of all blocks.  Returns the (k, 2, 2) stack of G's blocks
    and the (k, 2) row pairs.  right_eigenvectors is its one caller;
    real_schur splits a real block by itself (_split_2x2)."""
    pairs = np.add.outer(los, (0, 1))
    shifted = t[pairs[:, :, None], pairs[:, None, :]] - np.multiply.outer(lams, np.eye(2))
    # eigenvectors (b, lam - a) and (lam - d, c) from the two rows of each
    # block minus lam; the better-scaled one wins, the first on a tie
    both = shifted[:, :, ::-1] * _FLIP
    # each norm one dot of the entries' magnitudes
    mags = abs(both)[:, :, None, :]
    norms = np.sqrt(mags @ mags.transpose(0, 1, 3, 2))[:, :, 0, 0]
    v = np.where(norms[:, 1:] > norms[:, :1], both[:, 1], both[:, 0]) / norms.max(axis=1, keepdims=True)
    g = np.empty((len(los), 2, 2), dtype=v.dtype)
    g[:, :, 0] = v
    g[:, 0, 1], g[:, 1, 1] = -v[:, 1].conj(), v[:, 0].conj()
    g_t = g.transpose(0, 2, 1)
    t.T[pairs] = g_t @ t.T[pairs]
    t[pairs] = g_t.conj() @ t[pairs]
    z.T[pairs] = g_t @ z.T[pairs]
    t[los + 1, los] = 0.0
    return g, pairs


def _eig_2x2(t, l):
    """The two eigenvalues of the 2x2 block of t at l, as Python numbers: a
    conjugate pair sigma +- i omega, omega > 0 first, or two reals, the
    larger in magnitude first."""
    (a, b), (c, d) = t[l:l + 2, l:l + 2].tolist()
    mid = (a + d) / 2.0
    disc = ((a - d) / 2.0) ** 2 + b * c
    if disc < 0.0:
        omega = math.sqrt(-disc)
        return complex(mid, omega), complex(mid, -omega)
    sq = math.sqrt(disc) if mid >= 0.0 else -math.sqrt(disc)
    return mid + sq, mid - sq


def _split_2x2(a, l):
    """Eigenvalue entries of the deflated 2x2 block of T at l in the work
    array a = [T | Z^T], in block order: [sigma + i omega] for a complex
    pair, whose block is kept, or the two diagonal entries after the block
    of two real eigenvalues is made upper triangular in closed form.

    As LAPACK dlanv2 standardizes a block, one rotation G = [[c, -s],
    [s, c]] built from Python floats puts the first eigenvalue lam of
    _eig_2x2 at the block's top left: (c, s) is the block's unit
    eigenvector for lam, the better-scaled of (b, lam - t_ll) and
    (lam - t_l+1,l+1, t_l+1,l), the first on a tie, as _triangularize_blocks
    chooses a pair's.  G is applied as a bulge reflector is: G^T on rows l
    and l+1 of a from column l on, which updates T's rows and Z's columns
    together, then G on T's columns l and l+1 down to row l+1; the entry
    below the block's diagonal is then set to an exact 0.
    """
    lam, _ = _eig_2x2(a, l)
    if isinstance(lam, complex):
        return [lam]
    (p, b), (c, d) = a[l:l + 2, l:l + 2].tolist()
    u, v, u2, v2 = b, lam - p, lam - d, c
    norm, norm2 = math.hypot(u, v), math.hypot(u2, v2)
    if norm2 > norm:
        u, v, norm = u2, v2, norm2
    cs, sn = u / norm, v / norm
    g = np.empty((2, 2))
    _pack_2x2(g, 0, cs, -sn, sn, cs)
    rows = a[l:l + 2, l:]
    rows[...] = g.T.dot(rows)
    cols = a[:l + 2, l:l + 2]
    cols[...] = cols.dot(g)
    a[l + 1, l] = 0.0
    return [complex(a.item(l, l)), complex(a.item(l + 1, l + 1))]


def real_schur(a):
    """Francis double-shift QR with deflation, in place, of the C-ordered
    n x 2n work array a = [H | Q^T], H upper Hessenberg, to [T | Z^T].

    T is quasi-upper-triangular (every surviving 2x2 diagonal block has
    complex eigenvalues) and Z T Z^T = Q H Q^T.  Returns the complex
    eigenvalue array of the module docstring, one entry per diagonal block
    in block order.  The active block starts below the lowest subdiagonal
    with |t[l, l-1]| <= n eps ||T||_F, the normwise rule of Golub & Van
    Loan, Matrix Computations, section 7.5, which is zeroed.  As in LAPACK
    dlahqr, each block's entry is recorded when the block deflates, and no
    later sweep touches it; a deflation leaves every subdiagonal above the
    block as it was and a sweep every one outside its block, so one scan
    of the whole subdiagonal comes first and each sweep's block is scanned
    again after it.  A 2x2 block with two real eigenvalues is split in
    closed form (_split_2x2).  eigensystem hands it the Hessenberg form of
    M with ||M||_F = 1, so squared entries of T's scale do not underflow.
    """
    n = a.shape[0]
    t = a[:, :n]
    slabs, pm, pm2, flat = _bulge_slabs(a), np.empty((3, 3)), np.empty((2, 2)), a.reshape(-1)
    # normwise, not local: a repeated eigenvalue stalls its subdiagonal
    # near eps ||H||, far above eps (|t_ll| + |t_l-1,l-1|)
    tol = n * EPS * dc.frobenius_norm(t)
    sub = t.diagonal(-1)  # a view: t[l, l-1] is sub[l-1]
    max_sweeps = MAX_SWEEPS_PER_N * n
    sweeps = 0
    block_iters = 0
    eigs = []  # bottom block first
    hi = n - 1
    # the negligible subdiagonals above row hi, ascending; a deflation
    # changes none above its block, and a sweep none outside it, so only
    # the swept block is scanned again (LAPACK dlahqr)
    small = [i for i, x in enumerate(sub[:hi].tolist()) if abs(x) <= tol]
    while hi >= 0:
        # the active block starts below the last negligible subdiagonal
        l = small[-1] + 1 if small else 0
        if l > 0:
            t[l, l - 1] = 0.0
        if l == hi:
            eigs.append(complex(t[hi, hi]))
            hi -= 1
            block_iters = 0
            del small[-1:]
        elif l == hi - 1:
            eigs.extend(reversed(_split_2x2(a, l)))
            hi -= 2
            block_iters = 0
            del small[-1:]
        else:
            if sweeps >= max_sweeps:
                raise ConvergenceError(hi, sweeps)
            if block_iters > 0 and block_iters % 10 == 0:
                # exceptional shift to break symmetry-induced cycles
                ex = abs(t.item(hi, hi - 1)) + abs(t.item(hi - 1, hi - 2))
                r1 = r2 = t.item(hi, hi) + 0.75 * ex
            else:
                r1, r2 = _eig_2x2(t, hi - 1)
            _francis_step(a, l, hi, r1, r2, slabs, pm, pm2, flat)
            sweeps += 1
            block_iters += 1
            small += [i for i, x in enumerate(sub[l:hi].tolist(), l) if abs(x) <= tol]
    return np.array(eigs[::-1], dtype=complex)


def block_starts(eigs):
    """First basis column of each eigenvalue's block, then the dimension:
    a real eigenvalue takes one column and a pair two."""
    return np.concatenate(([0], np.cumsum(1 + (eigs.imag > 0))))


def right_eigenvectors(t, z, eigs):
    """Right eigenvectors of Z T Z^T by back-substitution on the Schur form.

    eigs is real_schur's eigenvalue array, lambda_j for block j.  Complex
    copies of T and Z are made triangular by rotating every pair block to
    put lambda_j at its top left: T_c = G^H T G and Z_c = Z G (MATLAB
    rsf2csf, _triangularize_blocks), with G block diagonal, so each
    product is one update of the gathered rows or columns of all pair
    blocks; a Schur form with no pair block has G = I and skips them.  Y
    holds one column per eigenvalue, with T_c y_j = lambda_j y_j and 1
    atop block j.  One bottom-up sweep solves row i for every eigenvalue
    whose block starts below it, a division by t_ii - lambda_k raised to
    smin in magnitude, so a repeated eigenvalue still gives a finite vector
    (Golub & Van Loan, Matrix Computations, section 7.6; LAPACK ztrevc).
    Complex vectors stay inside this function.  It returns (X, Y_r), both
    real n x n in T's block order.  X = Z_c Y has a column for each real eigenvalue, unit
    with its sign canonicalized, and the (re, im) columns for each pair,
    unit together with the phase canonicalized; one _canonical_phase call
    normalizes all of them, a real column as a complex one with zero
    imaginary part.  Y_r holds the (re, im) columns of G Y with each
    column's normalization and sign or phase, so Z Y_r = X up to rounding;
    G Y_j is zero below block j, so Y_r is block upper triangular with
    exact zeros below its diagonal blocks.
    """
    n = t.shape[0]
    if not n:
        return np.zeros((0, 0)), np.zeros((0, 0))
    m = len(eigs)
    pairs = eigs.imag > 0
    widths = pairs + 1
    starts = np.cumsum(widths) - widths
    los = starts[pairs]
    # for each row, its block plus 1: the first eigenvalue whose block starts
    # below the row; and its column among the (re, im) column pairs of all
    # eigenvalues
    later = np.repeat(np.arange(1, m + 1), widths).tolist()
    cols = np.arange(n) + np.repeat(2 * np.arange(m) - starts, widths)
    smin = EPS * np.abs(t).max()
    t, z = t.astype(complex), z.astype(complex)
    if los.size:
        g, rows = _triangularize_blocks(t, z, los, eigs[pairs])
    # every divisor t_ii - lambda_k, raised to smin in magnitude
    d = np.subtract.outer(t.diagonal(), eigs)
    d[np.abs(d) < smin] = smin
    y = np.zeros((n, m), dtype=complex)
    y[starts, np.arange(m)] = 1.0
    # the last block's rows solve for no eigenvalue
    for i in range(int(starts[-1]) - 1, -1, -1):
        k = later[i]
        y[i, k:] = -(t[i, i + 1:] @ y[i + 1:, k:]) / d[i, k:]
    zy = z @ y
    if los.size:
        y[rows] = g @ y[rows]  # y becomes G Y, the eigenvectors of T itself
    # a real eigenvalue's vector is real; its imaginary part is rounding
    re, im = zy.real, np.where(pairs, zy.imag, 0.0)
    scale = np.sqrt((re**2).sum(axis=0) + (im**2).sum(axis=0))
    re, im, c, s = _canonical_phase(re / scale, im / scale)
    # the same rotation by -phi, as the complex factor e^(-i phi)
    w = y * ((c - 1j * s) / scale)
    x = np.empty((n, m, 2))
    x[:, :, 0], x[:, :, 1] = re, im
    return x.reshape(n, -1)[:, cols], w.view(float)[:, cols]


def _canonical_phase(re, im):
    """canonicalize_phase's result for each column of re + i im, one vector
    or an (n, k) stack, with the cosine and sine of the angle phi each was
    rotated by (cos phi = b_j / |v_j|, sin phi = p_j / |v_j| at the pinned
    entry v_j = b_j + i p_j)."""
    mags = re**2 + im**2
    if not (mags > 0.0).any(axis=0).all():
        raise ShapeError("cannot canonicalize a zero vector")
    # the pinned entry of each column: its row, and for a stack each column
    at = (mags.argmax(axis=0, keepdims=True), *map(np.arange, re.shape[1:]))
    bj, pj = re[at], im[at]
    r = np.hypot(bj, pj)
    c, s = bj / r, pj / r
    if not pj.any() and (bj > 0.0).all():
        return re, im, c, s
    re, im = c * re + s * im, c * im - s * re
    re[at], im[at] = r, 0.0
    return re, im, c, s


def canonicalize_phase(re, im):
    """Rotate the complex vector re + i im by a unit phase so its largest
    entry is real > 0; returns the rotated (re, im).

    Idempotent bit-for-bit: the pinned entry is stored with an exact zero
    imaginary part, so a second application returns its inputs unchanged.
    """
    return _canonical_phase(re, im)[:2]


def basis_inverse(z, y_r, eigs, cols):
    """B^-1 = (Y_r^-1)[cols] Z^T for the basis B = (Z Y_r)[:, cols], with
    Y_r from right_eigenvectors(t, z, eigs).

    Y_r^-1 is block upper triangular like Y_r and comes from one bottom-up
    block back-substitution, each 1x1 or 2x2 pivot block inverted in
    closed form.  In exact arithmetic no pivot is singular: a 1x1 block is
    1 over its vector's norm, and a 2x2 block is the (re, im) split of a
    multiple of the pair block's eigenvector, whose determinant is omega
    times a nonzero factor.  A numerically singular basis shows up as a
    large Y_r^-1, which eigensystem's rcond gate refuses.
    """
    n = y_r.shape[0]
    starts = block_starts(eigs).tolist()
    inv = np.zeros((n, n))
    for lo, hi in zip(starts[-2::-1], starts[:0:-1]):
        if hi - lo == 1:
            pivot = 1.0 / y_r[lo:hi, lo:hi]
        else:
            (a, b), (c, d) = y_r[lo:hi, lo:hi].tolist()
            pivot = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
        inv[lo:hi, lo:hi] = pivot
        inv[lo:hi, hi:] = -pivot @ (y_r[lo:hi, hi:] @ inv[hi:, hi:])
    return inv[cols] @ z.T


def eigensystem(m):
    """Eigenvalues, real eigenvector basis and its inverse of a real square
    matrix: real eigenvalues ascending, then pairs by (sigma, omega), equal
    keys in Schur order."""
    m = dc.as_array(m, 2)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeError(f"eigensystem of non-square {m.shape}")
    # fixed pre-scaling keeps the QR thresholds meaningful for extreme norms;
    # the exact power-of-two step first keeps ||M||_F itself from overflowing
    s = dc.pow2_scale(m)
    m_s = m / s
    norm_m = dc.frobenius_norm(m_s)
    if norm_m == 0.0:
        return EigenSystem(np.zeros(n, dtype=complex), np.eye(n), np.eye(n), 1.0)
    # the one work array of both reductions: [M / (s norm_m) | I] becomes
    # [H | Q^T], then [T | Z^T]
    a = np.concatenate((m_s / norm_m, np.eye(n)), axis=1)
    hessenberg_reduce(a)
    eigs = real_schur(a)
    t, z = a[:, :n], np.ascontiguousarray(a[:, n:].T)
    x, y_r = right_eigenvectors(t, z, eigs)
    # left to right: norm_m * s alone may overflow where an eigenvalue does not
    scaled = eigs * norm_m * s
    # a key per column, a pair's two sharing one (lexsort is stable, so they
    # stay in order); a pair whose omega underflows to 0 becomes a real double,
    # one entry per column (b, p): at omega = 0 its term is sigma (b 2d^T + p 2q^T)
    keys = np.repeat(scaled, 1 + (eigs.imag > 0))
    cols = np.lexsort((keys.imag, keys.real, keys.imag > 0))
    lam = keys[cols]
    j = n - int(np.count_nonzero(lam.imag))  # the real columns, all first
    basis = x[:, cols]
    basis_inv = basis_inverse(z, y_r, eigs, cols)
    rcond = dc.rcond_1norm(basis, basis_inv)
    if not rcond >= _RCOND_MIN:
        raise NotDiagonalizableError(f"eigenvector basis rcond {rcond:.3e}")
    return EigenSystem(np.concatenate((lam[:j], lam[j::2])), basis, basis_inv, rcond)
