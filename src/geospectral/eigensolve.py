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

Both reductions keep the matrix beside its orthogonal factor's transpose
in one C-ordered n x 2n work array, [H | Q^T] and then [T | Z^T].  A
reflector is symmetric, so applying it takes two products: one on the
contiguous rows of both halves that it mixes, one on the matrix's
columns.  The QR sweep is Python-bound, not flop-bound: each bulge
reflector is a 3x3 matrix built from Python floats, and its right product
touches only the columns of T above the bulge.  A bulge step slices each
slab once and tests nothing for the last, 2x2 step, which follows the
loop; two strided writes per sweep clear the bulge entries, and the
deflation test between sweeps is one numpy scan of the subdiagonal.

As in LAPACK dgeev, the eigenvalues are one complex array, an entry per
diagonal block: exactly real for a real eigenvalue, sigma + i omega with
omega > 0 for the pair sigma +- i omega.  The basis is one real n x n
matrix in which a pair takes two adjacent columns (re, im), as
block_starts counts them; its inverse and every term are real too.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import densecore as dc
from .densecore import EPS
from .errors import ConvergenceError, NotDiagonalizableError, ShapeError

MAX_SWEEPS_PER_N = 30
_RCOND_MIN = 1e-12
_NORM_MIN = 2.0**-480  # above it, a sum of squares keeps full precision


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues of a real matrix with its real eigenvector basis.

    eigenvalues is the complex array of the module docstring.  Column
    block i of basis (block_starts) is a_i for a real eigenvalue and
    (b_i, p_i), the real and imaginary parts of the unit right
    eigenvector, for a pair.  The matching rows of basis_inv are c_i and
    (2 d_i, 2 q_i), where (d_i, q_i) is the left eigenvector scaled so
    that d_i^dag b_j = delta_ij; basis_inv is Y_r^-1 Z^T (basis_inverse),
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
    normx = np.linalg.norm(x)
    if normx < _NORM_MIN:
        x = x / dc.pow2_scale(x)
        normx = np.linalg.norm(x)
    if normx == 0.0:
        return None
    v = x.astype(float)
    v[0] += normx if v[0] >= 0.0 else -normx
    return v / np.linalg.norm(v)


def hessenberg_reduce(m):
    """Householder similarity reduction on the work array [H | Q^T].
    Returns (H, Q) with Q H Q^T = M.

    As in real_schur, M is divided by the power of two dc.pow2_scale(M)
    and H multiplied back, both exactly, so that H scales with M bit for
    bit and no product overflows for a finite M.
    """
    m = dc.as_array(m, 2)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeError(f"hessenberg of non-square {m.shape}")
    scale = dc.pow2_scale(m)
    a = np.hstack([m, np.eye(n)])
    a[:, :n] /= scale
    for k in range(n - 2):
        v = _house_vec(a[k + 1:, k])
        if v is None:
            continue
        v2 = 2.0 * v
        rows = a[k + 1:, k:]
        rows -= np.outer(v2, v @ rows)
        cols = a[:, k + 1:n]
        cols -= np.outer(cols @ v, v2)
        a[k + 2:, k] = 0.0
    a[:, :n] *= scale
    return a[:, :n], a[:, n:].T


def _francis_step(a, lo, hi, r1, r2):
    """One implicit double-shift sweep on the active block [lo, hi] of the
    work array a = [T | Z^T] (C-ordered, n x 2n).

    r1 and r2 are the shifts, two reals or a conjugate pair; the first
    column of (T - r1 I)(T - r2 I) subtracts each before multiplying, so a
    cluster far from 0 does not cancel it to rounding noise (LAPACK dlahqr).
    Each bulge reflector is built from (x, y, w) in Python floats into one
    3x3 Householder matrix and applied only where the Hessenberg bulge is
    nonzero (Golub & Van Loan, Matrix Computations, section 7.5.5).  The
    reflector is symmetric, so one left product on rows k..k+2 of a, from
    column max(lo, k-1) on, updates those rows of T and columns k..k+2 of Z
    together; the right product touches columns k..k+2 of T down to row
    min(k+3, hi).  The loop runs the 3x3 steps; the last step (w = 0) is a
    2x2 reflector after it.  The entries each reflector zeroes below the
    subdiagonal are never read again in the sweep, so two strided writes
    set the second and third subdiagonals of [lo, hi] to 0 at its end.
    """
    pm = np.empty((3, 3))
    pm_flat = pm.reshape(-1)  # a view: filling it is cheaper than pm.flat
    t00, t10 = a.item(lo, lo), a.item(lo + 1, lo)
    x = ((t00 - r1) * (t00 - r2)).real + a.item(lo, lo + 1) * t10
    y = t10 * (t00 + a.item(lo + 1, lo + 1) - (r1 + r2).real)
    w = a.item(lo + 2, lo + 1) * t10
    c0, last = lo, hi - 2
    for k in range(lo, hi - 1):
        alpha = math.hypot(x, y, w)
        if alpha != 0.0:
            u = x + alpha if x >= 0.0 else x - alpha
            nv = math.hypot(u, y, w)
            u, v, c = u / nv, y / nv, w / nv
            pm_flat[:] = (
                1.0 - 2.0 * u * u, -2.0 * u * v, -2.0 * u * c,
                -2.0 * u * v, 1.0 - 2.0 * v * v, -2.0 * v * c,
                -2.0 * u * c, -2.0 * v * c, 1.0 - 2.0 * c * c,
            )
            rows = a[k:k + 3, c0:]
            rows[...] = pm.dot(rows)
            cols = a[:k + 4 if k < last else hi + 1, k:k + 3]
            cols[...] = cols.dot(pm)
        c0 = k
        x, y = a.item(k + 1, k), a.item(k + 2, k)
        w = a.item(k + 3, k) if k < last else 0.0
    alpha = math.hypot(x, y)
    if alpha != 0.0:
        u = x + alpha if x >= 0.0 else x - alpha
        nv = math.hypot(u, y)
        u, v = u / nv, y / nv
        pm = np.array(((1.0 - 2.0 * u * u, -2.0 * u * v), (-2.0 * u * v, 1.0 - 2.0 * v * v)))
        rows = a[hi - 1:hi + 1, hi - 2:]
        rows[...] = pm.dot(rows)
        cols = a[:hi + 1, hi - 1:hi + 1]
        cols[...] = cols.dot(pm)
    flat, d = a.reshape(-1), a.shape[1] + 1  # a[i, i - s] is flat[i * d - s]
    flat[(lo + 2) * d - 2:hi * d:d] = 0.0
    flat[(lo + 3) * d - 3:hi * d:d] = 0.0


def _triangularize_2x2(t, z, l, lam):
    """Rotate the 2x2 diagonal block of t at l to upper triangular with lam,
    one of its eigenvalues, at (l, l): t <- G^H t G and z <- z G for the
    unitary G whose first column is the block's unit eigenvector for lam
    (MATLAB rsf2csf); returns G.  Real for a real lam; t and z must be
    complex otherwise."""
    (a, b), (c, d) = t[l:l + 2, l:l + 2]
    # eigenvector of the block for lam, from the better-scaled row
    v = np.array(max([b, lam - a], [lam - d, c], key=np.linalg.norm))
    v /= np.linalg.norm(v)
    g = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    t[:, l:l + 2] = t[:, l:l + 2] @ g
    t[l:l + 2, :] = g.conj().T @ t[l:l + 2, :]
    z[:, l:l + 2] = z[:, l:l + 2] @ g
    t[l + 1, l] = 0.0
    return g


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


def _split_2x2(t, z, l):
    """Eigenvalue entries of the deflated 2x2 block at l, in block order:
    [sigma + i omega] for a complex pair, whose block is kept, or the two
    diagonal entries after the block is triangularized."""
    lam, _ = _eig_2x2(t, l)
    if isinstance(lam, complex):
        return [lam]
    _triangularize_2x2(t, z, l, lam)
    return [complex(t[l, l]), complex(t[l + 1, l + 1])]


def real_schur(h, q):
    """Francis double-shift QR with deflation of the upper Hessenberg h,
    with q n x n; any other input raises ShapeError.

    Returns (T, Z, eigs) with T quasi-upper-triangular (every surviving 2x2
    diagonal block has complex eigenvalues), Z T Z^T = Q H Q^T and eigs the
    complex eigenvalue array of the module docstring, one entry per
    diagonal block in block order.  Before each sweep one scan finds the
    lowest subdiagonal with |t[l, l-1]| <= n eps ||T||_F, the normwise
    rule of Golub & Van Loan, Matrix Computations, section 7.5, and zeroes
    it.  As in LAPACK dlahqr, each block's entry is recorded when the
    block deflates; no later sweep touches it.  T and Z live in one
    C-ordered work array [T | Z^T] and are returned C-ordered.  T is
    worked on divided by the power of two dc.pow2_scale(h), which is exact
    and keeps squared entries from underflowing.
    """
    h, q = dc.as_array(h, 2), dc.as_array(q, 2)
    n = h.shape[0]
    if h.shape != (n, n) or q.shape != (n, n) or np.any(np.tril(h, -2)):
        raise ShapeError(f"real_schur needs upper Hessenberg h and q n x n, got {h.shape}, {q.shape}")
    scale = dc.pow2_scale(h)
    a = np.empty((n, 2 * n))
    a[:, :n] = h / scale
    a[:, n:] = q.T
    t, z = a[:, :n], a[:, n:].T
    # normwise, not local: a repeated eigenvalue stalls its subdiagonal
    # near eps ||H||, far above eps (|t_ll| + |t_l-1,l-1|)
    tol = n * EPS * dc.frobenius_norm(t)
    sub = t.diagonal(-1)  # a view: t[l, l-1] is sub[l-1]
    max_sweeps = MAX_SWEEPS_PER_N * n
    sweeps = 0
    block_iters = 0
    eigs = []  # bottom block first
    hi = n - 1
    while hi >= 0:
        # the active block starts below the last negligible subdiagonal
        small = np.flatnonzero(np.abs(sub[:hi]) <= tol)
        l = int(small[-1]) + 1 if small.size else 0
        if l > 0:
            t[l, l - 1] = 0.0
        if l == hi:
            eigs.append(complex(t[hi, hi]))
            hi -= 1
            block_iters = 0
        elif l == hi - 1:
            eigs.extend(reversed(_split_2x2(t, z, l)))
            hi -= 2
            block_iters = 0
        else:
            if sweeps >= max_sweeps:
                raise ConvergenceError(hi, sweeps)
            if block_iters > 0 and block_iters % 10 == 0:
                # exceptional shift to break symmetry-induced cycles
                ex = abs(t.item(hi, hi - 1)) + abs(t.item(hi - 1, hi - 2))
                r1 = r2 = t.item(hi, hi) + 0.75 * ex
            else:
                r1, r2 = _eig_2x2(t, hi - 1)
            _francis_step(a, l, hi, r1, r2)
            sweeps += 1
            block_iters += 1
    return t * scale, np.ascontiguousarray(z), np.array(eigs[::-1], dtype=complex) * scale


def block_starts(eigs):
    """First basis column of each eigenvalue's block, then the dimension:
    a real eigenvalue takes one column and a pair two."""
    return np.concatenate(([0], np.cumsum(1 + (eigs.imag > 0))))


def right_eigenvectors(t, z, eigs):
    """Right eigenvectors of Z T Z^T by back-substitution on the Schur form.

    eigs is real_schur's eigenvalue array, lambda_j for block j.  Complex
    copies of T and Z are made triangular by rotating each pair block to put
    lambda_j at its top left: T_c = G^H T G and Z_c = Z G (MATLAB rsf2csf).
    Y holds one column per eigenvalue, with T_c y_j = lambda_j y_j and 1 atop
    block j.  One bottom-up sweep solves row i for every eigenvalue whose
    block starts below it, a division by t_ii - lambda_k raised to smin in
    magnitude, so a repeated eigenvalue still gives a finite vector (Golub &
    Van Loan, Matrix Computations, section 7.6; LAPACK ztrevc).  Complex
    vectors stay inside this function.  It returns (X, Y_r), both real
    n x n in T's block order.  X = Z_c Y has a column for each real
    eigenvalue, unit with its sign canonicalized, and the (re, im) columns
    for each pair, unit together with the phase canonicalized.  Y_r holds
    the (re, im) columns of G Y with each block's normalization and sign or
    phase, so Z Y_r = X up to rounding; G Y_j is zero below block j, so Y_r
    is block upper triangular with exact zeros below its diagonal blocks.
    """
    n = t.shape[0]
    starts = block_starts(eigs)
    smin = EPS * (np.max(np.abs(t)) if n else 0.0)
    t, z = t.astype(complex), z.astype(complex)
    rotations = [
        (lo, _triangularize_2x2(t, z, lo, lam)) for lam, lo in zip(eigs, starts) if lam.imag > 0
    ]
    # the first eigenvalue whose block starts below each row
    later = np.repeat(np.arange(1, len(eigs) + 1), np.diff(starts))
    y = np.zeros((n, len(eigs)), dtype=complex)
    y[starts[:-1], np.arange(len(eigs))] = 1.0
    for i in range(n - 1, -1, -1):
        k = later[i]
        d = t[i, i] - eigs[k:]
        d[np.abs(d) < smin] = smin
        y[i, k:] = -(t[i, i + 1:] @ y[i + 1:, k:]) / d
    zy = z @ y
    for lo, g in rotations:  # y becomes G Y, the eigenvectors of T itself
        y[lo:lo + 2] = g @ y[lo:lo + 2]
    x, y_r = np.empty((n, n)), np.zeros((n, n))
    for lo, hi, v, w in zip(starts, starts[1:], zy.T, y.T):
        re, im = v.real, v.imag
        if hi - lo == 1:
            norm = np.linalg.norm(re)
            sign = _canonical_sign(re / norm)
            x[:, lo], y_r[:, lo] = sign * (re / norm), sign * (w.real / norm)
        else:
            scale = np.sqrt(np.sum(re**2) + np.sum(im**2))
            x[:, lo], x[:, lo + 1], c, s = _canonical_phase(re / scale, im / scale)
            # the same rotation by -phi, as the complex factor e^(-i phi)
            w = w * (complex(c, -s) / scale)
            y_r[:, lo], y_r[:, lo + 1] = w.real, w.imag
    return x, y_r


def _canonical_sign(v):
    """-1.0 if the largest-magnitude entry of v is negative, else 1.0; ties
    break at the lowest index."""
    return -1.0 if v[np.argmax(np.abs(v))] < 0.0 else 1.0


def _canonical_phase(re, im):
    """canonicalize_phase's result with the cosine and sine of the angle phi
    it rotated by."""
    mags = re**2 + im**2
    if not np.any(mags > 0.0):
        raise ShapeError("cannot canonicalize a zero vector")
    j = int(np.argmax(mags))
    bj, pj = re[j], im[j]
    if pj == 0.0 and bj > 0.0:
        return re, im, 1.0, 0.0
    phi = np.arctan2(pj, bj)
    c, s = np.cos(phi), np.sin(phi)
    re, im = c * re + s * im, c * im - s * re
    re[j] = np.hypot(bj, pj)
    im[j] = 0.0
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
    starts = block_starts(eigs)
    inv = np.zeros((n, n))
    for lo, hi in reversed(list(zip(starts[:-1], starts[1:]))):
        if hi - lo == 1:
            pivot = 1.0 / y_r[lo:hi, lo:hi]
        else:
            (a, b), (c, d) = y_r[lo:hi, lo:hi]
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
    norm_m = dc.frobenius_norm(m / s)
    if norm_m == 0.0:
        return EigenSystem(np.zeros(n, dtype=complex), np.eye(n), np.eye(n), 1.0)
    h, q = hessenberg_reduce(m / s / norm_m)
    t, z, eigs = real_schur(h, q)
    x, y_r = right_eigenvectors(t, z, eigs)
    # left to right: norm_m * s alone may overflow where an eigenvalue does not
    scaled = eigs * norm_m * s
    # a pair whose omega underflows to 0 becomes a real double, one entry per
    # column (b, p): at omega = 0 its plane term is sigma (b 2d^T + p 2q^T)
    split = np.repeat(scaled, 1 + ((scaled.imag == 0) & (eigs.imag > 0)))
    starts = block_starts(split)
    order = np.lexsort((split.imag, split.real, split.imag > 0))
    cols = [c for i in order for c in range(starts[i], starts[i + 1])]
    basis = x[:, cols]
    basis_inv = basis_inverse(z, y_r, eigs, cols)
    rcond = dc.rcond_1norm(basis, basis_inv)
    if not rcond >= _RCOND_MIN:
        raise NotDiagonalizableError(f"eigenvector basis rcond {rcond:.3e}")
    return EigenSystem(split[order], basis, basis_inv, rcond)
