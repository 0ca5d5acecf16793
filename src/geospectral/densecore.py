"""Dense real matrix/vector primitives shared by every other module.

All values are plain float64 numpy arrays and every operation is a pure
function; nothing here mutates its arguments.
"""

import numpy as np

from .errors import ShapeError, SingularMatrixError

EPS = float(np.finfo(np.float64).eps)


def as_vector(v):
    """Coerce to a finite 1-d float array, copying the input."""
    a = np.array(v, dtype=float)
    if a.ndim != 1:
        raise ShapeError(f"expected a vector, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeError("vector has non-finite entries")
    return a


def as_matrix(m):
    """Coerce to a finite 2-d float array, copying the input."""
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeError("matrix has non-finite entries")
    return a


def frobenius_norm(a):
    """Frobenius norm, scaled by the largest absolute entry so that squaring
    neither overflows nor underflows (Blue 1978)."""
    a = np.asarray(a, dtype=float)
    big = float(np.max(np.abs(a))) if a.size else 0.0
    if big == 0.0 or not np.isfinite(big):
        return big
    return big * float(np.sqrt(np.sum((a / big) ** 2)))


def pow2_scale(a):
    """The power of two s with s <= max|a_ij| < 2s (0.5 for a zero or empty
    array); dividing by it is exact and brings the largest entry to [1, 2)."""
    return float(np.ldexp(1.0, int(np.frexp(np.max(np.abs(a), initial=0.0))[1]) - 1))


def dot(u, v):
    """Dot product; dot(u, v) == dot(v, u) exactly (same summation order)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ShapeError(f"dot of {u.shape} against {v.shape}")
    # elementwise product commutes exactly in IEEE arithmetic, so summing
    # u*v and v*u in the same index order gives bit-identical results
    return float(np.sum(u * v))


def lu_factor(a):
    """Partial-pivoted LU. Returns (lu, swaps) with L/U packed in one array."""
    lu = np.array(a, dtype=float)
    n, m = lu.shape
    if n != m:
        raise ShapeError(f"LU of non-square matrix {lu.shape}")
    threshold = n * EPS * (np.max(np.abs(lu)) if lu.size else 0.0)
    swaps = np.arange(n)
    for k in range(n):
        r = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[r, k]) <= threshold:
            raise SingularMatrixError(k, float(lu[r, k]))
        if r != k:
            lu[[k, r], :] = lu[[r, k], :]
            swaps[[k, r]] = swaps[[r, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, swaps


def lu_solve(lu, swaps, b):
    """Solve AX = B for a matrix B, using a factorization from lu_factor."""
    n = lu.shape[0]
    x = np.array(b, dtype=float)
    if x.shape[0] != n:
        raise ShapeError(f"rhs rows {x.shape[0]} != system size {n}")
    x = x[swaps, :]
    for k in range(1, n):  # forward substitution, unit lower triangle
        x[k, :] -= lu[k, :k] @ x[:k, :]
    for k in range(n - 1, -1, -1):  # back substitution
        x[k, :] -= lu[k, k + 1:] @ x[k + 1:, :]
        x[k, :] /= lu[k, k]
    return x


def inverse(a):
    """Inverse by partial-pivoted elimination.

    Raises SingularMatrixError (with the offending pivot index) when A is
    numerically singular per the n*eps*max|A| threshold.
    """
    lu, swaps = lu_factor(a)
    return lu_solve(lu, swaps, np.eye(lu.shape[0]))


def rcond_1norm(a, a_inv):
    """Reciprocal condition estimate from explicit inverse (1-norm)."""
    na = np.linalg.norm(a, 1)
    ni = np.linalg.norm(a_inv, 1)
    if na == 0.0 or ni == 0.0:
        return 0.0
    return 1.0 / (na * ni)
