"""Dense real matrix/vector primitives shared by every other module.

All values are plain float64 numpy arrays and every operation is a pure
function; nothing here mutates its arguments.
"""

import numpy as np

from .errors import ShapeError

EPS = float(np.finfo(np.float64).eps)


def as_array(x, ndim):
    """Coerce to a finite real float array with ndim axes, as a C-ordered
    copy: every entry point passes its input here, so the package decides
    memory layout once and its results depend on values alone.  A complex,
    ragged or non-numeric input raises ShapeError instead of being
    truncated or cast, as does a wrong number of axes or a non-finite entry.
    """
    what = "vector" if ndim == 1 else "matrix"
    try:
        a = np.asarray(x)
        if np.iscomplexobj(a):
            raise ShapeError(f"{what} has complex entries")
        a = np.array(a, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"cannot read a real {what}: {exc}") from None
    if a.ndim != ndim:
        raise ShapeError(f"expected a {what}, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeError(f"{what} has non-finite entries")
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


def rcond_1norm(a, a_inv):
    """Reciprocal condition estimate from explicit inverse (1-norm)."""
    na = np.linalg.norm(a, 1)
    ni = np.linalg.norm(a_inv, 1)
    if na == 0.0 or ni == 0.0:
        return 0.0
    return 1.0 / (na * ni)
