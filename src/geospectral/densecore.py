"""Dense real matrix/vector primitives shared by every other module.

All values are plain float64 numpy arrays and every operation is a pure
function; nothing here mutates its arguments.
"""

import math

import numpy as np

from .errors import ShapeError

EPS = float(np.finfo(np.float64).eps)
# a sum of squares at least this is exact to rounding: each square that
# underflowed is off by at most 2^-1074
_SQUARE_FLOOR = 2.0**-900


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
        if a.dtype.kind == "c":
            raise ShapeError(f"{what} has complex entries")
        a = np.array(a, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"cannot read a real {what}: {exc}") from None
    if a.ndim != ndim:
        raise ShapeError(f"expected a {what}, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ShapeError(f"{what} has non-finite entries")
    return a


def frobenius_norm(a):
    """Frobenius norm, safe from overflow and underflow: one dot (np.vdot,
    which raises no overflow warning) where the sum of squares is finite and
    at least _SQUARE_FLOOR, else scaled by the largest absolute entry so
    that squaring neither overflows nor underflows (Blue 1978)."""
    a = np.asarray(a, dtype=float)
    square = float(np.vdot(a, a))
    if _SQUARE_FLOOR <= square < math.inf:
        return math.sqrt(square)
    big = float(np.abs(a).max(initial=0.0))
    if big == 0.0 or not math.isfinite(big):
        return big
    return big * math.sqrt(((a / big) ** 2).sum())


def row_norms(a):
    """frobenius_norm of each row of the 2-D a, as a list, from one batched
    sum of squares (einsum, which warns of no overflow, as np.vdot)."""
    return [math.sqrt(x) if _SQUARE_FLOOR <= x < math.inf else frobenius_norm(a[i])
            for i, x in enumerate(np.einsum("ij,ij->i", a, a).tolist())]


def pow2_scale(a):
    """The power of two s with s <= max|a_ij| < 2s (0.5 for a zero or empty
    array); dividing by it is exact and brings the largest entry to [1, 2)."""
    return math.ldexp(1.0, math.frexp(np.abs(a).max(initial=0.0))[1] - 1)


def rcond_1norm(a, a_inv):
    """Reciprocal condition estimate from explicit inverse (1-norm); 1.0 for
    0 x 0, whose inverse is itself, as for any identity."""
    if a.size == 0:
        return 1.0
    # the largest column sum of magnitudes, as np.linalg.norm(a, 1) computes it
    na = np.abs(a).sum(axis=0).max(initial=0.0)
    ni = np.abs(a_inv).sum(axis=0).max(initial=0.0)
    if na == 0.0 or ni == 0.0:
        return 0.0
    return 1.0 / (na * ni)
