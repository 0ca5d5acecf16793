"""Wedge products and bivectors on R^n.

A bivector u^v is stored as the antisymmetric matrix u v^T - v u^T, so its
action on a vector is a plain matrix-vector product: it annihilates the
component orthogonal to span(u, v) and rotates the in-plane component by
pi/2, in the direction taking v towards u.
"""

from dataclasses import dataclass

import numpy as np

from .densecore import as_vector, dot
from .errors import DegeneratePlaneError, ShapeError


@dataclass(frozen=True)
class Bivector:
    rep: np.ndarray  # n x n, exactly antisymmetric

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        if rep.ndim != 2 or rep.shape[0] != rep.shape[1]:
            raise ShapeError(f"bivector representation must be square, got {rep.shape}")
        # antisymmetrize so drift from upstream arithmetic cannot accumulate
        object.__setattr__(self, "rep", (rep - rep.T) / 2.0)

    @property
    def dim(self):
        return self.rep.shape[0]


def wedge(u, v):
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ShapeError(f"wedge of {u.shape} against {v.shape}")
    return Bivector(np.outer(u, v) - np.outer(v, u))


def bivector_square(b):
    """Matrix square of the bivector.

    For orthonormal generators this is minus the projector onto their
    plane: -identity on the plane, zero on the orthogonal complement.
    """
    return b.rep @ b.rep


def orthonormalize_pair(u, v):
    """Gram-Schmidt a pair of independent vectors into an orthonormal pair."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ShapeError(f"orthonormalize pair of {u.shape} against {v.shape}")
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise DegeneratePlaneError("first vector is zero")
    e1 = u / nu
    w = v - dot(v, e1) * e1
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * np.linalg.norm(v):
        raise DegeneratePlaneError("vectors are numerically collinear")
    return e1, w / nw
