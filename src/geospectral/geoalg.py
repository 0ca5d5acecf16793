"""Wedge products on R^n.

The wedge u^v is the antisymmetric matrix u v^T - v u^T, so its action on a
vector is a plain matrix-vector product: it annihilates the component
orthogonal to span(u, v) and rotates the in-plane component by pi/2, in the
direction taking v towards u.
"""

import numpy as np

from .densecore import as_vector
from .errors import ShapeError


def wedge(u, v):
    """The n x n matrix u v^T - v u^T."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ShapeError(f"wedge of {u.shape} against {v.shape}")
    return np.outer(u, v) - np.outer(v, u)
