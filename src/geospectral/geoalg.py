"""Wedge products on R^n.

The wedge u^v is the antisymmetric matrix u v^T - v u^T, so its action on a
vector is a plain matrix-vector product: it annihilates the component
orthogonal to span(u, v) and rotates the in-plane component by pi/2, in the
direction taking v towards u.
"""

import numpy as np

from .densecore import as_array
from .errors import ShapeError


def wedge(u, v):
    """The n x n matrix u v^T - v u^T."""
    u = as_array(u, 1)
    v = as_array(v, 1)
    if u.shape != v.shape:
        raise ShapeError(f"wedge of {u.shape} against {v.shape}")
    return np.outer(u, v) - np.outer(v, u)
