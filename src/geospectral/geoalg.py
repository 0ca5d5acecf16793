"""Wedge products on R^n and the plane term's explicit wedge forms.

The wedge u^v is the antisymmetric matrix u v^T - v u^T, so its action on a
vector is a plain matrix-vector product: it annihilates the component
orthogonal to span(u, v) and rotates the in-plane component by pi/2, in the
direction taking v towards u.

The plane term (1/nu) (b^p) [ omega (d d^T + q q^T) - sigma (d^q) ] is
written out here as an n x n array, with the wedge on either side, and
with its right and left planes swapped.  verify's identity checks compare
the factored form U C V^T against the left and right forms taken as
rank-two factors; these n x n forms are the tests' reference for those
checks, and decompose, reconstruct, apply and verify never build them.
"""

import numpy as np

from .densecore import as_array
from .errors import ShapeError
from .realdecomp import ComplexPlaneTerm


def wedge(u, v):
    """The n x n matrix u v^T - v u^T."""
    u = as_array(u, 1)
    v = as_array(v, 1)
    if u.shape != v.shape:
        raise ShapeError(f"wedge of {u.shape} against {v.shape}")
    return np.outer(u, v) - np.outer(v, u)


def plane_term_left_form(t):
    """The plane term with the right-eigenvector wedge on the left, applied
    by associativity as (b^p) X = b (p^T X) - p (b^T X).  Every outer
    product, the wedge d^q = d q^T - q d^T among them, is one broadcast
    product, so the form costs a few passes over n x n."""
    d, q = t.d[:, None], t.q[:, None]
    bracket = t.omega * (d * t.d + q * t.q) - t.sigma * (d * t.q - q * t.d)
    return (t.b[:, None] * (t.p @ bracket) - t.p[:, None] * (t.b @ bracket)) / t.nu


def plane_term_right_form(t):
    """Equivalent form with the left-eigenvector wedge on the right, applied
    as X (d^q) = (X d) q^T - (X q) d^T; equal to the left form whenever the
    biorthogonality conditions hold."""
    b, p = t.b[:, None], t.p[:, None]
    bracket = t.omega * (b * t.b + p * t.p) - t.sigma * (b * t.p - p * t.b)
    return ((bracket @ t.d)[:, None] * t.q - (bracket @ t.q)[:, None] * t.d) / t.nu


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
    )
