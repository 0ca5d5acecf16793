import numpy as np
import pytest

from geospectral import geoalg as ga
from geospectral.densecore import frobenius_norm
from geospectral.errors import ShapeError

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _orthonormal_pair(u, v):
    """Orthonormal basis of span(u, v), the Q factor of [u v]."""
    return np.linalg.qr(np.column_stack([u, v]))[0].T


def test_wedge_basis_plane():
    w = ga.wedge(E1, E2)
    assert type(w) is np.ndarray
    np.testing.assert_array_equal(w, [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("u", [[1j, 0.0], [[1.0, 2.0], 3.0]], ids=["complex", "ragged"])
def test_wedge_rejects_complex_and_ragged_input(u):
    with pytest.raises(ShapeError):
        ga.wedge(u, E2)


def test_wedge_self_is_zero():
    u = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ga.wedge(u, u), np.zeros((3, 3)))


def test_wedge_hand_example():
    w = ga.wedge(np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    np.testing.assert_array_equal(
        w, [[0.0, 1.0, 1.0], [-1.0, 0.0, 2.0], [-1.0, -2.0, 0.0]]
    )


def test_wedge_shape_error():
    with pytest.raises(ShapeError):
        ga.wedge(np.ones(2), np.ones(3))


def test_wedge_antisymmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        np.testing.assert_array_equal(
            ga.wedge(u, v) + ga.wedge(v, u), np.zeros((6, 6))
        )


def test_wedge_bilinearity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        u, v, w = (rng.standard_normal(5) for _ in range(3))
        a = float(rng.standard_normal())
        lhs = ga.wedge(a * u + w, v)
        rhs = a * ga.wedge(u, v) + ga.wedge(w, v)
        assert frobenius_norm(lhs - rhs) <= 1e-13 * max(frobenius_norm(rhs), 1.0)


def test_bivector_apply_rotates_in_plane():
    b = ga.wedge(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    x = np.array([3.0, 4.0, 5.0])
    y = b @ x
    np.testing.assert_array_equal(y, [4.0, -3.0, 0.0])
    assert np.dot(x, y) == 0.0


def test_bivector_apply_zero_and_perp():
    b = ga.wedge(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(b @ np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(
        b @ np.array([0.0, 0.0, 1.0]), np.zeros(3)
    )


def test_blade_orthogonality_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        u, v, x = (rng.standard_normal(5) for _ in range(3))
        w = ga.wedge(u, v)
        bound = 1e-12 * np.dot(x, x) * frobenius_norm(w)
        assert abs(np.dot(x, w @ x)) <= bound


def test_quarter_turn_orientation():
    # the rotation takes v towards u: (e1^e2) e2 = e1 and (e1^e2) e1 = -e2
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        e1, e2 = _orthonormal_pair(rng.standard_normal(n), rng.standard_normal(n))
        b = ga.wedge(e1, e2)
        np.testing.assert_allclose(b @ e2, e1, atol=1e-13)
        np.testing.assert_allclose(b @ e1, -e2, atol=1e-13)


def test_bivector_square_full_plane():
    w = ga.wedge(E1, E2)
    np.testing.assert_allclose(w @ w, -np.eye(2), atol=1e-15)


def test_bivector_square_embedded_plane():
    b = ga.wedge(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(b @ b, np.diag([-1.0, -1.0, 0.0]), atol=1e-15)


def test_bivector_square_is_minus_projector():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        e1, e2 = _orthonormal_pair(rng.standard_normal(n), rng.standard_normal(n))
        w = ga.wedge(e1, e2)
        sq = w @ w
        projector = np.outer(e1, e1) + np.outer(e2, e2)
        assert frobenius_norm(sq + projector) <= 1e-13
