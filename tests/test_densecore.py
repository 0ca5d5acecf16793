import numpy as np
import pytest

from geospectral import densecore as dc
from geospectral.errors import ShapeError, SingularMatrixError


def test_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(dc.inverse(np.eye(3)) @ b, b)


def test_solve_diagonal_inverse():
    x = dc.inverse(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]))


def test_solve_permutation():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = dc.inverse(a) @ np.array([[1.0], [2.0]])
    np.testing.assert_allclose(x, [[2.0], [1.0]])


def test_solve_singular_reports_pivot_index():
    with pytest.raises(SingularMatrixError) as err:
        dc.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert err.value.pivot_index == 1


def test_solve_round_trip_well_conditioned():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.standard_normal((n, 3))
        x = dc.inverse(a) @ b
        bound = 1e-10 * dc.frobenius_norm(a) * dc.frobenius_norm(x)
        assert dc.frobenius_norm(a @ x - b) <= bound


def test_frobenius_norm():
    assert dc.frobenius_norm(np.zeros((3, 3))) == 0.0
    assert dc.frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))
    assert dc.frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0
    # squares of these entries overflow or underflow; the norm must not
    for k in (1000, 600, -600, -1000, -1070):
        assert dc.frobenius_norm(np.array([3.0, 4.0]) * 2.0**k) == 5.0 * 2.0**k
    assert dc.frobenius_norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(dc.frobenius_norm(np.array([np.nan, 1.0])))


def test_dot():
    assert dc.dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dc.dot(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0
    assert dc.dot(np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0])) == 2.0


def test_dot_symmetry_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        assert dc.dot(u, v) == dc.dot(v, u)


def test_dot_shape_error():
    with pytest.raises(ShapeError):
        dc.dot(np.ones(2), np.ones(3))


def test_as_array_returns_c_ordered_copy():
    # the package's one layout decision: every entry point works on a
    # C-ordered copy, whatever the caller's memory order
    f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    a = dc.as_array(f, 2)
    assert a.flags.c_contiguous and not np.shares_memory(a, f)
    np.testing.assert_array_equal(a, f)
