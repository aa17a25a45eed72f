import numpy as np
import pytest

from xdfrelax.givens import (
    GivensFabric,
    decompose,
    identity_fabric,
    jacobian,
    pinv_solve,
    reconstruct,
    rectangle_pivots,
)

from _common import random_special_orthogonal


def test_rectangle_pivot_count():
    for n in range(2, 9):
        assert len(rectangle_pivots(n)) == n * (n - 1) // 2


def test_identity_decomposes_to_zero_angles():
    fabric = decompose(np.eye(5))
    np.testing.assert_array_equal(fabric.angles, np.zeros(10))


def test_two_by_two_base_case():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    fabric = decompose(u)
    np.testing.assert_allclose(fabric.angles, [0.3], atol=1e-14)


def test_reconstruct_zero_angles_is_identity():
    np.testing.assert_array_equal(reconstruct(identity_fabric(4)), np.eye(4))


def test_reconstruct_single_pivot_embedding():
    fabric = identity_fabric(3)
    angles = fabric.angles.copy()
    angles[0] = 0.7  # first rectangle slot is pivot (0, 1)
    u = reconstruct(GivensFabric(3, angles))
    block = np.eye(3)
    block[0, 0] = block[1, 1] = np.cos(0.7)
    block[0, 1] = -np.sin(0.7)
    block[1, 0] = np.sin(0.7)
    np.testing.assert_allclose(u, block, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_matrix_round_trip(n):
    for seed in range(8):
        u = random_special_orthogonal(n, seed)
        fabric = decompose(u)
        rebuilt = reconstruct(fabric)
        assert np.max(np.abs(rebuilt - u)) < 1e-10
        assert np.max(np.abs(rebuilt.T @ rebuilt - np.eye(n))) < 1e-12
        assert abs(np.linalg.det(rebuilt) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_angle_round_trip_principal_domain(n):
    rng = np.random.default_rng(n)
    pivots = rectangle_pivots(n)
    for _ in range(10):
        angles = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, size=len(pivots))
        recovered = decompose(reconstruct(GivensFabric(n, angles))).angles
        np.testing.assert_allclose(recovered, angles, atol=1e-9)


def test_decompose_is_idempotent():
    u = random_special_orthogonal(6, 42)
    first = decompose(u).angles
    second = decompose(reconstruct(decompose(u))).angles
    np.testing.assert_allclose(first, second, atol=1e-12)


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose(np.ones((3, 3)))
    refl = np.eye(3)
    refl[2, 2] = -1.0  # det -1
    with pytest.raises(ValueError):
        decompose(refl)


def test_jacobian_is_square_of_pair_dimension():
    fabric = decompose(random_special_orthogonal(4, 0))
    assert jacobian(fabric).shape == (6, 6)


def test_jacobian_two_by_two_at_zero():
    jac = jacobian(identity_fabric(2))
    # d/dtheta [G(theta)]_{10} = cos(theta) = 1 at theta = 0
    assert abs(abs(jac[0, 0]) - 1.0) < 1e-14
    assert jac[0, 0] == 1.0  # sign fixed by the gate convention


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_jacobian_matches_finite_differences(n):
    rng = np.random.default_rng(100 + n)
    pivots = rectangle_pivots(n)
    angles = rng.uniform(-1.0, 1.0, size=len(pivots))
    fabric = GivensFabric(n, angles)
    jac = jacobian(fabric)
    step = 1e-5
    for g in range(len(pivots)):
        plus = angles.copy()
        plus[g] += step
        minus = angles.copy()
        minus[g] -= step
        du = (reconstruct(GivensFabric(n, plus))
              - reconstruct(GivensFabric(n, minus))) / (2 * step)
        fd = du[np.tril_indices(n, -1)]
        assert np.max(np.abs(fd - jac[g])) < 1e-7


def test_pinv_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(pinv_solve(np.eye(3), rhs), rhs, atol=1e-14)


def test_pinv_solve_singular_consistent_rhs():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = pinv_solve(a, np.array([2.0, 0.0]))
    assert np.linalg.norm(a @ x - [2.0, 0.0]) < 1e-12


def test_pinv_solve_minimum_norm():
    # null space is span(e2); the solution must have no component there
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = pinv_solve(a, np.array([2.0, 5.0]))
    np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)


def test_pinv_solve_linear_in_rhs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    a[:, 3] = a[:, 1]  # make it singular
    rhs = rng.standard_normal(6)
    np.testing.assert_allclose(pinv_solve(a, 2.0 * rhs), 2.0 * pinv_solve(a, rhs),
                               atol=1e-12)
