import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdfrelax.givens import (
    ORTHOGONALITY_TOL,
    GivensFabric,
    decompose,
    jacobian,
    lower_indices,
    reconstruct,
    rectangle_pivots,
)
from xdfrelax.hammodel import synth_hamiltonian
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    KERNEL_CASES,
    identity_fabric,
    pinv_solve,
    random_special_orthogonal,
    ref_decompose,
    ref_jacobian,
    ref_reconstruct,
)


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


# the minimum-norm solve of the angle-route referee in _common


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


def test_pivots_and_lower_indices_are_cached_read_only():
    assert rectangle_pivots(5) is rectangle_pivots(5)
    rows, cols = lower_indices(4)
    assert lower_indices(4)[0] is rows
    np.testing.assert_array_equal(rows, np.tril_indices(4, -1)[0])
    np.testing.assert_array_equal(cols, np.tril_indices(4, -1)[1])
    with pytest.raises(ValueError):
        rows[0] = 1
    assert GivensFabric(6, np.zeros(15)).pivots is rectangle_pivots(6)


# The stacked pass against the per-matrix referees of tests/_common.py:
# angles and Jacobians must agree bit for bit.


def _fixture_frames(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    return np.concatenate([fac.U0[None], fac.U])


def _assert_matches_referee(stack):
    fabric = decompose(stack)
    n = stack.shape[1]
    k = n * (n - 1) // 2
    assert fabric.n == n and fabric.angles.shape == (len(stack), k)
    jacs = jacobian(fabric)
    products = reconstruct(fabric)
    assert jacs.shape == (len(stack), k, k) and products.shape == stack.shape
    for u, angles, jac, product in zip(stack, fabric.angles, jacs, products, strict=True):
        expected = ref_decompose(u)
        one = decompose(u)
        assert one.angles.shape == (k,)
        assert angles.tobytes() == expected.tobytes() == one.angles.tobytes()
        assert jac.tobytes() == ref_jacobian(n, expected).tobytes()
        assert jacobian(one).tobytes() == jac.tobytes()
        assert reconstruct(one).tobytes() == product.tobytes()


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, (8, 4, 4, 3)])
def test_stacked_decompose_matches_referee_on_fixture_frames(n, na, nb, seed):
    _assert_matches_referee(_fixture_frames(n, na, nb, seed))


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_decompose_matches_referee_on_random_rotations(n):
    _assert_matches_referee(np.array([random_special_orthogonal(n, seed)
                                      for seed in range(12)]))


def test_empty_stack_gives_no_fabrics():
    fabric = decompose(np.zeros((0, 4, 4)))
    assert fabric.n == 4 and fabric.angles.shape == (0, 6)
    assert reconstruct(fabric).shape == (0, 4, 4)
    assert jacobian(fabric).shape == (0, 6, 6)


def test_one_orbital_gives_the_identity_fabric():
    fabric = decompose(np.eye(1))
    assert fabric.n == 1 and fabric.angles.shape == (0,)
    stacked = decompose(np.ones((3, 1, 1)))
    assert stacked.angles.shape == (3, 0)
    assert jacobian(fabric).shape == (0, 0)
    assert jacobian(stacked).shape == (3, 0, 0)
    np.testing.assert_array_equal(reconstruct(fabric), np.eye(1))
    np.testing.assert_array_equal(reconstruct(stacked), np.ones((3, 1, 1)))


@pytest.mark.parametrize("angles", [0.0, np.zeros((2, 3, 6)), np.zeros(5), np.zeros((2, 7))])
def test_fabric_refuses_angles_of_other_shapes(angles):
    with pytest.raises(ValueError, match=r"expected \(6,\) or \(B, 6\)"):
        GivensFabric(4, angles)


@pytest.mark.parametrize("bad,message", [
    (np.diag([1.0, 1.0, 1.1]), "input is not orthogonal within tolerance"),
    (np.diag([1.0, 1.0, -1.0]), "input has det != +1; sign-fix a column first"),
])
def test_stack_names_its_bad_member(bad, message):
    with pytest.raises(ValueError) as single:
        decompose(bad)
    assert str(single.value) == message
    stack = np.array([random_special_orthogonal(3, 0), random_special_orthogonal(3, 1), bad])
    with pytest.raises(ValueError) as stacked:
        decompose(stack)
    assert str(stacked.value) == f"stack member 2: {message}"


# Property: on any n <= 8 and angles that include exact zeros, +-pi/2, +-pi
# and values within 1e-12 of +-pi, and on signed permutation matrices of
# det +1 (which take the pi-absorption path), the stacked decomposition
# reproduces its input, agrees with the per-matrix referee bit for bit, and
# decompose o reconstruct o decompose is idempotent wherever the fabric is a
# regular point of the angle map (a well-conditioned Jacobian). At singular
# points, such as signed permutations, a continuum of fabrics gives one
# matrix: arctan2 of two roundoff-sized entries picks among them, and round
# trips need not settle.

EDGE_ANGLES = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi,
               np.pi - 1e-12, -np.pi + 1e-12, np.nextafter(np.pi, 0.0),
               np.nextafter(-np.pi, 0.0)]
ANGLES = st.one_of(st.sampled_from(EDGE_ANGLES),
                   st.floats(np.pi - 1e-12, np.pi), st.floats(-np.pi, -np.pi + 1e-12),
                   st.floats(-np.pi, np.pi, allow_nan=False))


@st.composite
def signed_permutation(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    u = np.eye(n)[list(perm)] * signs
    if np.linalg.det(u) < 0:
        u[:, 0] = -u[:, 0]
    return u


@st.composite
def rotation_stacks(draw):
    n = draw(st.integers(1, 8))
    size = n * (n - 1) // 2
    members = draw(st.lists(
        st.one_of(st.lists(ANGLES, min_size=size, max_size=size)
                  .map(lambda angles: ref_reconstruct(n, np.array(angles))),
                  signed_permutation(n)),
        min_size=1, max_size=4))
    return np.array(members).reshape(-1, n, n)


def _wrapped_gap(a: np.ndarray, b: np.ndarray) -> float:
    gap = np.abs(a - b) % (2.0 * np.pi)
    return float(np.max(np.minimum(gap, 2.0 * np.pi - gap), initial=0.0))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(rotation_stacks())
def test_decompose_property(stack):
    fabric = decompose(stack)
    rebuilt = reconstruct(fabric)
    assert np.max(np.abs(rebuilt - stack), initial=0.0) <= ORTHOGONALITY_TOL
    for u, angles in zip(stack, fabric.angles, strict=True):
        assert angles.tobytes() == ref_decompose(u).tobytes()
    once = decompose(rebuilt)
    twice = decompose(reconstruct(once))
    for angles, again, jac in zip(once.angles, twice.angles, jacobian(once), strict=True):
        if not jac.size or np.linalg.cond(jac) < 1e6:
            assert _wrapped_gap(angles, again) <= 1e-9
