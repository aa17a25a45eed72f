import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdfrelax.givens import (
    ORTHOGONALITY_TOL,
    GivensFabric,
    brickwork,
    decompose,
    lower_indices,
    reconstruct,
)
from xdfrelax.hammodel import synth_hamiltonian
from xdfrelax.verify import jacobian
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    KERNEL_CASES,
    identity_fabric,
    pinv_solve,
    random_special_orthogonal,
    ref_reconstruct,
)


def test_rectangle_pivot_count():
    for n in range(2, 9):
        assert len(brickwork(n, n)) == n * (n - 1) // 2


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
    pivots = brickwork(n, n)
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


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2), (2, 3, 4), (1, 2, 2, 2), (2, 3, 3)])
def test_decompose_refuses_non_square_input(shape):
    with pytest.raises(ValueError, match="^input must be square$"):
        decompose(np.zeros(shape))


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
    pivots = brickwork(n, n)
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
    assert brickwork(5, 5) is brickwork(5, 5)
    rows, cols = lower_indices(4)
    assert lower_indices(4)[0] is rows
    np.testing.assert_array_equal(rows, np.tril_indices(4, -1)[0])
    np.testing.assert_array_equal(cols, np.tril_indices(4, -1)[1])
    with pytest.raises(ValueError):
        rows[0] = 1
    assert GivensFabric(6, np.zeros(15)).pivots is brickwork(6, 6)


# One matrix, one fabric: the frames of real factorizations round-trip.


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, (8, 4, 4, 3)])
def test_fixture_frames_round_trip(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    for u in fac.frames.U:
        fabric = decompose(u)
        assert fabric.n == n and fabric.angles.shape == (n * (n - 1) // 2,)
        assert np.max(np.abs(reconstruct(fabric) - u)) <= ORTHOGONALITY_TOL


def test_one_orbital_gives_the_identity_fabric():
    fabric = decompose(np.eye(1))
    assert fabric.n == 1 and fabric.angles.shape == (0,)
    assert jacobian(fabric).shape == (0, 0)
    np.testing.assert_array_equal(reconstruct(fabric), np.eye(1))


def test_negated_pi_stays_pi():
    # signed zeros steer arctan2 to an angle of pi that the branch reduction
    # negates; the fabric keeps it in (-pi, pi]
    u = np.array([[1.0, -0.0, -0.0], [0.0, -1.0, -0.0], [0.0, -0.0, -1.0]])
    np.testing.assert_array_equal(decompose(u).angles, [0.0, np.pi, 0.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_signed_permutation_decomposes_and_round_trips(n):
    # the elimination sweeps end at the identity on every det +1 signed
    # permutation, the inputs where arctan2 sees exact and signed zeros
    decomposed = 0
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product([1.0, -1.0], repeat=n):
            u = np.eye(n)[list(perm)] * np.array(signs)
            if np.linalg.det(u) < 0:
                continue
            fabric = decompose(u)
            assert np.max(np.abs(reconstruct(fabric) - u)) <= ORTHOGONALITY_TOL
            assert np.all((-np.pi < fabric.angles) & (fabric.angles <= np.pi))
            again = reconstruct(decompose(reconstruct(fabric)))
            assert np.max(np.abs(again - u)) <= ORTHOGONALITY_TOL
            decomposed += 1
    assert decomposed == math.factorial(n) * 2 ** (n - 1)


@pytest.mark.parametrize("angles", [0.0, np.zeros((2, 3, 6)), np.zeros(5), np.zeros((2, 7)),
                                    np.zeros((2, 6))])
def test_fabric_refuses_angles_of_other_shapes(angles):
    with pytest.raises(ValueError, match=r"expected \(6,\): one fabric, not a stack"):
        GivensFabric(4, angles)


@pytest.mark.parametrize("bad,message", [
    (np.diag([1.0, 1.0, 1.1]), "input is not orthogonal within tolerance"),
    (np.diag([1.0, 1.0, -1.0]), "input has det != +1; sign-fix a column first"),
])
def test_decompose_refusal_messages(bad, message):
    with pytest.raises(ValueError) as refused:
        decompose(bad)
    assert str(refused.value) == message


# Property: on any n <= 8 and angles that include exact zeros, +-pi/2, +-pi
# and values within 1e-12 of +-pi, and on signed permutation matrices of
# det +1, decompose reproduces its input, keeps every angle in (-pi, pi], and decompose o reconstruct o
# decompose is idempotent wherever the fabric is a regular point of the
# angle map (a well-conditioned Jacobian); the Jacobian matches a central
# difference of reconstruct everywhere. At singular points, such as signed
# permutations, a continuum of fabrics gives one matrix: arctan2 of two
# roundoff-sized entries picks among them, and round trips need not settle.

EDGE_ANGLES = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi,
               np.pi - 1e-12, -np.pi + 1e-12, np.nextafter(np.pi, 0.0),
               np.nextafter(-np.pi, 0.0)]
ANGLES = st.one_of(st.sampled_from(EDGE_ANGLES),
                   st.floats(np.pi - 1e-12, np.pi), st.floats(-np.pi, -np.pi + 1e-12),
                   st.floats(-np.pi, np.pi, allow_nan=False))
FD_STEP = 1e-5


@st.composite
def signed_permutation(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    u = np.eye(n)[list(perm)] * signs
    if np.linalg.det(u) < 0:
        u[:, 0] = -u[:, 0]
    return u


@st.composite
def rotations(draw):
    n = draw(st.integers(1, 8))
    size = n * (n - 1) // 2
    return draw(st.one_of(st.lists(ANGLES, min_size=size, max_size=size)
                          .map(lambda angles: ref_reconstruct(n, np.array(angles))),
                          signed_permutation(n)))


def _wrapped_gap(a: np.ndarray, b: np.ndarray) -> float:
    gap = np.abs(a - b) % (2.0 * np.pi)
    return float(np.max(np.minimum(gap, 2.0 * np.pi - gap), initial=0.0))


def _central_difference(fabric: GivensFabric, g: int) -> np.ndarray:
    """Lower triangle of d reconstruct / d angle g by a central difference."""
    plus, minus = fabric.angles.copy(), fabric.angles.copy()
    plus[g] += FD_STEP
    minus[g] -= FD_STEP
    du = (reconstruct(GivensFabric(fabric.n, plus))
          - reconstruct(GivensFabric(fabric.n, minus))) / (2 * FD_STEP)
    return du[lower_indices(fabric.n)]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(rotations())
def test_decompose_property(u):
    fabric = decompose(u)
    rebuilt = reconstruct(fabric)
    assert np.max(np.abs(rebuilt - u)) <= ORTHOGONALITY_TOL
    assert np.all((-np.pi < fabric.angles) & (fabric.angles <= np.pi))
    jac = jacobian(fabric)
    for g in range(len(fabric.pivots)):
        assert np.max(np.abs(_central_difference(fabric, g) - jac[g])) < 1e-7
    once = decompose(rebuilt)
    jac = jacobian(once)
    if not jac.size or np.linalg.cond(jac) < 1e6:
        assert _wrapped_gap(once.angles, decompose(reconstruct(once)).angles) <= 1e-9
