import numpy as np
import pytest

from xdfrelax import hammodel, qsim
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.xdf import (
    TruncationPolicy,
    XDFFactorization,
    XDFLeaf,
    factorize,
    reconstruct_eri,
)

from _common import random_sector_state


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy("threshold")
    with pytest.raises(ValueError):
        TruncationPolicy("count", threshold=0.1, count=2)
    with pytest.raises(ValueError):
        TruncationPolicy("both")
    with pytest.raises(ValueError, match="non-negative"):
        TruncationPolicy.by_count(-1)


def test_zero_two_body_gives_zero_leaves():
    ham = Hamiltonian(3, 1, 1, 0.0, np.diag([-1.0, -0.5, 0.2]), np.zeros((3,) * 4))
    fac = factorize(ham, TruncationPolicy.by_threshold(1e-12))
    assert fac.n_leaves == 6
    assert fac.retained == 0
    assert np.max(np.abs(fac.g_values)) == 0.0


def test_n4_has_ten_leaves():
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    assert fac.n_leaves == 10
    assert fac.retained == 10


@pytest.mark.parametrize("n,seed", [(2, 7), (3, 5), (4, 13), (5, 1), (6, 4)])
def test_full_reconstruction_identity(n, seed):
    ham = synth_hamiltonian(n, 1, 1, seed)
    fac = factorize(ham, TruncationPolicy.exact())
    rebuilt = reconstruct_eri(fac)
    rel = np.linalg.norm(rebuilt - ham.two_body) / np.linalg.norm(ham.two_body)
    assert rel < 1e-10


def test_reconstruct_retained_zero_is_zero_tensor():
    ham = synth_hamiltonian(3, 1, 1, 5)
    fac = factorize(ham, TruncationPolicy.by_count(0))
    assert np.max(np.abs(reconstruct_eri(fac, use_retained_only=True))) == 0.0


def test_truncation_error_equals_discarded_tail():
    ham = synth_hamiltonian(4, 2, 2, 13)
    fac = factorize(ham, TruncationPolicy.by_threshold(1e-1))
    rebuilt = reconstruct_eri(fac, use_retained_only=True)
    err = np.linalg.norm(rebuilt - ham.two_body)
    tail = np.linalg.norm(fac.g_values[fac.retained:])
    assert abs(err - tail) < 1e-10


def test_leaf_eigendecompositions():
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    np.testing.assert_allclose(fac.U0 @ np.diag(fac.F0) @ fac.U0.T,
                               fac.eff.eff_one_body, atol=1e-10)
    assert abs(np.linalg.det(fac.U0) - 1.0) < 1e-10
    for leaf in fac.leaves:
        np.testing.assert_allclose(leaf.U @ np.diag(leaf.lam) @ leaf.U.T, leaf.V,
                                   atol=1e-10)
        assert abs(np.linalg.det(leaf.U) - 1.0) < 1e-10
        assert abs(np.linalg.norm(leaf.V) - 1.0) < 1e-10


def test_leaf_ordering_and_prefix_retention():
    fac = factorize(synth_hamiltonian(5, 2, 2, 3), TruncationPolicy.by_threshold(0.05))
    mags = np.abs(fac.g_values)
    assert np.all(np.diff(mags) <= 1e-12)
    assert np.all(mags[: fac.retained] >= 0.05)
    assert np.all(mags[fac.retained:] < 0.05)
    for index, leaf in enumerate(fac.leaves):
        assert leaf.index == index


def test_factorize_deterministic():
    a = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    b = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    np.testing.assert_array_equal(a.U0, b.U0)
    for la, lb in zip(a.leaves, b.leaves):
        np.testing.assert_array_equal(la.V, lb.V)
        np.testing.assert_array_equal(la.U, lb.U)


def test_z_tensor_examples():
    leaf = XDFLeaf(0, 2.0, np.eye(2) / np.sqrt(2.0), np.eye(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(leaf.Z, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    fac = factorize(synth_hamiltonian(3, 1, 1, 5), TruncationPolicy.exact())
    for leaf in fac.leaves:
        z = leaf.Z
        np.testing.assert_allclose(z, z.T, atol=1e-15)
        # leaf-wise reconstruction against the raw eigenpair outer product
        n = 3
        cols = np.stack([np.outer(leaf.U[:, k], leaf.U[:, k]).reshape(-1)
                         for k in range(n)], axis=1)
        direct = leaf.g * np.outer(leaf.V.reshape(-1), leaf.V.reshape(-1))
        np.testing.assert_allclose(cols @ z @ cols.T, direct, atol=1e-10)


def test_energy_invariant_under_column_sign_flips():
    ham = synth_hamiltonian(3, 2, 1, 3)
    fac = factorize(ham, TruncationPolicy.exact())
    state = random_sector_state(fac, 17)
    reference = qsim.energy(state, fac)

    flipped_leaves = []
    for leaf in fac.leaves:
        u = leaf.U.copy()
        u[:, 0] = -u[:, 0]
        u[:, 1] = -u[:, 1]  # flip a pair to keep det = +1
        flipped_leaves.append(XDFLeaf(leaf.index, leaf.g, leaf.V, u, leaf.lam))
    u0 = fac.U0.copy()
    u0[:, 0] = -u0[:, 0]
    u0[:, 2] = -u0[:, 2]
    flipped = XDFFactorization(fac.n_orbitals, fac.n_alpha, fac.n_beta, fac.eff,
                               u0, fac.F0, tuple(flipped_leaves), fac.retained)
    assert abs(qsim.energy(state, flipped) - reference) < 1e-10


@pytest.mark.parametrize("n,seed", [(2, 7), (3, 5), (4, 13), (6, 4)])
def test_stacked_leaf_frames_match_per_leaf_loop(n, seed):
    # one eigh per leaf and a column-by-column sign fix, as the stacked
    # factorization replaced them, bit for bit
    fac = factorize(synth_hamiltonian(n, 1, 1, seed), TruncationPolicy.exact())
    for u_ref, stored in [(np.linalg.eigh(fac.eff.eff_one_body)[1], fac.U0),
                          *((np.linalg.eigh(leaf.V)[1], leaf.U) for leaf in fac.leaves)]:
        u = u_ref.copy()
        for k in range(n):
            if u[int(np.argmax(np.abs(u[:, k]))), k] < 0:
                u[:, k] = -u[:, k]
        if np.linalg.det(u) < 0:
            u[:, -1] = -u[:, -1]
        assert u.tobytes() == stored.tobytes()
    for leaf in fac.leaves:
        assert np.linalg.eigh(leaf.V)[0].tobytes() == leaf.lam.tobytes()
