from dataclasses import replace

import numpy as np
import pytest

from xdfrelax import hammodel, qsim
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.xdf import (
    TruncationPolicy,
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
    assert np.max(np.abs(fac.g)) == 0.0


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
    assert np.max(np.abs(reconstruct_eri(fac))) == 0.0


def test_truncation_error_equals_discarded_tail():
    ham = synth_hamiltonian(4, 2, 2, 13)
    fac = factorize(ham, TruncationPolicy.by_threshold(1e-1))
    rebuilt = reconstruct_eri(fac)
    err = np.linalg.norm(rebuilt - ham.two_body)
    tail = np.linalg.norm(fac.g[fac.retained:])
    assert abs(err - tail) < 1e-10


def test_leaf_eigendecompositions():
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    np.testing.assert_allclose(fac.U0 @ np.diag(fac.F0) @ fac.U0.T,
                               fac.eff.eff_one_body, atol=1e-10)
    assert abs(np.linalg.det(fac.U0) - 1.0) < 1e-10
    for u, lam, v in zip(fac.U, fac.lam, fac.V, strict=True):
        np.testing.assert_allclose(u @ np.diag(lam) @ u.T, v, atol=1e-10)
        assert abs(np.linalg.det(u) - 1.0) < 1e-10
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10


def test_leaf_ordering_and_prefix_retention():
    fac = factorize(synth_hamiltonian(5, 2, 2, 3), TruncationPolicy.by_threshold(0.05))
    mags = np.abs(fac.g)
    assert np.all(np.diff(mags) <= 1e-12)
    assert np.all(mags[: fac.retained] >= 0.05)
    assert np.all(mags[fac.retained:] < 0.05)


def test_factorize_deterministic():
    a = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    b = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    np.testing.assert_array_equal(a.U0, b.U0)
    np.testing.assert_array_equal(a.V, b.V)
    np.testing.assert_array_equal(a.U, b.U)


def test_z_tensor_examples():
    two = factorize(synth_hamiltonian(2, 1, 1, 7), TruncationPolicy.exact())
    one = replace(two, g=[2.0], V=[np.eye(2) / np.sqrt(2.0)], U=[np.eye(2)],
                  lam=[[1.0, 0.0]], retained=1)
    np.testing.assert_allclose(one.Z, [[[2.0, 0.0], [0.0, 0.0]]], atol=1e-15)

    fac = factorize(synth_hamiltonian(3, 1, 1, 5), TruncationPolicy.exact())
    assert fac.Z.shape == (fac.n_leaves, 3, 3)
    for g, v, u, lam, z in zip(fac.g, fac.V, fac.U, fac.lam, fac.Z, strict=True):
        # the stacked product rounds like the per-leaf outer product
        assert z.tobytes() == (g * np.outer(lam, lam)).tobytes()
        np.testing.assert_allclose(z, z.T, atol=1e-15)
        # leaf-wise reconstruction against the raw eigenpair outer product
        cols = np.stack([np.outer(u[:, k], u[:, k]).reshape(-1) for k in range(3)], axis=1)
        direct = g * np.outer(v.reshape(-1), v.reshape(-1))
        np.testing.assert_allclose(cols @ z @ cols.T, direct, atol=1e-10)


def test_energy_invariant_under_column_sign_flips():
    ham = synth_hamiltonian(3, 2, 1, 3)
    fac = factorize(ham, TruncationPolicy.exact())
    state = random_sector_state(fac, 17)
    reference = qsim.energy(state, fac)

    u = fac.U.copy()
    u[:, :, :2] = -u[:, :, :2]  # flip a pair in every leaf to keep det = +1
    u0 = fac.U0.copy()
    u0[:, 0] = -u0[:, 0]
    u0[:, 2] = -u0[:, 2]
    flipped = replace(fac, U0=u0, U=u)
    assert abs(qsim.energy(state, flipped) - reference) < 1e-10


@pytest.mark.parametrize("n,seed", [(2, 7), (3, 5), (4, 13), (6, 4)])
def test_stacked_leaf_frames_match_per_leaf_loop(n, seed):
    # one eigh per leaf and a column-by-column sign fix, as the stacked
    # factorization replaced them, bit for bit
    fac = factorize(synth_hamiltonian(n, 1, 1, seed), TruncationPolicy.exact())
    for u_ref, stored in [(np.linalg.eigh(fac.eff.eff_one_body)[1], fac.U0),
                          *((np.linalg.eigh(v)[1], u) for v, u in zip(fac.V, fac.U))]:
        u = u_ref.copy()
        for k in range(n):
            if u[int(np.argmax(np.abs(u[:, k]))), k] < 0:
                u[:, k] = -u[:, k]
        if np.linalg.det(u) < 0:
            u[:, -1] = -u[:, -1]
        assert u.tobytes() == stored.tobytes()
    for v, lam in zip(fac.V, fac.lam, strict=True):
        assert np.linalg.eigh(v)[0].tobytes() == lam.tobytes()
