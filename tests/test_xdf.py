import sys
from dataclasses import replace

import numpy as np
import pytest

from xdfrelax import givens, hammodel, lagrange, verify, vqe
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.xdf import (
    TruncationPolicy,
    factorize,
    reconstruct_eri,
)

from _common import (
    REGIME_LAYERS_SMALL,
    REGIME_TRUNCATED_COUNT,
    random_sector_state,
    regime_fixture,
    with_effective_one_body,
)


def test_policy_validation():
    with pytest.raises(ValueError, match="exactly one of threshold and count"):
        TruncationPolicy()
    with pytest.raises(ValueError, match="exactly one of threshold and count"):
        TruncationPolicy(threshold=0.1, count=2)
    with pytest.raises(TypeError):
        TruncationPolicy("threshold")  # keyword-only: a positional value is refused
    with pytest.raises(ValueError, match="non-negative"):
        TruncationPolicy.by_count(-1)


def test_policy_refuses_a_nan_threshold():
    # NaN compares false with every |g|, so it would keep no leaf without a word
    for make in (lambda: TruncationPolicy.by_threshold(float("nan")),
                 lambda: TruncationPolicy(threshold=np.nan)):
        with pytest.raises(ValueError, match="threshold is NaN"):
            make()


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
    reference = verify.density_energy(state, fac)

    u = fac.U.copy()
    u[:, :, :2] = -u[:, :, :2]  # flip a pair in every leaf to keep det = +1
    u0 = fac.U0.copy()
    u0[:, 0] = -u0[:, 0]
    u0[:, 2] = -u0[:, 2]
    flipped = replace(fac, U0=u0, U=u)
    assert abs(verify.density_energy(state, flipped) - reference) < 1e-10


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


def _sign_fixed(u):
    """Largest-magnitude entry of every column made positive, then the last
    column of every det -1 member negated."""
    index = np.argmax(np.abs(u), axis=-2)[..., None, :]
    u = np.where(np.take_along_axis(u, index, axis=-2) < 0, -u, u)
    last = u[..., :, -1]
    u[..., :, -1] = np.where((np.linalg.det(u) < 0)[..., None], -last, last)
    return u


def _two_pass_frames(fac):
    """U0, F0, U, lam from two passes: the one-body operator's eigh and sign
    fix, then the leaf stack's."""
    f0, u0 = np.linalg.eigh(fac.eff.eff_one_body)
    lam, u = np.linalg.eigh(fac.V)
    return _sign_fixed(u0), f0, _sign_fixed(u), lam


STACKED_FRAME_CASES = {
    **{f"seeded-{n}": (lambda n=n: synth_hamiltonian(n, n // 2, n // 2, n + 20))
       for n in range(2, 9)},
    "identity-one-body": lambda: with_effective_one_body(
        synth_hamiltonian(4, 2, 2, 13), np.ones(4)),
    "repeated-diagonal-one-body": lambda: with_effective_one_body(
        synth_hamiltonian(5, 2, 1, 3), [-1.0, 0.5, -1.0, 0.5, 2.0]),
    "zero-two-body": lambda: Hamiltonian(
        3, 1, 1, 0.0, synth_hamiltonian(3, 1, 1, 5).one_body, np.zeros((3,) * 4)),
}


@pytest.mark.parametrize("case", STACKED_FRAME_CASES)
def test_one_stack_gives_every_frame_of_the_two_pass_factorization(case):
    # the one-body frame rides in the leaf stack; eigh and the sign rule act
    # on each member as on one matrix, so the frames stay bit for bit
    fac = factorize(STACKED_FRAME_CASES[case](), TruncationPolicy.exact())
    for stored, reference in zip((fac.U0, fac.F0, fac.U, fac.lam), _two_pass_frames(fac),
                                 strict=True):
        np.testing.assert_array_equal(stored, reference)
    # every frame, the one-body frame included, has det +1 and a positive
    # largest-magnitude entry in each column but the last, whose sign is the
    # one that makes det +1
    frames = np.concatenate([fac.U0[None], fac.U])
    np.testing.assert_allclose(np.linalg.det(frames), 1.0, atol=1e-12)
    leads = np.take_along_axis(frames, np.argmax(np.abs(frames), axis=1)[:, None, :], axis=1)
    assert leads.shape == (fac.n_leaves + 1, 1, fac.n_orbitals)
    assert np.all(leads[..., :-1] > 0)


def test_factorize_runs_two_eighs(monkeypatch):
    # one over the packed pair-basis supermatrix, one over the frame stack
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    assert shapes == [(10, 10), (11, 4, 4)] and fac.n_leaves == 10


def test_factorization_does_no_givens_work(monkeypatch):
    # production compiles no frame into angles and sweeps no fabric: every
    # binding of these givens functions in the package raises
    def refuse(*args, **kwargs):
        raise AssertionError("Givens decomposition or sweep in production")

    modules = [module for name, module in sorted(sys.modules.items())
               if module is not None and name.partition(".")[0] == "xdfrelax"]
    for name in ("decompose", "reconstruct"):
        original = getattr(givens, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    cfg = vqe.AnsatzConfig(REGIME_LAYERS_SMALL, seed=3)
    for policy in (TruncationPolicy.exact(), TruncationPolicy.by_count(REGIME_TRUNCATED_COUNT)):
        fac = factorize(regime_fixture(), policy)
        result = vqe.optimize(fac, cfg, tol=1e-8)
        state = vqe.prepare_state(fac, cfg, result.params)
        rdms = lagrange.reconstruct_rdms(fac, state, stationarity_grad=result.grad_norm)
        assert result.converged and rdms.gamma_sym.shape == (4, 4)
    with pytest.raises(AssertionError, match="in production"):
        givens.decompose(np.eye(4))
