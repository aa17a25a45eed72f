import numpy as np
import pytest

from xdfrelax import lagrange, qsim, vqe
from xdfrelax.givens import jacobian
from xdfrelax.hammodel import synth_hamiltonian
from xdfrelax.lagrange import (
    reconstruct_rdms,
    relaxed_Gamma,
    relaxed_gamma,
    solve_eta,
    solve_mu,
    solve_nu,
)
from xdfrelax.qsim import EigenbasisDensities
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import eight_fold, random_sector_state, symmetrize, zero_two_body


def _stationary_pipeline(n, na, nb, seed, policy=None):
    ham = synth_hamiltonian(n, na, nb, seed)
    fac = factorize(ham, policy or TruncationPolicy.exact())
    state, _ = vqe.exact_ground_state(fac)
    return ham, fac, state


def test_eta_zero_for_rotation_invariant_state():
    # empty sector: every leaf energy is angle-independent
    ham = synth_hamiltonian(3, 0, 0, 2)
    fac = factorize(ham, TruncationPolicy.exact())
    vacuum = qsim.hf_reference(3, 0, 0)
    etas, _ = solve_eta(fac.frames, qsim.angle_gradients(vacuum, fac.frames))
    assert etas.shape == (len(fac.frames), 3, 3)
    assert np.max(np.abs(etas)) < 1e-12


def test_eta_zero_for_diagonal_one_body_hf():
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    fac = factorize(ham, TruncationPolicy.exact())
    state = qsim.hf_reference(3, 1, 1)
    frames = fac.frames[:1]
    (eta,), _ = solve_eta(frames, qsim.angle_gradients(state, frames))
    assert np.max(np.abs(eta)) < 1e-12


def test_eta_scalar_closed_form_n2():
    _, fac, state = _stationary_pipeline(2, 1, 1, 7)
    frame = fac.frames[0]
    de = qsim.denergy_dtheta_shift(state, frame, 0)
    a00 = jacobian(frame.fabric)[0, 0]
    (eta,), _ = solve_eta((frame,), qsim.angle_gradients(state, (frame,)))
    assert abs(eta[1, 0] - (-de / a00)) < 1e-12


def test_eta_residual_random_fixture():
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    gradients = qsim.angle_gradients(state, fac.frames)
    etas, residuals = solve_eta(fac.frames, gradients)
    for frame, de_dtheta, eta, residual in zip(fac.frames, gradients, etas, residuals,
                                               strict=True):
        jac = jacobian(frame.fabric)
        eta_vec = eta[np.tril_indices(fac.n_orbitals, -1)]
        rhs = -de_dtheta
        shift_rhs = -np.array([qsim.denergy_dtheta_shift(state, frame, g)
                               for g in range(len(frame.fabric.pivots))])
        assert np.max(np.abs(rhs - shift_rhs)) < 1e-10
        assert np.max(np.abs(jac @ eta_vec - rhs)) < 1e-10
        assert residual == np.max(np.abs(jac @ eta_vec - rhs))


def _solve_every_eta(fac, state):
    return list(zip(*solve_eta(fac.frames, qsim.angle_gradients(state, fac.frames)),
                    strict=True))


def test_eta_builds_no_fabric_operator(monkeypatch):
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    expected = _solve_every_eta(fac, state)

    def refuse(*args):
        raise AssertionError("fabric operator built during the eta solve")

    monkeypatch.setattr(qsim, "_fabric_operators", refuse)
    for (eta, residual), (got, got_residual) in zip(expected, _solve_every_eta(fac, state),
                                                    strict=True):
        np.testing.assert_array_equal(got, eta)
        assert got_residual == residual


@pytest.mark.parametrize("ablate", [None, "eta0", "etat", "nu"])
def test_measure_and_solve_sweeps_the_solved_frames_once(monkeypatch, ablate):
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    swept = []
    real = qsim.angle_gradients

    def counting(state, frames):
        swept.append(tuple(frames))
        return real(state, frames)

    monkeypatch.setattr(qsim, "angle_gradients", counting)
    _, multipliers = lagrange.measure_and_solve(fac, state, ablate)
    assert swept == [fac.frames[:1] if ablate == "etat" else fac.frames]
    if ablate == "etat":
        assert all(not np.any(eta) for eta in multipliers.eta)


def test_eta_warns_on_nonstationary_state():
    ham = synth_hamiltonian(2, 1, 1, 7)
    fac = factorize(ham, TruncationPolicy.exact())
    state = qsim.hf_reference(2, 1, 1)  # not an eigenstate of this Hamiltonian
    # force an inconsistent system: residual warning only fires when the
    # lower-triangle system cannot absorb the derivative, so probe the
    # stationarity warning through the pipeline instead
    with pytest.warns(UserWarning, match="gradient norm"):
        reconstruct_rdms(fac, state, stationarity_grad=1.0)


def test_mu_zero_when_eta_zero():
    n = 3
    zeros = np.zeros((n, n))
    assert np.max(np.abs(solve_mu(zeros, np.eye(n), np.array([1.0, 2.0, 3.0])))) == 0.0


def test_mu_scalar_quotient_n2():
    eta = np.array([[0.0, 0.0], [0.7, 0.0]])
    u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    f0 = np.array([-1.5, 0.5])
    mu = solve_mu(eta, u, f0)
    eta_eig = u.T @ eta
    expected = (eta_eig[1, 0] - eta_eig[0, 1]) / (f0[1] - f0[0])
    assert abs(mu[1, 0] - expected) < 1e-14
    assert mu[0, 1] == 0.0


def test_mu_solves_are_linear():
    rng = np.random.default_rng(3)
    eta = np.tril(rng.standard_normal((4, 4)), k=-1)
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    spec = np.array([0.1, 0.5, 1.7, 3.0])
    np.testing.assert_allclose(solve_mu(2.0 * eta, u, spec),
                               2.0 * solve_mu(eta, u, spec), atol=1e-13)


def test_mu_guard_triggers_only_below_cutoff():
    eta = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    u = np.eye(3)
    # pair (2, 1) is within the guard of the 3-unit spectral range; (1, 0) is not
    spec = np.array([-1.0, 2.0, 2.0 + 1e-9])
    mu = solve_mu(eta, u, spec)
    assert mu[2, 1] == 0.0
    assert mu[1, 0] != 0.0
    assert mu[2, 0] != 0.0


def test_nu_zero_cases():
    _, fac, _ = _stationary_pipeline(3, 1, 1, 2)
    n = fac.n_orbitals
    omegas = EigenbasisDensities(np.zeros(n),
                                 tuple(np.zeros((n, n)) for _ in range(fac.retained)))
    mus = tuple(np.zeros((n, n)) for _ in range(fac.retained))
    nu = solve_nu(fac, omegas, mus)
    assert np.max(np.abs(nu)) == 0.0


def test_nu_structural_zeros_beyond_retained():
    ham = synth_hamiltonian(4, 2, 2, 13)
    fac = factorize(ham, TruncationPolicy.by_count(4))
    state, _ = vqe.exact_ground_state(fac)
    omegas, mult = lagrange.measure_and_solve(fac, state)
    n_leaves = fac.n_leaves
    for t in range(n_leaves):
        for u in range(t):
            if t >= fac.retained and u >= fac.retained:
                assert mult.nu[t, u] == 0.0
    # upper triangle never populated
    assert np.max(np.abs(np.triu(mult.nu))) == 0.0


def test_relaxed_gamma_hf_identity_frame():
    ham = zero_two_body(2, 1, 1, [-1.0, 1.0])
    fac = factorize(ham, TruncationPolicy.exact())
    omegas = EigenbasisDensities(np.array([1.0, -1.0]), tuple())
    gamma, gamma_sym = relaxed_gamma(fac, omegas, np.zeros((2, 2)))
    np.testing.assert_allclose(gamma, np.diag([2.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(gamma_sym, gamma, atol=1e-15)


def test_relaxed_Gamma_identity_terms_only():
    ham = synth_hamiltonian(3, 1, 1, 2)
    fac = factorize(ham, TruncationPolicy.exact())
    n = 3
    omegas = EigenbasisDensities(np.zeros(n),
                                 tuple(np.zeros((n, n)) for _ in range(fac.retained)))
    nu = np.zeros((fac.n_leaves, fac.n_leaves))
    big, big_sym = relaxed_Gamma(fac, omegas, nu, np.zeros((n, n)))
    eye = np.eye(n)
    expected = (0.5 * np.einsum("pq,rs->pqrs", eye, eye)
                - 0.125 * np.einsum("pr,qs->pqrs", eye, eye)
                - 0.125 * np.einsum("ps,qr->pqrs", eye, eye))
    np.testing.assert_allclose(big, expected, atol=1e-14)
    np.testing.assert_allclose(big_sym, expected, atol=1e-14)


@pytest.mark.parametrize("n,na,nb,seed", [(2, 1, 1, 7), (3, 1, 1, 2), (3, 2, 1, 3)])
def test_oracle_equivalence_exact_state(n, na, nb, seed):
    _, fac, state = _stationary_pipeline(n, na, nb, seed)
    rdms, _ = reconstruct_rdms(fac, state)
    gamma_m, big_m = qsim.measure_rdms_direct(state)
    assert np.max(np.abs(rdms.gamma_sym - symmetrize(gamma_m))) < 1e-8
    assert np.max(np.abs(rdms.Gamma_sym - eight_fold(big_m))) < 1e-8
    assert abs(np.trace(rdms.gamma_sym) - (na + nb)) < 1e-8


def test_oracle_equivalence_converged_vqe_state():
    ham = synth_hamiltonian(2, 1, 1, 7)
    fac = factorize(ham, TruncationPolicy.exact())
    result = vqe.optimize(fac, vqe.AnsatzConfig(2, seed=3), tol=1e-11)
    assert result.converged
    state = vqe.prepare_state(fac, vqe.AnsatzConfig(2, seed=3), result.params)
    rdms, _ = reconstruct_rdms(fac, state, stationarity_grad=result.grad_norm)
    gamma_m, big_m = qsim.measure_rdms_direct(state)
    assert np.max(np.abs(rdms.gamma_sym - symmetrize(gamma_m))) < 1e-8
    assert np.max(np.abs(rdms.Gamma_sym - eight_fold(big_m))) < 1e-8


def test_oracle_equivalence_energy_contraction():
    ham, fac, state = _stationary_pipeline(3, 1, 1, 2)
    rdms, _ = reconstruct_rdms(fac, state)
    e_recon = (ham.core_energy + float(np.sum(ham.one_body * rdms.gamma_sym))
               + float(np.sum(ham.two_body * rdms.Gamma_sym)))
    assert abs(e_recon - qsim.energy(state, fac)) < 1e-8


def test_degenerate_spectrum_guard_keeps_gamma_oracle():
    # orbitals 1 and 2 are degenerate and empty: the zeroed quotient entries
    # correspond to vanishing off-diagonal density, so gamma survives intact
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, -1.0])
    fac = factorize(ham, TruncationPolicy.exact())
    state, _ = vqe.exact_ground_state(fac)
    rdms, mult = reconstruct_rdms(fac, state)
    assert np.max(np.abs(mult.mu0)) == 0.0  # degenerate pair zeroed by the guard
    gamma_m, _ = qsim.measure_rdms_direct(state)
    assert np.max(np.abs(rdms.gamma_sym - symmetrize(gamma_m))) < 1e-10


def test_truncated_reconstruction_differs_from_measured():
    # truncation is lossy: the relaxed densities are derivative-defining for
    # the truncated energy, not reproductions of the measured ones
    ham = synth_hamiltonian(4, 2, 2, 13)
    fac = factorize(ham, TruncationPolicy.by_count(4))
    state, _ = vqe.exact_ground_state(fac)
    rdms, _ = reconstruct_rdms(fac, state)
    _, big_m = qsim.measure_rdms_direct(state)
    assert np.max(np.abs(rdms.Gamma_sym - eight_fold(big_m))) > 1e-4


def test_ablation_modes_zero_the_right_pieces():
    ham = synth_hamiltonian(3, 1, 1, 2)
    fac = factorize(ham, TruncationPolicy.by_count(4))
    state, _ = vqe.exact_ground_state(fac)
    full_rdms, full_mult = reconstruct_rdms(fac, state)

    rdms0, mult0 = reconstruct_rdms(fac, state, ablate="eta0")
    assert np.max(np.abs(mult0.mu0)) == 0.0
    assert np.max(np.abs(mult0.eta0)) == 0.0
    # gamma loses its off-diagonal response, Gamma inherits via gamma_bar
    assert np.max(np.abs(rdms0.gamma_sym - full_rdms.gamma_sym)) > 1e-6

    rdmst, multt = reconstruct_rdms(fac, state, ablate="etat")
    assert all(np.max(np.abs(m)) == 0.0 for m in multt.mu)
    np.testing.assert_allclose(rdmst.gamma_sym, full_rdms.gamma_sym, atol=1e-12)
    assert np.max(np.abs(multt.nu)) > 0.0  # omega-driven part survives

    rdmsn, multn = reconstruct_rdms(fac, state, ablate="nu")
    assert np.max(np.abs(multn.nu)) == 0.0
    np.testing.assert_allclose(rdmsn.gamma_sym, full_rdms.gamma_sym, atol=1e-12)
    assert np.max(np.abs(rdmsn.Gamma_sym - full_rdms.Gamma_sym)) > 1e-6

    with pytest.raises(ValueError):
        reconstruct_rdms(fac, state, ablate="everything")


def test_no_retained_leaves_leaves_only_the_one_body_frame():
    ham = synth_hamiltonian(3, 1, 1, 2)
    fac = factorize(ham, TruncationPolicy.by_count(0))
    assert fac.retained == 0 and len(fac.frames) == 1
    state, _ = vqe.exact_ground_state(fac)
    rdms, mult = reconstruct_rdms(fac, state)
    assert mult.eta == () and mult.mu == ()
    assert mult.nu.shape == (fac.n_leaves, fac.n_leaves)
    assert not np.any(mult.nu)
    assert np.any(mult.mu0)
    assert abs(np.trace(rdms.gamma_sym) - 2.0) < 1e-8


@pytest.mark.parametrize("n,na,nb,seed,count", [(3, 2, 1, 4, None), (4, 2, 2, 13, 4),
                                                (5, 3, 2, 1, None)])
def test_stacked_chain_matches_per_frame_loops(n, na, nb, seed, count):
    # the per-frame mu quotients and the per-pair R projections that the
    # stacked chain replaced, bit for bit
    policy = TruncationPolicy.exact() if count is None else TruncationPolicy.by_count(count)
    fac = factorize(synth_hamiltonian(n, na, nb, seed), policy)
    state = random_sector_state(fac, seed + 3)
    omegas, mult = lagrange.measure_and_solve(fac, state)
    etas = (mult.eta0, *mult.eta)
    orbitals = [(fac.U0, fac.F0)] + [(leaf.U, leaf.lam) for leaf in fac.retained_leaves]
    for eta, mu, (u, spectrum) in zip(etas, (mult.mu0, *mult.mu), orbitals, strict=True):
        x = u.T @ eta
        spread = float(np.max(spectrum) - np.min(spectrum))
        expected = np.zeros((n, n))
        for a in range(n):
            for b in range(a):
                denom = spectrum[a] - spectrum[b]
                if abs(denom) > lagrange.DEGENERACY_GUARD * max(spread, 1e-300):
                    expected[a, b] = (x[a, b] - x[b, a]) / denom
        assert mu.tobytes() == expected.tobytes()

    r_mat = np.zeros((fac.n_leaves, fac.n_leaves))
    for u, leaf in enumerate(fac.retained_leaves):
        w = omegas.omega[u] @ leaf.lam
        core = 2.0 * leaf.g * (leaf.U * w) @ leaf.U.T + leaf.U @ mult.mu[u] @ leaf.U.T
        for up in range(fac.n_leaves):
            if up != u:
                r_mat[up, u] = float(np.sum(fac.leaves[up].V * core))
    assert solve_nu(fac, omegas, mult.mu).tobytes() == mult.nu.tobytes()
    g = fac.g_values
    for t in range(fac.n_leaves):
        for u in range(t):
            expected = 0.0
            if abs(g[t] - g[u]) > lagrange.DEGENERACY_GUARD * float(np.max(g) - np.min(g)):
                expected = (r_mat[t, u] - r_mat[u, t]) / (g[u] - g[t])
            assert mult.nu[t, u] == (0.0 if min(t, u) >= fac.retained else expected)
