import numpy as np
import pytest

from xdfrelax import cli, givens, lagrange, qsim, verify, vqe
from xdfrelax.hammodel import synth_hamiltonian, write_fcidump
from xdfrelax.lagrange import (
    reconstruct_rdms,
    relaxed_Gamma,
    relaxed_gamma,
    solve_mu,
    solve_nu,
)
from xdfrelax.qsim import EigenbasisDensities
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    FILLING_CASES,
    KERNEL_CASES,
    SINGULAR_CHART_CASES,
    eight_fold,
    random_sector_state,
    ref_angle_eta,
    ref_angle_mu,
    symmetrize,
    zero_two_body,
)


def _stationary_pipeline(n, na, nb, seed, policy=None):
    ham = synth_hamiltonian(n, na, nb, seed)
    fac = factorize(ham, policy or TruncationPolicy.exact())
    state, _ = vqe.exact_ground_state(fac)
    return ham, fac, state


def test_gradient_zero_for_rotation_invariant_state():
    # empty sector: every frame energy is rotation-independent
    ham = synth_hamiltonian(3, 0, 0, 2)
    fac = factorize(ham, TruncationPolicy.exact())
    vacuum = qsim.hf_reference(3, 0, 0)
    grads = qsim.measure_densities(vacuum, fac).gradients
    assert grads.shape == (len(fac.frames.fabric.angles), 3)
    assert np.max(np.abs(grads)) < 1e-12
    _, mult = lagrange.measure_and_solve(fac, vacuum)
    assert max(np.max(np.abs(mu)) for mu in (mult.mu0, *mult.mu)) < 1e-12


def test_gradient_zero_for_diagonal_one_body_hf():
    # U0 is the identity here, where the angle chart is singular
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    fac = factorize(ham, TruncationPolicy.exact())
    state = qsim.hf_reference(3, 1, 1)
    grad = qsim.measure_densities(state, fac).gradients[0]
    assert np.max(np.abs(grad)) < 1e-12
    assert np.max(np.abs(solve_mu(grad, fac.F0))) < 1e-12


def test_gradient_scalar_closed_form_n2():
    # at N=2, U exp(kappa K_10) is the fabric at theta + kappa: G is dE/dtheta
    _, fac, state = _stationary_pipeline(2, 1, 1, 7)
    de = qsim.denergy_dtheta_shift(state, fac.frames, 0, 0)
    grad = qsim.measure_densities(state, fac).gradients[0]
    assert abs(grad[0] - de) < 1e-12
    mu = solve_mu(grad, fac.F0)
    assert abs(mu[1, 0] - (-de / (fac.F0[1] - fac.F0[0]))) < 1e-12
    # the angle route's closed form: eta = -dE/dtheta / J, mu from U^T eta
    eta = np.array([[0.0, 0.0], [-de / givens.jacobian(fac.frames.fabric)[0, 0, 0], 0.0]])
    x = fac.U0.T @ eta
    assert abs(mu[1, 0] - (x[1, 0] - x[0, 1]) / (fac.F0[1] - fac.F0[0])) < 1e-12


def test_eta_residual_random_fixture():
    # the angle-route referee solves a consistent system on generic frames
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    gradients = qsim.angle_gradients(state, fac.frames)
    etas, residuals = ref_angle_eta(state, fac.frames)
    for f, (jac, de_dtheta, eta, residual) in enumerate(
            zip(givens.jacobian(fac.frames.fabric), gradients, etas, residuals, strict=True)):
        eta_vec = eta[np.tril_indices(fac.n_orbitals, -1)]
        rhs = -de_dtheta
        shift_rhs = -np.array([qsim.denergy_dtheta_shift(state, fac.frames, f, g)
                               for g in range(len(de_dtheta))])
        assert np.max(np.abs(rhs - shift_rhs)) < 1e-10
        assert np.max(np.abs(jac @ eta_vec - rhs)) < 1e-10
        assert residual == np.max(np.abs(jac @ eta_vec - rhs))


def _counting_rotations(monkeypatch):
    """Record the frame stack of every rotation of a state into frames."""
    swept, real = [], qsim._rotated

    def counting(state, frames):
        swept.append(frames)
        return real(state, frames)

    monkeypatch.setattr(qsim, "_rotated", counting)
    return swept


def test_rotation_gradients_build_no_fabric_operator(monkeypatch):
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    _, expected = lagrange.measure_and_solve(fac, state)

    def refuse(*args):
        raise AssertionError("fabric operator built during the multiplier solve")

    monkeypatch.setattr(qsim, "_fabric_operators", refuse)
    swept = _counting_rotations(monkeypatch)
    _, got = lagrange.measure_and_solve(fac, state)
    assert swept == [fac.frames]
    for mu, got_mu in zip((expected.mu0, *expected.mu), (got.mu0, *got.mu), strict=True):
        np.testing.assert_array_equal(got_mu, mu)


@pytest.mark.parametrize("ablate", [None, "eta0", "etat", "nu"])
def test_measure_and_solve_sweeps_the_solved_frames_once(monkeypatch, ablate):
    # one rotation serves the densities and every frame's gradients
    _, fac, state = _stationary_pipeline(3, 2, 1, 4)
    _, full = lagrange.measure_and_solve(fac, state)
    swept = _counting_rotations(monkeypatch)
    _, multipliers = lagrange.measure_and_solve(fac, state, ablate)
    assert swept == [fac.frames]
    if ablate == "etat":
        assert all(not np.any(mu) for mu in multipliers.mu)
        assert multipliers.mu0.tobytes() == full.mu0.tobytes()


def test_eta_warns_on_nonstationary_state():
    ham = synth_hamiltonian(2, 1, 1, 7)
    fac = factorize(ham, TruncationPolicy.exact())
    state = qsim.hf_reference(2, 1, 1)  # not an eigenstate of this Hamiltonian
    # the multiplier premise is a stationary state; the pipeline says so
    with pytest.warns(UserWarning, match="gradient norm"):
        reconstruct_rdms(fac, state, stationarity_grad=1.0)


def test_mu_zero_when_gradient_zero():
    spec = np.array([1.0, 2.0, 3.0])
    assert np.max(np.abs(solve_mu(np.zeros(3), spec))) == 0.0


def test_mu_scalar_quotient_n2():
    f0 = np.array([-1.5, 0.5])
    mu = solve_mu(np.array([0.7]), f0)
    assert mu[1, 0] == -0.7 / (f0[1] - f0[0])
    assert mu[0, 1] == 0.0


def test_mu_solves_are_linear():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal(6)
    spec = np.array([0.1, 0.5, 1.7, 3.0])
    np.testing.assert_allclose(solve_mu(2.0 * grads, spec), 2.0 * solve_mu(grads, spec),
                               atol=1e-13)


def test_mu_guard_triggers_only_below_cutoff():
    # pair (2, 1) is within the guard of the 3-unit spectral range; (1, 0) is not
    spec = np.array([-1.0, 2.0, 2.0 + 1e-9])
    mu = solve_mu(np.ones(3), spec)
    assert mu[2, 1] == 0.0
    assert mu[1, 0] != 0.0
    assert mu[2, 0] != 0.0


def test_nu_zero_cases():
    _, fac, _ = _stationary_pipeline(3, 1, 1, 2)
    n = fac.n_orbitals
    omegas = EigenbasisDensities(np.zeros(n), np.zeros((fac.retained, n, n)),
                                 np.zeros((fac.retained + 1, 3)))
    nu = solve_nu(fac, omegas, np.zeros((fac.retained, n, n)))
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
    omegas = EigenbasisDensities(np.array([1.0, -1.0]), np.zeros((0, 2, 2)),
                                 np.zeros((fac.retained + 1, 1)))
    gamma, gamma_sym = relaxed_gamma(fac, omegas, np.zeros((2, 2)))
    np.testing.assert_allclose(gamma, np.diag([2.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(gamma_sym, gamma, atol=1e-15)


def test_relaxed_Gamma_identity_terms_only():
    ham = synth_hamiltonian(3, 1, 1, 2)
    fac = factorize(ham, TruncationPolicy.exact())
    n = 3
    omegas = EigenbasisDensities(np.zeros(n), np.zeros((fac.retained, n, n)),
                                 np.zeros((fac.retained + 1, 3)))
    nu = np.zeros((fac.n_leaves, fac.n_leaves))
    big, big_sym = relaxed_Gamma(fac, omegas, nu, np.zeros((n, n)))
    eye = np.eye(n)
    expected = (0.5 * np.einsum("pq,rs->pqrs", eye, eye)
                - 0.125 * np.einsum("pr,qs->pqrs", eye, eye)
                - 0.125 * np.einsum("ps,qr->pqrs", eye, eye))
    np.testing.assert_allclose(big, expected, atol=1e-14)
    np.testing.assert_allclose(big_sym, expected, atol=1e-14)


@pytest.mark.parametrize("case", ["2-1-1-7", "3-1-1-2", "3-2-1-3", *SINGULAR_CHART_CASES])
def test_oracle_equivalence_exact_state(case):
    # a synthetic "n-na-nb-seed" model, or a model whose frames sit where the
    # angle chart is singular
    if case in SINGULAR_CHART_CASES:
        ham = SINGULAR_CHART_CASES[case]()
    else:
        ham = synth_hamiltonian(*map(int, case.split("-")))
    fac = factorize(ham, TruncationPolicy.exact())
    state, _ = vqe.exact_ground_state(fac)
    rdms, _ = reconstruct_rdms(fac, state)
    gamma_m, big_m = qsim.measure_rdms_direct(state)
    assert np.max(np.abs(rdms.gamma_sym - symmetrize(gamma_m))) < 1e-8
    assert np.max(np.abs(rdms.Gamma_sym - eight_fold(big_m))) < 1e-8
    assert abs(np.trace(rdms.gamma_sym) - (ham.n_alpha + ham.n_beta)) < 1e-8


def test_gauge_distinct_fabrics_give_one_frame():
    # decompose alternates between these fabrics of one signed permutation;
    # frame operators, and so every result, depend on U alone
    u = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0]], dtype=float)
    fabric = givens.GivensFabric(4, np.pi * np.array([[0, -0.5, -0.5, 0, 0.5, 0],
                                                      [0, 0.25, 0.5, 0, -0.5, -0.25]]))
    assert np.max(np.abs(givens.reconstruct(fabric) - u)) < 1e-15
    for na, nb in ((2, 2), (1, 3)):
        frames = qsim.Frames(fabric, na, nb, np.zeros((2, *qsim.sector_shape(4, na, nb))))
        assert np.max(np.abs(frames.M_alpha[0] - frames.M_alpha[1])) < 1e-14
        assert np.max(np.abs(frames.M_beta[0] - frames.M_beta[1])) < 1e-14


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, *FILLING_CASES])
def test_angle_route_mu_matches_chart_free(n, na, nb, seed):
    _, fac, state = _stationary_pipeline(n, na, nb, seed)
    _, mult = lagrange.measure_and_solve(fac, state)
    conds = np.linalg.cond(givens.jacobian(fac.frames.fabric))
    compared = 0
    for mu, ref, cond in zip((mult.mu0, *mult.mu), ref_angle_mu(fac, state), conds,
                             strict=True):
        if cond < 1e6:
            assert np.max(np.abs(mu - ref)) < 1e-10
            compared += 1
    assert compared >= 1


def test_production_never_reaches_the_angle_chart(monkeypatch, tmp_path):
    # the angle chart is a referee: relaxed densities, the rdm command and
    # Verlet forces all run on orbital-rotation gradients
    ham_a, ham_b = synth_hamiltonian(3, 1, 1, 2), synth_hamiltonian(3, 1, 1, 8)
    fac = factorize(ham_a, TruncationPolicy.exact())
    state, _ = vqe.exact_ground_state(fac)
    path = tmp_path / "n3.fcidump"
    path.write_text(write_fcidump(ham_a), encoding="ascii")

    def refuse(*args, **kwargs):
        raise AssertionError("angle chart reached outside a referee")

    for original in (givens.jacobian, qsim.angle_gradients):
        for module in (cli, givens, lagrange, qsim, verify, vqe):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, refuse)
    rdms, _ = reconstruct_rdms(fac, state)
    assert rdms.gamma_sym.shape == (3, 3)
    assert cli.main(["rdm", "--fcidump", str(path), "--layers", "2",
                     "--out", str(tmp_path / "rdm.json")]) == cli.EXIT_OK
    trace = verify.verlet_path(ham_a, ham_b, n_steps=2, dt=0.005, mass=10.0)
    assert trace.completed == 2 and trace.aborted is None


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
    assert fac.retained == 0 and len(fac.frames.fabric.angles) == 1
    # every leaf stays as data; the retained-leaf stacks are empty
    assert fac.g.shape == (6,) and fac.lam.shape == (6, 3)
    assert fac.V.shape == fac.U.shape == fac.Z.shape == (6, 3, 3)
    state, _ = vqe.exact_ground_state(fac)
    omegas = qsim.measure_densities(state, fac)
    assert omegas.omega.shape == (0, 3, 3)
    assert omegas.gradients.shape == (1, 3)
    rdms, mult = reconstruct_rdms(fac, state)
    assert mult.mu.shape == (0, 3, 3)
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
    grads = omegas.gradients
    spectra = [fac.F0, *fac.lam[:fac.retained]]
    for grad, mu, spectrum in zip(grads, (mult.mu0, *mult.mu), spectra, strict=True):
        spread = float(np.max(spectrum) - np.min(spectrum))
        expected = np.zeros((n, n))
        for p, (a, b) in enumerate(zip(*givens.lower_indices(n))):
            denom = spectrum[a] - spectrum[b]
            if abs(denom) > lagrange.DEGENERACY_GUARD * max(spread, 1e-300):
                expected[a, b] = -grad[p] / denom
        assert mu.tobytes() == expected.tobytes()

    r_mat = np.zeros((fac.n_leaves, fac.n_leaves))
    for u in range(fac.retained):
        leaf_u = fac.U[u]
        w = omegas.omega[u] @ fac.lam[u]
        core = 2.0 * fac.g[u] * (leaf_u * w) @ leaf_u.T + leaf_u @ mult.mu[u] @ leaf_u.T
        for up in range(fac.n_leaves):
            if up != u:
                r_mat[up, u] = float(np.sum(fac.V[up] * core))
    assert solve_nu(fac, omegas, mult.mu).tobytes() == mult.nu.tobytes()
    g = fac.g
    for t in range(fac.n_leaves):
        for u in range(t):
            expected = 0.0
            if abs(g[t] - g[u]) > lagrange.DEGENERACY_GUARD * float(np.max(g) - np.min(g)):
                expected = (r_mat[t, u] - r_mat[u, t]) / (g[u] - g[t])
            assert mult.nu[t, u] == (0.0 if min(t, u) >= fac.retained else expected)
