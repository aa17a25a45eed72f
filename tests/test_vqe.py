from dataclasses import replace

import numpy as np
import pytest

from xdfrelax import qsim, vqe
from xdfrelax.hammodel import (Hamiltonian, apply_perturbation,
                               random_two_body_perturbation, synth_hamiltonian)
from xdfrelax.vqe import (
    AnsatzConfig,
    ansatz_blocks,
    exact_ground_state,
    n_parameters,
    optimize,
    prepare_state,
)
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (KERNEL_CASES, ansatz_gradient, ref_ansatz_state, regime_fixture,
                     zero_two_body)

def test_block_layout():
    assert ansatz_blocks(4, 2) == (0, 2, 1)
    assert n_parameters(4, AnsatzConfig(2)) == 6
    assert ansatz_blocks(2, 3) == (0, 0)  # odd layers are empty for N=2


def test_ansatz_state_stays_in_sector():
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    cfg = AnsatzConfig(3, seed=0)
    rng = np.random.default_rng(2)
    params = rng.uniform(-1.5, 1.5, n_parameters(4, cfg))
    state = prepare_state(fac, cfg, params)
    assert state.electron_counts() == (2, 2)
    assert abs(state.norm() - 1.0) < 1e-12


def test_zero_two_body_stationary_at_zero_parameters():
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    fac = factorize(ham, TruncationPolicy.exact())
    cfg = AnsatzConfig(2, seed=0)
    grad = ansatz_gradient(fac, cfg, np.zeros(n_parameters(3, cfg)))
    assert np.max(np.abs(grad)) < 1e-10


def test_zero_layer_ansatz_has_empty_gradient():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(0)
    assert ansatz_gradient(fac, cfg, np.zeros(0)).size == 0


def test_gradient_matches_finite_differences():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(2, seed=1)
    rng = np.random.default_rng(7)
    params = 0.4 * rng.standard_normal(n_parameters(3, cfg))
    grad = ansatz_gradient(fac, cfg, params)
    step = 1e-5
    for i in range(params.size):
        plus = params.copy()
        plus[i] += step
        minus = params.copy()
        minus[i] -= step
        fd = (qsim.energy(prepare_state(fac, cfg, plus), fac)
              - qsim.energy(prepare_state(fac, cfg, minus), fac)) / (2 * step)
        assert abs(grad[i] - fd) < 1e-7


def test_optimize_reaches_exact_ground_state_n2():
    fac = factorize(synth_hamiltonian(2, 1, 1, 7), TruncationPolicy.exact())
    _, e_exact = exact_ground_state(fac)
    result = optimize(fac, AnsatzConfig(2, seed=3), tol=1e-10)
    assert result.converged
    assert result.energy - e_exact < 1e-10
    assert result.grad_norm <= 1e-10


def test_optimize_gradient_norm_at_optimum():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(3, seed=3)
    result = optimize(fac, cfg, tol=1e-10)
    grad = ansatz_gradient(fac, cfg, result.params)
    assert np.max(np.abs(grad)) <= 1e-9


WARM_TOL = 1e-9


@pytest.fixture
def energy_grad_calls(monkeypatch):
    """Records every energy+gradient evaluation the optimizer makes."""
    calls = []
    real = vqe._energy_and_gradient

    def counting(*args):
        calls.append(args[-1])  # the evaluated parameters
        return real(*args)

    monkeypatch.setattr(vqe, "_energy_and_gradient", counting)
    return calls


@pytest.fixture(scope="module")
def displaced_regime():
    """A cold solve on the regime fixture and the fixture displaced by eps=1e-3."""
    ham = regime_fixture()
    cfg = AnsatzConfig(4, seed=3)
    base = optimize(factorize(ham, TruncationPolicy.exact()), cfg, tol=WARM_TOL)
    pert = random_two_body_perturbation(ham.n_orbitals, 350)
    fac = factorize(apply_perturbation(ham, pert, 1e-3), TruncationPolicy.exact())
    return fac, cfg, base


def test_optimize_restart_is_a_fixed_point(energy_grad_calls):
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(2, seed=5)
    first = optimize(fac, cfg, tol=1e-10)
    energy_grad_calls.clear()
    second = optimize(fac, cfg, tol=1e-10, seed=first)
    # a converged seed is checked with one gradient and returned unchanged
    assert len(energy_grad_calls) == 1
    assert second.energy == first.energy and second.n_iterations == 0


def test_warm_displaced_resolve_matches_lbfgs_route(displaced_regime, energy_grad_calls):
    fac, cfg, base = displaced_regime
    result = optimize(fac, cfg, tol=WARM_TOL, seed=base)
    n_calls = len(energy_grad_calls)
    assert result.converged and result.grad_norm <= WARM_TOL
    assert result.n_iterations >= 1
    # one Hessian build (2P calls) when the seed has no curvature, a few steps
    assert n_calls <= 2 * base.params.size + 6
    # reseeded with the curvature it built, the solve is a few chord steps
    energy_grad_calls.clear()
    chord = optimize(fac, cfg, tol=WARM_TOL, seed=replace(base, curvature=result.curvature))
    assert chord.converged and len(energy_grad_calls) <= 4
    # the route without curvature: L-BFGS from the seed, then a Newton polish
    x, _ = vqe._lbfgs(fac, cfg, base.params, WARM_TOL, 2000)
    _, energy, grad, _, _ = vqe._newton_polish(fac, cfg, x, WARM_TOL, 20)
    assert np.max(np.abs(grad)) <= WARM_TOL
    assert abs(result.energy - energy) <= 1e-12
    assert abs(chord.energy - energy) <= 1e-12


@pytest.mark.parametrize("scale", [-1.0, 0.0])
def test_wrong_seed_curvature_is_rebuilt(displaced_regime, energy_grad_calls, scale):
    fac, cfg, base = displaced_regime
    good = optimize(fac, cfg, tol=WARM_TOL, seed=base)
    wrong = replace(base, curvature=scale * good.curvature)
    energy_grad_calls.clear()
    result = optimize(fac, cfg, tol=WARM_TOL, seed=wrong)
    assert result.converged
    assert len(energy_grad_calls) >= 2 * base.params.size  # the Hessian was rebuilt
    assert np.max(np.abs(result.curvature - wrong.curvature)) > 0
    assert abs(result.energy - good.energy) <= 1e-12


def test_curvature_is_read_only(displaced_regime):
    fac, cfg, base = displaced_regime
    result = optimize(fac, cfg, tol=WARM_TOL, seed=base)
    assert result.curvature.shape == (base.params.size,) * 2
    np.testing.assert_allclose(result.curvature, result.curvature.T, atol=1e-12)
    with pytest.raises(ValueError):
        result.curvature[0, 0] = 1.0
    with pytest.raises(ValueError):
        result.params[0] = 1.0


def test_optimize_deterministic():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.by_count(4))
    cfg = AnsatzConfig(2, seed=9)
    a = optimize(fac, cfg, tol=1e-9)
    b = optimize(fac, cfg, tol=1e-9)
    assert a.energy == b.energy
    np.testing.assert_array_equal(a.params, b.params)


def test_optimize_rejects_nonpositive_tolerance():
    fac = factorize(synth_hamiltonian(2, 1, 1, 7), TruncationPolicy.exact())
    with pytest.raises(ValueError):
        optimize(fac, AnsatzConfig(1), tol=0.0)


def test_exact_ground_state_one_body_limit():
    # lowest F0 orbitals are filled; state is that single determinant
    diag = [0.5, -2.0, -1.0]
    ham = zero_two_body(3, 1, 1, diag, core=0.1)
    fac = factorize(ham, TruncationPolicy.exact())
    state, e0 = exact_ground_state(fac)
    assert abs(e0 - (0.1 + 2.0 * min(diag))) < 1e-12
    expected_index = (1 << 1) | (1 << (3 + 1))  # orbital 1 in both spins
    assert abs(abs(state.amplitudes[expected_index]) - 1.0) < 1e-12


def test_exact_ground_state_energy_consistency():
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state, e0 = exact_ground_state(fac)
    assert abs(qsim.energy(state, fac) - e0) < 1e-10
    assert state.electron_counts() == (2, 1)


def test_exact_ground_state_sign_deterministic():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    s1, _ = exact_ground_state(fac)
    s2, _ = exact_ground_state(fac)
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    lead = np.nonzero(np.abs(s1.amplitudes) > 1e-8)[0][0]
    assert s1.amplitudes[lead] > 0


@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES)
def test_prepare_state_matches_reference_kernel(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(3)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, n_parameters(n, cfg))
    blocks = ansatz_blocks(n, cfg.n_layers)
    ref = ref_ansatz_state(fac, blocks, params[0::2], params[0::2], params[1::2])
    out = prepare_state(fac, cfg, params)
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-12


@pytest.mark.parametrize("n,na,nb,seed,layers", [(2, 1, 1, 7, 3), (3, 2, 1, 3, 2),
                                                 (4, 2, 2, 13, 2)])
def test_adjoint_gradient_matches_shift_rule(n, na, nb, seed, layers):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(layers)
    params = np.random.default_rng(seed).uniform(-1.5, 1.5, n_parameters(n, cfg))
    energy, grad = vqe._energy_and_gradient(fac, cfg, params)
    assert abs(energy - qsim.energy(prepare_state(fac, cfg, params), fac)) <= 1e-12
    assert np.max(np.abs(grad - ansatz_gradient(fac, cfg, params))) <= 1e-12


def _one_orbital_model() -> Hamiltonian:
    # one doubly occupied orbital: E = core + 2 h + (00|00) = 0.5 - 2.4 + 0.5
    return Hamiltonian(1, 1, 1, 0.5, np.array([[-1.2]]), np.full((1, 1, 1, 1), 0.5))


@pytest.mark.parametrize("ham,cfg,expected", [
    (synth_hamiltonian(2, 1, 1, 7), AnsatzConfig(0), None),
    (_one_orbital_model(), AnsatzConfig(2), -1.4),
])
def test_optimize_without_parameters_keeps_reference(ham, cfg, expected):
    fac = factorize(ham, TruncationPolicy.exact())
    assert n_parameters(fac.n_orbitals, cfg) == 0
    result = optimize(fac, cfg)
    reference = qsim.hf_reference(fac.n_orbitals, fac.n_alpha, fac.n_beta)
    assert result.params.shape == (0,)
    assert result.converged and result.grad_norm == 0.0 and result.n_iterations == 0
    assert abs(result.energy - qsim.energy(reference, fac)) <= 1e-12
    if expected is not None:
        assert abs(result.energy - expected) <= 1e-12
