import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdfrelax import qsim, vqe
from xdfrelax.verify import density_energy, exact_ground_state
from xdfrelax.givens import brickwork
from xdfrelax.hammodel import (Hamiltonian, apply_perturbation,
                               random_two_body_perturbation, synth_hamiltonian)
from xdfrelax.vqe import (
    AnsatzConfig,
    n_parameters,
    optimize,
    prepare_state,
)
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (FILLING_CASES, KERNEL_CASES, ansatz_gradient, electron_counts,
                     ref_ansatz_state, ref_energy_and_gradient, ref_inverse_hessian,
                     regime_fixture, zero_two_body)

def test_block_layout():
    assert brickwork(4, 2) == (0, 2, 1)
    assert n_parameters(4, AnsatzConfig(2)) == 6
    assert brickwork(2, 3) == (0, 0)  # odd layers are empty for N=2


def test_ansatz_state_stays_in_sector():
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    cfg = AnsatzConfig(3, seed=0)
    rng = np.random.default_rng(2)
    params = rng.uniform(-1.5, 1.5, n_parameters(4, cfg))
    state = prepare_state(fac, cfg, params)
    assert state.amplitudes.shape == (6, 6)
    assert electron_counts(state.embed(), 4) == (2, 2)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


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


@pytest.mark.parametrize("layers", [-1, -2])
def test_negative_ansatz_depth_is_refused(layers):
    with pytest.raises(ValueError, match=f"n_layers must be >= 0, got {layers}$"):
        AnsatzConfig(layers)


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
        fd = (density_energy(prepare_state(fac, cfg, plus), fac)
              - density_energy(prepare_state(fac, cfg, minus), fac)) / (2 * step)
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
    second = optimize(fac, cfg, tol=1e-10, start=first.params, curvature=first.curvature)
    # a converged seed is checked with one gradient and returned unchanged
    assert len(energy_grad_calls) == 1
    assert second.energy == first.energy and second.n_iterations == 0


def test_warm_displaced_resolve_matches_lbfgs_route(displaced_regime, energy_grad_calls):
    fac, cfg, base = displaced_regime
    result = optimize(fac, cfg, tol=WARM_TOL, start=base.params, curvature=base.curvature)
    n_calls = len(energy_grad_calls)
    assert result.converged and result.grad_norm <= WARM_TOL
    assert result.n_iterations >= 1
    # one Hessian build (2P calls) when the seed has no curvature, a few steps
    assert n_calls <= 2 * base.params.size + 6
    # reseeded with the curvature it built, the solve is a few chord steps
    energy_grad_calls.clear()
    chord = optimize(fac, cfg, tol=WARM_TOL, start=base.params, curvature=result.curvature)
    assert chord.converged and len(energy_grad_calls) <= 4
    # the route without curvature: L-BFGS from the seed, then a Newton polish
    x, _ = vqe._lbfgs(fac, cfg, base.params, WARM_TOL, 2000)
    _, energy, grad, _, _ = vqe._newton_polish(fac, cfg, x, WARM_TOL, 20)
    assert np.max(np.abs(grad)) <= WARM_TOL
    assert abs(result.energy - energy) <= 1e-12
    assert abs(chord.energy - energy) <= 1e-12


def test_cold_solve_runs_lbfgs_once_per_depth(lbfgs_calls):
    fac = factorize(regime_fixture(), TruncationPolicy.exact())
    cfg = AnsatzConfig(4, seed=3)
    result = optimize(fac, cfg, tol=WARM_TOL)
    assert result.converged
    # one run per grown depth; Newton finishes from the full-depth one
    assert lbfgs_calls == [n_parameters(4, AnsatzConfig(d)) for d in (1, 2, 3, 4)]


def test_cold_solve_hands_back_outside_newton_reach(lbfgs_calls, energy_grad_calls):
    # the grown full-depth point sits on a soft mode (curvature 6e-5 against
    # 16.6), and the Newton step there moves an angle by 0.95 rad, beyond
    # NEWTON_REACH: Newton hands back to the one L-BFGS fallback at once
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(3, seed=3)
    result = optimize(fac, cfg, tol=1e-10)
    assert result.converged
    assert lbfgs_calls == [2, 4, 6, 6]
    # the hand-back costs no more than growing every depth to 0.1 tol
    assert len(energy_grad_calls) <= 229


@pytest.mark.parametrize("ham, layers, seed, budget", [
    (synth_hamiltonian(6, 3, 3, 101), 2, 0, 60),
    (regime_fixture(), 4, 3, 100),
])
def test_cold_solve_point_budget(energy_grad_calls, ham, layers, seed, budget):
    result = optimize(factorize(ham, TruncationPolicy.exact()), AnsatzConfig(layers, seed),
                      tol=WARM_TOL)
    assert result.converged
    assert len(energy_grad_calls) <= budget


def test_failed_newton_falls_back_to_lbfgs(monkeypatch, lbfgs_calls):
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = AnsatzConfig(3, seed=3)
    reference = optimize(fac, cfg, tol=1e-10)
    lbfgs_calls.clear()
    builds = []
    real = vqe._hessian_modes

    def zero_first(fac, cfg, x):
        builds.append(x)
        return (np.zeros(x.size), np.eye(x.size)) if len(builds) == 1 else real(fac, cfg, x)

    monkeypatch.setattr(vqe, "_hessian_modes", zero_first)
    result = optimize(fac, cfg, tol=1e-10)
    assert len(builds) >= 2  # the zero Hessian stalled Newton, a fresh one was built
    assert len(lbfgs_calls) == cfg.n_layers + 1  # the fallback ran
    assert result.converged
    assert abs(result.energy - reference.energy) <= 1e-12


@pytest.mark.parametrize("noise_rcond", [vqe.NOISE_RCOND, vqe.GAUGE_RCOND])
def test_newton_steps_along_a_soft_mode(monkeypatch, noise_rcond):
    # a quadratic whose last gradient lies along a mode of curvature 2e-7 of
    # the largest: the gauge-free step drops it, and only the retry with every
    # mode above the noise lowers it; without the retry Newton stalls there
    curvature = np.diag([18.0, 1.0, 4e-6])

    def quadratic(fac, cfg, params):
        grad = params @ curvature
        return 0.5 * np.sum(grad * params, axis=-1), grad

    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    monkeypatch.setattr(vqe, "_energy_and_gradient", quadratic)
    monkeypatch.setattr(vqe, "NOISE_RCOND", noise_rcond)
    x, _, grad, _, _ = vqe._newton_polish(fac, None, np.array([0.01, 0.01, 1e-4]), 1e-11, 20)
    if noise_rcond == vqe.GAUGE_RCOND:
        assert abs(grad[2] - 4e-10) <= 1e-15  # the soft component, untouched
    else:
        assert np.max(np.abs(grad)) <= 1e-11 and np.max(np.abs(x)) <= 1e-9


def test_newton_halves_a_step_that_raises_the_gradient(monkeypatch):
    # g = arctan(10 x) / 10 flattens away from 0: the whole Newton step from
    # 0.14 is -0.281, inside NEWTON_REACH, yet it overshoots to max|g| 0.0955
    # against 0.0951; half of it lowers max|g| to 6.8e-4, and Newton
    # converges from there. Taking only whole steps, Newton stops at once
    def saturating(fac, cfg, params):
        grad = np.arctan(10.0 * params) / 10.0
        return np.sum(params * grad - np.log1p(100.0 * params ** 2) / 200.0, axis=-1), grad

    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    monkeypatch.setattr(vqe, "_energy_and_gradient", saturating)
    x0 = np.array([0.14])
    g0 = saturating(fac, None, x0)[1]
    whole = -vqe._pseudo_inverse(vqe._hessian_modes(fac, None, x0), vqe.GAUGE_RCOND) @ g0
    assert abs(whole[0] + 0.281) <= 1e-3 and abs(whole[0]) <= vqe.NEWTON_REACH
    assert abs(saturating(fac, None, x0 + whole)[1][0]) > abs(g0[0])
    assert abs(saturating(fac, None, x0 + whole / 2)[1][0]) <= 7e-4
    _, _, grad, _, steps = vqe._newton_polish(fac, None, x0, 1e-12, 20)
    assert np.max(np.abs(grad)) <= 1e-12 and steps == 3


@pytest.mark.parametrize("scale", [-1.0, 0.0])
def test_wrong_seed_curvature_is_rebuilt(displaced_regime, energy_grad_calls, scale):
    fac, cfg, base = displaced_regime
    good = optimize(fac, cfg, tol=WARM_TOL, start=base.params, curvature=base.curvature)
    wrong = scale * good.curvature
    energy_grad_calls.clear()
    result = optimize(fac, cfg, tol=WARM_TOL, start=base.params, curvature=wrong)
    assert result.converged
    assert len(energy_grad_calls) >= 2 * base.params.size  # the Hessian was rebuilt
    assert np.max(np.abs(result.curvature - wrong)) > 0
    assert abs(result.energy - good.energy) <= 1e-12


def test_curvature_is_read_only(displaced_regime):
    fac, cfg, base = displaced_regime
    result = optimize(fac, cfg, tol=WARM_TOL, start=base.params, curvature=base.curvature)
    assert result.curvature.shape == (base.params.size,) * 2
    np.testing.assert_allclose(result.curvature, result.curvature.T, atol=1e-12)
    with pytest.raises(ValueError):
        result.curvature[0, 0] = 1.0
    with pytest.raises(ValueError):
        result.params[0] = 1.0


def test_result_keeps_read_only_copies(displaced_regime):
    _, _, base = displaced_regime
    params = np.zeros(base.params.size)
    kept = vqe.VQEResult(params, 0.0, 0.0, True, 0, base.curvature, base.grown)
    for given, held in [(params, kept.params), (base.curvature, kept.curvature),
                        *zip(base.grown, kept.grown, strict=True)]:
        assert held is not given and not held.flags.writeable
        np.testing.assert_array_equal(held, given)


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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_optimize_rejects_nonfinite_tolerance(tol):
    # no max|g| reaches a nan tolerance and every one is below an infinite
    # one, so either would make the solve meaningless
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        optimize(fac, AnsatzConfig(3, seed=3), tol=tol)


# The in-package L-BFGS on analytic functions.

def extended_rosenbrock(x):
    """Moré, Garbow and Hillstrom's problem 21 (ACM TOMS 7, 17 (1981)) and
    its gradient; its minimum is 0 at the all-ones point."""
    a, b = x[0::2], x[1::2]
    grad = np.empty_like(x)
    grad[0::2] = -400.0 * a * (b - a ** 2) - 2.0 * (1.0 - a)
    grad[1::2] = 200.0 * (b - a ** 2)
    return float(np.sum(100.0 * (b - a ** 2) ** 2 + (1.0 - a) ** 2)), grad


def counted(fun):
    """fun, and the list of the points it was evaluated at."""
    points = []

    def wrapper(x):
        points.append(x)
        return fun(x)
    return wrapper, points


def rosenbrock_start(size: int) -> np.ndarray:
    return np.tile([-1.2, 1.0], size // 2)  # the problem's standard start


@pytest.mark.parametrize("size", [2, 10])
def test_lbfgs_minimizes_rosenbrock(size):
    x, nit = vqe._minimize_lbfgs(extended_rosenbrock, rosenbrock_start(size), 1e-10, 2000)
    assert 0 < nit < 100
    assert np.max(np.abs(extended_rosenbrock(x)[1])) <= 1e-10
    np.testing.assert_allclose(x, 1.0, atol=1e-9)


@pytest.mark.parametrize("maxiter", [1, 7, 20])
def test_lbfgs_stops_at_maxiter(maxiter):
    _, nit = vqe._minimize_lbfgs(extended_rosenbrock, rosenbrock_start(10), 1e-10, maxiter)
    assert nit == maxiter


def test_lbfgs_at_a_stationary_point_takes_no_step():
    fun, points = counted(lambda x: (float(x @ x), 2.0 * x))
    x, nit = vqe._minimize_lbfgs(fun, np.zeros(4), 1e-10, 2000)
    assert nit == 0 and len(points) == 1
    np.testing.assert_array_equal(x, 0.0)


def test_lbfgs_inconsistent_gradient_ends_at_the_start():
    # the negated gradient makes every descent direction an ascent one, so
    # the first line search finds no step and the start comes back
    x0 = rosenbrock_start(4)

    def negated(x):
        f, g = extended_rosenbrock(x)
        return f, -g

    fun, points = counted(negated)
    x, nit = vqe._minimize_lbfgs(fun, x0, 1e-10, 2000)
    assert nit == 0 and 1 < len(points) <= 21   # the start, then at most 20 trial steps
    np.testing.assert_array_equal(x, x0)


def test_lbfgs_is_deterministic():
    first = vqe._minimize_lbfgs(extended_rosenbrock, rosenbrock_start(10), 1e-10, 2000)
    second = vqe._minimize_lbfgs(extended_rosenbrock, rosenbrock_start(10), 1e-10, 2000)
    assert first[1] == second[1]
    np.testing.assert_array_equal(first[0], second[0])


def test_exact_ground_state_one_body_limit():
    # lowest F0 orbitals are filled; state is that single determinant
    diag = [0.5, -2.0, -1.0]
    ham = zero_two_body(3, 1, 1, diag, core=0.1)
    fac = factorize(ham, TruncationPolicy.exact())
    state, e0 = exact_ground_state(fac)
    assert abs(e0 - (0.1 + 2.0 * min(diag))) < 1e-12
    expected_index = (1 << 1) | (1 << (3 + 1))  # orbital 1 in both spins
    assert abs(abs(state.embed()[expected_index]) - 1.0) < 1e-12


def test_exact_ground_state_energy_consistency():
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state, e0 = exact_ground_state(fac)
    assert abs(density_energy(state, fac) - e0) < 1e-10
    assert electron_counts(state.embed(), 3) == (2, 1)


def test_exact_ground_state_sign_deterministic():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    s1, _ = exact_ground_state(fac)
    s2, _ = exact_ground_state(fac)
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    flat = s1.amplitudes.reshape(-1)
    lead = np.nonzero(np.abs(flat) > 1e-8)[0][0]
    assert flat[lead] > 0


@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES + FILLING_CASES)
def test_prepare_state_matches_reference_kernel(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(3)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, n_parameters(n, cfg))
    blocks = brickwork(n, cfg.n_layers)
    ref = ref_ansatz_state(fac, blocks, params[0::2], params[0::2], params[1::2])
    out = prepare_state(fac, cfg, params)
    assert np.max(np.abs(out.embed() - ref)) <= 1e-12


@pytest.mark.parametrize("n,na,nb,seed,layers", [(2, 1, 1, 7, 3), (3, 2, 1, 3, 2),
                                                 (4, 2, 2, 13, 2), (5, 3, 2, 1, 2),
                                                 *((*case, 2) for case in FILLING_CASES)])
def test_adjoint_gradient_matches_shift_rule(n, na, nb, seed, layers):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(layers)
    params = np.random.default_rng(seed).uniform(-1.5, 1.5, n_parameters(n, cfg))
    energy, grad = vqe._energy_and_gradient(fac, cfg, params)
    assert abs(energy - density_energy(prepare_state(fac, cfg, params), fac)) <= 1e-12
    assert np.max(np.abs(grad - ansatz_gradient(fac, cfg, params))) <= 1e-12


@pytest.mark.parametrize("layers", [0, 2])
@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES + FILLING_CASES)
def test_batched_rows_match_single_points(n, na, nb, seed, layers):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(layers)
    points = np.random.default_rng(seed).uniform(-np.pi, np.pi, (5, n_parameters(n, cfg)))
    points[0] = 0.0
    energies, grads = vqe._energy_and_gradient(fac, cfg, points)
    assert energies.shape == (5,) and grads.shape == points.shape
    for point, energy, grad in zip(points, energies, grads):
        single_energy, single_grad = vqe._energy_and_gradient(fac, cfg, point)
        assert energy == single_energy
        np.testing.assert_array_equal(grad, single_grad)


@pytest.mark.parametrize("sweep_entries", [None, 1])  # one batch; one point per sweep
@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES + [(4, 1, 3, 5)])
def test_inverse_hessian_matches_sequential_referee(monkeypatch, n, na, nb, seed,
                                                     sweep_entries):
    if sweep_entries is not None:
        monkeypatch.setattr(vqe, "STENCIL_SWEEP_ENTRIES", sweep_entries)
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    cfg = AnsatzConfig(2)
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, n_parameters(n, cfg))
    np.testing.assert_array_equal(vqe._pseudo_inverse(vqe._hessian_modes(fac, cfg, x),
                                                      vqe.GAUGE_RCOND),
                                  ref_inverse_hessian(fac, cfg, x))


@pytest.mark.parametrize("shape", [(3,), (2, 4), ()])
def test_prepare_state_takes_one_point(shape):
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    with pytest.raises(ValueError, match=r"expected 4 parameters, got \(") as err:
        prepare_state(fac, AnsatzConfig(2), np.zeros(shape))
    assert str(shape) in str(err.value)


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
    assert abs(result.energy - density_energy(reference, fac)) <= 1e-12
    if expected is not None:
        assert abs(result.energy - expected) <= 1e-12


# Property: on any desk-scale filling, depth and angles, including exact zeros
# and +-pi, the table-kernel sweep reproduces the rows-kernel sweep bitwise and
# the shift rule to 1e-10.

ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]),
                   st.floats(-np.pi, np.pi, allow_nan=False))


@st.composite
def ansatz_points(draw):
    n = draw(st.integers(2, 6))
    filling = st.integers(1, n - 1) | st.integers(0, n)  # mostly partly filled
    n_alpha, n_beta = draw(filling), draw(filling)
    cfg = AnsatzConfig(draw(st.integers(1, 3)))
    size = n_parameters(n, cfg)
    params = np.array(draw(st.lists(ANGLES, min_size=size, max_size=size)))
    return synth_hamiltonian(n, n_alpha, n_beta, draw(st.integers(0, 999))), cfg, params


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ansatz_points())
def test_table_kernel_sweep_matches_rows_kernel_and_shift_rule(point):
    ham, cfg, params = point
    fac = factorize(ham, TruncationPolicy.exact())
    energy, grad = vqe._energy_and_gradient(fac, cfg, params)
    ref_energy, ref_grad = ref_energy_and_gradient(fac, cfg, params)
    assert energy == ref_energy
    np.testing.assert_array_equal(grad, ref_grad)
    assert np.max(np.abs(grad - ansatz_gradient(fac, cfg, params)), initial=0.0) <= 1e-10


def test_cos_is_even_and_sin_is_odd_bitwise():
    # the inverse sweep takes gate k's cos and -sin for cos(-theta) and
    # sin(-theta); checked on every array length the sweeps of this suite
    # pass to numpy, whose vector loops treat the tail of an array apart
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, np.pi / 4, 1e-300, 5e-324, 1e-8,
             2 * np.pi, 1e5, np.nextafter(np.pi, 0.0)]
    angles = np.concatenate([edges, rng.uniform(-4 * np.pi, 4 * np.pi, 4096),
                             1e-6 * rng.standard_normal(256)])
    for size in [*range(1, 65), len(angles)]:
        theta = angles[:size]
        assert np.array_equal(np.cos(-theta), np.cos(theta))
        assert np.array_equal(np.sin(-theta), -np.sin(theta))
        assert np.array_equal(np.signbit(np.sin(-theta)), np.signbit(-np.sin(theta)))


def test_cold_solve_keeps_each_grown_depth(lbfgs_calls):
    fac = factorize(regime_fixture(), TruncationPolicy.exact())
    deep = optimize(fac, AnsatzConfig(4, seed=3), tol=WARM_TOL)
    assert [p.size for p in deep.grown] == [n_parameters(4, AnsatzConfig(d)) for d in (1, 2, 3, 4)]
    assert all(not p.flags.writeable for p in deep.grown)
    # a shallower cold solve grows the same points, and a solve started at
    # one of them runs the rest of that cold solve with no growth
    lbfgs_calls.clear()
    shallow = optimize(fac, AnsatzConfig(2, seed=3), tol=WARM_TOL)
    assert lbfgs_calls == [4, 6]
    for grown, point in zip(shallow.grown, deep.grown, strict=False):
        np.testing.assert_array_equal(grown, point)
    lbfgs_calls.clear()
    seeded = optimize(fac, AnsatzConfig(2, seed=3), tol=WARM_TOL, start=deep.grown[1])
    assert lbfgs_calls == [] and seeded.grown == ()
    np.testing.assert_array_equal(seeded.params, shallow.params)
    assert seeded.energy == shallow.energy and seeded.grad_norm == shallow.grad_norm
