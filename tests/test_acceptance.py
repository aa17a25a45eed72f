"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line; the expensive dynamics and regime
campaigns are shared through module-scoped fixtures.
"""

import numpy as np
import pytest

from xdfrelax import givens, hammodel, lagrange, qsim, verify, vqe
from xdfrelax.hammodel import synth_hamiltonian
from xdfrelax.verify import RegimeSpec, run_pipeline, verlet_path
from xdfrelax.xdf import TruncationPolicy, factorize, reconstruct_eri

from _common import (
    ABLATION_LAYERS,
    ABLATION_TRUNCATED_COUNT,
    PATH_DT,
    PATH_LAYERS,
    PATH_MASS,
    PATH_S0,
    PATH_V0,
    PATH_VQE_TOL,
    REGIME_LAYERS_BIG,
    REGIME_LAYERS_SMALL,
    REGIME_TRUNCATED_COUNT,
    ablation_fixture,
    eight_fold,
    path_fixtures,
    random_sector_state,
    random_special_orthogonal,
    regime_fixture,
    symmetrize,
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def exact_verlet_trace():
    ham_a, ham_b = path_fixtures()
    regime = RegimeSpec("path", TruncationPolicy.exact(), PATH_LAYERS,
                        vqe_tol=PATH_VQE_TOL)
    return verlet_path(ham_a, ham_b, n_steps=1000, dt=PATH_DT, mass=PATH_MASS,
                       regime=regime, s0=PATH_S0, v0=PATH_V0)


@pytest.fixture(scope="module")
def ablated_verlet_trace():
    ham_a, ham_b = path_fixtures()
    regime = RegimeSpec("path", TruncationPolicy.exact(), PATH_LAYERS,
                        vqe_tol=PATH_VQE_TOL)
    return verlet_path(ham_a, ham_b, n_steps=1000, dt=PATH_DT, mass=PATH_MASS,
                       regime=regime, s0=PATH_S0, v0=PATH_V0, ablate="nu")


def test_criterion_1_reconstruction_exactness():
    worst = 0.0
    for n in range(2, 7):
        ham = synth_hamiltonian(n, 1, 1, seed=n + 40)
        fac = factorize(ham, TruncationPolicy.exact())
        rel = (np.linalg.norm(reconstruct_eri(fac) - ham.two_body)
               / np.linalg.norm(ham.two_body))
        worst = max(worst, rel)
    _report(1, worst < 1e-10,
            f"untruncated reconstruction, worst relative error {worst:.2e} (N=2..6)")


def test_criterion_2_givens_round_trip_and_jacobian():
    worst_rt = 0.0
    worst_jac = 0.0
    step = 1e-5
    for n in range(2, 9):
        for seed in range(3):
            u = random_special_orthogonal(n, seed)
            fabric = givens.decompose(u)
            worst_rt = max(worst_rt, float(np.max(np.abs(givens.reconstruct(fabric) - u))))
            jac = verify.jacobian(fabric)
            for g in range(len(fabric.pivots)):
                plus = fabric.angles.copy()
                plus[g] += step
                minus = fabric.angles.copy()
                minus[g] -= step
                du = (givens.reconstruct(givens.GivensFabric(n, plus))
                      - givens.reconstruct(givens.GivensFabric(n, minus))) / (2 * step)
                fd = du[np.tril_indices(n, -1)]
                worst_jac = max(worst_jac, float(np.max(np.abs(fd - jac[g]))))
    _report(2, worst_rt < 1e-10 and worst_jac < 1e-7,
            f"round trip {worst_rt:.2e}, jacobian-vs-fd {worst_jac:.2e} (N=2..8)")


def test_criterion_3_energy_equivalence():
    worst = 0.0
    for n, na, nb, seed in ((2, 1, 1, 7), (3, 1, 1, 2), (3, 2, 1, 3), (4, 2, 2, 13)):
        ham = synth_hamiltonian(n, na, nb, seed)
        fac = factorize(ham, TruncationPolicy.exact())
        for state_seed in range(3):
            state = random_sector_state(fac, 100 + state_seed)
            gamma, big = qsim.measure_rdms_direct(state)
            dense = verify.dense_energy(ham, gamma, big)
            worst = max(worst, abs(verify.density_energy(state, fac) - dense))
    _report(3, worst < 1e-10,
            f"leaf energy vs dense contraction, worst |diff| {worst:.2e}")


def test_criterion_4_lagrangian_rdm_oracle():
    """Relaxed against directly measured RDMs on exact ground states up to N=8
    and on a converged VQE state.

    The N=8 (2a, 2b) case runs on its 28 x 28 amplitude block: factorize,
    exact ground state, relaxed RDMs and the direct oracle took about 0.35 s
    together (2-vCPU VM, one BLAS thread), with a gap of 9.4e-13. The dense
    ground state is nearly all of it; the oracle, which visits only the
    filling's 784 strings of the 65536-amplitude register, takes about 3 ms.
    """
    worst = 0.0
    cases = []
    for n, na, nb, seed in ((2, 1, 1, 7), (3, 1, 1, 2), (3, 2, 1, 3), (4, 2, 2, 13),
                            (8, 2, 2, 3)):
        fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
        state, _ = verify.exact_ground_state(fac)
        cases.append((fac, state, None))
    # a converged-VQE stationary state as well
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    cfg = vqe.AnsatzConfig(3, seed=3)
    result = vqe.optimize(fac, cfg, tol=1e-11)
    cases.append((fac, vqe.prepare_state(fac, cfg, result.params), result.grad_norm))

    for fac, state, grad in cases:
        rdms = lagrange.reconstruct_rdms(fac, state, stationarity_grad=grad)
        gamma_m, big_m = qsim.measure_rdms_direct(state)
        worst = max(worst, float(np.max(np.abs(rdms.gamma_sym - symmetrize(gamma_m)))))
        worst = max(worst, float(np.max(np.abs(rdms.Gamma_sym - eight_fold(big_m)))))
    _report(4, worst < 1e-8,
            f"relaxed vs measured RDMs, worst elementwise gap {worst:.2e} (N=2..8)")


def test_criterion_5_four_regime_derivatives():
    ham = regime_fixture()
    fac = factorize(ham, TruncationPolicy.exact())
    assert fac.n_leaves == 10
    specs = RegimeSpec.grid(REGIME_LAYERS_BIG, REGIME_LAYERS_SMALL,
                            TruncationPolicy.by_count(REGIME_TRUNCATED_COUNT))
    n = ham.n_orbitals
    perturbations = ([hammodel.random_one_body_perturbation(n, 310 + i) for i in range(3)]
                     + [hammodel.random_two_body_perturbation(n, 350 + i) for i in range(3)])
    reports = verify.run_regime_suite(ham, specs, perturbations)
    print()
    print(verify.format_reports(reports))
    worst = max(r.abs_diff for r in reports)
    per_regime = {s.name for s in specs}
    assert {r.regime for r in reports} == per_regime
    assert len(reports) == 4 * 6
    _report(5, all(r.abs_diff < 1e-6 for r in reports),
            f"4 regimes x 6 perturbations at step 1e-3, worst |diff| {worst:.2e}")


def test_criterion_6_energy_conservation(exact_verlet_trace):
    trace = exact_verlet_trace
    drift = trace.relative_drift()
    slope = abs(trace.secular_slope())
    ok = (trace.completed == 1000 and trace.aborted is None
          and drift < 1e-6 and slope < 1e-9)
    _report(6, ok,
            f"1000-step Verlet: relative drift {drift:.2e}, secular slope {slope:.2e}/step")


def test_criterion_7_ablation_ordering(exact_verlet_trace, ablated_verlet_trace):
    ham = ablation_fixture()
    regime = RegimeSpec("ablation", TruncationPolicy.by_count(ABLATION_TRUNCATED_COUNT),
                        ABLATION_LAYERS)
    base = run_pipeline(ham, regime)
    n = ham.n_orbitals
    perturbations = ([hammodel.random_one_body_perturbation(n, 410 + i) for i in range(3)]
                     + [hammodel.random_two_body_perturbation(n, 450 + i) for i in range(3)])
    numerical = {p.label: verify.fd_energy_derivative(ham, p, regime, base=base)
                 for p in perturbations}
    errors = {}
    for mode in ("eta0", "etat", "nu"):
        rdms = verify.relaxed_rdms(base, ablate=mode)
        errors[mode] = max(abs(verify.analytic_energy_derivative(base, p, rdms)
                               - numerical[p.label]) for p in perturbations)
    ordering = errors["eta0"] < errors["etat"] < errors["nu"]

    assert exact_verlet_trace.completed == 1000, "exact dynamics must finish"
    exact_drift = exact_verlet_trace.relative_drift()
    ablated = ablated_verlet_trace
    # an aborted ablated run with a meaningful prefix is itself instability
    if ablated.completed >= 100:
        ablated_drift = ablated.relative_drift()
    else:
        ablated_drift = np.inf
    ratio = ablated_drift / exact_drift
    _report(7, ordering and ratio >= 100.0,
            "ablation errors eta0 {eta0:.2e} < etat {etat:.2e} < nu {nu:.2e}: {o}; "
            "nu-ablated/exact drift ratio {r:.1e}".format(o=ordering, r=ratio, **errors))


def test_criterion_8_parameter_shift_validation():
    # production's chart-free gradients G, taken to angles by the chain rule,
    # against the shift rule on the embedded vector with operators from minors
    worst = 0.0
    for n, na, nb, seed in ((3, 2, 1, 4), (4, 2, 2, 13)):
        fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
        state = random_sector_state(fac, seed + 70)
        assert len(fac.frames.U) == fac.retained + 1
        chained = verify.angle_gradients(state, fac)
        for f, row in enumerate(chained):
            for g in range(len(row)):
                shift = verify.denergy_dtheta_shift(state, fac, f, g)
                worst = max(worst, abs(shift - row[g]))
    _report(8, worst < 1e-10,
            f"shift rule vs chain-rule orbital-rotation gradients, worst {worst:.2e}")


def test_criterion_9_projection_lossiness():
    rng = np.random.default_rng(2024)
    worst_defining = 0.0
    min_probe = np.inf
    for _ in range(100):
        d = int(rng.integers(3, 7))
        sym = lambda m: 0.5 * (m + m.T)
        a = sym(rng.standard_normal((d, d)))
        b = sym(rng.standard_normal((d, d)))
        c = sym(rng.standard_normal((d, d)))
        report = verify.projection_lossiness_demo(a, b, c)
        worst_defining = max(worst_defining, report.defining_gap)
        if report.commutator_norm > 1e-6:
            min_probe = min(min_probe, report.probe_gap)
        assert report.idempotency_gap < 1e-12
    _report(9, worst_defining < 1e-10 and min_probe > 1e-8,
            f"defining contraction exact to {worst_defining:.2e}; "
            f"smallest non-commuting probe gap {min_probe:.2e} over 100 triples")
