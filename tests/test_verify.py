from collections import deque

import numpy as np
import pytest

from xdfrelax import givens, hammodel, qsim, verify, vqe
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.verify import (
    RegimeSpec,
    TruncationBoundaryError,
    dense_energy,
    fd_energy_derivative,
    five_point_derivative,
    projection_lossiness_demo,
    run_pipeline,
    run_regime_suite,
    verlet_path,
)
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (FILLING_CASES, KERNEL_CASES, PATH_DT, PATH_LAYERS, PATH_MASS, PATH_S0,
                     PATH_V0, PATH_VQE_TOL, REGIME_LAYERS_BIG, REGIME_LAYERS_SMALL,
                     REGIME_TRUNCATED_COUNT, ablation_fixture, frame_fabrics, path_fixtures,
                     regime_fixture, sequential_regime_suite)


def test_dense_energy_zero_rdms_is_core():
    ham = synth_hamiltonian(3, 1, 1, 0)
    zero3 = np.zeros((3, 3))
    assert dense_energy(ham, zero3, np.zeros((3, 3, 3, 3))) == ham.core_energy


def test_dense_energy_hf_closed_form():
    ham = synth_hamiltonian(2, 1, 1, 7)
    state = qsim.hf_reference(2, 1, 1)
    gamma, big = qsim.measure_rdms_direct(state)
    expected = ham.core_energy + 2.0 * ham.one_body[0, 0] + ham.two_body[0, 0, 0, 0]
    assert abs(dense_energy(ham, gamma, big) - expected) < 1e-12


def test_dense_energy_matches_leaf_energy():
    ham = synth_hamiltonian(3, 2, 1, 3)
    fac = factorize(ham, TruncationPolicy.exact())
    state, e0 = verify.exact_ground_state(fac)
    gamma, big = qsim.measure_rdms_direct(state)
    assert abs(dense_energy(ham, gamma, big) - e0) < 1e-10


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, *FILLING_CASES])
def test_minor_operators_match_the_frame_operators(n, na, nb, seed):
    # the shift rule's per-spin operators, determinant minors of the referee's
    # own sweep on the fabrics of decompose, against production's operators
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    frames = fac.frames
    for f, fabric in enumerate(frame_fabrics(frames)):
        u = verify._fabric_sweep(n, fabric.angles)[0]
        np.testing.assert_allclose(u, givens.reconstruct(fabric), atol=1e-15)
        op = verify._spin_operator(u)
        np.testing.assert_allclose(op.T @ op, np.eye(1 << n), atol=1e-13)
        for filling, m in ((na, frames.M_alpha[f]), (nb, frames.M_beta[f])):
            strings = qsim.sector_strings(n, filling)
            np.testing.assert_allclose(op[np.ix_(strings, strings)], m, atol=1e-14)


@pytest.mark.parametrize("one_body,two_body,message", [
    (np.ones((1, 1)), np.ones((1, 1, 1, 1)), "one-body perturbation has wrong shape"),
    (np.zeros((3, 3)), np.ones((1, 1, 1, 1)), "two-body perturbation has wrong shape"),
])
def test_derivatives_refuse_a_perturbation_of_another_size(one_body, two_body, message):
    # a (1, 1) part would broadcast against the N=3 densities
    ham = synth_hamiltonian(3, 1, 1, 2)
    spec = RegimeSpec("exact", TruncationPolicy.exact(), 2)
    base = run_pipeline(ham, spec)
    pert = hammodel.Perturbation(one_body, two_body)
    with pytest.raises(ValueError, match=message):
        verify.analytic_energy_derivative(base, pert)
    with pytest.raises(ValueError, match=message):
        fd_energy_derivative(ham, pert, spec, base=base)


def test_five_point_stencil_sanity():
    assert five_point_derivative(lambda e: e * e, 1e-3) == pytest.approx(0.0, abs=1e-16)
    assert five_point_derivative(lambda e: 3.0 * e, 1e-3) == pytest.approx(3.0, rel=1e-12)
    # exact for quartics: f = e^4 has derivative 0 at 0
    assert abs(five_point_derivative(lambda e: e ** 4, 1e-2)) < 1e-16


def test_regime_grid_has_four_members():
    specs = RegimeSpec.grid(3, 1, TruncationPolicy.by_count(3))
    assert [s.name for s in specs] == [
        "exact-converged", "truncated-converged",
        "exact-approximate", "truncated-approximate"]
    assert specs[0].truncation.count is None
    assert specs[1].truncation.count == 3


def test_exact_converged_regime_derivatives_n3():
    ham = synth_hamiltonian(3, 1, 1, 2)
    spec = RegimeSpec("exact-converged", TruncationPolicy.exact(), 3)
    perts = ([hammodel.random_one_body_perturbation(3, 10 + i) for i in range(3)]
             + [hammodel.random_two_body_perturbation(3, 20 + i) for i in range(3)])
    reports = run_regime_suite(ham, [spec], perts)
    assert len(reports) == 6
    for report in reports:
        assert report.passed(), (report.perturbation, report.abs_diff)


def test_truncated_regime_derivatives_n3():
    ham = synth_hamiltonian(3, 1, 1, 2)
    spec = RegimeSpec("truncated", TruncationPolicy.by_count(3), 3)
    perts = [hammodel.random_one_body_perturbation(3, 31),
             hammodel.random_two_body_perturbation(3, 32)]
    for report in run_regime_suite(ham, [spec], perts):
        assert report.passed()


def test_zero_leaf_regime_derivatives_n3():
    # with no leaf retained only the one-body frame is measured, and leaf
    # tracking compares two empty retained subspaces
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = [spec for spec in RegimeSpec.grid(3, 1, TruncationPolicy.by_count(0))
             if spec.truncation.count == 0]
    perts = [hammodel.random_one_body_perturbation(3, 31),
             hammodel.random_two_body_perturbation(3, 32)]
    reports = run_regime_suite(ham, specs, perts)
    assert len(specs) == 2 and len(reports) == 4
    for report in reports:
        assert report.passed(), (report.regime, report.perturbation, report.abs_diff)


def test_regime_suite_builds_each_input_once(monkeypatch):
    # the four regimes displace one Hamiltonian along the same stencil, and
    # every policy takes one factorization per input with its own leaf count
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = RegimeSpec.grid(2, 1, TruncationPolicy.by_count(3))
    perts = [hammodel.random_one_body_perturbation(3, 31),
             hammodel.random_two_body_perturbation(3, 32)]
    calls = []
    real = verify.factorize

    def counting(ham, policy):
        calls.append(policy)
        return real(ham, policy)

    monkeypatch.setattr(verify, "factorize", counting)
    alone = [report for spec in specs for report in run_regime_suite(ham, [spec], perts)]
    assert len(calls) == 4 * (1 + 2 * 4)  # per regime: its base, 4 stencil points each
    calls.clear()
    assert run_regime_suite(ham, specs, perts) == alone
    assert len(calls) == 1 + 2 * 4  # the base and its 8 displaced inputs, once each


def _batches(monkeypatch):
    """Wraps ``vqe.lockstep`` and ``vqe.solve_task`` to record the arguments
    of every solve, one list per ``lockstep`` call that starts a solve."""
    batches = []
    real_lockstep, real_solve = vqe.lockstep, vqe.solve_task

    def lockstep(tasks):
        batches.append([])
        try:
            return real_lockstep(tasks)
        finally:
            if not batches[-1]:
                batches.pop()

    def solve_task(*request):
        batches[-1].append(request)
        return real_solve(*request)

    monkeypatch.setattr(vqe, "lockstep", lockstep)
    monkeypatch.setattr(vqe, "solve_task", solve_task)
    return batches


def _recorded(monkeypatch, module, name):
    """Wraps ``module.name`` to record the arguments of every call."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("ham", [regime_fixture(), ablation_fixture(), *path_fixtures()],
                         ids=["regime", "ablation", "path-a", "path-b"])
def test_shared_factorizations_are_bitwise_the_policys_own(monkeypatch, ham):
    # run_pipeline with ``built`` factorizes once, with the first policy, and
    # gives every other policy that factorization with its own count, fewer
    # leaves or more; at every count it is the policy's own factorization
    facs = []

    def solved(fac, cfg, *rest):
        facs.append(fac)
        yield from ()
        return vqe.VQEResult(np.zeros(vqe.n_parameters(fac.n_orbitals, cfg)), 0.0, 0.0, True, 0)

    monkeypatch.setattr(vqe, "solve_task", solved)
    n_leaves = ham.n_orbitals * (ham.n_orbitals + 1) // 2
    policies = [TruncationPolicy.by_count(1), TruncationPolicy.exact(),
                *(TruncationPolicy.by_count(k) for k in range(n_leaves + 1))]
    built = {}
    factorizations = _recorded(monkeypatch, verify, "factorize")
    for policy in policies:
        run_pipeline(ham, RegimeSpec("shared", policy, 1), built=built)
    assert len(factorizations) == 1
    assert [fac.retained for fac in facs] == [1, n_leaves, *range(n_leaves + 1)]
    for policy, fac in zip(policies, facs, strict=True):
        own = factorize(ham, policy)
        assert fac.retained == own.retained
        for name in ("U0", "F0", "g", "V", "U", "lam"):
            np.testing.assert_array_equal(getattr(fac, name), getattr(own, name))
        for name in ("U", "D", "M_alpha", "M_beta"):
            np.testing.assert_array_equal(getattr(fac.frames, name), getattr(own.frames, name))


def test_approximate_regimes_start_at_the_grown_points(monkeypatch, hessian_builds):
    ham = regime_fixture()
    specs = RegimeSpec.grid(4, 2, TruncationPolicy.by_count(4))
    batches = _batches(monkeypatch)
    assert run_regime_suite(ham, specs, []) == []
    # the converged regimes grow depths 1 to 4, in one lockstep call; the
    # approximate ones, in the next, grow none
    assert [len(batch) for batch in batches] == [2, 2]
    solves = [request for batch in batches for request in batch]
    assert [start is None for _, _, _, start, _ in solves] == [True, True, False, False]
    # every solve builds one Hessian, at its own depth, for its finish
    assert hessian_builds == [vqe.n_parameters(4, vqe.AnsatzConfig(d)) for d in (4, 4, 2, 2)]
    # each started solve ends where its own cold solve does
    for fac, cfg, tol, start, curvature in solves[2:]:
        cold = vqe.optimize(fac, cfg, tol)
        seeded = vqe.optimize(fac, cfg, tol, start, curvature)
        np.testing.assert_array_equal(seeded.params, cold.params)
        assert seeded.energy == cold.energy


def test_regimes_seed_only_from_an_earlier_deeper_cold_solve(monkeypatch):
    ham = synth_hamiltonian(3, 1, 1, 2)
    exact, fewer = TruncationPolicy.exact(), TruncationPolicy.by_count(3)
    specs = [RegimeSpec("shallow first", exact, 1), RegimeSpec("deep", exact, 2),
             RegimeSpec("no layers", exact, 0), RegimeSpec("shallow after", exact, 1),
             RegimeSpec("other seed", exact, 1, ansatz_seed=4),
             RegimeSpec("other tol", exact, 1, vqe_tol=1e-8),
             RegimeSpec("other truncation", fewer, 1)]
    batches = _batches(monkeypatch)
    run_regime_suite(ham, specs, [])
    # the cold regimes in one lockstep call, then the seeded one: only
    # "shallow after" starts at a grown point, the deep solve's first
    cold, seeded = batches
    assert [start is not None for _, _, _, start, _ in cold + seeded] == [False] * 6 + [True]
    assert [(cfg.n_layers, cfg.seed, tol) for _, cfg, tol, _, _ in cold + seeded] == [
        (spec.n_layers, spec.ansatz_seed, spec.vqe_tol)
        for spec in (*specs[:3], *specs[4:], specs[3])]
    deep = cold[1]
    (fac, cfg, tol, start, curvature), = seeded
    np.testing.assert_array_equal(start, vqe.optimize(*deep[:3]).grown[0])
    assert curvature is None


def _two_perturbations(n: int, seed: int) -> list[hammodel.Perturbation]:
    return [hammodel.random_one_body_perturbation(n, seed + 10),
            hammodel.random_two_body_perturbation(n, seed + 50)]


@pytest.mark.parametrize("ham, specs, perts", [
    (regime_fixture(), RegimeSpec.grid(REGIME_LAYERS_BIG, REGIME_LAYERS_SMALL,
                                       TruncationPolicy.by_count(REGIME_TRUNCATED_COUNT)),
     _two_perturbations(4, 3)[1:]),
    (synth_hamiltonian(3, 1, 1, 2), [
        RegimeSpec("shallow first", TruncationPolicy.exact(), 1),
        RegimeSpec("deep", TruncationPolicy.exact(), 3),
        RegimeSpec("seeded", TruncationPolicy.exact(), 2),
        RegimeSpec("truncated", TruncationPolicy.by_count(3), 2)], _two_perturbations(3, 3)),
], ids=["regime-grid", "n3-seeded"])
def test_regime_suite_equals_the_sequential_loop(ham, specs, perts):
    # lockstep solves, two base waves and stencil tasks report the bits of
    # one single solve after another
    assert run_regime_suite(ham, specs, perts) == sequential_regime_suite(ham, specs, perts)


def test_regime_suite_shares_sweeps_not_points(monkeypatch):
    # the verify-n4 grid: the lockstep campaign evaluates every point the
    # sequential loop does, in fewer batched sweeps
    ham = regime_fixture()
    specs = RegimeSpec.grid(4, 2, TruncationPolicy.by_count(4), ansatz_seed=0)
    perts = _two_perturbations(4, 0)
    calls, rows = [], []
    real = vqe._energy_and_gradient

    def counting(fac, cfg, params):
        calls.append(1)
        rows.extend(np.atleast_2d(params))
        return real(fac, cfg, params)

    monkeypatch.setattr(vqe, "_energy_and_gradient", counting)
    sequential = sequential_regime_suite(ham, specs, perts)
    sequential_work = len(calls), len(rows)
    calls.clear()
    rows.clear()
    assert run_regime_suite(ham, specs, perts) == sequential
    assert len(rows) == sequential_work[1]
    assert 2 * len(calls) < sequential_work[0]


def _failing_stencils(monkeypatch, fail_at: dict, break_at: dict | None = None) -> list[str]:
    """Wraps ``verify._fd_stencil`` so that the stencil of each (regime name,
    perturbation label) in ``fail_at`` raises a TruncationBoundaryError
    once the solve of that displaced point has ended, and the stencil of
    each in ``break_at`` has a LinAlgError thrown into that point's solve at
    its first reply, as a failed sweep or eigh would raise there. A point's
    solve has ended when the stencil asks for points on another
    factorization, or returns. Returns the messages in the order they were
    raised."""
    raised, break_at = [], break_at or {}
    real = verify._fd_stencil

    def failing(ham, pert, regime, eps_step, base, built):
        stencil = real(ham, pert, regime, eps_step, base, built)
        key = (regime.name, pert.label)
        point, fac, reply = -1, None, None
        while True:
            try:
                request = stencil.send(reply)
            except StopIteration as done:
                request, value = None, done.value
            if request is None or request[0] is not fac:
                if point >= 0 and fail_at.get(key) == point:
                    raised.append(f"{regime.name} {pert.label} point {point}")
                    raise TruncationBoundaryError(raised[-1])
                if request is None:
                    return value
                point, fac = point + 1, request[0]
            reply = yield request
            if break_at.get(key) == point:
                raised.append(f"{regime.name} {pert.label} solve {point}")
                stencil.throw(np.linalg.LinAlgError(raised[-1]))

    monkeypatch.setattr(verify, "_fd_stencil", failing)
    return raised


def test_regime_suite_raises_the_sequential_first_error(monkeypatch):
    # regime 1's first displaced point fails first in time, before
    # regime 0's second perturbation fails at its last point; the loop of
    # single solves meets regime 0's first, and so does the campaign
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = RegimeSpec.grid(2, 1, TruncationPolicy.by_count(3))
    perts = _two_perturbations(3, 21)
    raised = _failing_stencils(monkeypatch, {(specs[1].name, perts[0].label): 0,
                                             (specs[0].name, perts[1].label): 3})
    with pytest.raises(TruncationBoundaryError) as err:
        run_regime_suite(ham, specs, perts)
    assert raised == [f"{specs[1].name} {perts[0].label} point 0",
                      f"{specs[0].name} {perts[1].label} point 3"]
    assert str(err.value) == raised[1]


def test_regime_suite_raises_the_sequential_first_error_over_a_failed_solve(monkeypatch):
    # regime 0's first stencil fails its leaf tracking after its first point;
    # the solve of regime 1's second point breaks in a later round; each
    # error stays with its own stencil and the sequential first is raised
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = RegimeSpec.grid(2, 1, TruncationPolicy.by_count(3))
    perts = _two_perturbations(3, 21)
    raised = _failing_stencils(monkeypatch, {(specs[0].name, perts[0].label): 0},
                               {(specs[1].name, perts[0].label): 1})
    with pytest.raises(TruncationBoundaryError) as err:
        run_regime_suite(ham, specs, perts)
    assert raised == [f"{specs[0].name} {perts[0].label} point 0",
                      f"{specs[1].name} {perts[0].label} solve 1"]
    assert str(err.value) == raised[0]
    # alone, the broken solve is the error
    raised.clear()
    with pytest.raises(np.linalg.LinAlgError) as err:
        run_regime_suite(ham, specs[1:], perts)
    assert raised == [f"{specs[1].name} {perts[0].label} solve 1"] == [str(err.value)]


def test_regime_suite_raises_a_stencil_error_before_a_later_base_error(monkeypatch):
    # the seeded exact-approximate base fails in the second wave, before any
    # stencil runs; truncated-converged's stencil comes first in the loop
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = RegimeSpec.grid(2, 1, TruncationPolicy.by_count(3))
    perts = _two_perturbations(3, 21)
    raised = _failing_stencils(monkeypatch, {(specs[1].name, perts[1].label): 2})
    real = verify._pipeline

    def failing_base(ham, regime, *args, **kwargs):
        if regime is specs[2]:
            raise verify.NonConvergence(f"base of {regime.name}")
        return (yield from real(ham, regime, *args, **kwargs))

    monkeypatch.setattr(verify, "_pipeline", failing_base)
    with pytest.raises(TruncationBoundaryError) as err:
        run_regime_suite(ham, specs, perts)
    assert raised == [f"{specs[1].name} {perts[1].label} point 2"] == [str(err.value)]
    # alone, the failed base is the error
    with pytest.raises(verify.NonConvergence, match=f"base of {specs[2].name}"):
        run_regime_suite(ham, specs[2:], perts)


def test_only_base_pipelines_prepare_a_state(monkeypatch):
    ham = synth_hamiltonian(3, 1, 1, 2)
    specs = RegimeSpec.grid(2, 1, TruncationPolicy.by_count(3))
    perts = [hammodel.random_one_body_perturbation(3, 31)]
    prepared = _recorded(monkeypatch, vqe, "prepare_state")
    run_regime_suite(ham, specs, perts)
    assert len(prepared) == len(specs)  # one per regime, for its relaxed densities
    base = run_pipeline(ham, specs[0])
    prepared.clear()
    fd_energy_derivative(ham, perts[0], specs[0], base=base)
    assert prepared == []
    base.state
    assert len(prepared) == 1
    assert base.state is base.state and len(prepared) == 1


def test_nu_ablation_breaks_derivatives():
    ham = synth_hamiltonian(3, 1, 1, 2)
    spec = RegimeSpec("truncated", TruncationPolicy.by_count(3), 3)
    perts = [hammodel.random_two_body_perturbation(3, 32 + i) for i in range(3)]
    reports = run_regime_suite(ham, [spec], perts, ablate="nu")
    assert max(r.abs_diff for r in reports) > 1e-4


def test_null_space_perturbation_has_zero_derivative():
    # one-body direction supported on an orbital the frozen determinant
    # never touches: the energy does not respond
    from _common import zero_two_body
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    spec = RegimeSpec("one-body", TruncationPolicy.exact(), 2)
    probe = np.zeros((3, 3))
    probe[2, 2] = 1.0
    pert = hammodel.Perturbation(probe, np.zeros((3, 3, 3, 3)), label="empty-orbital")
    base = run_pipeline(ham, spec)
    analytic = verify.analytic_energy_derivative(base, pert)
    numerical = fd_energy_derivative(ham, pert, spec, base=base)
    assert abs(analytic) < 1e-8
    assert abs(numerical) < 1e-8


def test_threshold_regime_derivatives():
    ham = synth_hamiltonian(3, 1, 1, 2)
    spec = RegimeSpec("threshold", TruncationPolicy.by_threshold(0.1), 3)
    base = run_pipeline(ham, spec)
    assert base.fac.retained == 3
    pert = hammodel.random_two_body_perturbation(3, 77)
    analytic = verify.analytic_energy_derivative(base, pert)
    numerical = fd_energy_derivative(ham, pert, spec, base=base)
    assert abs(analytic - numerical) < 1e-6


def test_stencil_halving_is_high_order():
    ham = synth_hamiltonian(2, 1, 1, 7)
    spec = RegimeSpec("exact", TruncationPolicy.exact(), 2)
    pert = hammodel.random_one_body_perturbation(2, 5)
    base = run_pipeline(ham, spec)
    coarse = fd_energy_derivative(ham, pert, spec, eps_step=2e-3, base=base)
    fine = fd_energy_derivative(ham, pert, spec, eps_step=1e-3, base=base)
    analytic = verify.analytic_energy_derivative(base, pert)
    err_coarse = abs(coarse - analytic)
    err_fine = abs(fine - analytic)
    assert err_fine < 1e-9
    assert err_coarse < 1e-8  # both tiny; 5-point truncation is O(step^4)


def _leaf_model(gs):
    """The N=3 model with the leaf vectors of synth_hamiltonian(3, 1, 1, 2)
    and the couplings ``gs``, and those leaf vectors."""
    base = synth_hamiltonian(3, 1, 1, 2)
    vecs = factorize(base, TruncationPolicy.exact()).V
    eri = np.zeros((9, 9))
    for g, v in zip(gs, vecs):
        eri += g * np.outer(v.reshape(-1), v.reshape(-1))
    return Hamiltonian(3, 1, 1, base.core_energy, base.one_body,
                       eri.reshape(3, 3, 3, 3)), vecs


def test_leaf_tracking_error_on_crossing():
    # build integrals whose two leading leaves sit a hair apart, then push
    # them through each other with a crafted perturbation
    ham, vecs = _leaf_model([0.8, 0.5, 0.4995, 0.3, 0.2, 0.1])
    direction = (np.outer(vecs[2].reshape(-1), vecs[2].reshape(-1))
                 - np.outer(vecs[1].reshape(-1), vecs[1].reshape(-1)))
    direction = hammodel.eight_fold_symmetrize(direction.reshape(3, 3, 3, 3))
    direction /= np.linalg.norm(direction)
    pert = hammodel.Perturbation(np.zeros((3, 3)), direction, label="crossing")
    spec = RegimeSpec("truncated", TruncationPolicy.by_count(2), 2)
    with pytest.raises(TruncationBoundaryError):
        fd_energy_derivative(ham, pert, spec, eps_step=1e-3)


def test_threshold_crossing_inside_stencil_is_reported():
    # leaf 3 sits 5e-4 above the threshold; the stencil's eps < 0 points
    # push it below, where the regime's own policy keeps 3 leaves, not 4
    ham, vecs = _leaf_model([0.8, 0.5, 0.4, 0.3, 0.2, 0.1])
    direction = np.outer(vecs[3].reshape(-1), vecs[3].reshape(-1))
    pert = hammodel.Perturbation(
        np.zeros((3, 3)), hammodel.eight_fold_symmetrize(direction.reshape(3, 3, 3, 3)))
    spec = RegimeSpec("threshold", TruncationPolicy.by_threshold(0.2995), 2)
    base = run_pipeline(ham, spec)
    assert base.fac.retained == 4
    with pytest.raises(TruncationBoundaryError, match="^retained count changed 4 -> 3$"):
        fd_energy_derivative(ham, pert, spec, base=base)


def test_mixed_direction_derivative():
    # one direction moving the core energy, one-body and two-body integrals
    # together, as a nuclear displacement does
    ham, _ = path_fixtures()
    spec = RegimeSpec("exact", TruncationPolicy.exact(), PATH_LAYERS)
    pert = hammodel.Perturbation(
        hammodel.random_one_body_perturbation(3, 11).one_body,
        hammodel.random_two_body_perturbation(3, 12).two_body, core=0.7, label="mixed")
    base = run_pipeline(ham, spec)
    analytic = verify.analytic_energy_derivative(base, pert)
    numerical = fd_energy_derivative(ham, pert, spec, base=base)
    assert abs(analytic - numerical) < verify.DERIVATIVE_TOL


def test_verlet_flat_path_conserves_exactly():
    ham, _ = path_fixtures()
    regime = RegimeSpec("flat", TruncationPolicy.exact(), 2)
    trace = verlet_path(ham, ham, n_steps=5, dt=0.05, mass=2.0, regime=regime,
                        s0=0.4, v0=0.3)
    assert trace.completed == 5
    np.testing.assert_allclose(trace.total, trace.total[0], atol=1e-12)
    np.testing.assert_allclose(np.diff(trace.s), 0.3 * 0.05, atol=1e-12)


def test_verlet_short_run_conserves():
    ham_a, ham_b = path_fixtures()
    regime = RegimeSpec("path", TruncationPolicy.exact(), PATH_LAYERS,
                        vqe_tol=PATH_VQE_TOL)
    trace = verlet_path(ham_a, ham_b, n_steps=40, dt=PATH_DT, mass=PATH_MASS,
                        regime=regime, s0=PATH_S0, v0=PATH_V0)
    assert trace.completed == 40
    assert trace.relative_drift() < 1e-6
    assert trace.aborted is None


def test_extrapolated_starts(monkeypatch):
    # the start _predicted_solve hands to run_pipeline, and the curvature
    def recorded(ham, regime, start, curvature, *, built=None):
        return verify.Pipeline(None, vqe.VQEResult(start, 0.0, 0.0, True, 0, curvature), None)

    monkeypatch.setattr(verify, "run_pipeline", recorded)

    def extrapolated(pairs, at):
        solved = deque(((x, vqe.VQEResult(params, 0.0, 0.0, True, 0, np.eye(params.size) * x))
                        for x, params in pairs), maxlen=3)
        result = verify._predicted_solve(None, None, solved, at).result
        np.testing.assert_array_equal(result.curvature, np.eye(result.params.size) * pairs[-1][0])
        assert solved[-1] == (at, result)
        return result.params

    p = [np.array([1.0, -2.0]), np.array([1.5, -1.0]), np.array([2.5, 1.0])]
    np.testing.assert_array_equal(extrapolated([(0.0, p[0])], 0.3), p[0])
    np.testing.assert_array_equal(extrapolated([(0, p[0]), (1, p[1])], 2),
                                  2 * p[1] - p[0])
    np.testing.assert_array_equal(extrapolated(list(enumerate(p)), 3),
                                  3 * p[2] - 3 * p[1] + p[0])
    # the 5-point stencil's third solve, through eps = 0, -2h and -h, at h
    eps = [0.0, -2e-3, -1e-3]
    quadratic = [1.0 + 3.0 * e - 40.0 * e * e for e in eps]
    pairs = [(e, np.array([q])) for e, q in zip(eps, quadratic)]
    np.testing.assert_allclose(extrapolated(pairs, 1e-3),
                               [1.0 + 3e-3 - 40e-6], rtol=0, atol=1e-15)
    # only the last three solves are read: an older one drops out
    np.testing.assert_array_equal(extrapolated([(-1, 7 * p[0]), *enumerate(p)], 3),
                                  3 * p[2] - 3 * p[1] + p[0])


def test_fd_stencil_point_budget(energy_grad_calls):
    ham = regime_fixture()
    spec = RegimeSpec("exact", TruncationPolicy.exact(), 4)
    base = run_pipeline(ham, spec)
    energy_grad_calls.clear()
    fd_energy_derivative(ham, hammodel.random_two_body_perturbation(4, 350), spec, base=base)
    assert len(energy_grad_calls) <= 10


def test_verlet_point_budget(energy_grad_calls):
    ham_a, ham_b = path_fixtures()
    regime = RegimeSpec("path", TruncationPolicy.exact(), PATH_LAYERS,
                        vqe_tol=PATH_VQE_TOL)
    trace = verlet_path(ham_a, ham_b, n_steps=25, dt=PATH_DT, mass=PATH_MASS,
                        regime=regime, s0=PATH_S0, v0=PATH_V0)
    assert trace.completed == 25
    assert len(energy_grad_calls) <= 154


def test_report_table_formatting():
    reports = [verify.DerivativeReport("r", "p", 1.0, 1.0 + 2e-7, 2e-7)]
    table = verify.format_reports(reports)
    assert "pass" in table
    reports = [verify.DerivativeReport("r", "p", 1.0, 1.1, 0.1)]
    assert "FAIL" in verify.format_reports(reports)


def test_projection_lossiness_commuting_and_random():
    rng = np.random.default_rng(0)
    d = 5
    # commuting pair: shared eigenbasis
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = basis @ np.diag(rng.standard_normal(d)) @ basis.T
    c = basis @ np.diag(rng.standard_normal(d)) @ basis.T
    b = 0.5 * (lambda m: m + m.T)(rng.standard_normal((d, d)))
    report = projection_lossiness_demo(a, b, c)
    assert report.defining_gap < 1e-10
    assert report.probe_gap < 1e-10
    assert report.idempotency_gap < 1e-12

    # generic non-commuting triple
    a = 0.5 * (lambda m: m + m.T)(rng.standard_normal((d, d)))
    c = 0.5 * (lambda m: m + m.T)(rng.standard_normal((d, d)))
    report = projection_lossiness_demo(a, b, c)
    assert report.defining_gap < 1e-10
    assert report.commutator_norm > 1e-8
    assert report.probe_gap > 1e-8

    with pytest.raises(ValueError):
        projection_lossiness_demo(rng.standard_normal((3, 3)), np.eye(3), np.eye(3))
