import numpy as np
import pytest

from xdfrelax import givens, qsim
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.qsim import (
    Statevector,
    angle_gradient,
    denergy_dtheta_shift,
    energy,
    hf_reference,
    measure_densities,
    measure_rdms_direct,
)
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    KERNEL_CASES,
    eight_fold,
    electron_counts,
    fabric_frame,
    frame_densities,
    random_sector_state,
    random_special_orthogonal,
    ref_apply_fabric,
    ref_apply_hamiltonian,
    ref_pair_exchange,
    ref_rotate_pair,
    rotate_state,
    symmetrize,
    zero_two_body,
)


def test_hf_reference_basic():
    state = hf_reference(2, 1, 1)
    index = 0b0101  # alpha 0 and beta 0 occupied
    assert state.amplitudes[index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert abs(state.norm() - 1.0) < 1e-15
    assert electron_counts(state) == (1, 1)


def test_hf_reference_occupations():
    state = hf_reference(2, 1, 1)
    gamma, _ = measure_rdms_direct(state)
    np.testing.assert_allclose(gamma, np.diag([2.0, 0.0]), atol=1e-15)


def test_hf_reference_rejects_overflow():
    with pytest.raises(ValueError):
        hf_reference(2, 3, 0)


def test_identity_fabric_leaves_state_unchanged():
    state = hf_reference(3, 2, 1)
    frame = fabric_frame(givens.identity_fabric(3))
    np.testing.assert_array_equal(frame.M, np.eye(8))
    out = rotate_state(state, frame)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_single_particle_transformation_law():
    n = 2
    fabric = givens.GivensFabric(n, [0.4])
    amps = np.zeros(4 ** n)
    amps[0b01] = 1.0  # one alpha electron in orbital 0
    out = rotate_state(Statevector(n, amps), fabric_frame(fabric))
    u = givens.reconstruct(fabric)
    np.testing.assert_allclose([out.amplitudes[0b01], out.amplitudes[0b10]],
                               u[:, 0], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gates_preserve_norm_and_sector(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, seed)
    assert abs(state.norm() - 1.0) < 1e-12
    assert electron_counts(state) == (2, 1)
    rotated = rotate_state(state, fac.frames[0])
    assert abs(rotated.norm() - 1.0) < 1e-12
    assert electron_counts(rotated) == (2, 1)
    exchanged = np.array(state.amplitudes)
    qsim.rotate_pair(exchanged, *qsim.pair_exchange_rows(3, 0), 0.37)
    exchanged = Statevector(3, exchanged)
    assert abs(exchanged.norm() - 1.0) < 1e-12
    assert electron_counts(exchanged) == (2, 1)
    locked = np.array(state.amplitudes)
    psi = locked.reshape(8, 8)
    qsim.rotate_pair(psi, *qsim.pair_rows(3, 1), -0.8)
    qsim.rotate_pair(psi.T, *qsim.pair_rows(3, 1), -0.8)
    assert electron_counts(Statevector(3, locked)) == (2, 1)


def test_omega0_on_hf_reference():
    state = hf_reference(2, 1, 1)
    np.testing.assert_allclose(frame_densities(state, [givens.identity_fabric(2)]).omega0,
                               [1.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("n,na,nb,seed", [(2, 1, 1, 0), (3, 2, 1, 1), (4, 2, 2, 2)])
def test_omega0_sum_rule(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 40)
    omega0 = measure_densities(state, fac).omega0
    assert np.all(omega0 <= 1.0 + 1e-12) and np.all(omega0 >= -1.0 - 1e-12)
    assert abs(np.sum(omega0) - (na + nb - n)) < 1e-12


def test_omega0_rotation_then_inverse():
    fac = factorize(synth_hamiltonian(3, 1, 1, 9), TruncationPolicy.exact())
    state = random_sector_state(fac, 5)
    frame = fac.frames[0]
    rotated = rotate_state(rotate_state(state, frame), frame, dagger=True)
    identity = [givens.identity_fabric(3)]
    np.testing.assert_allclose(frame_densities(rotated, identity).omega0,
                               frame_densities(state, identity).omega0, atol=1e-12)


def test_omega_leaf_hf_closed_shell_combinatorics():
    # determinant in its own basis: omega_kl = (n_k - 1)(n_l - 1)/2 - delta/4
    state = hf_reference(2, 1, 1)
    omega, = frame_densities(state, [givens.identity_fabric(2)] * 2).omega
    np.testing.assert_allclose(omega, [[0.25, -0.5], [-0.5, 0.25]], atol=1e-15)


@pytest.mark.parametrize("seed", [3, 11])
def test_omega_measurements_are_rdm_projections(seed):
    fac = factorize(synth_hamiltonian(3, 1, 1, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed)
    gamma, big = measure_rdms_direct(state)
    omegas = measure_densities(state, fac)

    np.testing.assert_allclose(omegas.omega0, np.diag(fac.U0.T @ gamma @ fac.U0) - 1.0,
                               atol=1e-12)

    assert fac.retained == fac.n_leaves
    for leaf, omega in zip(fac.leaves, omegas.omega, strict=True):
        u = leaf.U
        np.testing.assert_allclose(omega, omega.T, atol=1e-12)
        g_t = u.T @ gamma @ u
        big_t = np.einsum("pk,ql,rm,so,pqrs->klmo", u, u, u, u, big)
        n = fac.n_orbitals
        expected = np.zeros((n, n))
        for k in range(n):
            for l in range(n):
                expected[k, l] = (big_t[k, k, l, l] + 0.5 * (k == l) * g_t[k, k]
                                  - 0.5 * g_t[k, k] - 0.5 * g_t[l, l]
                                  + 0.5 - 0.25 * (k == l))
        np.testing.assert_allclose(omega, expected, atol=1e-12)


def test_energy_one_body_closed_form():
    diag = [-2.0, -1.0, 0.5]
    ham = zero_two_body(3, 1, 1, diag, core=0.3)
    fac = factorize(ham, TruncationPolicy.exact())
    state = hf_reference(3, 1, 1)
    assert abs(energy(state, fac) - (0.3 + 2.0 * diag[0])) < 1e-12


@pytest.mark.parametrize("n,na,nb,seed", [(2, 1, 1, 7), (3, 2, 1, 3), (4, 2, 2, 13)])
def test_energy_matches_dense_contraction(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    fac = factorize(ham, TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 1)
    gamma, big = measure_rdms_direct(state)
    dense = (ham.core_energy + float(np.sum(ham.one_body * gamma))
             + float(np.sum(ham.two_body * big)))
    assert abs(energy(state, fac) - dense) < 1e-10


def test_apply_hamiltonian_matches_energy():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    state = random_sector_state(fac, 8)
    hpsi = qsim.apply_hamiltonian(state, fac)
    assert abs(float(state.amplitudes @ hpsi) - energy(state, fac)) < 1e-10


def test_rdm_trace_identities():
    state = hf_reference(2, 1, 1)
    gamma, _ = measure_rdms_direct(state)
    assert abs(np.trace(gamma) - 2.0) < 1e-14

    fac = factorize(synth_hamiltonian(4, 2, 2, 13), TruncationPolicy.exact())
    rand = random_sector_state(fac, 6)
    gamma, big = measure_rdms_direct(rand)
    n_elec = 4
    assert abs(np.trace(gamma) - n_elec) < 1e-12
    partial = np.einsum("pqrr->pq", big)
    np.testing.assert_allclose(partial, 0.5 * (n_elec - 1) * gamma, atol=1e-12)


def test_shift_rule_zero_for_unsupported_angle():
    # electron frozen in orbital 0; the (1, 2) rotation never touches it
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    fac = factorize(ham, TruncationPolicy.exact())
    state = hf_reference(3, 1, 1)
    frame = fac.frames[0]
    # identity fabric here: angles are zero, pivot 1 is slot index 1
    assert frame.fabric.pivots[1] == (1, 2)
    assert abs(denergy_dtheta_shift(state, frame, 1)) < 1e-14


@pytest.mark.parametrize("seed", [0, 4])
def test_shift_rule_every_angle_every_leaf(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 4), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 99)
    for k, frame in enumerate(fac.frames):
        fabric = frame.fabric
        sweep = angle_gradient(state, frame)
        assert sweep.shape == (len(fabric.pivots),)
        for g in range(len(fabric.pivots)):
            shift = denergy_dtheta_shift(state, frame, g)
            assert abs(shift - sweep[g]) < 1e-10

            step = 1e-5
            plus = fabric.angles.copy()
            plus[g] += step
            minus = fabric.angles.copy()
            minus[g] -= step
            fd = (_frame_energy(state, fac, k, givens.GivensFabric(fabric.n, plus))
                  - _frame_energy(state, fac, k, givens.GivensFabric(fabric.n, minus))
                  ) / (2 * step)
            assert abs(shift - fd) < 1e-7


def _frame_energy(state, fac, k, fabric):
    """Energy contribution of frame k measured through the given fabric."""
    if k == 0:
        return float(fac.F0 @ frame_densities(state, [fabric]).omega0)
    omega, = frame_densities(state, [fabric, fabric]).omega
    return float(np.sum(fac.leaves[k - 1].Z * omega))


def test_shift_rule_rejects_bad_indices():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.by_count(2))
    state = hf_reference(3, 1, 1)
    for frame in fac.frames:
        for g in (-1, 3, 99):
            with pytest.raises(ValueError):
                denergy_dtheta_shift(state, frame, g)


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 2, 2, 13)])
def test_angle_gradient_complex_state_matches_shift_rule(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    real_part = random_sector_state(fac, seed + 1).amplitudes
    imag_part = random_sector_state(fac, seed + 2).amplitudes
    amps = real_part + 1j * imag_part
    state = Statevector(n, amps / np.linalg.norm(amps))
    for frame in fac.frames:
        sweep = angle_gradient(state, frame)
        shift = [denergy_dtheta_shift(state, frame, g) for g in range(len(frame.fabric.pivots))]
        assert np.max(np.abs(sweep - shift)) < 1e-10


def test_pair_rows_are_cached_and_read_only():
    for rows in (qsim.pair_rows(4, 1), qsim.pair_exchange_rows(4, 1)):
        for arr in rows:
            assert not arr.flags.writeable
    assert qsim.pair_rows(4, 1) is qsim.pair_rows(4, 1)
    assert qsim.pair_exchange_rows(4, 1) is qsim.pair_exchange_rows(4, 1)


def test_statevector_guards():
    with pytest.raises(ValueError):
        Statevector(2, np.zeros(7))
    mixed = np.zeros(16)
    mixed[0b0001] = mixed[0b0011] = 1.0 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        electron_counts(Statevector(2, mixed))


# The spin-factorized kernel against the slice-based reference kernel.


@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES)
def test_fabric_matches_reference_kernel(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 20)
    for frame in (fac.frames[0], fac.frames[1],
                  fabric_frame(givens.decompose(random_special_orthogonal(n, seed)))):
        for dagger in (False, True):
            out = rotate_state(state, frame, dagger=dagger)
            ref = ref_apply_fabric(state, frame.fabric, dagger=dagger)
            assert np.max(np.abs(out.amplitudes - ref)) <= 1e-12


def test_fabric_matches_reference_kernel_n8():
    fac = factorize(synth_hamiltonian(8, 4, 4, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, 8, n_rounds=1)
    frame = fabric_frame(givens.decompose(random_special_orthogonal(8, 5)))
    for dagger in (False, True):
        out = rotate_state(state, frame, dagger=dagger)
        ref = ref_apply_fabric(state, frame.fabric, dagger=dagger)
        assert np.max(np.abs(out.amplitudes - ref)) <= 1e-12


@pytest.mark.parametrize("n,na,nb,seed", KERNEL_CASES)
def test_apply_hamiltonian_matches_reference_kernel(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    for policy in (TruncationPolicy.exact(), TruncationPolicy.by_count(2)):
        fac = factorize(ham, policy)
        state = random_sector_state(fac, seed + 30)
        out = qsim.apply_hamiltonian(state, fac)
        assert np.max(np.abs(out - ref_apply_hamiltonian(state, fac))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gate_primitive_matches_reference_kernel(n):
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(4 ** n)
    ref = amps.copy()
    for m in range(n - 1):
        theta = float(rng.uniform(-np.pi, np.pi))
        psi = amps.reshape(1 << n, 1 << n)
        qsim.rotate_pair(psi.T, *qsim.pair_rows(n, m), theta)
        qsim.rotate_pair(psi, *qsim.pair_rows(n, m), -theta)
        qsim.rotate_pair(amps, *qsim.pair_exchange_rows(n, m), 2.0 * theta)
        ref_rotate_pair(ref, 2 * n, m, m + 1, theta)
        ref_rotate_pair(ref, 2 * n, n + m, n + m + 1, -theta)
        ref_pair_exchange(ref, n, m, 2.0 * theta)
    assert np.max(np.abs(amps - ref)) <= 1e-12


# Frames: built once per factorization, one-body first, then retained leaves.


@pytest.mark.parametrize("policy", [TruncationPolicy.exact(), TruncationPolicy.by_count(2)])
def test_frames_follow_the_factorization(policy):
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), policy)
    assert len(fac.frames) == fac.retained + 1
    orbitals = [fac.U0] + [leaf.U for leaf in fac.retained_leaves]
    for frame, u in zip(fac.frames, orbitals, strict=True):
        assert np.max(np.abs(givens.reconstruct(frame.fabric) - u)) <= 1e-10
        for arr in (frame.M, frame.D):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def test_factorized_operators_do_no_gate_work(monkeypatch):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.by_count(4))
    state = random_sector_state(fac, 12)
    expected = ref_apply_hamiltonian(state, fac)
    omega0 = frame_densities(state, [fac.frames[0].fabric]).omega0

    def refuse(*args):
        raise AssertionError("gate applied after the factorization was built")

    monkeypatch.setattr(qsim, "rotate_pair", refuse)
    assert np.max(np.abs(qsim.apply_hamiltonian(state, fac) - expected)) <= 1e-12
    np.testing.assert_array_equal(qsim.measure_densities(state, fac).omega0, omega0)
