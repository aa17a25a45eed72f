import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdfrelax import givens, lagrange, qsim, verify, vqe
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.qsim import (
    Statevector,
    hf_reference,
    measure_densities,
    measure_rdms_direct,
)
from xdfrelax.verify import angle_gradients, denergy_dtheta_shift, density_energy
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    FILLING_CASES,
    GAUGE_FRAMES,
    GAUGE_PERMUTATION,
    KERNEL_CASES,
    bare,
    eight_fold,
    electron_counts,
    frame_densities,
    frame_fabrics,
    frame_subset,
    from_full,
    loop_apply_hamiltonian,
    orbital_frame,
    random_sector_state,
    random_special_orthogonal,
    ref_apply_excitation,
    ref_apply_fabric,
    ref_apply_hamiltonian,
    ref_densities,
    ref_fabric_operators,
    ref_pair_exchange,
    ref_rdms_direct,
    ref_rotate_pair,
    rotate_pair,
    rotate_state,
    stack_measure,
    symmetrize,
    table_gate,
    zero_two_body,
)

BLOCK_CASES = KERNEL_CASES + FILLING_CASES


def test_hf_reference_basic():
    state = hf_reference(2, 1, 1)
    assert state.amplitudes.shape == (2, 2)
    full = state.embed()
    index = 0b0101  # alpha 0 and beta 0 occupied
    assert full[index] == 1.0
    assert np.count_nonzero(full) == 1
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15
    assert electron_counts(full, 2) == (1, 1)


def test_hf_reference_occupations():
    state = hf_reference(2, 1, 1)
    gamma, _ = measure_rdms_direct(state)
    np.testing.assert_allclose(gamma, np.diag([2.0, 0.0]), atol=1e-15)


def test_hf_reference_rejects_overflow():
    with pytest.raises(ValueError):
        hf_reference(2, 3, 0)


def test_identity_fabric_leaves_state_unchanged():
    state = hf_reference(3, 2, 1)
    frame = orbital_frame(np.eye(3), state)
    np.testing.assert_array_equal(frame.M_alpha[0], np.eye(3))
    np.testing.assert_array_equal(frame.M_beta[0], np.eye(3))
    out = rotate_state(state, frame)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_single_particle_transformation_law():
    n = 2
    fabric = givens.GivensFabric(n, [0.4])
    amps = np.zeros(4 ** n)
    amps[0b01] = 1.0  # one alpha electron in orbital 0
    state = from_full(amps, n)
    u = givens.reconstruct(fabric)
    out = rotate_state(state, orbital_frame(u, state)).embed()
    np.testing.assert_allclose([out[0b01], out[0b10]], u[:, 0], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gates_preserve_norm_and_sector(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, seed)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert electron_counts(state.embed(), 3) == (2, 1)
    rotated = rotate_state(state, fac.frames)
    assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12
    assert electron_counts(rotated.embed(), 3) == (2, 1)
    table = qsim.ansatz_table(3, 2, 1, (0, 1))  # gates: alpha, beta, exchange per pivot
    exchanged = table_gate(state.amplitudes.reshape(-1), table, 2, 0.37)
    exchanged = Statevector(3, 2, 1, exchanged.reshape(state.amplitudes.shape))
    assert abs(np.linalg.norm(exchanged.amplitudes) - 1.0) < 1e-12
    assert electron_counts(exchanged.embed(), 3) == (2, 1)
    psi = table_gate(state.amplitudes.reshape(-1), table, 4, -0.8)
    psi = table_gate(psi, table, 3, -0.8)
    locked = Statevector(3, 2, 1, psi.reshape(state.amplitudes.shape))
    assert abs(np.linalg.norm(locked.amplitudes) - 1.0) < 1e-12
    assert electron_counts(locked.embed(), 3) == (2, 1)


def test_omega0_on_hf_reference():
    state = hf_reference(2, 1, 1)
    np.testing.assert_allclose(frame_densities(state, [np.eye(2)]).omega0,
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
    rotated = rotate_state(rotate_state(state, fac.frames), fac.frames, dagger=True)
    identity = [np.eye(3)]
    np.testing.assert_allclose(frame_densities(rotated, identity).omega0,
                               frame_densities(state, identity).omega0, atol=1e-12)


def test_omega_leaf_hf_closed_shell_combinatorics():
    # determinant in its own basis: omega_kl = (n_k - 1)(n_l - 1)/2 - delta/4
    state = hf_reference(2, 1, 1)
    omega, = frame_densities(state, [np.eye(2)] * 2).omega
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
    for u, omega in zip(fac.U, omegas.omega, strict=True):
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
    assert abs(density_energy(state, fac) - (0.3 + 2.0 * diag[0])) < 1e-12


@pytest.mark.parametrize("n,na,nb,seed", [(2, 1, 1, 7), (3, 2, 1, 3), (4, 2, 2, 13)])
def test_energy_matches_dense_contraction(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    fac = factorize(ham, TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 1)
    gamma, big = measure_rdms_direct(state)
    dense = (ham.core_energy + float(np.sum(ham.one_body * gamma))
             + float(np.sum(ham.two_body * big)))
    assert abs(density_energy(state, fac) - dense) < 1e-10


def test_apply_hamiltonian_matches_energy():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.exact())
    state = random_sector_state(fac, 8)
    hpsi = qsim.apply_hamiltonian(state, fac)
    assert abs(float(np.vdot(state.amplitudes, hpsi)) - density_energy(state, fac)) < 1e-10


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


@pytest.mark.parametrize("filling", [(3, 0, 0), (3, 3, 3), (2, 2, 0)])
def test_direct_oracle_at_empty_and_full_fillings(filling):
    # a determinant's gamma is its occupations and its Gamma the Wick product
    # 0.5 (gamma_pq gamma_rs - sum over spins of D_ps D_rq)
    n, na, nb = filling
    spins = [np.diag(np.arange(n) < count).astype(float) for count in (na, nb)]
    gamma, big = measure_rdms_direct(hf_reference(*filling))
    np.testing.assert_array_equal(gamma, spins[0] + spins[1])
    wick = 0.5 * (np.einsum("pq,rs->pqrs", gamma, gamma)
                  - sum(np.einsum("ps,rq->pqrs", occ, occ) for occ in spins))
    np.testing.assert_allclose(big, wick, atol=1e-14)


def _gaussian_state(n: int, na: int, nb: int, seed: int, imaginary: bool) -> Statevector:
    """A normalized state of one filling with Gaussian amplitudes, complex
    when ``imaginary``; built without any circuit or frame."""
    rng = np.random.default_rng(seed)
    shape = qsim.sector_shape(n, na, nb)
    amps = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if imaginary else 0.0)
    return Statevector(n, na, nb, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n,na,nb,seed,imaginary",
                         [(*case, False) for case in BLOCK_CASES]
                         + [(4, 1, 3, 5, True), (8, 2, 2, 3, False)])
def test_direct_oracle_matches_on_the_fly_reference(n, na, nb, seed, imaginary):
    # the filling's tables against every E_pq applied to the full 4^N vector
    state = _gaussian_state(n, na, nb, seed, imaginary)
    gamma, big = measure_rdms_direct(state)
    gamma_ref, big_ref = ref_rdms_direct(state)
    assert np.max(np.abs(gamma - gamma_ref)) <= 1e-14
    assert np.max(np.abs(big - big_ref)) <= 1e-14
    tables = qsim._excitation_tables(n, na, nb)
    assert qsim._excitation_tables(n, na, nb) is tables
    assert not any(table.flags.writeable for table in tables)


@pytest.mark.parametrize("imaginary", [False, True])
def test_direct_oracle_at_the_desk_cap(imaginary):
    # N=8 (4a, 4b): 4900 of 65536 amplitudes; one cold call, tables built,
    # stays far below the 64 MiB that N^2 images of the full register would
    # take
    n, na, nb, n_elec = 8, 4, 4, 8
    state = _gaussian_state(n, na, nb, 17, imaginary)
    qsim._excitation_tables.cache_clear()
    tracemalloc.start()
    try:
        gamma, big = measure_rdms_direct(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    assert abs(np.trace(gamma) - n_elec) < 1e-12
    np.testing.assert_allclose(np.einsum("pqrr->pq", big), 0.5 * (n_elec - 1) * gamma,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(gamma, gamma.T, rtol=0, atol=1e-12)
    occupations = np.linalg.eigvalsh(gamma)
    assert -1e-12 <= occupations[0] and occupations[-1] <= 2.0 + 1e-12


def test_shift_rule_zero_for_unsupported_angle():
    # electron frozen in orbital 0; the (1, 2) rotation never touches it
    ham = zero_two_body(3, 1, 1, [-2.0, -1.0, 0.5])
    fac = factorize(ham, TruncationPolicy.exact())
    state = hf_reference(3, 1, 1)
    # identity fabric here: angles are zero, pivot 1 is slot index 1
    assert givens.brickwork(3, 3)[1] == 1
    assert abs(denergy_dtheta_shift(state, fac, 0, 1)) < 1e-14


@pytest.mark.parametrize("seed", [0, 4])
def test_shift_rule_every_angle_every_leaf(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 4), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 99)
    sweeps = angle_gradients(state, fac)
    assert sweeps.shape == (len(fac.frames.U), 3)
    for k, (fabric, sweep) in enumerate(zip(frame_fabrics(fac.frames), sweeps, strict=True)):
        for g in range(len(fabric.pivots)):
            shift = denergy_dtheta_shift(state, fac, k, g)
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
    """Energy contribution of frame k measured in the orbital frame of the
    given fabric."""
    u = givens.reconstruct(fabric)
    if k == 0:
        return float(fac.F0 @ frame_densities(state, [u]).omega0)
    omega, = frame_densities(state, [u, u]).omega
    return float(np.sum(fac.Z[k - 1] * omega))


def test_shift_rule_rejects_bad_indices():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.by_count(2))
    state = hf_reference(3, 1, 1)
    n_frames = len(fac.frames.U)
    for f in range(n_frames):
        for g in (-1, 3, 99):
            with pytest.raises(ValueError):
                denergy_dtheta_shift(state, fac, f, g)
    for f in (-1, n_frames, 99):
        with pytest.raises(ValueError, match="frame index"):
            denergy_dtheta_shift(state, fac, f, 0)


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 2, 2, 13), *FILLING_CASES])
def test_angle_gradient_complex_state_matches_shift_rule(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    real_part = random_sector_state(fac, seed + 1).amplitudes
    imag_part = random_sector_state(fac, seed + 2).amplitudes
    amps = real_part + 1j * imag_part
    state = Statevector(n, na, nb, amps / np.linalg.norm(amps))
    sweeps = angle_gradients(state, fac)
    for f, sweep in enumerate(sweeps):
        shift = [denergy_dtheta_shift(state, fac, f, g) for g in range(len(sweep))]
        assert np.max(np.abs(sweep - shift), initial=0.0) < 1e-10


def test_pair_rows_are_cached_and_read_only():
    for rows in (qsim.pair_rows(4, 2, 1), qsim.pair_exchange_rows(4, 1, 2, 1)):
        for arr in rows:
            assert not arr.flags.writeable
    assert qsim.pair_rows(4, 2, 1) is qsim.pair_rows(4, 2, 1)
    assert qsim.pair_exchange_rows(4, 1, 2, 1) is qsim.pair_exchange_rows(4, 1, 2, 1)
    assert not qsim.sector_strings(4, 2).flags.writeable
    # the gate table too
    ansatz = qsim.ansatz_table(4, 1, 2, (0, 2, 1))
    assert qsim.ansatz_table(4, 1, 2, (0, 2, 1)) is ansatz
    for arr in (ansatz.perm, ansatz.sign, ansatz.mask, *ansatz.pairs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    # every cache in qsim is bounded
    caches = [f for f in vars(qsim).values() if hasattr(f, "cache_parameters")]
    assert {f.__name__ for f in caches} >= {"ansatz_table", "pair_rows"}
    for f in caches:
        assert f.cache_parameters()["maxsize"] is not None, f.__name__


def test_statevector_guards():
    with pytest.raises(ValueError):
        Statevector(2, 1, 1, np.zeros(7))
    with pytest.raises(ValueError):
        Statevector(2, 1, 1, np.zeros(16))  # the full vector is not a block
    with pytest.raises(ValueError):
        Statevector(2, 3, 0, np.zeros((1, 0)))
    with pytest.raises(ValueError):
        Statevector(9, 1, 1, np.zeros((9, 9)))  # above the desk cap
    mixed = np.zeros(16)
    mixed[0b0001] = mixed[0b0011] = 1.0 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        from_full(mixed, 2)


# The sector-block kernel against the slice-based reference kernel on the
# embedded full vector.


def _embedded(block: np.ndarray, state: Statevector) -> np.ndarray:
    return Statevector(state.n_spatial, state.n_alpha, state.n_beta, block).embed()


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_fabric_matches_reference_kernel(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 20)
    custom = orbital_frame(random_special_orthogonal(n, seed), state)
    for frames, f in ((fac.frames, 0), (fac.frames, 1), (custom, 0)):
        for dagger in (False, True):
            out = rotate_state(state, frames, f, dagger=dagger)
            ref = ref_apply_fabric(state.embed(), n, frame_fabrics(frames)[f], dagger=dagger)
            assert np.max(np.abs(out.embed() - ref)) <= 1e-12


def test_fabric_matches_reference_kernel_n8():
    fac = factorize(synth_hamiltonian(8, 4, 4, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, 8, n_rounds=1)
    frame = orbital_frame(random_special_orthogonal(8, 5), state)
    for dagger in (False, True):
        out = rotate_state(state, frame, dagger=dagger)
        ref = ref_apply_fabric(state.embed(), 8, frame_fabrics(frame)[0], dagger=dagger)
        assert np.max(np.abs(out.embed() - ref)) <= 1e-12


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_apply_hamiltonian_matches_reference_kernel(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    for policy in (TruncationPolicy.exact(), TruncationPolicy.by_count(2)):
        fac = factorize(ham, policy)
        state = random_sector_state(fac, seed + 30)
        out = qsim.apply_hamiltonian(state, fac)
        assert out.shape == state.amplitudes.shape
        ref = ref_apply_hamiltonian(state.embed(), fac)
        assert np.max(np.abs(_embedded(out, state) - ref)) <= 1e-12


@pytest.mark.parametrize("n,na,nb,seed", [*BLOCK_CASES, (8, 4, 4, 3)])
def test_stacked_hamiltonian_equals_per_frame_loop(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    for policy in (TruncationPolicy.exact(), TruncationPolicy.by_count(2)):
        fac = factorize(ham, policy)
        real = random_sector_state(fac, seed + 30, n_rounds=1)
        amps = real.amplitudes + 0.5j * random_sector_state(fac, seed + 31, n_rounds=1).amplitudes
        for state in (real, Statevector(n, na, nb, amps / np.linalg.norm(amps))):
            out = qsim.apply_hamiltonian(state, fac)
            assert out.tobytes() == loop_apply_hamiltonian(state, fac).tobytes()


def test_apply_hamiltonian_rotates_once(monkeypatch):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, 12)
    rotations, real = [], qsim._rotated

    def counting(state, frames):
        rotations.append(frames)
        return real(state, frames)

    monkeypatch.setattr(qsim, "_rotated", counting)
    qsim.apply_hamiltonian(state, fac)
    assert rotations == [fac.frames]


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_energy_and_densities_match_reference_kernel(n, na, nb, seed):
    ham = synth_hamiltonian(n, na, nb, seed)
    for policy in (TruncationPolicy.exact(), TruncationPolicy.by_count(2)):
        fac = factorize(ham, policy)
        state = random_sector_state(fac, seed + 35)
        full = state.embed()
        reference = float(full @ ref_apply_hamiltonian(full, fac))
        assert abs(density_energy(state, fac) - reference) <= 1e-12
        omegas = measure_densities(state, fac)
        ref0, ref_leaves = ref_densities(full, fac)
        assert np.max(np.abs(omegas.omega0 - ref0)) <= 1e-12
        assert len(omegas.omega) == len(ref_leaves) == fac.retained
        for omega, ref in zip(omegas.omega, ref_leaves):
            assert np.max(np.abs(omega - ref)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gate_primitive_matches_reference_kernel(n):
    # one random full vector over every filling; each filling's block is
    # rotated on its own and compared with the reference on the full vector
    rng = np.random.default_rng(n)
    full = rng.standard_normal(4 ** n)
    ref = full.copy()
    thetas = rng.uniform(-np.pi, np.pi, n - 1)
    for m, theta in enumerate(thetas):
        ref_rotate_pair(ref, 2 * n, m, m + 1, theta)
        ref_rotate_pair(ref, 2 * n, n + m, n + m + 1, -theta)
        ref_pair_exchange(ref, n, m, 2.0 * theta)
    ref = ref.reshape(1 << n, 1 << n)
    for na in range(n + 1):
        for nb in range(n + 1):
            rows = np.ix_(qsim.sector_strings(n, nb), qsim.sector_strings(n, na))
            table = qsim.ansatz_table(n, na, nb, tuple(range(n - 1)))
            psi = full.reshape(1 << n, 1 << n)[rows].reshape(-1)
            for m, theta in enumerate(thetas):
                for k, angle in enumerate((theta, -theta, 2.0 * theta)):
                    psi = table_gate(psi, table, 3 * m + k, angle)
            assert np.max(np.abs(psi.reshape(ref[rows].shape) - ref[rows])) <= 1e-12


# The ansatz's table kernel against the rows kernel ``_common.rotate_pair``:
# bitwise, for every gate kind, at exact zeros, +-pi and random angles.

KERNEL_ANGLES = (0.0, -0.0, np.pi, -np.pi)


def _random_amplitudes(shape, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(shape)
    return amps + 1j * rng.standard_normal(shape) if dtype is complex else amps


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_table_kernel_equals_rows_kernel(n, na, nb, seed, dtype):
    angles = (*KERNEL_ANGLES, *np.random.default_rng(seed).uniform(-np.pi, np.pi, 2))
    blocks = tuple(range(n - 1))
    ansatz = qsim.ansatz_table(n, na, nb, blocks)
    psi = _random_amplitudes(qsim.sector_shape(n, na, nb), seed, dtype)
    for i, m in enumerate(blocks):
        kinds = ((3 * i, lambda ref: ref.T, qsim.pair_rows(n, na, m)),       # alpha columns
                 (3 * i + 1, lambda ref: ref, qsim.pair_rows(n, nb, m)),     # beta rows
                 (3 * i + 2, lambda ref: ref.reshape(-1),                    # pair exchange
                  qsim.pair_exchange_rows(n, na, nb, m)))
        for k, view, rows in kinds:
            for theta in angles:
                ref = psi.copy()
                rotate_pair(view(ref), *rows, theta)
                out = table_gate(psi.reshape(-1), ansatz, k, theta)
                np.testing.assert_array_equal(out, ref.reshape(-1))


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_stacked_batch_equals_one_item_runs(n, na, nb, seed):
    rng = np.random.default_rng(seed)
    thetas = np.array([*KERNEL_ANGLES, *rng.uniform(-np.pi, np.pi, 3)])
    table = qsim.ansatz_table(n, na, nb, tuple(range(n - 1)))
    for dtype in (float, complex):
        batch = _random_amplitudes((len(thetas), table.dim), seed, dtype)
        for k in range(len(table.pairs)):
            out = table_gate(batch, table, k, thetas)
            for item, theta, row in zip(batch, thetas, out, strict=True):
                np.testing.assert_array_equal(row, table_gate(item, table, k, theta))


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 2, 2, 13), *FILLING_CASES])
def test_angle_gradients_rows_equal_one_frame_calls(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    real = random_sector_state(fac, seed + 3)
    amps = real.amplitudes + 0.5j * random_sector_state(fac, seed + 4).amplitudes
    for state in (real, Statevector(n, na, nb, amps / np.linalg.norm(amps))):
        sweeps = angle_gradients(state, fac)
        for f, row in enumerate(sweeps):
            np.testing.assert_array_equal(
                row, angle_gradients(state, bare(frame_subset(fac.frames, [f])))[0])
        backwards = bare(frame_subset(fac.frames, reversed(range(len(sweeps)))))
        np.testing.assert_array_equal(angle_gradients(state, backwards), sweeps[::-1])


def _rotated_frame_energy(state, frames, f, u, a, b, t):
    """Energy of frame f of a stack whose orbitals U move to U exp(t (e_a
    e_b^T - e_b e_a^T)), its operators built anew."""
    k = np.zeros(u.shape)
    k[a, b], k[b, a] = 1.0, -1.0
    moved = qsim.Frames((u @ scipy.linalg.expm(t * k))[None], frames.n_alpha, frames.n_beta,
                        frames.D[f:f + 1])
    return float(np.sum(moved.D[0] * np.abs(moved.M_beta[0].T @ state.amplitudes
                                            @ moved.M_alpha[0]) ** 2))


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 1, 3, 5), (4, 2, 2, 13)])
def test_rotation_gradients_match_five_point_differences(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 5)
    orbitals = [fac.U0, *fac.U[:fac.retained]]
    step = 1e-3
    grads = measure_densities(state, fac).gradients
    for f, (u, grad) in enumerate(zip(orbitals, grads, strict=True)):
        for p, (a, b) in enumerate(zip(*givens.lower_indices(n))):
            e = [_rotated_frame_energy(state, fac.frames, f, u, a, b, k * step)
                 for k in (-2, -1, 1, 2)]
            fd = (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * step)
            assert abs(grad[p] - fd) < 1e-9


@pytest.mark.parametrize("n,na,nb,seed", FILLING_CASES)
def test_rotation_generators_match_jordan_wigner_excitations(n, na, nb, seed):
    # each spin's table against E_ab - E_ba on embedded basis vectors, read at
    # the other spin's unchanged string
    for filling, other, shift in ((na, nb, 0), (nb, na, n)):
        table = qsim.rotation_generators(n, filling)
        assert qsim.rotation_generators(n, filling) is table
        assert not table.flags.writeable
        strings = qsim.sector_strings(n, filling)
        spectator = int(qsim.sector_strings(n, other)[0]) << (n - shift)
        assert table.shape == (n * (n - 1) // 2, len(strings), len(strings))
        for p, (a, b) in enumerate(zip(*givens.lower_indices(n))):
            for col, string in enumerate(strings):
                basis = np.zeros(4 ** n)
                basis[spectator | (int(string) << shift)] = 1.0
                image = (ref_apply_excitation(basis, n, a, b)
                         - ref_apply_excitation(basis, n, b, a))
                column = image[spectator | (strings << shift)]
                np.testing.assert_array_equal(table[p, :, col], column)


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 2, 2, 13), *FILLING_CASES])
def test_rotation_gradients_rows_equal_one_frame_calls(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    real = random_sector_state(fac, seed + 3)
    amps = real.amplitudes + 0.5j * random_sector_state(fac, seed + 4).amplitudes
    for state in (real, Statevector(n, na, nb, amps / np.linalg.norm(amps))):
        grads = measure_densities(state, fac).gradients
        for f, row in enumerate(grads):
            one = stack_measure(state, frame_subset(fac.frames, [f])).gradients
            assert row.tobytes() == one[0].tobytes()
        backwards = frame_subset(fac.frames, reversed(range(len(grads))))
        assert stack_measure(state, backwards).gradients.tobytes() == grads[::-1].tobytes()


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_embed_round_trip(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.by_count(1))
    state = random_sector_state(fac, seed + 50)
    full = state.embed()
    assert full.shape == (4 ** n,)
    assert electron_counts(full, n) == (na, nb)
    assert abs(np.linalg.norm(full) - np.linalg.norm(state.amplitudes)) <= 1e-14
    back = from_full(full, n)
    assert (back.n_alpha, back.n_beta) == (na, nb)
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)
    # the block's rows and columns are that filling's strings, ascending
    first = (int(qsim.sector_strings(n, nb)[0]) << n) | int(qsim.sector_strings(n, na)[0])
    assert hf_reference(n, na, nb).embed()[first] == 1.0


def test_kernels_refuse_a_state_of_another_filling():
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    swapped = hf_reference(3, 1, 2)  # same block shape, other filling
    for kernel in (qsim.apply_hamiltonian, measure_densities):
        with pytest.raises(ValueError, match="filling"):
            kernel(swapped, fac)
    with pytest.raises(ValueError, match="filling"):
        angle_gradients(swapped, fac)
    with pytest.raises(ValueError, match="filling"):
        denergy_dtheta_shift(swapped, fac, 0, 0)


# Frames: built once per factorization, one-body first, then retained leaves.


@pytest.mark.parametrize("policy", [TruncationPolicy.exact(), TruncationPolicy.by_count(2)])
def test_frames_follow_the_factorization(policy):
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), policy)
    frames = fac.frames
    assert frames.U.shape == (fac.retained + 1, 4, 4)
    assert frames.D.shape == (fac.retained + 1, *qsim.sector_shape(4, 2, 2))
    assert frames.M_alpha.shape == frames.M_beta.shape == (fac.retained + 1, 6, 6)
    # every leaf, retained or not, is a member of the leaf stacks
    assert fac.g.shape == (10,) and fac.lam.shape == (10, 4)
    assert fac.V.shape == fac.U.shape == fac.Z.shape == (10, 4, 4)
    np.testing.assert_array_equal(frames.U, [fac.U0, *fac.U[:fac.retained]])
    for arr in (frames.U, frames.M_alpha, frames.M_beta, frames.D, fac.U0, fac.F0,
                fac.g, fac.V, fac.U, fac.lam):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    state = random_sector_state(fac, 3)
    omegas = qsim.measure_densities(state, fac)
    rdms = lagrange.reconstruct_rdms(fac, state)
    assert omegas.omega.shape == rdms.mu.shape == (fac.retained, 4, 4)


def test_frames_refuse_a_misshapen_energy_operator():
    orbitals = np.tile(np.eye(3), (2, 1, 1))
    # one alpha electron and no beta electron: D is (2, 1, 3)
    for shape in ((2, 3, 1), (1, 1, 3), (3, 1, 3), (2, 3), (2, 3, 3)):
        message = rf"D has shape \({shape[0]},.* for U of shape \(2, 3, 3\)"
        with pytest.raises(ValueError, match=message):
            qsim.Frames(orbitals, 1, 0, np.zeros(shape))
    frames = qsim.Frames(orbitals.tolist(), 1, 0, np.zeros((2, 1, 3)).tolist())
    assert frames.U.shape == (2, 3, 3) and frames.D.shape == (2, 1, 3)
    # an orbital stack must be (F, N, N); one matrix is not a stack
    for shape in ((3, 3), (2, 3, 2), (2, 2, 3, 3), (3,)):
        message = rf"U has shape \({shape[0]},.*D of shape \(1, 1, 3\)"
        with pytest.raises(ValueError, match=message):
            qsim.Frames(np.zeros(shape), 1, 0, np.zeros((1, 1, 3)))


def test_factorized_operators_do_no_gate_work(monkeypatch):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.by_count(4))
    state = random_sector_state(fac, 12)
    expected = ref_apply_hamiltonian(state.embed(), fac)
    omega0 = frame_densities(state, fac.frames.U[:1]).omega0

    def refuse(*args):
        raise AssertionError("gate applied or operator built after the factorization was built")

    monkeypatch.setattr(qsim, "apply_gate", refuse)
    monkeypatch.setattr(qsim, "_compound_matrices", refuse)
    monkeypatch.setattr(givens, "_rotate", refuse)
    out = _embedded(qsim.apply_hamiltonian(state, fac), state)
    assert np.max(np.abs(out - expected)) <= 1e-12
    np.testing.assert_array_equal(qsim.measure_densities(state, fac).omega0, omega0)


def test_production_never_embeds(monkeypatch):
    # only the direct RDM oracle and the referees see the full 4^N vector
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    cfg = vqe.AnsatzConfig(2, seed=1)

    def refuse(self):
        raise AssertionError("full amplitude vector built outside a referee")

    monkeypatch.setattr(Statevector, "embed", refuse)
    result = vqe.optimize(fac, cfg, tol=1e-10)
    state = vqe.prepare_state(fac, cfg, result.params)
    rdms = lagrange.reconstruct_rdms(fac, state, stationarity_grad=result.grad_norm)
    assert result.converged and rdms.gamma_sym.shape == (3, 3)
    with pytest.raises(AssertionError, match="outside a referee"):
        measure_rdms_direct(state)


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, *FILLING_CASES, (8, 4, 4, 3)])
def test_stacked_frame_operators_match_per_frame_referee(n, na, nb, seed):
    # the compound matrices against the fabric sweep they replaced, on the
    # fabrics of decompose, and against the shift rule's determinant minors;
    # every member of the stack equals its one-frame stack, bit for bit
    frames = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact()).frames
    angles = np.array([fabric.angles for fabric in frame_fabrics(frames)])
    for filling, ops in ((na, frames.M_alpha), (nb, frames.M_beta)):
        assert np.max(np.abs(ops - ref_fabric_operators(n, angles, filling))) <= 1e-14
    for f, u in enumerate(frames.U):
        minors = verify._spin_operator(u)
        for filling, op in ((na, frames.M_alpha[f]), (nb, frames.M_beta[f])):
            strings = qsim.sector_strings(n, filling)
            assert np.max(np.abs(op - minors[np.ix_(strings, strings)])) <= 1e-14
        one = frame_subset(frames, [f])
        for name in ("M_alpha", "M_beta", "D"):
            assert getattr(one, name)[0].tobytes() == getattr(frames, name)[f].tobytes()


# Property: on any orthogonal n <= 8 matrix, det -1 and signed permutations
# included, and at every filling, the frame operators are compound matrices:
# orthogonal, multiplicative (Cauchy-Binet, C(AB) = C(A) C(B)), the
# identity's is the identity and a signed permutation's a signed permutation.
# The examples add the signed permutation at which decompose alternates
# between gauges, and the frames of two of those gauges.


def _compound(u: np.ndarray, filling: int) -> np.ndarray:
    """The filling-th compound matrix of one orbital matrix, read off a
    one-member frame stack as its alpha operator."""
    n = len(u)
    return qsim.Frames(u[None], filling, 0, np.zeros((1, 1, comb(n, filling)))).M_alpha[0]


@st.composite
def _orthogonal(draw, n):
    """An orthogonal n x n matrix, and whether it is a signed permutation."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
        return np.eye(n)[list(perm)] * np.array(signs), True
    u = random_special_orthogonal(n, draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        u[:, 0] = -u[:, 0]  # det -1
    return u, False


@st.composite
def _orthogonal_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(_orthogonal(n)), draw(_orthogonal(n))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_orthogonal_pairs())
@example(((GAUGE_PERMUTATION, True), (GAUGE_FRAMES[0], False)))
@example(((GAUGE_FRAMES[1], False), (GAUGE_PERMUTATION.T, True)))
def test_compound_matrix_property(pair):
    (a, signed), (b, _) = pair
    n = len(a)
    for filling in range(n + 1):
        ca, cb, cab = (_compound(u, filling) for u in (a, b, a @ b))
        identity = np.eye(len(ca))
        assert np.max(np.abs(ca.T @ ca - identity)) <= 1e-13
        assert np.max(np.abs(cab - ca @ cb)) <= 1e-13
        np.testing.assert_array_equal(_compound(np.eye(n), filling), identity)
        if signed:
            assert set(np.unique(ca).tolist()) <= {-1.0, 0.0, 1.0}
            assert np.all(np.count_nonzero(ca, axis=0) == 1)
            assert np.all(np.count_nonzero(ca, axis=1) == 1)


def _spin_z(n: int, filling: int) -> np.ndarray:
    """Pauli-Z eigenvalue of every orbital in every string of one spin filling."""
    return 1.0 - 2.0 * qsim.string_bits(n)[qsim.sector_strings(n, filling)]


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, (4, 1, 3, 5), (3, 0, 2, 2)])
def test_stacked_densities_match_per_frame_formulas(n, na, nb, seed):
    # the per-spin weights and moments the occupation table replaced; the
    # table sums the same products in another order, so they agree to
    # rounding, not bitwise
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 40)
    z_alpha, z_beta = _spin_z(n, na), _spin_z(n, nb)
    weights = [np.abs(m_beta.T @ state.amplitudes @ m_alpha) ** 2
               for m_alpha, m_beta in zip(fac.frames.M_alpha, fac.frames.M_beta)]
    omegas = qsim.measure_densities(state, fac)
    w0 = weights[0]
    omega0 = -0.5 * (w0.sum(axis=0) @ z_alpha + w0.sum(axis=1) @ z_beta)
    assert np.max(np.abs(omegas.omega0 - omega0)) <= 1e-14
    assert len(omegas.omega) == fac.retained
    for w, omega in zip(weights[1:], omegas.omega, strict=True):
        cross = z_beta.T @ w @ z_alpha
        moments = ((z_alpha.T * w.sum(axis=0)) @ z_alpha
                   + (z_beta.T * w.sum(axis=1)) @ z_beta + cross + cross.T)
        assert np.max(np.abs(omega - (moments - 2.0 * np.eye(n)) / 8.0)) <= 1e-14


@pytest.mark.parametrize("policy", [TruncationPolicy.exact(), TruncationPolicy.by_count(2)],
                         ids=["exact", "count2"])
@pytest.mark.parametrize("n,na,nb,seed", [*BLOCK_CASES, (8, 4, 4, 3)])
def test_term_energies_match_per_spin_formulas(n, na, nb, seed, policy):
    # the per-spin one-body and leaf energy operators the occupation table
    # replaced
    fac = factorize(synth_hamiltonian(n, na, nb, seed), policy)
    z_alpha, z_beta = _spin_z(n, na), _spin_z(n, nb)
    bits_alpha, bits_beta = (1.0 - z_alpha) / 2.0, (1.0 - z_beta) / 2.0
    one_body = ((bits_beta @ fac.F0)[:, None] + (bits_alpha @ fac.F0)[None, :]
                - float(np.sum(fac.F0)))
    couplings = fac.Z[:fac.retained]
    w = z_beta @ couplings @ z_alpha.T
    q_alpha = np.sum((z_alpha @ couplings) * z_alpha, axis=-1)
    q_beta = np.sum((z_beta @ couplings) * z_beta, axis=-1)
    leaves = (0.125 * (q_beta[:, :, None] + q_alpha[:, None, :] + 2.0 * w)
              - 0.25 * np.trace(couplings, axis1=1, axis2=2)[:, None, None])
    expected = np.concatenate([one_body[None], leaves])
    assert fac.frames.D.shape == expected.shape == (1 + fac.retained, *qsim.sector_shape(n, na, nb))
    assert np.max(np.abs(fac.frames.D - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("n,na,nb", [(2, 0, 0), (3, 3, 3), (4, 1, 3)])
def test_occupation_table(n, na, nb):
    table = qsim._occupation_table(n, na, nb)
    assert qsim._occupation_table(n, na, nb) is table
    z, zz = table
    assert not z.flags.writeable and not zz.flags.writeable
    bits = qsim.string_bits(n)
    alpha, beta = qsim.sector_strings(n, na), qsim.sector_strings(n, nb)
    assert z.shape == (n, len(beta) * len(alpha)) and zz.shape == (n * n, z.shape[1])
    for i, b in enumerate(beta):
        for j, a in enumerate(alpha):
            entry = i * len(alpha) + j
            expected = 2.0 - 2.0 * (bits[a] + bits[b])
            np.testing.assert_array_equal(z[:, entry], expected)
            np.testing.assert_array_equal(zz[:, entry], np.outer(expected, expected).ravel())
