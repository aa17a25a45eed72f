from math import comb

import numpy as np
import pytest
import scipy.linalg

from xdfrelax import givens, lagrange, qsim, vqe
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian
from xdfrelax.qsim import (
    Statevector,
    angle_gradients,
    denergy_dtheta_shift,
    energy,
    hf_reference,
    measure_densities,
    measure_rdms_direct,
)
from xdfrelax.xdf import TruncationPolicy, factorize

from _common import (
    FILLING_CASES,
    KERNEL_CASES,
    eight_fold,
    electron_counts,
    fabric_frame,
    frame_densities,
    frame_fabrics,
    frame_subset,
    from_full,
    identity_fabric,
    loop_apply_hamiltonian,
    random_sector_state,
    random_special_orthogonal,
    ref_apply_fabric,
    ref_apply_hamiltonian,
    ref_densities,
    ref_fabric_operator,
    ref_pair_exchange,
    ref_rotate_pair,
    rotate_pair,
    rotate_state,
    stack_fabrics,
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
    assert abs(state.norm() - 1.0) < 1e-15
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
    frame = fabric_frame(identity_fabric(3), state)
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
    out = rotate_state(state, fabric_frame(fabric, state)).embed()
    u = givens.reconstruct(fabric)
    np.testing.assert_allclose([out[0b01], out[0b10]], u[:, 0], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gates_preserve_norm_and_sector(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, seed)
    assert abs(state.norm() - 1.0) < 1e-12
    assert electron_counts(state.embed(), 3) == (2, 1)
    rotated = rotate_state(state, fac.frames)
    assert abs(rotated.norm() - 1.0) < 1e-12
    assert electron_counts(rotated.embed(), 3) == (2, 1)
    table = qsim.ansatz_table(3, 2, 1, (0, 1))  # gates: alpha, beta, exchange per pivot
    exchanged = table_gate(state.amplitudes.reshape(-1), table, 2, 0.37)
    exchanged = Statevector(3, 2, 1, exchanged.reshape(state.amplitudes.shape))
    assert abs(exchanged.norm() - 1.0) < 1e-12
    assert electron_counts(exchanged.embed(), 3) == (2, 1)
    psi = table_gate(state.amplitudes.reshape(-1), table, 4, -0.8)
    psi = table_gate(psi, table, 3, -0.8)
    locked = Statevector(3, 2, 1, psi.reshape(state.amplitudes.shape))
    assert abs(locked.norm() - 1.0) < 1e-12
    assert electron_counts(locked.embed(), 3) == (2, 1)


def test_omega0_on_hf_reference():
    state = hf_reference(2, 1, 1)
    np.testing.assert_allclose(frame_densities(state, [identity_fabric(2)]).omega0,
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
    identity = [identity_fabric(3)]
    np.testing.assert_allclose(frame_densities(rotated, identity).omega0,
                               frame_densities(state, identity).omega0, atol=1e-12)


def test_omega_leaf_hf_closed_shell_combinatorics():
    # determinant in its own basis: omega_kl = (n_k - 1)(n_l - 1)/2 - delta/4
    state = hf_reference(2, 1, 1)
    omega, = frame_densities(state, [identity_fabric(2)] * 2).omega
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
    assert abs(float(np.vdot(state.amplitudes, hpsi)) - energy(state, fac)) < 1e-10


def test_energy_computes_no_rotation_gradient(monkeypatch):
    # the energy reads the densities alone; the gradients serve the multipliers
    fac = factorize(synth_hamiltonian(3, 2, 1, 4), TruncationPolicy.by_count(3))
    state = random_sector_state(fac, 8)
    expected = energy(state, fac)

    def refuse(*args):
        raise AssertionError("rotation gradients computed")

    monkeypatch.setattr(qsim, "_rotation_gradients", refuse)
    assert energy(state, fac) == expected
    with pytest.raises(AssertionError, match="rotation gradients computed"):
        measure_densities(state, fac)


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
    # identity fabric here: angles are zero, pivot 1 is slot index 1
    assert fac.frames.fabric.pivots[1] == (1, 2)
    assert abs(denergy_dtheta_shift(state, fac.frames, 0, 1)) < 1e-14


@pytest.mark.parametrize("seed", [0, 4])
def test_shift_rule_every_angle_every_leaf(seed):
    fac = factorize(synth_hamiltonian(3, 2, 1, 4), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 99)
    sweeps = angle_gradients(state, fac.frames)
    assert sweeps.shape == fac.frames.fabric.angles.shape
    for k, (fabric, sweep) in enumerate(zip(frame_fabrics(fac.frames), sweeps, strict=True)):
        for g in range(len(fabric.pivots)):
            shift = denergy_dtheta_shift(state, fac.frames, k, g)
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
    return float(np.sum(fac.Z[k - 1] * omega))


def test_shift_rule_rejects_bad_indices():
    fac = factorize(synth_hamiltonian(3, 1, 1, 2), TruncationPolicy.by_count(2))
    state = hf_reference(3, 1, 1)
    for f in range(len(fac.frames.fabric.angles)):
        for g in (-1, 3, 99):
            with pytest.raises(ValueError):
                denergy_dtheta_shift(state, fac.frames, f, g)


@pytest.mark.parametrize("n,na,nb,seed", [(3, 2, 1, 4), (4, 2, 2, 13), *FILLING_CASES])
def test_angle_gradient_complex_state_matches_shift_rule(n, na, nb, seed):
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    real_part = random_sector_state(fac, seed + 1).amplitudes
    imag_part = random_sector_state(fac, seed + 2).amplitudes
    amps = real_part + 1j * imag_part
    state = Statevector(n, na, nb, amps / np.linalg.norm(amps))
    sweeps = angle_gradients(state, fac.frames)
    for f, sweep in enumerate(sweeps):
        shift = [denergy_dtheta_shift(state, fac.frames, f, g) for g in range(len(sweep))]
        assert np.max(np.abs(sweep - shift), initial=0.0) < 1e-10


def test_pair_rows_are_cached_and_read_only():
    for rows in (qsim.pair_rows(4, 2, 1), qsim.pair_exchange_rows(4, 1, 2, 1)):
        for arr in rows:
            assert not arr.flags.writeable
    assert qsim.pair_rows(4, 2, 1) is qsim.pair_rows(4, 2, 1)
    assert qsim.pair_exchange_rows(4, 1, 2, 1) is qsim.pair_exchange_rows(4, 1, 2, 1)
    assert not qsim.sector_strings(4, 2).flags.writeable
    # the gate tables too
    fabric = qsim.fabric_table(4, 2)
    assert qsim.fabric_table(4, 2) is fabric
    ansatz = qsim.ansatz_table(4, 1, 2, (0, 2, 1))
    assert qsim.ansatz_table(4, 1, 2, (0, 2, 1)) is ansatz
    for table in (fabric, ansatz):
        for arr in (table.perm, table.sign, table.mask, *table.pairs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
    # every cache in qsim is bounded
    caches = [f for f in vars(qsim).values() if hasattr(f, "cache_parameters")]
    assert {f.__name__ for f in caches} >= {"fabric_table", "ansatz_table", "pair_rows"}
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
    custom = fabric_frame(givens.decompose(random_special_orthogonal(n, seed)), state)
    for frames, f in ((fac.frames, 0), (fac.frames, 1), (custom, 0)):
        for dagger in (False, True):
            out = rotate_state(state, frames, f, dagger=dagger)
            ref = ref_apply_fabric(state.embed(), n, frame_fabrics(frames)[f], dagger=dagger)
            assert np.max(np.abs(out.embed() - ref)) <= 1e-12


def test_fabric_matches_reference_kernel_n8():
    fac = factorize(synth_hamiltonian(8, 4, 4, 3), TruncationPolicy.exact())
    state = random_sector_state(fac, 8, n_rounds=1)
    frame = fabric_frame(givens.decompose(random_special_orthogonal(8, 5)), state)
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
        assert abs(energy(state, fac) - float(full @ ref_apply_hamiltonian(full, fac))) <= 1e-12
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


# The table kernel against the rows kernel it replaced, ``_common.rotate_pair``:
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
    for filling in {na, nb}:
        table = qsim.fabric_table(n, filling)
        d = comb(n, filling)
        y = _random_amplitudes((d, d), seed + filling, dtype)
        for g, (m, _) in enumerate(givens.rectangle_pivots(n)):
            for theta in angles:
                for view in (lambda ref: ref, lambda ref: ref.T):  # rows, columns
                    ref = y.copy()
                    rotate_pair(view(ref), *qsim.pair_rows(n, filling, m), theta)
                    out = table_gate(view(y).reshape(-1), table, g, theta)
                    np.testing.assert_array_equal(out, view(ref).reshape(-1))


@pytest.mark.parametrize("n,na,nb,seed", BLOCK_CASES)
def test_stacked_batch_equals_one_item_runs(n, na, nb, seed):
    rng = np.random.default_rng(seed)
    thetas = np.array([*KERNEL_ANGLES, *rng.uniform(-np.pi, np.pi, 3)])
    tables = (qsim.ansatz_table(n, na, nb, tuple(range(n - 1))), qsim.fabric_table(n, na))
    for table in tables:
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
        sweeps = angle_gradients(state, fac.frames)
        for f, row in enumerate(sweeps):
            np.testing.assert_array_equal(
                row, angle_gradients(state, frame_subset(fac.frames, [f]))[0])
        backwards = frame_subset(fac.frames, reversed(range(len(sweeps))))
        np.testing.assert_array_equal(angle_gradients(state, backwards), sweeps[::-1])


def _rotated_frame_energy(state, frames, f, u, a, b, t):
    """Energy of frame f of a stack whose orbitals U move to U exp(t (e_a
    e_b^T - e_b e_a^T)), its fabric rebuilt from scratch."""
    k = np.zeros(u.shape)
    k[a, b], k[b, a] = 1.0, -1.0
    fabric = givens.decompose(u @ scipy.linalg.expm(t * k))
    moved = qsim.Frames(stack_fabrics([fabric]), frames.n_alpha, frames.n_beta, frames.D[f:f + 1])
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
                image = (qsim._apply_singlet_excitation(basis, n, a, b)
                         - qsim._apply_singlet_excitation(basis, n, b, a))
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
    assert abs(np.linalg.norm(full) - state.norm()) <= 1e-14
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
        angle_gradients(swapped, fac.frames)
    with pytest.raises(ValueError, match="filling"):
        denergy_dtheta_shift(swapped, fac.frames, 0, 0)


# Frames: built once per factorization, one-body first, then retained leaves.


@pytest.mark.parametrize("policy", [TruncationPolicy.exact(), TruncationPolicy.by_count(2)])
def test_frames_follow_the_factorization(policy):
    fac = factorize(synth_hamiltonian(4, 2, 2, 13), policy)
    frames = fac.frames
    assert frames.fabric.angles.shape == (fac.retained + 1, 6)
    assert frames.D.shape == (fac.retained + 1, *qsim.sector_shape(4, 2, 2))
    assert frames.M_alpha.shape == frames.M_beta.shape == (fac.retained + 1, 6, 6)
    # every leaf, retained or not, is a member of the leaf stacks
    assert fac.g.shape == (10,) and fac.lam.shape == (10, 4)
    assert fac.V.shape == fac.U.shape == fac.Z.shape == (10, 4, 4)
    orbitals = [fac.U0, *fac.U[:fac.retained]]
    assert np.max(np.abs(givens.reconstruct(frames.fabric) - orbitals)) <= 1e-10
    for arr in (frames.fabric.angles, frames.M_alpha, frames.M_beta, frames.D, fac.U0, fac.F0,
                fac.g, fac.V, fac.U, fac.lam):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    omegas, mult = lagrange.measure_and_solve(fac, random_sector_state(fac, 3))
    assert omegas.omega.shape == mult.mu.shape == (fac.retained, 4, 4)


def test_frames_refuse_a_misshapen_energy_operator():
    fabric = stack_fabrics([identity_fabric(3)] * 2)
    # one alpha electron and no beta electron: D is (2, 1, 3)
    for shape in ((2, 3, 1), (1, 1, 3), (3, 1, 3), (2, 3), (2, 3, 3)):
        with pytest.raises(ValueError, match="D has shape"):
            qsim.Frames(fabric, 1, 0, np.zeros(shape))
    assert qsim.Frames(fabric, 1, 0, np.zeros((2, 1, 3)).tolist()).D.shape == (2, 1, 3)


def test_frames_refuse_a_one_fabric():
    with pytest.raises(ValueError, match="stacked fabric"):
        qsim.Frames(identity_fabric(3), 1, 0, np.zeros((1, 1, 3)))


def test_factorized_operators_do_no_gate_work(monkeypatch):
    fac = factorize(synth_hamiltonian(3, 2, 1, 3), TruncationPolicy.by_count(4))
    state = random_sector_state(fac, 12)
    expected = ref_apply_hamiltonian(state.embed(), fac)
    omega0 = frame_densities(state, frame_fabrics(fac.frames)[:1]).omega0

    def refuse(*args):
        raise AssertionError("gate applied after the factorization was built")

    monkeypatch.setattr(qsim, "apply_gate", refuse)
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
    rdms, _ = lagrange.reconstruct_rdms(fac, state, stationarity_grad=result.grad_norm)
    assert result.converged and rdms.gamma_sym.shape == (3, 3)
    with pytest.raises(AssertionError, match="outside a referee"):
        measure_rdms_direct(state)


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, *FILLING_CASES, (8, 4, 4, 3)])
def test_stacked_frame_operators_match_per_frame_referee(n, na, nb, seed):
    # and every member of the stack equals its one-fabric stack, bit for bit
    frames = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact()).frames
    for f, fabric in enumerate(frame_fabrics(frames)):
        np.testing.assert_array_equal(frames.M_alpha[f], ref_fabric_operator(fabric, na))
        np.testing.assert_array_equal(frames.M_beta[f], ref_fabric_operator(fabric, nb))
        one = frame_subset(frames, [f])
        for name in ("M_alpha", "M_beta", "D"):
            assert getattr(one, name)[0].tobytes() == getattr(frames, name)[f].tobytes()


@pytest.mark.parametrize("n,na,nb,seed", [*KERNEL_CASES, (4, 1, 3, 5), (3, 0, 2, 2)])
def test_stacked_densities_match_per_frame_formulas(n, na, nb, seed):
    # the per-frame weights and moments the stacked measurement replaced
    fac = factorize(synth_hamiltonian(n, na, nb, seed), TruncationPolicy.exact())
    state = random_sector_state(fac, seed + 40)
    z_alpha, z_beta = (1.0 - 2.0 * qsim.string_bits(n)[qsim.sector_strings(n, filling)]
                       for filling in (na, nb))
    weights = [np.abs(m_beta.T @ state.amplitudes @ m_alpha) ** 2
               for m_alpha, m_beta in zip(fac.frames.M_alpha, fac.frames.M_beta)]
    omegas = qsim.measure_densities(state, fac)
    w0 = weights[0]
    omega0 = -0.5 * (w0.sum(axis=0) @ z_alpha + w0.sum(axis=1) @ z_beta)
    assert omegas.omega0.tobytes() == omega0.tobytes()
    assert len(omegas.omega) == fac.retained
    for w, omega in zip(weights[1:], omegas.omega, strict=True):
        cross = z_beta.T @ w @ z_alpha
        moments = ((z_alpha.T * w.sum(axis=0)) @ z_alpha
                   + (z_beta.T * w.sum(axis=1)) @ z_beta + cross + cross.T)
        assert omega.tobytes() == ((moments - 2.0 * np.eye(n)) / 8.0).tobytes()
