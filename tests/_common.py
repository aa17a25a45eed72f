"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from math import comb
from types import SimpleNamespace

import numpy as np

from xdfrelax import givens, hammodel, lagrange, qsim, verify, vqe, xdf
from xdfrelax.hammodel import Hamiltonian


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def eight_fold(t: np.ndarray) -> np.ndarray:
    t = 0.5 * (t + t.transpose(1, 0, 2, 3))
    t = 0.5 * (t + t.transpose(0, 1, 3, 2))
    return 0.5 * (t + t.transpose(2, 3, 0, 1))


def shaped_hamiltonian(n: int, n_alpha: int, n_beta: int, seed: int,
                       offdiag: float = 0.05, spread: float = 3.0) -> Hamiltonian:
    """Molecular-flavored variant: diagonally dominant one-body part with a
    wide orbital-energy spread over the synthetic two-body tensor."""
    base = hammodel.synth_hamiltonian(n, n_alpha, n_beta, seed)
    rng = np.random.default_rng(seed + 500)
    h = offdiag * symmetrize(rng.standard_normal((n, n)))
    h += np.diag(np.linspace(-1.0 - spread, -1.0, n))
    return Hamiltonian(n, n_alpha, n_beta, base.core_energy, h, base.two_body)


def zero_two_body(n: int, n_alpha: int, n_beta: int, diag, core: float = 0.0,
                  offdiag: np.ndarray | None = None) -> Hamiltonian:
    h = np.diag(np.asarray(diag, dtype=float))
    if offdiag is not None:
        h = h + offdiag
    return Hamiltonian(n, n_alpha, n_beta, core, h, np.zeros((n, n, n, n)))


def identity_fabric(n: int) -> givens.GivensFabric:
    return givens.GivensFabric(n, np.zeros(n * (n - 1) // 2))


def random_special_orthogonal(n: int, seed: int) -> np.ndarray:
    """QR-based Haar-ish sample from SO(n), deterministic in the seed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


# A det +1 signed permutation at which ``givens.decompose`` is unstable:
# round trips alternate between gauge-distinct fabrics, two of which are
# the rows of GAUGE_FABRIC_ANGLES.
GAUGE_PERMUTATION = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0]],
                             dtype=float)
GAUGE_FABRIC_ANGLES = np.pi * np.array([[0, -0.5, -0.5, 0, 0.5, 0],
                                        [0, 0.25, 0.5, 0, -0.5, -0.25]])
# the frames those two fabrics reconstruct, which differ only by roundoff
GAUGE_FRAMES = np.array([givens.reconstruct(givens.GivensFabric(4, angles))
                         for angles in GAUGE_FABRIC_ANGLES])


def electron_counts(amps: np.ndarray, n: int) -> tuple[int, int]:
    """Per-spin particle numbers of a full 4^N amplitude vector; raises if the
    vector mixes fillings."""
    filled = qsim.string_bits(n).sum(axis=1)
    beta, alpha = np.nonzero(np.abs(amps.reshape(1 << n, 1 << n)) ** 2 > 1e-24)
    counts = set(zip(filled[alpha].tolist(), filled[beta].tolist()))
    if len(counts) != 1:
        raise ValueError(f"state is not in a single (n_alpha, n_beta) sector: {counts}")
    return counts.pop()


def from_full(amps: np.ndarray, n: int) -> qsim.Statevector:
    """The block of a full 4^N vector that lies in one filling; the inverse
    of ``Statevector.embed``."""
    n_alpha, n_beta = electron_counts(amps, n)
    psi = amps.reshape(1 << n, 1 << n)
    block = psi[np.ix_(qsim.sector_strings(n, n_beta), qsim.sector_strings(n, n_alpha))]
    return qsim.Statevector(n, n_alpha, n_beta, block)


# Reference oracle: every E_pq applied on the fly to the full 4^N vector and
# the images contracted by einsum, the construction ``qsim.measure_rdms_direct``
# replaced with tables on the filling.

def ref_apply_excitation(amps: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """E_pq acting on a full amplitude vector, Jordan-Wigner strings included."""
    nq = 2 * n
    bits = qsim.string_bits(nq)
    out = np.zeros_like(amps)
    for off in (0, n):
        ps, qs = p + off, q + off
        if p == q:
            out += bits[:, ps] * amps
            continue
        mask = (bits[:, qs] == 1) & (bits[:, ps] == 0)
        x = np.nonzero(mask)[0]
        y = x ^ (1 << qs) ^ (1 << ps)
        lo, hi = (ps, qs) if ps < qs else (qs, ps)
        if hi - lo > 1:
            parity = bits[x, lo + 1:hi].sum(axis=1) % 2
            signs = 1.0 - 2.0 * parity
        else:
            signs = np.ones(x.size)
        out[y] += signs * amps[x]
    return out


def ref_rdms_direct(state: qsim.Statevector) -> tuple[np.ndarray, np.ndarray]:
    """gamma[p, q] = <E_pq> and Gamma[p, q, r, s] = (<E_pq E_rs> - d_qr
    <E_ps>) / 2 from the N^2 images of the embedded vector."""
    n = state.n_spatial
    amps = state.embed()
    images = np.empty((n, n, amps.size), dtype=amps.dtype)
    for r in range(n):
        for s in range(n):
            images[r, s] = ref_apply_excitation(amps, n, r, s)
    gamma = np.real(images @ np.conj(amps))
    pair = np.real(np.einsum("qpx,rsx->pqrs", np.conj(images), images))
    return gamma, 0.5 * (pair - np.einsum("qr,ps->pqrs", np.eye(n), gamma))


def frame_fabrics(frames: qsim.Frames) -> list[givens.GivensFabric]:
    """The fabric of every member of a frame stack, ``givens.decompose`` of
    its orbital frame."""
    return [givens.decompose(u) for u in frames.U]


def orbital_frame(u: np.ndarray, state: qsim.Statevector) -> qsim.Frames:
    """One-member frame stack of the orbital frame u for the filling of
    ``state``, with a zero energy operator."""
    return qsim.Frames(np.asarray(u)[None], state.n_alpha, state.n_beta,
                       np.zeros((1, *state.amplitudes.shape)))


def frame_subset(frames: qsim.Frames, members) -> qsim.Frames:
    """The stack of the given members of a frame stack, in that order, built
    on its own."""
    members = list(members)
    return qsim.Frames(frames.U[members], frames.n_alpha, frames.n_beta, frames.D[members])


def bare(frames: qsim.Frames) -> SimpleNamespace:
    """A stand-in factorization that carries only a frame stack, all that
    ``qsim.measure_densities`` and the angle-route referees read of one."""
    return SimpleNamespace(frames=frames)


def stack_measure(state: qsim.Statevector, frames: qsim.Frames) -> qsim.EigenbasisDensities:
    """``qsim.measure_densities`` on a bare frame stack: the first member
    stands for the one-body frame, the rest for leaf frames."""
    return qsim.measure_densities(state, bare(frames))


def rotate_state(state: qsim.Statevector, frames: qsim.Frames, f: int = 0,
                 dagger: bool = False) -> qsim.Statevector:
    """Spin-locked fabric circuit of member f of a frame stack through its
    operators: Psi -> M_beta Psi M_alpha^T, or M_beta^T Psi M_alpha for the
    dagger."""
    m_alpha, m_beta = frames.M_alpha[f], frames.M_beta[f]
    psi = state.amplitudes
    out = m_beta.T @ psi @ m_alpha if dagger else m_beta @ psi @ m_alpha.T
    return qsim.Statevector(state.n_spatial, state.n_alpha, state.n_beta, out)


def frame_densities(state: qsim.Statevector, orbitals) -> qsim.EigenbasisDensities:
    """``qsim.measure_densities`` in arbitrary orbital frames: the first
    stands for the one-body frame, the rest for leaf frames."""
    orbitals = np.array(orbitals, dtype=float)
    frames = qsim.Frames(orbitals, state.n_alpha, state.n_beta,
                         np.zeros((len(orbitals), *state.amplitudes.shape)))
    return stack_measure(state, frames)


def loop_apply_hamiltonian(state: qsim.Statevector, fac: xdf.XDFFactorization) -> np.ndarray:
    """``qsim.apply_hamiltonian`` as the running sum over frames that the
    stacked expression replaced, kept verbatim as its bitwise referee."""
    psi = state.amplitudes
    out = fac.eff.scalar_offset * psi
    for m_alpha, m_beta, d in zip(fac.frames.M_alpha, fac.frames.M_beta, fac.frames.D):
        out += m_beta @ (d * (m_beta.T @ psi @ m_alpha)) @ m_alpha.T
    return out


def rotate_pair(rows: np.ndarray, a: np.ndarray, b: np.ndarray, theta: float) -> None:
    """Referee of ``qsim.apply_gate``: an in-place plane rotation of rows a and b
    along the leading axis by fancy-index gather and scatter, rows a ->
    cos * a - sin * b and rows b -> sin * a + cos * b; a zero angle is skipped."""
    if theta == 0.0:
        return
    c, s = np.cos(theta), np.sin(theta)
    old_a = rows[a]
    rows[a] = c * old_a - s * rows[b]
    rows[b] = s * old_a + c * rows[b]


def table_gate(x: np.ndarray, table: qsim.GateTable, k: int, theta) -> np.ndarray:
    """Gate k of a ``qsim.GateTable`` at angle theta on flat amplitudes x, batch
    axes leading; theta is one angle, or one per batch item."""
    theta = np.asarray(theta, dtype=float)[..., None, None]
    scale, shift = np.where(table.mask, np.cos(theta), 1.0), np.sin(theta) * table.sign
    return qsim.apply_gate(x, table, k, scale[..., k, :], shift[..., k, :])


# Referee of ``givens.reconstruct``: the gates applied one at a time to the
# rows of the identity.

def _ref_rotate_rows(u: np.ndarray, m: int, theta: float) -> None:
    """Left-multiply u in place by the pivot (m, m+1) rotation at theta."""
    c, s = np.cos(theta), np.sin(theta)
    row_m = u[m].copy()
    u[m] = c * row_m - s * u[m + 1]
    u[m + 1] = s * row_m + c * u[m + 1]


def ref_reconstruct(n: int, angles: np.ndarray) -> np.ndarray:
    u = np.eye(n)
    for m, theta in zip(givens.brickwork(n, n), angles):
        _ref_rotate_rows(u, m, theta)
    return u


def ref_fabric_operators(n: int, angles: np.ndarray, filling: int) -> np.ndarray:
    """Operators of n-orbital fabrics at the (B, K) ``angles`` on the strings
    of one spin filling, first gate rightmost: one sweep rotates the rows
    ``pair_rows`` of B identities by each gate in turn, one angle per fabric.
    Returns (B, d, d). The fabric sweep that built the frame operators
    before their compound matrices."""
    c, s = np.cos(angles)[:, :, None, None], np.sin(angles)[:, :, None, None]
    ops = np.tile(np.eye(comb(n, filling)), (len(angles), 1, 1))
    for g, m in enumerate(givens.brickwork(n, n)):
        a, b = qsim.pair_rows(n, filling, m)
        ops[:, a], ops[:, b] = (c[:, g] * ops[:, a] - s[:, g] * ops[:, b],
                                s[:, g] * ops[:, a] + c[:, g] * ops[:, b])
    return ops


# The paper's angle route from the multipliers' side, as production used it
# before. Each frame solves J eta = -dE/dtheta through its fabric's angle
# Jacobian (``verify.jacobian``) by a minimum-norm least-squares solve, and
# mu takes the quotients of X = U^T eta. dE/dtheta is production's G taken
# to angles by the chain rule (``verify.angle_gradients``), whose referee is
# the shift rule (criterion 8); the direct RDM oracle referees mu itself
# (criterion 4). Where J is singular the minimum-norm eta can be wrong, so
# comparisons keep to well-conditioned J.

PINV_RCOND = 1e-10


def pinv_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve; small singular values are dropped."""
    solution, _, _, _ = np.linalg.lstsq(np.asarray(a, dtype=float),
                                        np.asarray(rhs, dtype=float), rcond=PINV_RCOND)
    return solution


def ref_angle_eta(state: qsim.Statevector, fac) -> tuple[np.ndarray, np.ndarray]:
    """The (F, N, N) strictly-lower eta stack of the frames of ``fac`` and
    the max-abs residual of each frame's solve."""
    fabrics = frame_fabrics(fac.frames)
    n = fac.frames.U.shape[-1]
    etas = np.zeros((len(fabrics), n, n))
    residuals = np.zeros(len(fabrics))
    for f, (fabric, rhs) in enumerate(zip(fabrics, -verify.angle_gradients(state, fac),
                                          strict=True)):
        jac = verify.jacobian(fabric)
        eta_vec = pinv_solve(jac, rhs)
        residuals[f] = float(np.max(np.abs(jac @ eta_vec - rhs))) if rhs.size else 0.0
        etas[f][givens.lower_indices(n)] = eta_vec
    return etas, residuals


def ref_angle_mu(fac: xdf.XDFFactorization, state: qsim.Statevector) -> np.ndarray:
    """The (F, N, N) mu stack of every frame of ``fac`` by the angle route."""
    etas, _ = ref_angle_eta(state, fac)
    u = np.concatenate([fac.U0[None], fac.U[:fac.retained]])
    spectra = np.concatenate([fac.F0[None], fac.lam[:fac.retained]])
    return lagrange._guarded_quotients(np.swapaxes(u, 1, 2) @ etas, spectra)


# Models whose frames sit where the angle chart is singular: identity-like,
# block-diagonal or signed-permutation orbital frames. The angle route misses
# the direct oracle on each of them; the chart-free multipliers do not.

def with_effective_one_body(ham: Hamiltonian, diag) -> Hamiltonian:
    """``ham`` with its one-body part set so that its effective one-body
    operator is diag(diag): h = diag - (direct - exchange / 2)."""
    eri = ham.two_body
    direct, exchange = np.einsum("pqrr->pq", eri), np.einsum("prqr->pq", eri)
    h = np.diag(np.asarray(diag, dtype=float)) - (direct - 0.5 * exchange)
    return Hamiltonian(ham.n_orbitals, ham.n_alpha, ham.n_beta, ham.core_energy, h, eri)


def z2_masked(ham: Hamiltonian, irreps) -> Hamiltonian:
    """``ham`` with every integral that breaks a Z2 symmetry zeroed: h[p, q]
    survives when orbitals p and q share an irrep, (pq|rs) when the four
    irreps sum to an even number."""
    ir = np.asarray(irreps)
    h = np.where(ir[:, None] == ir[None, :], ham.one_body, 0.0)
    parity = np.add.outer(np.add.outer(ir, ir), np.add.outer(ir, ir)) % 2
    eri = np.where(parity == 0, ham.two_body, 0.0)
    return Hamiltonian(ham.n_orbitals, ham.n_alpha, ham.n_beta, ham.core_energy, h, eri)


SINGULAR_CHART_CASES = {
    "diagonal-3-1-1-2": lambda: with_effective_one_body(
        hammodel.synth_hamiltonian(3, 1, 1, 2), [-2.0, -1.0, 0.5]),
    "diagonal-4-2-2-13": lambda: with_effective_one_body(
        hammodel.synth_hamiltonian(4, 2, 2, 13), [-2.0, -1.0, 0.5, 1.5]),
    # eigh orders diag(-2, 1.5, 0.5, -1) as an odd permutation, which the
    # sign fix turns into a signed permutation
    "permuted-diagonal-4-2-2-13": lambda: with_effective_one_body(
        hammodel.synth_hamiltonian(4, 2, 2, 13), [-2.0, 1.5, 0.5, -1.0]),
    "z2-contiguous-4-2-2-13": lambda: z2_masked(
        hammodel.synth_hamiltonian(4, 2, 2, 13), [0, 0, 1, 1]),
    "z2-contiguous-6-2-2-4": lambda: z2_masked(
        hammodel.synth_hamiltonian(6, 2, 2, 4), [0, 0, 0, 1, 1, 1]),
    "z2-interleaved-6-2-2-4": lambda: z2_masked(
        hammodel.synth_hamiltonian(6, 2, 2, 4), [0, 1, 0, 1, 0, 1]),
}


def random_sector_state(fac: xdf.XDFFactorization, seed: int,
                        n_rounds: int = 3) -> qsim.Statevector:
    """Generic normalized state in the factorization's electron sector."""
    rng = np.random.default_rng(seed)
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    state = qsim.hf_reference(n, n_alpha, n_beta)
    for _ in range(n_rounds):
        u = random_special_orthogonal(n, int(rng.integers(1 << 30)))
        state = rotate_state(state, orbital_frame(u, state))
        psi = np.array(state.amplitudes)
        for p in range(n - 1):
            rotate_pair(psi.reshape(-1), *qsim.pair_exchange_rows(n, n_alpha, n_beta, p),
                        float(rng.uniform(-1.0, 1.0)))
        state = qsim.Statevector(n, n_alpha, n_beta, psi)
    return state


def ref_energy_and_gradient(fac: xdf.XDFFactorization, cfg: vqe.AnsatzConfig,
                            params: np.ndarray) -> tuple[float, np.ndarray]:
    """Ansatz energy and adjoint gradient on ``rotate_pair``, the rows kernel:
    alpha gates on the rows of Psi^T, beta gates on the rows of Psi and pair
    exchanges on the flat block, each un-applied to the ket and to lambda =
    H|psi> in turn, and every derivative read off the gate's generator."""
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    blocks = givens.brickwork(n, cfg.n_layers)
    rows = [(qsim.pair_rows(n, n_alpha, m), qsim.pair_rows(n, n_beta, m),
             qsim.pair_exchange_rows(n, n_alpha, n_beta, m)) for m in blocks]
    psi = np.array(qsim.hf_reference(n, n_alpha, n_beta).amplitudes)
    for i, (alpha, beta, pairs) in enumerate(rows):
        rotate_pair(psi.T, *alpha, params[2 * i])
        rotate_pair(psi, *beta, params[2 * i])
        rotate_pair(psi.reshape(-1), *pairs, params[2 * i + 1])
    lam = qsim.apply_hamiltonian(qsim.Statevector(n, n_alpha, n_beta, psi), fac)
    energy = float(np.vdot(psi, lam))

    def generator(bra, ket, a, b):
        return float(np.vdot(bra[b], ket[a]) - np.vdot(bra[a], ket[b]))

    grad = np.zeros(len(params))
    for i in reversed(range(len(blocks))):
        alpha, beta, pairs = rows[i]
        for vec in (psi.reshape(-1), lam.reshape(-1)):
            rotate_pair(vec, *pairs, -params[2 * i + 1])
        grad[2 * i + 1] = 2.0 * generator(lam.reshape(-1), psi.reshape(-1), *pairs)
        for block in (psi, lam):
            rotate_pair(block.T, *alpha, -params[2 * i])
            rotate_pair(block, *beta, -params[2 * i])
        grad[2 * i] = 2.0 * (generator(lam, psi, *beta) + generator(lam.T, psi.T, *alpha))
    return energy, grad


def ref_hessian(fac: xdf.XDFFactorization, cfg: vqe.AnsatzConfig,
                x: np.ndarray) -> np.ndarray:
    """``vqe._fd_hessian`` as a sequential loop: the central difference of
    single-point adjoint gradients, column by column, at x + h e_i and
    x - h e_i, then the same symmetrization."""
    h = 1e-5
    hess = np.zeros((x.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        hess[:, i] = (vqe._energy_and_gradient(fac, cfg, xp)[1]
                      - vqe._energy_and_gradient(fac, cfg, xm)[1]) / (2 * h)
    return 0.5 * (hess + hess.T)


def drive(steps, evaluate):
    """Runs ``steps``, a generator of vqe's solve loop (``_trust_region``,
    ``_fd_hessian``), to its end: each (B, P) stack of points it yields is
    sent ``evaluate(points)``, (B,) energies and (B, P) gradients. Returns
    what the generator returns."""
    reply = None
    while True:
        try:
            points = steps.send(reply)
        except StopIteration as done:
            return done.value
        reply = evaluate(points)


def pointwise(fun):
    """``drive``'s ``evaluate`` from a plain function, point -> (f, g),
    called once per row."""
    def evaluate(points):
        energies, grads = zip(*map(fun, points))
        return np.array(energies), np.array(grads)
    return evaluate


def fd_hessian(fac: xdf.XDFFactorization, cfg: vqe.AnsatzConfig, x: np.ndarray) -> np.ndarray:
    """``vqe._fd_hessian`` at x, its stencil evaluated as ``vqe.lockstep``
    evaluates a group (``vqe._evaluate``)."""
    return drive(vqe._fd_hessian(x), lambda points: vqe._evaluate([fac] * len(points), cfg, points))


def sequential_regime_suite(ham: Hamiltonian, specs, perturbations,
                            ablate: str | None = None) -> list[verify.DerivativeReport]:
    """``verify.run_regime_suite`` as a loop of single solves, each through
    ``verify.run_pipeline``, in the order (regime, perturbation, stencil
    point). A regime starts at the grown point of its depth of the last
    earlier cold solve with its truncation, ansatz seed and tolerance that
    grew that deep. Each displaced point re-factorizes on its own and
    starts at the Lagrange polynomial through the stencil's last three
    solves, with the latest solve's curvature."""
    cold, reports = {}, []
    for regime in specs:
        shape = (regime.truncation, regime.ansatz_seed, regime.vqe_tol)
        grown = cold.get(shape, ())
        start = grown[regime.n_layers - 1] if 0 < regime.n_layers <= len(grown) else None
        base = verify.run_pipeline(ham, regime, start)
        if len(base.result.grown) > len(grown):
            cold[shape] = base.result.grown
        rdms = verify.relaxed_rdms(base, ablate=ablate)
        pinned = replace(regime, truncation=xdf.TruncationPolicy.by_count(base.fac.retained))
        for pert in perturbations:
            analytic = verify.analytic_energy_derivative(base, pert, rdms)
            solved = deque([(0.0, base.result)], maxlen=3)

            def displaced_energy(eps, pert=pert, solved=solved, base=base, regime=regime,
                                 pinned=pinned):
                start = 0.0
                for x_i, result in solved:
                    weight = math.prod((eps - x_j) / (x_i - x_j) for x_j, _ in solved if x_j != x_i)
                    start = start + weight * result.params
                pipe = verify.run_pipeline(hammodel.apply_perturbation(ham, pert, eps), pinned,
                                           start, solved[-1][1].curvature)
                solved.append((eps, pipe.result))
                verify._check_leaf_tracking(base.fac, pipe.fac, regime.truncation)
                return pipe.energy

            numerical = verify.five_point_derivative(displaced_energy, verify.FD_STEP)
            reports.append(verify.DerivativeReport(regime.name, pert.label, analytic, numerical,
                                                   abs(analytic - numerical)))
    return reports


# Reference kernel: the slice-based gates on the full 4^N vector that the
# sector-block kernel in qsim replaced. Tests compare the embedded blocks
# against it on these (N, n_alpha, n_beta, seed) cases.

KERNEL_CASES = [(2, 1, 1, 7), (3, 2, 1, 3), (4, 2, 2, 13), (5, 3, 2, 1), (6, 3, 3, 4)]

# Block-vs-reference cases beyond KERNEL_CASES: more open shells, and fillings
# whose spin has a single string (no electrons, or every orbital filled).
FILLING_CASES = [(4, 1, 3, 5), (3, 0, 2, 2), (4, 4, 1, 3), (3, 3, 3, 6), (2, 0, 0, 1)]


def _ref_pair_slices(n_qubits: int, bits_a: dict, bits_b: dict):
    """Index tuples of the (2,) * n_qubits view fixing the given qubit bits."""
    s_a = [slice(None)] * n_qubits
    s_b = [slice(None)] * n_qubits
    for qubit in bits_a:
        s_a[n_qubits - 1 - qubit] = bits_a[qubit]
        s_b[n_qubits - 1 - qubit] = bits_b[qubit]
    return tuple(s_a), tuple(s_b)


def _ref_rotate(amps: np.ndarray, n_qubits: int, s_a, s_b, theta: float) -> None:
    view = amps.reshape((2,) * n_qubits)
    c, s = np.cos(theta), np.sin(theta)
    old_a = view[s_a].copy()
    view[s_a] = c * old_a - s * view[s_b]
    view[s_b] = s * old_a + c * view[s_b]


def ref_rotate_pair(amps: np.ndarray, n_qubits: int, a: int, b: int, theta: float) -> None:
    """In-place number-conserving rotation on qubits (a, b):
    amp(a occupied) -> cos * amp(a) - sin * amp(b)."""
    _ref_rotate(amps, n_qubits, *_ref_pair_slices(n_qubits, {a: 1, b: 0}, {a: 0, b: 1}),
                theta)


def ref_pair_exchange(amps: np.ndarray, n: int, p: int, theta: float) -> None:
    """In-place rotation between the pairs doubly occupying p and p+1."""
    on_p = {p: 1, p + 1: 0, n + p: 1, n + p + 1: 0}
    on_next = {p: 0, p + 1: 1, n + p: 0, n + p + 1: 1}
    _ref_rotate(amps, 2 * n, *_ref_pair_slices(2 * n, on_p, on_next), theta)


def ref_apply_fabric(amps: np.ndarray, n: int, fabric: givens.GivensFabric,
                     dagger: bool = False) -> np.ndarray:
    """Spin-locked fabric gate by gate on a full vector; the dagger reverses
    and negates."""
    amps = np.array(amps)
    order = range(len(fabric.pivots))
    for g in (reversed(order) if dagger else order):
        m = fabric.pivots[g]
        theta = -fabric.angles[g] if dagger else fabric.angles[g]
        ref_rotate_pair(amps, 2 * n, m, m + 1, theta)
        ref_rotate_pair(amps, 2 * n, n + m, n + m + 1, theta)
    return amps


def ref_apply_hamiltonian(amps: np.ndarray, fac: xdf.XDFFactorization) -> np.ndarray:
    """Factorized Hamiltonian on a full vector, frame diagonals tabulated over
    all 4^N indices."""
    n = fac.n_orbitals
    bits = qsim.string_bits(2 * n).astype(float)
    occ = bits[:, :n] + bits[:, n:]
    z = 2.0 - 2.0 * occ  # Z_alpha + Z_beta per orbital
    out = fac.eff.scalar_offset * np.array(amps)
    diags = [(occ - 1.0) @ fac.F0]
    for z_mat in fac.Z[:fac.retained]:
        diags.append(0.125 * np.einsum("xk,kl,xl->x", z, z_mat, z) - 0.25 * np.trace(z_mat))
    for fabric, diag in zip(frame_fabrics(fac.frames), diags, strict=True):
        rotated = ref_apply_fabric(amps, n, fabric, dagger=True)
        out += ref_apply_fabric(diag * rotated, n, fabric)
    return out


def ref_densities(amps: np.ndarray, fac: xdf.XDFFactorization):
    """omega0 and the retained leaves' omega of a full vector: moments of
    Z_alpha + Z_beta per orbital over the weights in each frame's basis."""
    n = fac.n_orbitals
    bits = qsim.string_bits(2 * n).astype(float)
    z = 2.0 - 2.0 * (bits[:, :n] + bits[:, n:])
    fabric0, *leaf_fabrics = frame_fabrics(fac.frames)
    weights = np.abs(ref_apply_fabric(amps, n, fabric0, dagger=True)) ** 2
    omega0 = -0.5 * (weights @ z)
    omegas = []
    for fabric in leaf_fabrics:
        weights = np.abs(ref_apply_fabric(amps, n, fabric, dagger=True)) ** 2
        omegas.append(((z.T * weights) @ z - 2.0 * np.eye(n)) / 8.0)
    return omega0, omegas


def ref_ansatz_state(fac: xdf.XDFFactorization, blocks, alpha, beta,
                     exchange) -> np.ndarray:
    """Full vector of the ansatz circuit with separate alpha and beta
    orbital-rotation angles."""
    n = fac.n_orbitals
    amps = qsim.hf_reference(n, fac.n_alpha, fac.n_beta).embed()
    for i, m in enumerate(blocks):
        ref_rotate_pair(amps, 2 * n, m, m + 1, alpha[i])
        ref_rotate_pair(amps, 2 * n, n + m, n + m + 1, beta[i])
        ref_pair_exchange(amps, n, m, exchange[i])
    return amps


def ansatz_gradient(fac: xdf.XDFFactorization, cfg: vqe.AnsatzConfig,
                    params: np.ndarray) -> np.ndarray:
    """Shift-rule gradient of the energy with respect to the ansatz angles.

    Orbital-rotation angles unlock their two spin halves (eight evaluations);
    pair-exchange angles use the two-frequency rule directly (four). This is
    the referee of the adjoint gradient in vqe.
    """
    params = np.asarray(params, dtype=float)
    blocks = givens.brickwork(fac.n_orbitals, cfg.n_layers)
    locked, exchange = params[0::2], params[1::2]
    grad = np.zeros_like(params)

    def energy(alpha, beta, exch):
        return verify.density_energy(from_full(ref_ansatz_state(fac, blocks, alpha, beta, exch),
                                               fac.n_orbitals), fac)

    for i in range(len(blocks)):
        for step, coeff in verify.SHIFT_STEPS:
            for sign in (1.0, -1.0):
                shift = np.zeros(len(blocks))
                shift[i] = sign * step
                grad[2 * i + 1] += sign * coeff * energy(locked, locked, exchange + shift)
                grad[2 * i] += sign * coeff * (energy(locked + shift, locked, exchange)
                                               + energy(locked, locked + shift, exchange))
    return grad


# Standard fixtures referenced across the suite and the acceptance criteria.

def regime_fixture() -> Hamiltonian:
    """N=4 (2e alpha, 2e beta): 10 leaves; converged VQE needs 8 layers."""
    return hammodel.synth_hamiltonian(4, 2, 2, 13)


REGIME_LAYERS_BIG = 8
REGIME_LAYERS_SMALL = 2
REGIME_TRUNCATED_COUNT = 4


def ablation_fixture() -> Hamiltonian:
    """Standard fixture for the multiplier-ablation study (strict ordering)."""
    return shaped_hamiltonian(4, 2, 2, 11)


ABLATION_LAYERS = 4
ABLATION_TRUNCATED_COUNT = 4


def path_fixtures() -> tuple[Hamiltonian, Hamiltonian]:
    return (hammodel.synth_hamiltonian(3, 1, 1, 2),
            hammodel.synth_hamiltonian(3, 1, 1, 8))


PATH_LAYERS = 3
PATH_DT = 0.005
PATH_MASS = 10.0
PATH_S0 = 0.3
PATH_V0 = 0.05
PATH_VQE_TOL = 1e-8
