"""Independent oracles and end-to-end validation campaigns.

Everything here deliberately avoids the leaf-frame machinery where possible:
dense contractions, a dense ground state, finite differences of re-run
pipelines, and symplectic dynamics act as external referees for the analytic
derivative chain. No production module imports this one.

The paper's angle route is here too, on the referees' own rotations.
Production holds no angle, so both angle referees compile each frame's
orbital matrix into its fabric themselves, one ``givens.decompose`` call
per frame. One plain plane-rotation sweep per fabric (``_fabric_sweep``)
gives ``jacobian`` and the chain rule of ``angle_gradients`` from
production's orbital-rotation gradients, and the shift rule
``denergy_dtheta_shift`` takes its per-spin operators from determinant
minors. No gate kernel and no ``givens.reconstruct`` is used here.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import lagrange, qsim, vqe
from .givens import GivensFabric, brickwork, decompose, lower_indices
from .hammodel import Hamiltonian, Perturbation, apply_perturbation, interpolate
from .vqe import AnsatzConfig
from .xdf import TruncationPolicy, XDFFactorization, factorize

__all__ = [
    "RegimeSpec",
    "DerivativeReport",
    "PathTrace",
    "Pipeline",
    "NonConvergence",
    "TruncationBoundaryError",
    "LossinessReport",
    "dense_energy",
    "density_energy",
    "exact_ground_state",
    "jacobian",
    "angle_gradients",
    "denergy_dtheta_shift",
    "five_point_derivative",
    "run_pipeline",
    "relaxed_rdms",
    "analytic_energy_derivative",
    "fd_energy_derivative",
    "run_regime_suite",
    "format_reports",
    "verlet_path",
    "projection_lossiness_demo",
]

FD_STEP = 1e-3
DERIVATIVE_TOL = 1e-6
SUBSPACE_DRIFT_TOL = 0.1

# Exact first-derivative rule for a plane-rotation gate, whose conjugation
# carries both single and double angle frequencies: two symmetric
# differences at pi/4 and pi/2, as (step, coefficient) pairs.
SHIFT_STEPS = ((np.pi / 4.0, 1.0), (np.pi / 2.0, (1.0 - np.sqrt(2.0)) / 2.0))


class NonConvergence(RuntimeError):
    """A VQE solve stopped above its gradient tolerance."""


class TruncationBoundaryError(RuntimeError):
    """Retained leaf set changed between displaced factorizations."""


@dataclass(frozen=True)
class RegimeSpec:
    """One of the four X-DF/VQE exactness combinations."""

    name: str
    truncation: TruncationPolicy
    n_layers: int
    ansatz_seed: int = 3
    vqe_tol: float = 1e-9

    @classmethod
    def grid(cls, exact_layers: int, approx_layers: int,
             truncated: TruncationPolicy, ansatz_seed: int = 3,
             vqe_tol: float = 1e-9):
        """The standard four-regime grid: {exact, truncated} x {converged, approximate}."""
        exact = TruncationPolicy.exact()
        return (
            cls("exact-converged", exact, exact_layers, ansatz_seed, vqe_tol),
            cls("truncated-converged", truncated, exact_layers, ansatz_seed, vqe_tol),
            cls("exact-approximate", exact, approx_layers, ansatz_seed, vqe_tol),
            cls("truncated-approximate", truncated, approx_layers, ansatz_seed, vqe_tol),
        )


@dataclass(frozen=True)
class DerivativeReport:
    regime: str
    perturbation: str
    analytic: float
    numerical: float
    abs_diff: float

    def passed(self) -> bool:
        return self.abs_diff < DERIVATIVE_TOL


@dataclass(frozen=True, eq=False)
class PathTrace:
    """Per-step energies of a model-coordinate dynamics run; ``aborted`` is
    the error that stopped it after ``completed`` steps, or None."""

    s: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    total: np.ndarray
    completed: int
    aborted: Exception | None = None

    def drift(self) -> float:
        return float(np.max(np.abs(self.total - self.total[0])))

    def relative_drift(self) -> float:
        """Drift over |E_0|; the absolute drift when E_0 is exactly 0."""
        return self.drift() / (abs(float(self.total[0])) or 1.0)

    def secular_slope(self) -> float:
        """Least-squares slope of the total energy against the step index."""
        steps = np.arange(len(self.total))
        return float(np.polyfit(steps, self.total, 1)[0])


@dataclass(frozen=True, eq=False)
class Pipeline:
    """One fully converged factorize + optimize run on a Hamiltonian. Its
    ``state`` is prepared on first read: a finite-difference point reads
    only the energy."""

    fac: XDFFactorization
    result: vqe.VQEResult
    cfg: AnsatzConfig

    @property
    def energy(self) -> float:
        return self.result.energy

    @cached_property
    def state(self) -> qsim.Statevector:
        return vqe.prepare_state(self.fac, self.cfg, self.result.params)


def dense_energy(ham: Hamiltonian, gamma: np.ndarray, big_gamma: np.ndarray) -> float:
    """Reference contraction E_c + h : gamma + (pq|rs) : Gamma."""
    return (ham.core_energy + float(np.sum(ham.one_body * gamma))
            + float(np.sum(ham.two_body * big_gamma)))


def density_energy(state: qsim.Statevector, fac: XDFFactorization) -> float:
    """Eigenbasis-density energy offset + F0 . omega0 + sum_t Z_t : omega_t,
    from the densities of ``qsim.measure_densities``."""
    omegas = qsim.measure_densities(state, fac)
    total = fac.eff.scalar_offset + float(fac.F0 @ omegas.omega0)
    for z, omega_t in zip(fac.Z[:fac.retained], omegas.omega):
        total += float(np.sum(z * omega_t))
    return total


def exact_ground_state(fac: XDFFactorization) -> tuple[qsim.Statevector, float]:
    """Lowest eigenstate of the factorized Hamiltonian in the electron sector.

    The dense matrix is built column by column from ``qsim.apply_hamiltonian``
    on the block's basis states. Degeneracies are broken deterministically by
    fixing the sign of the first significant amplitude.
    """
    filling = (fac.n_orbitals, fac.n_alpha, fac.n_beta)
    shape = qsim.sector_shape(*filling)
    hmat = np.array([qsim.apply_hamiltonian(qsim.Statevector(*filling, col.reshape(shape)),
                                            fac).reshape(-1)
                     for col in np.eye(shape[0] * shape[1])]).T
    hmat = 0.5 * (hmat + hmat.T)
    evals, evecs = np.linalg.eigh(hmat)
    vec = evecs[:, 0]
    lead = np.nonzero(np.abs(vec) > 1e-8)[0]
    if lead.size and vec[lead[0]] < 0:
        vec = -vec
    return qsim.Statevector(*filling, vec.reshape(shape)), float(evals[0])


def _fabric_sweep(n: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One n-orbital fabric at the (K,) ``angles``, its gates applied in order
    to the rows of the identity as plain plane rotations: the product U and
    the (K, n, n) stack of U^T dU/dtheta_g = outer(P[m+1], P[m]) - outer(P[m],
    P[m+1]), with P the product of the gates before gate g on (m, m+1)."""
    u = np.eye(n)
    x = np.empty((len(angles), n, n))
    for g, (m, theta) in enumerate(zip(brickwork(n, n), angles)):
        x[g] = np.outer(u[m + 1], u[m]) - np.outer(u[m], u[m + 1])
        c, s = np.cos(theta), np.sin(theta)
        u[m], u[m + 1] = c * u[m] - s * u[m + 1], s * u[m] + c * u[m + 1]
    return u, x


def jacobian(fabric: GivensFabric) -> np.ndarray:
    """Angle derivatives of one fabric's matrix's strictly-lower triangle:
    entry [g, c] is the derivative of entry c of ``lower_indices(N)`` by
    angle g, a K x K matrix."""
    u, x = _fabric_sweep(fabric.n, fabric.angles)
    rows, cols = lower_indices(fabric.n)
    return (u @ x)[:, rows, cols]


def angle_gradients(state: qsim.Statevector, fac: XDFFactorization) -> np.ndarray:
    """Energy derivatives of each frame of ``fac.frames`` by all of the
    angles of its fabric (``decompose`` of its orbital frame), one row per
    frame, from production's orbital-rotation gradients G[a, b]
    (``qsim.measure_densities``) by the chain rule: dE/dtheta_g = sum over a
    > b of G[a, b] (U^T dU/dtheta_g)[a, b], each frame on its own
    ``_fabric_sweep``."""
    n = fac.frames.U.shape[1]
    rows, cols = lower_indices(n)
    return np.array([_fabric_sweep(n, decompose(u).angles)[1][:, rows, cols] @ g_ab
                     for u, g_ab in zip(fac.frames.U,
                                        qsim.measure_densities(state, fac).gradients,
                                        strict=True)])


def _spin_operator(u: np.ndarray) -> np.ndarray:
    """Per-spin operator of the orbital rotation u on all 2^n strings: on the
    strings I, J of one filling the minor det u[I, J] of their occupied
    orbitals (the filling's compound matrix of u), zero across fillings."""
    n = len(u)
    op = np.zeros((1 << n, 1 << n))
    for filling in range(n + 1):
        strings = qsim.sector_strings(n, filling)
        occ = np.nonzero(qsim.string_bits(n)[strings])[1].reshape(len(strings), filling)
        op[np.ix_(strings, strings)] = np.linalg.det(
            u[occ[:, None, :, None], occ[None, :, None, :]])
    return op


def denergy_dtheta_shift(state: qsim.Statevector, fac: XDFFactorization,
                         f: int, g: int) -> float:
    """Shift-rule energy derivative with respect to angle g of the fabric of
    frame f of ``fac.frames`` (``decompose`` of its orbital frame).

    The spin-locked pair is unlocked and each spin's gate is differentiated
    with the exact two-frequency rule (``SHIFT_STEPS``), eight evaluations in
    total. Every evaluation runs on the embedded 2^N x 2^N amplitude matrix
    with full per-spin operators (``_spin_operator``), built per call.
    """
    frames = fac.frames
    if not 0 <= f < len(frames.U):
        raise ValueError(f"frame index {f} out of range")
    row = decompose(frames.U[f]).angles
    if not 0 <= g < len(row):
        raise ValueError(f"angle index {g} out of range")
    if (state.n_alpha, state.n_beta) != (frames.n_alpha, frames.n_beta):
        raise ValueError(f"state filling ({state.n_alpha}, {state.n_beta}) differs from "
                         f"frame filling ({frames.n_alpha}, {frames.n_beta})")
    n = state.n_spatial
    psi = state.embed().reshape(1 << n, 1 << n)
    block = np.ix_(qsim.sector_strings(n, state.n_beta), qsim.sector_strings(n, state.n_alpha))
    unshifted = _spin_operator(_fabric_sweep(n, row)[0])
    total = 0.0
    for step, coeff in SHIFT_STEPS:
        for sign in (1.0, -1.0):
            angles = row.copy()
            angles[g] += sign * step
            shifted = _spin_operator(_fabric_sweep(n, angles)[0])
            # alpha gate shifted (columns), then beta gate shifted (rows)
            for rotated in (unshifted.T @ psi @ shifted, shifted.T @ psi @ unshifted):
                total += sign * coeff * float(np.sum(frames.D[f] * np.abs(rotated[block]) ** 2))
    return total


def five_point_derivative(f, step: float) -> float:
    """5-point central first derivative of a callable at zero."""
    return (f(-2 * step) - 8.0 * f(-step) + 8.0 * f(step) - f(2 * step)) / (12.0 * step)


def _built_once(built: dict | None, key, build):
    """``build()``, or with a ``built`` dict the value stored under ``key``,
    built and stored on first request. The records used in keys hash by
    identity, so a key names the very objects it was made from."""
    if built is None:
        return build()
    if key not in built:
        built[key] = build()
    return built[key]


def _pipeline(ham: Hamiltonian, regime: RegimeSpec, start: np.ndarray | None = None,
              curvature: np.ndarray | None = None, built: dict | None = None):
    """``run_pipeline`` as a ``vqe.lockstep`` task: a generator that runs
    its solve (``vqe.solve_task``) and returns the ``Pipeline``."""
    fac = _built_once(built, ham, lambda: factorize(ham, regime.truncation))
    count = regime.truncation.retained_count(fac.g)
    if count != fac.retained:
        fac = _built_once(built, (ham, count), lambda: replace(fac, retained=count))
    cfg = AnsatzConfig(regime.n_layers, regime.ansatz_seed)
    result = yield from vqe.solve_task(fac, cfg, regime.vqe_tol, start, curvature)
    if not result.converged:
        raise NonConvergence(
            f"VQE did not reach gradient {regime.vqe_tol:.1e} in regime {regime.name}")
    return Pipeline(fac, result, cfg)


def run_pipeline(ham: Hamiltonian, regime: RegimeSpec, start: np.ndarray | None = None,
                 curvature: np.ndarray | None = None, *, built: dict | None = None) -> Pipeline:
    """Factorize and optimize; with a ``start`` the VQE solve is warm, from
    that point with that ``curvature``, else cold (see vqe.optimize).

    ``built`` shares factorizations across the calls given it: each
    Hamiltonian is factorized once, by the first policy asked of it, and a
    policy that retains another leaf count takes that factorization with
    its own count, built once per count. ``factorize`` keeps every leaf and
    depends on the policy only through the count, so this is bitwise
    ``factorize(ham, regime.truncation)``.
    """
    return vqe.lockstep([_pipeline(ham, regime, start, curvature, built)])[0]


def _held(task):
    """``task``, returning the exception that ends it in place of raising it."""
    try:
        return (yield from task)
    except Exception as exc:
        return exc


def relaxed_rdms(pipe: Pipeline, ablate: str | None = None) -> lagrange.RelaxedRDMs:
    return lagrange.reconstruct_rdms(pipe.fac, pipe.state, ablate=ablate,
                                     stationarity_grad=pipe.result.grad_norm)


def analytic_energy_derivative(pipe: Pipeline, pert: Perturbation,
                               rdms: lagrange.RelaxedRDMs | None = None) -> float:
    """Integral-space directional derivative from the relaxed densities,
    E_core' + h' : gamma + (pq|rs)' : Gamma. Refuses a perturbation whose
    parts do not fit the model's orbital count."""
    pert.check_shape(pipe.fac.n_orbitals)
    if rdms is None:
        rdms = relaxed_rdms(pipe)
    return (pert.core + float(np.sum(rdms.gamma_sym * pert.one_body))
            + float(np.sum(rdms.Gamma_sym * pert.two_body)))


def _retained_subspace(fac: XDFFactorization) -> np.ndarray:
    vecs = fac.V[:fac.retained].reshape(fac.retained, fac.n_orbitals ** 2)
    return vecs.T @ vecs


def _check_leaf_tracking(base: XDFFactorization, displaced: XDFFactorization,
                         truncation: TruncationPolicy) -> None:
    """Raise if the regime's own (unpinned) policy keeps another leaf count
    at the displaced point, or if the retained leaf subspace moved."""
    count = truncation.retained_count(displaced.g)
    if count != base.retained:
        raise TruncationBoundaryError(f"retained count changed {base.retained} -> {count}")
    drift = np.linalg.norm(_retained_subspace(base) - _retained_subspace(displaced))
    if drift > SUBSPACE_DRIFT_TOL:
        raise TruncationBoundaryError(
            f"retained leaf subspace moved by {drift:.3e} across the stencil")


def _predicted_start(solved: deque, at: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The warm start of the point ``at`` of a sequence of nearby
    Hamiltonians, from the sequence's last (up to three) solves:
    ``solved``, a ``deque(maxlen=3)`` of (coordinate, ``VQEResult``) pairs,
    oldest first. The start is the Lagrange polynomial through those points,
    at ``at``, with the latest solve's curvature."""
    start = 0.0
    for x_i, result in solved:
        weight = math.prod((at - x_j) / (x_i - x_j) for x_j, _ in solved if x_j != x_i)
        start = start + weight * result.params
    return start, solved[-1][1].curvature


def _predicted_solve(ham: Hamiltonian, regime: RegimeSpec, solved: deque, at: float,
                     built: dict | None = None) -> Pipeline:
    """The pipeline of ``ham``, the point ``at`` of a sequence of nearby
    Hamiltonians, solved from ``_predicted_start``; its own pair is then
    appended to ``solved``."""
    pipe = run_pipeline(ham, regime, *_predicted_start(solved, at), built=built)
    solved.append((at, pipe.result))
    return pipe


def _fd_stencil(ham: Hamiltonian, pert: Perturbation, regime: RegimeSpec, eps_step: float,
                base: Pipeline, built: dict | None):
    """``fd_energy_derivative`` as a ``vqe.lockstep`` task: one solve per
    displaced point, in the order ``five_point_derivative`` reads them;
    returns the derivative."""
    pinned = replace(regime, truncation=TruncationPolicy.by_count(base.fac.retained))
    solved = deque([(0.0, base.result)], maxlen=3)
    energies = {}
    for eps in (-2 * eps_step, -eps_step, eps_step, 2 * eps_step):
        displaced = _built_once(built, (ham, pert, eps),
                                lambda: apply_perturbation(ham, pert, eps))
        pipe = yield from _pipeline(displaced, pinned, *_predicted_start(solved, eps), built)
        solved.append((eps, pipe.result))
        _check_leaf_tracking(base.fac, pipe.fac, regime.truncation)
        energies[eps] = pipe.energy
    return five_point_derivative(energies.__getitem__, eps_step)


def fd_energy_derivative(ham: Hamiltonian, pert: Perturbation, regime: RegimeSpec,
                         eps_step: float = FD_STEP,
                         base: Pipeline | None = None, *, built: dict | None = None) -> float:
    """5-point central difference of the full pipeline energy along eps.

    Every displaced evaluation re-factorizes with the base retained count and
    re-optimizes from a predicted start (``_predicted_start``): the Lagrange
    polynomial in eps through the last (up to three) solved points of the
    stencil, the base point at eps = 0 counted as the first, with the
    latest solve's curvature. A change in the leaf count the regime's own
    policy keeps, or in the retained subspace, across the stencil is a hard
    error. A displaced point reads only the energy, so it prepares no
    state. ``built`` shares the displaced Hamiltonians and their
    factorizations, one per Hamiltonian (``run_pipeline``), across the
    calls given it. This is ``run_regime_suite``'s stencil code run on one
    stencil.
    """
    if base is None:
        base = run_pipeline(ham, regime)
    return vqe.lockstep([_fd_stencil(ham, pert, regime, eps_step, base, built)])[0]


def run_regime_suite(ham: Hamiltonian, specs, perturbations,
                     ablate: str | None = None) -> list[DerivativeReport]:
    """Analytic-vs-numerical derivative reports over regimes and perturbations.

    The regimes share what they would otherwise repeat, each piece built
    once for the rest of this call. All of them displace ``ham`` along the
    same perturbations and steps, so each displaced Hamiltonian is built
    once, and factorized once, every policy taking its retained prefix
    (``run_pipeline``). A regime with the same truncation, ansatz seed and
    tolerance as an earlier cold solve, at no greater depth, starts at that
    solve's grown point of its depth (``vqe.VQEResult.grown``), with no
    curvature: the cold path from the same start, without the growth. The
    key keeps the truncation: on the regime fixture at 8 layers, a
    truncated solve started at the exact regime's grown point ends at
    another stationary point than its own cold solve, 1.9e-4 Ha higher in
    6 of 7 seeds. Every regime still runs its own solves and leaf-tracking
    checks, and prepares one state, its base pipeline's.

    Independent solves run in lockstep (``vqe.lockstep``), with the bits
    of one solve after another. The base pipelines run in two waves: the
    cold regimes, then the regimes seeded from a first-wave grown point;
    which seeds from which is fixed by the specs alone. Then every
    (regime, perturbation) stencil runs as its own task, all of them
    together; a stencil solves its displaced points in order, each start
    predicted from its own earlier solves. An error raised is the first one
    of the sequential order (regime, perturbation, stencil point), as a
    loop of single solves would raise it.
    """
    specs = list(specs)
    built, cold, grown_from = {}, {}, {}
    for r, regime in enumerate(specs):
        shape = (regime.truncation, regime.ansatz_seed, regime.vqe_tol)
        depth, source = cold.get(shape, (0, None))
        if 0 < regime.n_layers <= depth:
            grown_from[r] = source
        elif (regime.n_layers > depth
              and vqe.n_parameters(ham.n_orbitals, AnsatzConfig(regime.n_layers)) > 0):
            cold[shape] = (regime.n_layers, r)
    first = [r for r in range(len(specs)) if r not in grown_from]
    bases = dict(zip(first, vqe.lockstep([_held(_pipeline(ham, specs[r], built=built))
                                          for r in first])))
    second = [r for r, source in grown_from.items() if isinstance(bases[source], Pipeline)]
    bases.update(zip(second, vqe.lockstep([
        _held(_pipeline(ham, specs[r], bases[grown_from[r]].result.grown[specs[r].n_layers - 1],
                        built=built)) for r in second])))

    rows, stencils, error = [], [], None
    try:
        for r, regime in enumerate(specs):
            base = bases[r]
            if isinstance(base, Exception):
                raise base
            rdms = relaxed_rdms(base, ablate=ablate)
            for pert in perturbations:
                rows.append((regime.name, pert.label, analytic_energy_derivative(base, pert, rdms)))
                stencils.append(_fd_stencil(ham, pert, regime, FD_STEP, base, built))
    except Exception as exc:  # raised after the stencils before it, whose errors come first
        error = exc
    numerical = vqe.lockstep(stencils)
    if error is not None:
        raise error
    return [DerivativeReport(name, label, analytic, fd, abs(analytic - fd))
            for (name, label, analytic), fd in zip(rows, numerical, strict=True)]


def format_reports(reports) -> str:
    """Plain-text derivative listing, one row per regime/perturbation pair."""
    lines = [f"{'regime':<24} {'perturbation':<16} {'analytic':>16} "
             f"{'numerical':>16} {'abs diff':>12}  status"]
    for r in reports:
        status = "pass" if r.passed() else "FAIL"
        lines.append(f"{r.regime:<24} {r.perturbation:<16} {r.analytic:>16.10f} "
                     f"{r.numerical:>16.10f} {r.abs_diff:>12.3e}  {status}")
    return "\n".join(lines)


def verlet_path(ham_a: Hamiltonian, ham_b: Hamiltonian, n_steps: int, dt: float,
                mass: float = 1.0, regime: RegimeSpec | None = None,
                s0: float = 0.5, v0: float = 0.0,
                ablate: str | None = None) -> PathTrace:
    """Velocity Verlet on the interpolation coordinate s.

    The potential is the pipeline energy at H(s); the force is the analytic
    derivative along H_B - H_A. A consistent energy/force pair conserves
    kinetic + potential; response errors show up as drift or instability.
    Each step's solve is a predicted warm solve (``_predicted_solve``) in
    the step index: from the parameters extrapolated through the last (up to
    three) steps, 3 p_k - 3 p_{k-1} + p_{k-2} (2 p_k - p_{k-1} at the second
    step), with the previous step's curvature.
    """
    if regime is None:
        regime = RegimeSpec("path", TruncationPolicy.exact(), n_layers=3)
    start = interpolate(ham_a, ham_b, s0)  # refuses incompatible models first
    direction = Perturbation(ham_b.one_body - ham_a.one_body, ham_b.two_body - ham_a.two_body,
                             core=ham_b.core_energy - ham_a.core_energy)

    def acceleration(pipe: Pipeline) -> float:
        rdms = relaxed_rdms(pipe, ablate=ablate)
        return -analytic_energy_derivative(pipe, direction, rdms) / mass

    s_hist = [s0]
    pipe = run_pipeline(start, regime)
    accel = acceleration(pipe)
    kin = [0.5 * mass * v0 * v0]
    pot = [pipe.energy]
    aborted = None
    s, v = s0, v0
    completed = 0
    solved = deque([(0, pipe.result)], maxlen=3)
    for step in range(n_steps):
        try:
            s_new = s + v * dt + 0.5 * accel * dt * dt
            pipe = _predicted_solve(interpolate(ham_a, ham_b, s_new), regime, solved, step + 1)
            accel_new = acceleration(pipe)
            v = v + 0.5 * (accel + accel_new) * dt
            s, accel = s_new, accel_new
        except (RuntimeError, ValueError) as exc:
            aborted = exc
            break
        s_hist.append(s)
        kin.append(0.5 * mass * v * v)
        pot.append(pipe.energy)
        completed = step + 1
    kin = np.array(kin)
    pot = np.array(pot)
    return PathTrace(np.array(s_hist), kin, pot, kin + pot, completed, aborted)


@dataclass(frozen=True)
class LossinessReport:
    defining_gap: float
    probe_gap: float
    idempotency_gap: float
    commutator_norm: float


def projection_lossiness_demo(a: np.ndarray, b: np.ndarray,
                              c: np.ndarray) -> LossinessReport:
    """Diagonal projection keeps A:B contractions exact but loses C:B ones.

    B is replaced by its diagonal projection in A's eigenbasis; the A
    contraction is invariant, while a probe C that does not commute with A
    sees a different value. This is why eigenbasis densities alone cannot
    provide derivatives.
    """
    for name, m in (("A", a), ("B", b), ("C", c)):
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError(f"{name} must be symmetric")
    _, u = np.linalg.eigh(a)
    b_proj = (u * np.diag(u.T @ b @ u)) @ u.T
    b_proj2 = (u * np.diag(u.T @ b_proj @ u)) @ u.T
    return LossinessReport(
        defining_gap=abs(float(np.sum(a * b)) - float(np.sum(a * b_proj))),
        probe_gap=abs(float(np.sum(c * b)) - float(np.sum(c * b_proj))),
        idempotency_gap=float(np.max(np.abs(b_proj - b_proj2))),
        commutator_norm=float(np.linalg.norm(a @ c - c @ a)),
    )
