"""Independent oracles and end-to-end validation campaigns.

Everything here deliberately avoids the leaf-frame machinery where possible:
dense contractions, finite differences of re-run pipelines, and symplectic
dynamics act as external referees for the analytic derivative chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lagrange, qsim, vqe
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
    "dense_energy",
    "run_pipeline",
    "analytic_energy_derivative",
    "fd_energy_derivative",
    "run_regime_suite",
    "verlet_path",
    "projection_lossiness_demo",
]

FD_STEP = 1e-3
DERIVATIVE_TOL = 1e-6
SUBSPACE_DRIFT_TOL = 0.1


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

    def passed(self, tol: float = DERIVATIVE_TOL) -> bool:
        return self.abs_diff < tol


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
        return self.drift() / abs(self.total[0])

    def secular_slope(self) -> float:
        """Least-squares slope of the total energy against the step index."""
        steps = np.arange(len(self.total))
        return float(np.polyfit(steps, self.total, 1)[0])


@dataclass(frozen=True, eq=False)
class Pipeline:
    """One fully converged factorize + optimize run on a Hamiltonian."""

    fac: XDFFactorization
    result: vqe.VQEResult
    state: qsim.Statevector

    @property
    def energy(self) -> float:
        return self.result.energy


def dense_energy(ham: Hamiltonian, gamma: np.ndarray, big_gamma: np.ndarray) -> float:
    """Reference contraction E_c + h : gamma + (pq|rs) : Gamma."""
    return (ham.core_energy + float(np.sum(ham.one_body * gamma))
            + float(np.sum(ham.two_body * big_gamma)))


def five_point_derivative(f, step: float) -> float:
    """5-point central first derivative of a callable at zero."""
    return (f(-2 * step) - 8.0 * f(-step) + 8.0 * f(step) - f(2 * step)) / (12.0 * step)


def run_pipeline(ham: Hamiltonian, regime: RegimeSpec,
                 seed: vqe.VQEResult | None = None) -> Pipeline:
    """Factorize and optimize; ``seed`` warm-starts the VQE (see vqe.optimize)."""
    fac = factorize(ham, regime.truncation)
    cfg = AnsatzConfig(regime.n_layers, regime.ansatz_seed)
    result = vqe.optimize(fac, cfg, tol=regime.vqe_tol, seed=seed)
    if not result.converged:
        raise NonConvergence(
            f"VQE did not reach gradient {regime.vqe_tol:.1e} in regime {regime.name}")
    state = vqe.prepare_state(fac, cfg, result.params)
    return Pipeline(fac, result, state)


def relaxed_rdms(pipe: Pipeline, ablate: str | None = None) -> lagrange.RelaxedRDMs:
    rdms, _ = lagrange.reconstruct_rdms(
        pipe.fac, pipe.state, ablate=ablate,
        stationarity_grad=pipe.result.grad_norm)
    return rdms


def analytic_energy_derivative(pipe: Pipeline, pert: Perturbation,
                               rdms: lagrange.RelaxedRDMs | None = None) -> float:
    """Integral-space directional derivative from the relaxed densities."""
    if rdms is None:
        rdms = relaxed_rdms(pipe)
    if pert.kind == "one_body":
        return float(np.sum(rdms.gamma_sym * pert.tensor))
    return float(np.sum(rdms.Gamma_sym * pert.tensor))


def _retained_subspace(fac: XDFFactorization) -> np.ndarray:
    vecs = fac.V[:fac.retained].reshape(fac.retained, -1)
    return vecs.T @ vecs


def _check_leaf_tracking(base: XDFFactorization, displaced: XDFFactorization) -> None:
    if displaced.retained != base.retained:
        raise TruncationBoundaryError(
            f"retained count changed {base.retained} -> {displaced.retained}")
    if base.retained == 0:
        return
    drift = np.linalg.norm(_retained_subspace(base) - _retained_subspace(displaced))
    if drift > SUBSPACE_DRIFT_TOL:
        raise TruncationBoundaryError(
            f"retained leaf subspace moved by {drift:.3e} across the stencil")


def fd_energy_derivative(ham: Hamiltonian, pert: Perturbation, regime: RegimeSpec,
                         eps_step: float = FD_STEP,
                         base: Pipeline | None = None) -> float:
    """5-point central difference of the full pipeline energy along eps.

    Every displaced evaluation re-factorizes with the base retained count,
    re-seeds the optimizer from the base parameters, and re-optimizes with
    the most recent curvature built in the stencil; a retained-set change
    across the stencil is a hard error.
    """
    if base is None:
        base = run_pipeline(ham, regime)
    pinned = replace(regime, truncation=TruncationPolicy.by_count(base.fac.retained))

    curvature = base.result.curvature

    def displaced_energy(eps: float) -> float:
        nonlocal curvature
        displaced = apply_perturbation(ham, pert, eps)
        pipe = run_pipeline(displaced, pinned,
                            seed=replace(base.result, curvature=curvature))
        _check_leaf_tracking(base.fac, pipe.fac)
        curvature = pipe.result.curvature
        return pipe.energy

    return five_point_derivative(displaced_energy, eps_step)


def run_regime_suite(ham: Hamiltonian, specs, perturbations,
                     eps_step: float = FD_STEP,
                     ablate: str | None = None) -> list[DerivativeReport]:
    """Analytic-vs-numerical derivative reports over regimes and perturbations."""
    reports = []
    for regime in specs:
        base = run_pipeline(ham, regime)
        rdms = relaxed_rdms(base, ablate=ablate)
        for pert in perturbations:
            analytic = analytic_energy_derivative(base, pert, rdms)
            numerical = fd_energy_derivative(ham, pert, regime, eps_step, base)
            reports.append(DerivativeReport(
                regime.name, pert.label or pert.kind, analytic, numerical,
                abs(analytic - numerical)))
    return reports


def format_reports(reports, tol: float = DERIVATIVE_TOL) -> str:
    """Plain-text derivative listing, one row per regime/perturbation pair."""
    lines = [f"{'regime':<24} {'perturbation':<16} {'analytic':>16} "
             f"{'numerical':>16} {'abs diff':>12}  status"]
    for r in reports:
        status = "pass" if r.passed(tol) else "FAIL"
        lines.append(f"{r.regime:<24} {r.perturbation:<16} {r.analytic:>16.10f} "
                     f"{r.numerical:>16.10f} {r.abs_diff:>12.3e}  {status}")
    return "\n".join(lines)


def verlet_path(ham_a: Hamiltonian, ham_b: Hamiltonian, n_steps: int, dt: float,
                mass: float = 1.0, regime: RegimeSpec | None = None,
                s0: float = 0.5, v0: float = 0.0,
                ablate: str | None = None) -> PathTrace:
    """Velocity Verlet on the interpolation coordinate s.

    The potential is the pipeline energy at H(s); the force is the chain-rule
    contraction of the relaxed densities with H_B - H_A. A consistent
    energy/force pair conserves kinetic + potential; response errors show up
    as drift or instability.
    """
    if regime is None:
        regime = RegimeSpec("path", TruncationPolicy.exact(), n_layers=3)
    d_core = ham_b.core_energy - ham_a.core_energy
    d_one = ham_b.one_body - ham_a.one_body
    d_two = ham_b.two_body - ham_a.two_body

    def evaluate(s: float, seed: vqe.VQEResult | None):
        pipe = run_pipeline(interpolate(ham_a, ham_b, s), regime, seed)
        rdms = relaxed_rdms(pipe, ablate=ablate)
        de_ds = (d_core + float(np.sum(rdms.gamma_sym * d_one))
                 + float(np.sum(rdms.Gamma_sym * d_two)))
        return pipe, -de_ds / mass

    s_hist = [s0]
    pipe, accel = evaluate(s0, None)
    kin = [0.5 * mass * v0 * v0]
    pot = [pipe.energy]
    aborted = None
    s, v = s0, v0
    completed = 0
    for step in range(n_steps):
        try:
            s_new = s + v * dt + 0.5 * accel * dt * dt
            pipe, accel_new = evaluate(s_new, pipe.result)
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
