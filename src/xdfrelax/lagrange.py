"""Relaxed density matrices from nested multiplier solves.

The energy only sees eigenbasis densities, so its integral derivatives need
response terms for every frame the factorization fixed: fabric angles (eta),
one-body and leaf eigenvectors (mu), and the two-electron eigenvectors (nu).
Each solve feeds the next; the final assembly reproduces the full one- and
two-body density matrices without ever measuring their off-diagonals.

Sign conventions are self-consistent within this package (see the scalar
N=2 closed form in the tests): with eta solving  A eta = -dE/dtheta  and
eta_eig = U^T eta,

    mu[a, b]  = (eta_eig[a, b] - eta_eig[b, a]) / (spec[a] - spec[b]),  a > b,
    nu[t, u]  = (R[t, u] - R[u, t]) / (g[u] - g[t]),                    t > u,

where spec is the relevant eigenvalue vector and R projects the leaf-frame
energy and mu gradients onto foreign eigenvectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qsim
from .givens import jacobian, pinv_solve
from .hammodel import eight_fold_symmetrize
from .qsim import EigenbasisDensities, Frame, Statevector
from .xdf import XDFFactorization

__all__ = [
    "MultiplierSet",
    "RelaxedRDMs",
    "solve_eta",
    "solve_mu",
    "solve_nu",
    "relaxed_gamma",
    "relaxed_Gamma",
    "measure_and_solve",
    "reconstruct_rdms",
    "ABLATION_MODES",
]

ETA_RESIDUAL_TOL = 1e-8
DEGENERACY_GUARD = 1e-8
STATIONARITY_TOL = 1e-8

ABLATION_MODES = ("eta0", "etat", "nu")


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Solved multipliers; strictly-lower-triangular storage throughout.

    ``nu`` spans all leaf pairs t > u and is structurally zero when both
    indices are discarded leaves.
    """

    eta0: np.ndarray
    eta: tuple[np.ndarray, ...]
    mu0: np.ndarray
    mu: tuple[np.ndarray, ...]
    nu: np.ndarray
    eta_residual: float


@dataclass(frozen=True, eq=False)
class RelaxedRDMs:
    """Reconstructed density matrices, symmetrized."""

    gamma_sym: np.ndarray
    Gamma_sym: np.ndarray


def _lower_to_matrix(values: np.ndarray, n: int) -> np.ndarray:
    """Strictly-lower-triangular matrix from its row-major entries."""
    mat = np.zeros((n, n))
    mat[np.tril_indices(n, -1)] = values
    return mat


def solve_eta(frame: Frame, de_dtheta: np.ndarray) -> tuple[np.ndarray, float]:
    """Fabric-angle multipliers of one frame from the pseudoinverted angle Jacobian.

    Solves sum_{p>k} eta[p, k] * A[g, (p, k)] = -dE/dtheta_g, for the
    frame's energy derivatives ``de_dtheta`` (its row of
    ``qsim.angle_gradients``); returns the strictly-lower-triangular eta
    matrix and the max-abs residual of the solve, warning when it exceeds
    ``ETA_RESIDUAL_TOL``.
    """
    jac = jacobian(frame.fabric)
    rhs = -de_dtheta
    eta_vec = pinv_solve(jac, rhs)
    residual = float(np.max(np.abs(jac @ eta_vec - rhs))) if rhs.size else 0.0
    if residual > ETA_RESIDUAL_TOL:
        warnings.warn(
            f"eta solve residual {residual:.3e}; state may not be stationary",
            stacklevel=2)
    return _lower_to_matrix(eta_vec, frame.fabric.n), residual


def _guarded_quotients(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Strictly-lower (x[a, b] - x[b, a]) / (values[a] - values[b]), zero where
    the denominator is within ``DEGENERACY_GUARD`` x the spread of values
    (a degenerate pair, whose numerator vanishes by symmetry)."""
    spread = float(np.max(values) - np.min(values)) if len(values) else 0.0
    denom = np.subtract.outer(values, values)
    keep = np.tril(np.abs(denom) > DEGENERACY_GUARD * max(spread, 1e-300), -1)
    out = np.zeros(denom.shape)
    out[keep] = (x - x.T)[keep] / denom[keep]
    return out


def solve_mu(eta_lower: np.ndarray, u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Eigenvector multipliers of one frame with orbitals ``u``: quotients over
    its spectrum (F0 for the one-body frame, lambda for a leaf)."""
    return _guarded_quotients(u.T @ eta_lower, spectrum)


def solve_nu(fac: XDFFactorization, omegas: EigenbasisDensities,
             mus: tuple[np.ndarray, ...]) -> np.ndarray:
    """Inter-leaf multipliers coupling retained frames to every other leaf.

    R[u_prime, u] projects leaf u's energy + mu gradients onto the
    eigenvector of leaf u_prime; it vanishes identically for discarded u, so
    nu is zero whenever both pair members are discarded.
    """
    n_leaves = fac.n_leaves
    r_mat = np.zeros((n_leaves, n_leaves))
    for u, leaf in enumerate(fac.retained_leaves):
        w = omegas.omega[u] @ leaf.lam
        core = 2.0 * leaf.g * (leaf.U * w) @ leaf.U.T + leaf.U @ mus[u] @ leaf.U.T
        for up in range(n_leaves):
            if up == u:
                continue
            r_mat[up, u] = float(np.sum(fac.leaves[up].V * core))

    # nu[t, u] = (R[t, u] - R[u, t]) / (g[u] - g[t])
    nu = _guarded_quotients(r_mat, -fac.g_values)
    nu[fac.retained:, fac.retained:] = 0.0  # structurally zero: R vanishes for both
    return nu


def relaxed_gamma(fac: XDFFactorization, omegas: EigenbasisDensities,
                  mu0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-body density from the measured diagonal plus mu0 off-diagonals."""
    u0 = fac.U0
    gamma = np.eye(fac.n_orbitals) + (u0 * omegas.omega0) @ u0.T + u0 @ mu0 @ u0.T
    return gamma, 0.5 * (gamma + gamma.T)


def relaxed_Gamma(fac: XDFFactorization, omegas: EigenbasisDensities,
                  nu: np.ndarray, gamma_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-body density: identity terms, gamma_bar dressing, the explicit
    per-leaf eigenvalue derivative, and the inter-leaf nu response."""
    n = fac.n_orbitals
    eye = np.eye(n)
    gamma_term = (
        np.einsum("pq,rs->pqrs", gamma_bar, eye)
        - 0.25 * np.einsum("pr,qs->pqrs", gamma_bar, eye)
        - 0.25 * np.einsum("ps,qr->pqrs", gamma_bar, eye)
    )
    identity_term = (
        0.5 * np.einsum("pq,rs->pqrs", eye, eye)
        - 0.125 * np.einsum("pr,qs->pqrs", eye, eye)
        - 0.125 * np.einsum("ps,qr->pqrs", eye, eye)
    )
    big = identity_term + gamma_term

    vecs = np.stack([leaf.V.reshape(-1) for leaf in fac.leaves], axis=0)
    coeff = np.zeros(fac.n_leaves)
    for t, leaf in enumerate(fac.retained_leaves):
        coeff[t] = float(leaf.lam @ omegas.omega[t] @ leaf.lam)
    big += ((vecs.T * coeff) @ vecs).reshape(n, n, n, n)
    big += (vecs.T @ nu @ vecs).reshape(n, n, n, n)
    return big, eight_fold_symmetrize(big)


def measure_and_solve(fac: XDFFactorization, state: Statevector,
                      ablate: str | None = None) -> tuple[EigenbasisDensities, MultiplierSet]:
    """Measure the leaf densities and run the full eta -> mu -> nu chain,
    one eta and mu solve per frame. The eta right-hand sides of all solved
    frames come from one ``qsim.angle_gradients`` sweep; under
    ``ablate="etat"`` only the one-body frame is solved."""
    if ablate is not None and ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation {ablate!r}; choose from {ABLATION_MODES}")
    n = fac.n_orbitals
    omegas = qsim.measure_densities(state, fac)
    solved = fac.frames[:1] if ablate == "etat" else fac.frames
    gradients = qsim.angle_gradients(state, solved)
    orbitals = [(fac.U0, fac.F0)] + [(leaf.U, leaf.lam) for leaf in fac.retained_leaves]
    etas, mus, worst_residual = [], [], 0.0
    for frame, de_dtheta, (u, spectrum) in zip(solved, gradients, orbitals):
        eta, res = solve_eta(frame, de_dtheta)
        worst_residual = max(worst_residual, res)
        etas.append(eta)
        mus.append(solve_mu(eta, u, spectrum))
    if ablate == "eta0":
        etas[0], mus[0] = np.zeros((n, n)), np.zeros((n, n))
    for _ in range(len(fac.frames) - len(solved)):
        etas.append(np.zeros((n, n)))
        mus.append(np.zeros((n, n)))

    nu = solve_nu(fac, omegas, tuple(mus[1:]))
    if ablate == "nu":
        nu = np.zeros_like(nu)

    multipliers = MultiplierSet(etas[0], tuple(etas[1:]), mus[0], tuple(mus[1:]), nu,
                                worst_residual)
    return omegas, multipliers


def reconstruct_rdms(fac: XDFFactorization, state: Statevector,
                     ablate: str | None = None,
                     stationarity_grad: float | None = None,
                     ) -> tuple[RelaxedRDMs, MultiplierSet]:
    """Full pipeline from a stationary state to relaxed, symmetrized RDMs.

    ``stationarity_grad``, when supplied, is the caller's ansatz gradient
    infinity-norm; a violation is warned about (the multiplier premise is
    a variationally stationary state), never silently ignored.
    """
    if stationarity_grad is not None and stationarity_grad > STATIONARITY_TOL:
        warnings.warn(
            f"state gradient norm {stationarity_grad:.3e} exceeds "
            f"{STATIONARITY_TOL:.1e}; relaxed densities will carry the bias",
            stacklevel=2)
    omegas, multipliers = measure_and_solve(fac, state, ablate)
    gamma, gamma_sym = relaxed_gamma(fac, omegas, multipliers.mu0)
    gamma_bar = gamma - np.eye(fac.n_orbitals)
    _, big_sym = relaxed_Gamma(fac, omegas, multipliers.nu, gamma_bar)
    return RelaxedRDMs(gamma_sym, big_sym), multipliers
