"""Relaxed density matrices from nested multiplier solves.

The energy only sees eigenbasis densities, so its integral derivatives need
response terms for every frame the factorization fixed: one-body and leaf
eigenvectors (mu) and the two-electron eigenvectors (nu). Each solve feeds
the next; the final assembly reproduces the full one- and two-body density
matrices without ever measuring their off-diagonals.

A frame's eigenvector multipliers come from its orbital-rotation gradient
G[a, b], the derivative of its energy along U -> U exp(kappa (e_a e_b^T -
e_b e_a^T)), a > b. ``qsim.measure_densities`` returns G for every frame
next to the densities, from the same single rotation of the state into the
frame stack. G needs no angle chart, so identity-like, block-diagonal and
signed-permutation orbitals, where the Givens angle Jacobian is singular,
are no special case. Sign conventions are self-consistent within this
package (see the scalar N=2 closed form in the tests):

    mu[a, b]  = -G[a, b] / (spec[a] - spec[b]),                         a > b,
    nu[t, u]  = (R[t, u] - R[u, t]) / (g[u] - g[t]),                    t > u,

where spec is the relevant eigenvalue vector and R projects the leaf-frame
energy and mu gradients onto foreign eigenvectors. The paper's angle route
(solve J eta = -dE/dtheta, then the same quotients of U^T eta) agrees
wherever J is well conditioned and stays a referee in the tests.

The solved frames travel as stacks, frame first: the mu quotients run over
the (F, P) gradient stack with a spread per frame, and R is one projection
of every leaf onto every retained core.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import qsim
from .givens import lower_indices
from .hammodel import eight_fold_symmetrize
from .qsim import EigenbasisDensities, Statevector
from .xdf import XDFFactorization

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "MultiplierSet",
    "RelaxedRDMs",
    "solve_mu",
    "solve_nu",
    "relaxed_gamma",
    "relaxed_Gamma",
    "measure_and_solve",
    "reconstruct_rdms",
    "ABLATION_MODES",
]

DEGENERACY_GUARD = 1e-8
STATIONARITY_TOL = 1e-8

ABLATION_MODES = ("eta0", "etat", "nu")


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Solved multipliers; strictly-lower-triangular storage throughout.

    ``nu`` spans all leaf pairs t > u and is structurally zero when both
    indices are discarded leaves.
    """

    mu0: np.ndarray
    mu: tuple[np.ndarray, ...]
    nu: np.ndarray


@dataclass(frozen=True, eq=False)
class RelaxedRDMs:
    """Reconstructed density matrices, symmetrized."""

    gamma_sym: np.ndarray
    Gamma_sym: np.ndarray


def _stack(arrays: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The arrays of one ``shape`` stacked along a new leading axis; none
    gives a (0, *shape) stack."""
    return np.array(arrays, dtype=float).reshape(-1, *shape)


def _guarded_quotients(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Strictly-lower (x[a, b] - x[b, a]) / (values[a] - values[b]) of every
    member of a (..., n, n) stack, zero where the denominator is within
    ``DEGENERACY_GUARD`` x the spread of that member's values. A zero drops
    the in-block density element, which the frame energies do not see, with
    no warning; it is right only when both pair members are discarded or the
    state is totally symmetric. Otherwise the relaxed RDMs miss the element:
    an F0 pair split by 1e-8 or less gave a 1.4e-3 oracle gap (ROADMAP item 2)."""
    spread = (np.max(values, axis=-1) - np.min(values, axis=-1) if values.shape[-1]
              else np.zeros(values.shape[:-1]))
    denom = values[..., :, None] - values[..., None, :]
    cutoff = DEGENERACY_GUARD * np.maximum(spread, 1e-300)[..., None, None]
    keep = np.tril(np.abs(denom) > cutoff, -1)
    out = np.zeros(denom.shape)
    out[keep] = (x - np.swapaxes(x, -1, -2))[keep] / denom[keep]
    return out


def solve_mu(gradients: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Eigenvector multipliers -G[a, b] / (spec[a] - spec[b]) of frames with
    orbital-rotation gradients G over their spectra (F0 for the one-body
    frame, lambda for a leaf). Takes one frame's (P,) gradients, in
    ``lower_indices(N)`` order, and (N,) spectrum, or stacks of them."""
    x = np.zeros((*spectrum.shape, spectrum.shape[-1]))
    x[(..., *lower_indices(spectrum.shape[-1]))] = -gradients
    return _guarded_quotients(x, spectrum)


def solve_nu(fac: XDFFactorization, omegas: EigenbasisDensities,
             mus: tuple[np.ndarray, ...]) -> np.ndarray:
    """Inter-leaf multipliers coupling retained frames to every other leaf.

    R[u_prime, u] projects leaf u's energy + mu gradients onto the
    eigenvector of leaf u_prime; it vanishes identically for discarded u, so
    nu is zero whenever both pair members are discarded.
    """
    n, retained = fac.n_orbitals, fac.retained_leaves
    u_mat = _stack([leaf.U for leaf in retained], (n, n))
    u_t = np.swapaxes(u_mat, 1, 2)
    lam = _stack([leaf.lam for leaf in retained], (n,))
    w = (_stack(omegas.omega, (n, n)) @ lam[:, :, None])[:, :, 0]
    g = 2.0 * np.array([leaf.g for leaf in retained])
    cores = g[:, None, None] * (u_mat * w[:, None, :]) @ u_t + u_mat @ _stack(mus, (n, n)) @ u_t
    leaf_v = _stack([leaf.V for leaf in fac.leaves], (n, n))
    r_mat = np.zeros((fac.n_leaves, fac.n_leaves))
    # the diagonal R[u, u] cancels in the quotients
    r_mat[:, :len(retained)] = (leaf_v[:, None] * cores[None]).sum(axis=(-2, -1))

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
    """Measure the leaf densities and every frame's orbital-rotation
    gradients in one ``qsim.measure_densities`` call and run the mu -> nu
    chain on the frame stack. ``ablate="eta0"`` zeroes the one-body mu,
    ``"etat"`` every leaf mu and ``"nu"`` nu; the names follow the paper's
    fabric-angle multipliers."""
    if ablate is not None and ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation {ablate!r}; choose from {ABLATION_MODES}")
    omegas = qsim.measure_densities(state, fac)
    mus = solve_mu(omegas.gradients,
                   np.array([fac.F0, *(leaf.lam for leaf in fac.retained_leaves)]))
    if ablate == "eta0":
        mus[0] = 0.0
    elif ablate == "etat":
        mus[1:] = 0.0

    nu = solve_nu(fac, omegas, tuple(mus[1:]))
    if ablate == "nu":
        nu = np.zeros_like(nu)

    return omegas, MultiplierSet(mus[0], tuple(mus[1:]), nu)


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
