"""Relaxed density matrices from nested multiplier solves.

The energy only sees eigenbasis densities, so its integral derivatives need
response terms for every frame the factorization fixed: one-body and leaf
eigenvectors (mu) and the two-electron eigenvectors (nu). One call,
``reconstruct_rdms``, runs the chain in order and returns one record,
``RelaxedRDMs``: one ``qsim.measure_densities`` call rotates the state into
the frame stack once for the leaf densities and every frame's
orbital-rotation gradient G[a, b], the derivative of its energy along
U -> U exp(kappa (e_a e_b^T - e_b e_a^T)), a > b; mu comes from G, nu from
mu, and the assembly reproduces the full one- and two-body density matrices
without ever measuring their off-diagonals.

G needs no angle chart, so identity-like, block-diagonal and
signed-permutation orbitals, where the Givens angle Jacobian is singular,
are no special case. Sign conventions are self-consistent within this
package (see the scalar N=2 closed form in the tests):

    mu[a, b]  = -G[a, b] / (spec[a] - spec[b]),                         a > b,
    nu[t, u]  = (R[t, u] - R[u, t]) / (g[u] - g[t]),                    t > u,

where spec is the relevant eigenvalue vector and R projects the leaf-frame
energy and mu gradients onto foreign eigenvectors. The paper's angle route
(solve J eta = -dE/dtheta, then the same quotients of U^T eta) agrees
wherever J is well conditioned; its pieces, ``verify.jacobian`` and
``verify.angle_gradients``, are referees and production never calls them.

The solved frames travel as stacks, frame first: the mu quotients run over
the (F, P) gradient stack with a spread per frame, and R is one projection
of every leaf onto every retained core. The leaf data are the
factorization's stacks, and the retained leaves are their prefix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qsim
from .givens import lower_indices
from .hammodel import eight_fold_symmetrize
from .qsim import EigenbasisDensities, Statevector
from .xdf import XDFFactorization

__all__ = ["RelaxedRDMs", "solve_mu", "solve_nu", "reconstruct_rdms", "ABLATION_MODES"]

DEGENERACY_GUARD = 1e-8
STATIONARITY_TOL = 1e-8

ABLATION_MODES = ("eta0", "etat", "nu")


@dataclass(frozen=True, eq=False)
class RelaxedRDMs:
    """Relaxed, symmetrized density matrices and the multipliers that built
    them, each multiplier block strictly-lower-triangular. ``mu0`` is the
    one-body frame's (N, N) block and ``mu`` the (T, N, N) stack of the
    retained leaves, (0, N, N) when none is retained. ``nu`` spans all leaf
    pairs t > u and is structurally zero when both are discarded leaves.
    """

    gamma_sym: np.ndarray
    Gamma_sym: np.ndarray
    mu0: np.ndarray
    mu: np.ndarray
    nu: np.ndarray


def _guarded_quotients(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Strictly-lower (x[a, b] - x[b, a]) / (values[a] - values[b]) of every
    member of a (..., n, n) stack, zero where the denominator is within
    ``DEGENERACY_GUARD`` x the spread of that member's values. A zero drops
    the in-block density element, which the frame energies do not see, with
    no warning; it is right only when both pair members are discarded or the
    state is totally symmetric. Otherwise the relaxed RDMs miss the element:
    an F0 pair split by 1e-8 or less gave a 1.4e-3 oracle gap (ROADMAP item 2)."""
    spread = np.max(values, axis=-1) - np.min(values, axis=-1)
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
             mus: np.ndarray) -> np.ndarray:
    """Inter-leaf multipliers coupling retained frames to every other leaf,
    from the (T, N, N) stack of retained-leaf ``mus``.

    R[u_prime, u] projects leaf u's energy + mu gradients onto the
    eigenvector of leaf u_prime; it vanishes identically for discarded u, so
    nu is zero whenever both pair members are discarded.
    """
    kept = fac.retained
    u_mat = fac.U[:kept]
    u_t = np.swapaxes(u_mat, 1, 2)
    w = (omegas.omega @ fac.lam[:kept, :, None])[:, :, 0]
    g = 2.0 * fac.g[:kept]
    cores = g[:, None, None] * (u_mat * w[:, None, :]) @ u_t + u_mat @ mus @ u_t
    r_mat = np.zeros((fac.n_leaves, fac.n_leaves))
    # the diagonal R[u, u] cancels in the quotients
    r_mat[:, :kept] = (fac.V[:, None] * cores[None]).sum(axis=(-2, -1))

    # nu[t, u] = (R[t, u] - R[u, t]) / (g[u] - g[t])
    nu = _guarded_quotients(r_mat, -fac.g)
    nu[kept:, kept:] = 0.0  # structurally zero: R vanishes for both
    return nu


def reconstruct_rdms(fac: XDFFactorization, state: Statevector,
                     ablate: str | None = None,
                     stationarity_grad: float | None = None) -> RelaxedRDMs:
    """Relaxed, symmetrized RDMs of a stationary state and the multipliers
    that built them, in order: one ``qsim.measure_densities`` call for the
    leaf densities and every frame's gradients; mu over every frame's
    spectrum (F0, then the retained lambda); nu from the leaf densities and
    the leaf mu; gamma from the one-body diagonal and mu0; Gamma from the
    one-body dressing of gamma - I/2, each retained leaf's explicit
    eigenvalue derivative and the nu response.

    ``ablate="eta0"`` zeroes the one-body mu, ``"etat"`` every leaf mu and
    ``"nu"`` nu; the names follow the paper's fabric-angle multipliers.
    ``stationarity_grad``, when supplied, is the caller's ansatz gradient
    infinity-norm; a violation is warned about (the multiplier premise is
    a variationally stationary state), never silently ignored.
    """
    if stationarity_grad is not None and stationarity_grad > STATIONARITY_TOL:
        warnings.warn(
            f"state gradient norm {stationarity_grad:.3e} exceeds "
            f"{STATIONARITY_TOL:.1e}; relaxed densities will carry the bias",
            stacklevel=2)
    if ablate is not None and ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation {ablate!r}; choose from {ABLATION_MODES}")
    omegas = qsim.measure_densities(state, fac)
    mus = solve_mu(omegas.gradients, np.concatenate([fac.F0[None], fac.lam[:fac.retained]]))
    if ablate == "eta0":
        mus[0] = 0.0
    elif ablate == "etat":
        mus[1:] = 0.0
    nu = solve_nu(fac, omegas, mus[1:])
    if ablate == "nu":
        nu = np.zeros_like(nu)

    n = fac.n_orbitals
    eye = np.eye(n)
    u0 = fac.U0
    gamma = eye + (u0 * omegas.omega0) @ u0.T + u0 @ mus[0] @ u0.T
    shifted = gamma - 0.5 * eye
    big = (np.einsum("pq,rs->pqrs", shifted, eye)
           - 0.25 * np.einsum("pr,qs->pqrs", shifted, eye)
           - 0.25 * np.einsum("ps,qr->pqrs", shifted, eye))

    vecs = fac.V.reshape(fac.n_leaves, -1)
    lam = fac.lam[:fac.retained]
    coeff = np.zeros(fac.n_leaves)
    coeff[:fac.retained] = ((lam[:, None, :] @ omegas.omega) @ lam[:, :, None])[:, 0, 0]
    big += ((vecs.T * coeff) @ vecs).reshape(n, n, n, n)
    big += (vecs.T @ nu @ vecs).reshape(n, n, n, n)
    return RelaxedRDMs(0.5 * (gamma + gamma.T), eight_fold_symmetrize(big),
                       mus[0], mus[1:], nu)
