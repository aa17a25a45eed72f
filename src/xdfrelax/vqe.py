"""Variational ground-state preparation with a number/spin-conserving ansatz.

The ansatz is a brickwork fabric over adjacent spatial-orbital pairs. Each
block carries two angles: a spin-locked orbital rotation followed by a
pair-exchange rotation between the two doubly-occupied configurations. Both
gates conserve particle number, S_z, and total spin on singlet references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import qsim
from .qsim import Statevector
from .xdf import XDFFactorization

__all__ = [
    "AnsatzConfig",
    "VQEResult",
    "ansatz_blocks",
    "n_parameters",
    "prepare_state",
    "optimize",
    "exact_ground_state",
]

RESTARTS = 2  # random restarts after a cold start that fails to converge


@dataclass(frozen=True)
class AnsatzConfig:
    """Brickwork layer count and the seed for the random starting point."""

    n_layers: int
    seed: int = 0


@dataclass(frozen=True)
class VQEResult:
    """A solve's end point.

    ``curvature`` is the gauge-truncated pseudo-inverse of the last Hessian
    the solve stepped with (built by it or inherited from its seed), or None
    when no Hessian was ever built; a warm re-solve seeded with this result
    takes chord-Newton steps on it.
    """

    params: np.ndarray
    energy: float
    grad_norm: float
    converged: bool
    n_iterations: int
    curvature: np.ndarray | None = None

    def __post_init__(self):
        for name in ("params", "curvature"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)


def ansatz_blocks(n_spatial: int, n_layers: int) -> tuple[int, ...]:
    """Pivot orbital of every block, brickwork order."""
    blocks = []
    for layer in range(n_layers):
        blocks.extend(range(layer % 2, n_spatial - 1, 2))
    return tuple(blocks)


def n_parameters(n_spatial: int, cfg: AnsatzConfig) -> int:
    return 2 * len(ansatz_blocks(n_spatial, cfg.n_layers))


def prepare_state(fac: XDFFactorization, cfg: AnsatzConfig,
                  params: np.ndarray) -> Statevector:
    params = np.asarray(params, dtype=float)
    n = fac.n_orbitals
    blocks = ansatz_blocks(n, cfg.n_layers)
    if params.shape != (2 * len(blocks),):
        raise ValueError(f"expected {2 * len(blocks)} parameters, got {params.shape}")
    amps = np.array(qsim.hf_reference(n, fac.n_alpha, fac.n_beta).amplitudes)
    psi = amps.reshape(1 << n, 1 << n)
    for i, m in enumerate(blocks):
        rows = qsim.pair_rows(n, m)
        qsim.rotate_pair(psi.T, *rows, params[2 * i])
        qsim.rotate_pair(psi, *rows, params[2 * i])
        qsim.rotate_pair(amps, *qsim.pair_exchange_rows(n, m), params[2 * i + 1])
    return Statevector(n, amps)


def _energy_and_gradient(fac: XDFFactorization, cfg: AnsatzConfig,
                         params: np.ndarray) -> tuple[float, np.ndarray]:
    """Energy and its exact parameter gradient via one reverse sweep.

    Alpha gates act on the rows of Psi^T, beta gates on the rows of Psi and
    pair exchanges on the flat vector; all three are views of one array.
    """
    n = fac.n_orbitals
    blocks = ansatz_blocks(n, cfg.n_layers)
    ket = prepare_state(fac, cfg, params)
    lam = qsim.apply_hamiltonian(ket, fac)
    energy = float(ket.amplitudes @ lam)

    grad = np.zeros_like(params)
    ket_amps = ket.amplitudes.copy()
    ket_psi = ket_amps.reshape(1 << n, 1 << n)
    lam_psi = lam.reshape(1 << n, 1 << n)
    for i in reversed(range(len(blocks))):
        rows = qsim.pair_rows(n, blocks[i])
        pairs = qsim.pair_exchange_rows(n, blocks[i])
        th_or, th_px = params[2 * i], params[2 * i + 1]

        # undo the pair exchange, then differentiate it
        qsim.rotate_pair(ket_amps, *pairs, -th_px)
        dpx = qsim.pair_derivative(ket_amps, *pairs, th_px)
        grad[2 * i + 1] = 2.0 * float(lam @ dpx)
        qsim.rotate_pair(lam, *pairs, -th_px)

        # undo the locked rotation, then differentiate both spin halves
        qsim.rotate_pair(ket_psi.T, *rows, -th_or)
        qsim.rotate_pair(ket_psi, *rows, -th_or)
        branch_a = qsim.pair_derivative(ket_psi.T, *rows, th_or).T
        qsim.rotate_pair(branch_a, *rows, th_or)
        branch_b = qsim.pair_derivative(ket_psi, *rows, th_or)
        qsim.rotate_pair(branch_b.T, *rows, th_or)
        grad[2 * i] = 2.0 * float(lam @ (branch_a + branch_b).reshape(-1))
        qsim.rotate_pair(lam_psi.T, *rows, -th_or)
        qsim.rotate_pair(lam_psi, *rows, -th_or)
    return energy, grad


def _lbfgs(fac: XDFFactorization, cfg: AnsatzConfig, x0: np.ndarray,
           tol: float, maxiter: int):
    res = minimize(
        lambda x: _energy_and_gradient(fac, cfg, x),
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-18, "gtol": 0.1 * tol},
    )
    return np.asarray(res.x), int(res.nit)


def _inverse_hessian(fac: XDFFactorization, cfg: AnsatzConfig,
                     x: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the Hessian at x, a central difference of the adjoint
    gradient (2P gradient calls, cheap at desk-scale parameter counts).

    Flat (gauge) directions of the ansatz make the Hessian singular; its
    eigen-directions with curvature below 1e-6 of the largest are dropped.
    """
    h = 1e-5
    hess = np.zeros((x.size, x.size))
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        hess[:, i] = (_energy_and_gradient(fac, cfg, xp)[1]
                      - _energy_and_gradient(fac, cfg, xm)[1]) / (2 * h)
    hess = 0.5 * (hess + hess.T)
    evals, evecs = np.linalg.eigh(hess)
    cutoff = 1e-6 * max(np.max(np.abs(evals)), 1e-300)
    inv = np.where(np.abs(evals) > cutoff, 1.0 / np.where(evals == 0, 1, evals), 0.0)
    return (evecs * inv) @ evecs.T


def _newton_polish(fac: XDFFactorization, cfg: AnsatzConfig, x: np.ndarray,
                   tol: float, max_steps: int, curvature: np.ndarray | None = None):
    """Damped Newton steps on the exact gradient until max|g| <= tol.

    A chord step x - C g on the current pseudo-inverse Hessian C is taken when
    it at least halves max|g|. Otherwise C is rebuilt at x and the Newton step
    is backtracked, then small gradient steps are tried, before giving up.
    Returns the end point, its energy and gradient, the last C and the number
    of steps taken.
    """
    energy, grad = _energy_and_gradient(fac, cfg, x)
    steps = 0
    for _ in range(max_steps):
        gmax = np.max(np.abs(grad))
        if gmax <= tol:
            break
        if curvature is not None:
            trial = x - curvature @ grad
            e_new, g_new = _energy_and_gradient(fac, cfg, trial)
            if np.max(np.abs(g_new)) <= 0.5 * gmax:
                x, energy, grad = trial, e_new, g_new
                steps += 1
                continue
        curvature = _inverse_hessian(fac, cfg, x)
        step = -curvature @ grad
        # backtracked Newton step, then a conservative gradient fallback
        trials = [x + 0.5 ** k * step for k in range(30)]
        trials += [x - scale * grad for scale in (1e-2, 1e-3, 1e-4)]
        for trial in trials:
            e_new, g_new = _energy_and_gradient(fac, cfg, trial)
            if np.max(np.abs(g_new)) < gmax:
                x, energy, grad = trial, e_new, g_new
                steps += 1
                break
        else:
            break
    return x, energy, grad, curvature, steps


def _grown_start(fac: XDFFactorization, cfg: AnsatzConfig, tol: float,
                 maxiter: int) -> tuple[np.ndarray, int]:
    """Optimize layer by layer, embedding each solution into the next depth.

    Blocks are ordered by layer, so a shallower solution is a parameter
    prefix of the deeper ansatz. Returns the parameters and the L-BFGS
    iterations spent.
    """
    rng = np.random.default_rng(cfg.seed)
    params = np.zeros(0)
    total = 0
    for depth in range(1, cfg.n_layers + 1):
        sub = AnsatzConfig(depth, cfg.seed)
        fresh = n_parameters(fac.n_orbitals, sub) - params.size
        x0 = np.concatenate([params, 0.05 * rng.standard_normal(fresh)])
        params, nit = _lbfgs(fac, sub, x0, tol, maxiter)
        total += nit
    return params, total


def optimize(fac: XDFFactorization, cfg: AnsatzConfig, tol: float = 1e-10,
             seed: VQEResult | None = None, maxiter: int = 2000) -> VQEResult:
    """Minimize the factorized energy over the ansatz angles.

    Deterministic for fixed (cfg.seed, seed, tol). A warm start from ``seed``,
    usually a converged result for a nearby Hamiltonian, begins exactly at
    ``seed.params``, which keeps displaced re-optimizations on the same local
    minimum, and goes straight to Newton steps on ``seed.curvature`` (built at
    ``seed.params`` when the seed has none); only if those end above ``tol``
    does it fall back to L-BFGS plus a Newton polish from ``seed.params``.
    Cold starts grow the ansatz layer by layer, then refine at full depth
    with L-BFGS and a Newton polish, with random restarts on failure.
    ``n_iterations`` counts L-BFGS iterations and Newton steps.
    Non-convergence is reported through the ``converged`` flag, not raised.
    An ansatz without parameters (no layers, or one orbital) leaves the
    reference state, which is trivially stationary.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if n_parameters(fac.n_orbitals, cfg) == 0:
        energy, _ = _energy_and_gradient(fac, cfg, np.zeros(0))
        return VQEResult(np.zeros(0), energy, 0.0, True, 0)

    candidates = []
    total_iters = 0

    def polish(x: np.ndarray, curvature: np.ndarray | None = None) -> bool:
        nonlocal total_iters
        x, energy, grad, curvature, steps = _newton_polish(
            fac, cfg, x, tol, min(20, maxiter), curvature)
        total_iters += steps
        grad_norm = float(np.max(np.abs(grad)))
        candidates.append((not grad_norm <= tol, energy, x, grad_norm, curvature))
        return grad_norm <= tol

    def attempt(x0: np.ndarray) -> bool:
        nonlocal total_iters
        x, nit = _lbfgs(fac, cfg, x0, tol, maxiter)
        total_iters += nit
        return polish(x)

    if seed is not None:
        if not polish(seed.params, seed.curvature):
            attempt(seed.params)
    else:
        x0, total_iters = _grown_start(fac, cfg, tol, maxiter)
        ok = attempt(x0)
        rng = np.random.default_rng(cfg.seed + 1)
        for _ in range(RESTARTS):
            if ok:
                break
            ok = attempt(0.2 * rng.standard_normal(n_parameters(fac.n_orbitals, cfg)))

    _, energy, x, grad_norm, curvature = min(candidates, key=lambda c: (c[0], c[1]))
    converged = bool(grad_norm <= tol)
    if not converged:
        warnings.warn(f"optimizer stalled with gradient norm {grad_norm:.3e}",
                      stacklevel=2)
    return VQEResult(x, float(energy), grad_norm, converged, total_iters, curvature)


def sector_indices(n_spatial: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Basis indices of the fixed particle-number sector, ascending."""
    filled = qsim.string_bits(n_spatial).sum(axis=1)
    alpha = np.nonzero(filled == n_alpha)[0]
    beta = np.nonzero(filled == n_beta)[0]
    return ((beta[:, None] << n_spatial) | alpha).ravel()


def exact_ground_state(fac: XDFFactorization) -> tuple[Statevector, float]:
    """Lowest eigenstate of the factorized Hamiltonian in the electron sector.

    The Hamiltonian acts leaf by leaf on statevectors; the dense matrix is
    built only on the sector basis. Degeneracies are broken deterministically
    by fixing the sign of the first significant amplitude.
    """
    n = fac.n_orbitals
    idx = sector_indices(n, fac.n_alpha, fac.n_beta)
    dim = len(idx)
    hmat = np.zeros((dim, dim))
    for col in range(dim):
        basis = np.zeros(4 ** n)
        basis[idx[col]] = 1.0
        hmat[:, col] = qsim.apply_hamiltonian(Statevector(n, basis), fac)[idx]
    hmat = 0.5 * (hmat + hmat.T)
    evals, evecs = np.linalg.eigh(hmat)
    vec = evecs[:, 0]
    lead = np.nonzero(np.abs(vec) > 1e-8)[0]
    if lead.size and vec[lead[0]] < 0:
        vec = -vec
    amps = np.zeros(4 ** n)
    amps[idx] = vec
    return Statevector(n, amps), float(evals[0])
