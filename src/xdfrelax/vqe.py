"""Variational ground-state preparation with a number/spin-conserving ansatz.

The ansatz is a brickwork fabric over adjacent spatial-orbital pairs, laid
out by the same schedule as the measurement fabrics, ``givens.brickwork``,
at the configured layer count. Each block carries two angles: a spin-locked
orbital rotation followed by a pair-exchange rotation between the two
doubly-occupied configurations. Both gates conserve particle number, S_z,
and total spin on singlet references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import qsim
from .givens import brickwork, read_only
from .qsim import Statevector
from .xdf import XDFFactorization

__all__ = [
    "AnsatzConfig",
    "VQEResult",
    "n_parameters",
    "prepare_state",
    "optimize",
    "exact_ground_state",
]


@dataclass(frozen=True)
class AnsatzConfig:
    """Brickwork layer count and the seed for the random starting point."""

    n_layers: int
    seed: int = 0


@dataclass(frozen=True, eq=False)
class VQEResult:
    """A solve's end point, its energy and max|g|, whether that is within the
    solve's ``tol``, and the L-BFGS iterations plus Newton steps it took.

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
                object.__setattr__(self, name, read_only(np.array(value, dtype=float))[0])


STENCIL_SWEEP_ENTRIES = 1 << 20  # gate-factor entries of one batched sweep (8 MB a table)


def n_parameters(n_spatial: int, cfg: AnsatzConfig) -> int:
    return 2 * len(brickwork(n_spatial, cfg.n_layers))


def _gate_angles(points: np.ndarray) -> np.ndarray:
    """Angle of every ansatz gate in ``qsim.ansatz_table`` order at the (B, P)
    points: per block the locked rotation's for its alpha and its beta gate,
    then the exchange's. Returns (B, K) with K = 3 P / 2."""
    pairs = points.reshape(len(points), points.shape[1] // 2, 2)
    return pairs[..., [0, 0, 1]].reshape(len(points), -1)


def _gate_factors(table: qsim.GateTable, angles: np.ndarray):
    """``GateTable.factors`` of every gate at the (B, K) gate angles, gate
    axis first: two (K, B, dim) arrays, gate k's factors at ``[k]``."""
    thetas = angles[..., None]
    return (f.swapaxes(0, 1) for f in table.factors(np.cos(thetas), np.sin(thetas)))


def _ansatz_amplitudes(fac: XDFFactorization, cfg: AnsatzConfig,
                       points: np.ndarray) -> np.ndarray:
    """The flat ansatz blocks at the (B, P) points, as (B, dim)."""
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    blocks = brickwork(n, cfg.n_layers)
    if points.shape[1:] != (2 * len(blocks),):
        raise ValueError(f"expected {2 * len(blocks)} parameters, got {points.shape[1:]}")
    table = qsim.ansatz_table(n, n_alpha, n_beta, blocks)
    scale, shift = _gate_factors(table, _gate_angles(points))
    psi = np.empty((len(points), table.dim))
    psi[:] = qsim.hf_reference(n, n_alpha, n_beta).amplitudes.reshape(-1)
    for k in range(len(table.pairs)):
        psi = qsim.apply_gate(psi, table, k, scale[k], shift[k])
    return psi


def prepare_state(fac: XDFFactorization, cfg: AnsatzConfig,
                  params: np.ndarray) -> Statevector:
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    psi = _ansatz_amplitudes(fac, cfg, np.asarray(params, dtype=float)[None])[0]
    return Statevector(n, n_alpha, n_beta,
                       psi.reshape(qsim.sector_shape(n, n_alpha, n_beta)))


def _generator_terms(reads: list[np.ndarray]) -> np.ndarray:
    """<lam| K |psi> for the generators K of G gates, from their (2, B, 2, L)
    reads ``kets.take(pair, axis=-1)`` of the flat psi and lam stack on the
    gate's entries ``pair = (a, b)``: lam[b] . psi[a] - lam[a] . psi[b] over
    the entries in table order (for a beta gate the block's rows, as
    ``lam[b]``; for an alpha gate its columns, as ``lam.T[a]``). Returns (B,
    G). Every dot is a row of one stacked matmul, (1, L) @ (L, 1), which
    rounds as ``np.vdot`` does."""
    psi, lam = np.array(reads).swapaxes(0, 1)
    dots = (lam[..., ::-1, None, :] @ psi[..., None])[..., 0, 0]
    return (dots[..., 0] - dots[..., 1]).T


def _energy_and_gradient(fac: XDFFactorization, cfg: AnsatzConfig, params: np.ndarray):
    """Energy and its exact parameter gradient via one reverse sweep: a float
    and (P,) at a (P,) point, or (B,) and (B, P) at a (B, P) stack of
    points, batch axis leading as in ``qsim.apply_gate``. Every row comes
    out bitwise as its own single-point call.

    H is applied one point at a time. The kets and lambda = H|psi> are
    stacked as (2, B, dim) and every gate of the table is un-applied to both
    at once, the alpha gate of a block before its beta gate; each gate's
    derivative is read off its generator, 2 <lambda| K |psi>, from the
    entries it acts on, taken where the sweep passes it. The locked
    rotation's generator is the sum of its alpha and beta ones, which
    commute.
    """
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    blocks = brickwork(n, cfg.n_layers)
    params = np.asarray(params, dtype=float)
    points = params[None] if params.ndim == 1 else params
    psi = _ansatz_amplitudes(fac, cfg, points)
    lam = np.empty_like(psi)
    energy = np.empty(len(points))
    for b, amps in enumerate(psi):
        ket = Statevector(n, n_alpha, n_beta,
                          amps.reshape(qsim.sector_shape(n, n_alpha, n_beta)))
        lam[b] = qsim.apply_hamiltonian(ket, fac).reshape(-1)
        energy[b] = np.vdot(ket.amplitudes, lam[b])

    table = qsim.ansatz_table(n, n_alpha, n_beta, blocks)
    scale, shift = _gate_factors(table, -_gate_angles(points))
    kets = np.array([psi, lam])
    reads = [None] * len(table.pairs)
    for i in reversed(range(len(blocks))):
        alpha, beta, exchange = 3 * i, 3 * i + 1, 3 * i + 2
        kets = qsim.apply_gate(kets, table, exchange, scale[exchange], shift[exchange])
        reads[exchange] = kets.take(table.pairs[exchange], axis=-1)
        for k in (alpha, beta):
            kets = qsim.apply_gate(kets, table, k, scale[k], shift[k])
        for k in (alpha, beta):
            reads[k] = kets.take(table.pairs[k], axis=-1)
    grad = np.zeros(points.shape)
    if blocks:
        alpha_terms, beta_terms, exchange_terms = (
            _generator_terms(reads[kind::3]) for kind in range(3))
        grad[:, 0::2] = 2.0 * (beta_terms + alpha_terms)
        grad[:, 1::2] = 2.0 * exchange_terms
    if params.ndim == 1:
        return float(energy[0]), grad[0]
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
    gradient over the 2P stencil points x +- h e_i, evaluated as one batch
    (in slices of at most ``STENCIL_SWEEP_ENTRIES`` gate-factor entries, so
    deep N=8 stencils stay small), cheap at desk-scale parameter counts.

    Flat (gauge) directions of the ansatz make the Hessian singular; its
    eigen-directions with curvature below 1e-6 of the largest are dropped.
    """
    h = 1e-5
    diag = np.arange(x.size)
    stencil = np.tile(x, (2, x.size, 1))
    stencil[0, diag, diag] += h
    stencil[1, diag, diag] -= h
    stencil = stencil.reshape(-1, x.size)
    dim = np.prod(qsim.sector_shape(fac.n_orbitals, fac.n_alpha, fac.n_beta))
    rows = max(1, STENCIL_SWEEP_ENTRIES // (3 * x.size // 2 * dim))
    grads = np.concatenate([_energy_and_gradient(fac, cfg, stencil[i:i + rows])[1]
                            for i in range(0, len(stencil), rows)])
    hess = ((grads[:x.size] - grads[x.size:]) / (2 * h)).T
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
    is halved until max|g| drops; if 30 halvings do not lower it, Newton stops.
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
        for k in range(30):
            trial = x + 0.5 ** k * step
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

    Deterministic for fixed (cfg.seed, seed, tol). Both kinds of start take
    one flow. A cold start grows the ansatz layer by layer with L-BFGS; a warm
    start from ``seed``, usually a converged result for a nearby Hamiltonian,
    begins exactly at ``seed.params``, which keeps displaced re-optimizations
    on the same local minimum, with ``seed.curvature``. Newton steps run from
    that start. Only if they end above ``tol`` is there one fallback: L-BFGS
    from the start, then Newton on a fresh Hessian; the converged, else the
    lower-energy, of the two end points is returned. ``n_iterations`` counts
    L-BFGS iterations and Newton steps. Non-convergence is reported through
    the ``converged`` flag, not raised. An ansatz without parameters (no
    layers, or one orbital) leaves the reference state, which is trivially
    stationary.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if n_parameters(fac.n_orbitals, cfg) == 0:
        energy, _ = _energy_and_gradient(fac, cfg, np.zeros(0))
        return VQEResult(np.zeros(0), energy, 0.0, True, 0)

    if seed is None:
        start, iterations = _grown_start(fac, cfg, tol, maxiter)
        curvature = None
    else:
        start, iterations, curvature = seed.params, 0, seed.curvature
    max_steps = min(20, maxiter)
    x, energy, grad, curvature, steps = _newton_polish(
        fac, cfg, start, tol, max_steps, curvature)
    iterations += steps
    grad_norm = float(np.max(np.abs(grad)))
    if not grad_norm <= tol:
        x_lbfgs, nit = _lbfgs(fac, cfg, start, tol, maxiter)
        x_fb, e_fb, g_fb, c_fb, steps = _newton_polish(fac, cfg, x_lbfgs, tol, max_steps)
        iterations += nit + steps
        gn_fb = float(np.max(np.abs(g_fb)))
        if gn_fb <= tol or e_fb < energy:  # converged first, then lower energy
            x, energy, grad_norm, curvature = x_fb, e_fb, gn_fb, c_fb

    converged = bool(grad_norm <= tol)
    if not converged:
        warnings.warn(f"optimizer stalled with gradient norm {grad_norm:.3e}",
                      stacklevel=2)
    return VQEResult(x, float(energy), grad_norm, converged, iterations, curvature)


def exact_ground_state(fac: XDFFactorization) -> tuple[Statevector, float]:
    """Lowest eigenstate of the factorized Hamiltonian in the electron sector.

    The Hamiltonian acts leaf by leaf on amplitude blocks; the dense matrix is
    built column by column from the block's basis states. Degeneracies are
    broken deterministically by fixing the sign of the first significant
    amplitude.
    """
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    shape = qsim.sector_shape(n, n_alpha, n_beta)
    dim = shape[0] * shape[1]
    hmat = np.zeros((dim, dim))
    for col in range(dim):
        basis = np.zeros(dim)
        basis[col] = 1.0
        state = Statevector(n, n_alpha, n_beta, basis.reshape(shape))
        hmat[:, col] = qsim.apply_hamiltonian(state, fac).reshape(-1)
    hmat = 0.5 * (hmat + hmat.T)
    evals, evecs = np.linalg.eigh(hmat)
    vec = evecs[:, 0]
    lead = np.nonzero(np.abs(vec) > 1e-8)[0]
    if lead.size and vec[lead[0]] < 0:
        vec = -vec
    return Statevector(n, n_alpha, n_beta, vec.reshape(shape)), float(evals[0])
