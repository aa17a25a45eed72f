"""Variational ground-state preparation with a number/spin-conserving ansatz.

The ansatz is a brickwork fabric over adjacent spatial-orbital pairs, laid
out by ``givens.brickwork`` at the configured layer count. Each block
carries two angles: a spin-locked orbital rotation followed by a
pair-exchange rotation between the two doubly-occupied configurations. Both
gates conserve particle number, S_z, and total spin on singlet references.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
]


@dataclass(frozen=True)
class AnsatzConfig:
    """Brickwork layer count and the seed for the random starting point. Zero
    layers is the parameterless ansatz, the reference state; a negative
    count is refused."""

    n_layers: int
    seed: int = 0

    def __post_init__(self):
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")


@dataclass(frozen=True, eq=False)
class VQEResult:
    """A solve's end point, its energy and max|g|, whether that is within the
    solve's ``tol``, and the L-BFGS iterations plus Newton steps it took.
    Every array is kept as a read-only float copy.

    ``curvature`` is the gauge-truncated pseudo-inverse of the last Hessian
    the solve stepped with (built by it or handed to it with its start), or
    None when no Hessian was ever built; a warm re-solve started with this
    curvature takes chord-Newton steps on it.

    ``grown`` holds a cold solve's grown start at every depth 1 .. L
    (``_grown_start``), and is empty for a warm solve. A solve of the same
    factorization, ``cfg.seed`` and ``tol`` at depth d <= L started at
    ``grown[d - 1]`` with no curvature runs the cold solve's path without
    its growth.
    """

    params: np.ndarray
    energy: float
    grad_norm: float
    converged: bool
    n_iterations: int
    curvature: np.ndarray | None = None
    grown: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for name in ("params", "curvature"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(np.array(value, float))[0])
        object.__setattr__(self, "grown", read_only(*(np.array(p, float) for p in self.grown)))


STENCIL_SWEEP_ENTRIES = 1 << 20  # gate-factor entries of one batched sweep (8 MB a table)
# Hessian eigen-directions with curvature below these fractions of the largest
# are dropped from a Newton step: first as flat (gauge) directions of the
# ansatz, then, once that step stalls, only below the central difference's
# noise, so that a soft but real mode is stepped along as well.
GAUGE_RCOND = 1e-6
NOISE_RCOND = 1e-9
# A freshly built Hessian whose gauge-free Newton step moves some angle by
# more than this (radians) marks the point as outside Newton's basin.
NEWTON_REACH = 0.3
# Each grown depth runs L-BFGS only until max|g| <= 0.1 max(tol, BASIN_TOL):
# far enough into the basin for Newton to finish to tol.
BASIN_TOL = 1e-3


def n_parameters(n_spatial: int, cfg: AnsatzConfig) -> int:
    return 2 * len(brickwork(n_spatial, cfg.n_layers))


def _forward_sweep(fac: XDFFactorization, cfg: AnsatzConfig, points: np.ndarray):
    """The ansatz at the (B, P) points: its gate table (``qsim.ansatz_table``),
    the flat blocks as (B, dim) and the kernel factors of every gate,
    ``where(mask, cos, 1)`` and ``sin * sign``, as two contiguous (K, B,
    dim) arrays, gate k's at ``[k]``, each built once. A block's alpha and
    beta gates take its locked rotation's angle, its exchange gate the
    next. The inverse of gate k takes the same ``scale`` and ``-shift``:
    cos is even and sin is odd."""
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    blocks = brickwork(n, cfg.n_layers)
    if points.shape[1:] != (2 * len(blocks),):
        raise ValueError(f"expected {2 * len(blocks)} parameters, got {points.shape[1:]}")
    table = qsim.ansatz_table(n, n_alpha, n_beta, blocks)
    gate_params = (2 * np.arange(len(blocks))[:, None] + [0, 0, 1]).ravel()
    angles = points.T[gate_params, :, None]
    scale = np.where(table.mask[:, None], np.cos(angles), 1.0)
    shift = np.sin(angles) * table.sign[:, None]
    reference = qsim.hf_reference(n, n_alpha, n_beta).amplitudes.reshape(1, -1)
    psi = np.repeat(reference, len(points), axis=0)
    for k in range(len(gate_params)):
        psi = qsim.apply_gate(psi, table, k, scale[k], shift[k])
    return table, psi, scale, shift


def prepare_state(fac: XDFFactorization, cfg: AnsatzConfig,
                  params: np.ndarray) -> Statevector:
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    _, psi, _, _ = _forward_sweep(fac, cfg, np.asarray(params, dtype=float)[None])
    return Statevector(n, n_alpha, n_beta,
                       psi[0].reshape(qsim.sector_shape(n, n_alpha, n_beta)))


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
    at once, on the forward sweep's factors with ``shift`` negated, the
    alpha gate of a block before its beta gate; each gate's
    derivative is read off its generator, 2 <lambda| K |psi>, from the
    entries it acts on, taken where the sweep passes it. The locked
    rotation's generator is the sum of its alpha and beta ones, which
    commute.
    """
    n, n_alpha, n_beta = fac.n_orbitals, fac.n_alpha, fac.n_beta
    params = np.asarray(params, dtype=float)
    points = params[None] if params.ndim == 1 else params
    table, psi, scale, shift = _forward_sweep(fac, cfg, points)
    kets = np.empty((2, *psi.shape))
    kets[0] = psi
    energy = np.empty(len(points))
    shape = qsim.sector_shape(n, n_alpha, n_beta)
    for b, amps in enumerate(psi):
        ket = Statevector(n, n_alpha, n_beta, amps.reshape(shape))
        kets[1, b] = qsim.apply_hamiltonian(ket, fac).reshape(-1)
        energy[b] = np.vdot(ket.amplitudes, kets[1, b])

    np.negative(shift, out=shift)  # gate k's inverse: cos is even and sin is odd
    reads = [None] * len(table.pairs)
    for i in reversed(range(len(table.pairs) // 3)):
        alpha, beta, exchange = 3 * i, 3 * i + 1, 3 * i + 2
        kets = qsim.apply_gate(kets, table, exchange, scale[exchange], shift[exchange])
        reads[exchange] = kets.take(table.pairs[exchange], axis=-1)
        for k in (alpha, beta):
            kets = qsim.apply_gate(kets, table, k, scale[k], shift[k])
        for k in (alpha, beta):
            reads[k] = kets.take(table.pairs[k], axis=-1)
    grad = np.zeros(points.shape)
    if table.pairs:
        alpha_terms, beta_terms, exchange_terms = (
            _generator_terms(reads[kind::3]) for kind in range(3))
        grad[:, 0::2] = 2.0 * (beta_terms + alpha_terms)
        grad[:, 1::2] = 2.0 * exchange_terms
    if params.ndim == 1:
        return float(energy[0]), grad[0]
    return energy, grad


def _cubic_step(a: float, fa: float, da: float, b: float, fb: float, db: float):
    """The minimizer of the cubic through (a, fa, da) and (b, fb, db) as the
    fraction r of the way from a to b, and the cubic's gamma, which is 0
    when the cubic has no minimizer."""
    theta = 3.0 * (fa - fb) / (b - a) + da + db
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    if b < a:
        gamma = -gamma
    return ((gamma - da) + theta) / (((gamma - da) + gamma) + db), gamma


def _safeguarded_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, lo, hi):
    """One trial step of Moré and Thuente (ACM TOMS 20, 286 (1994), Sec. 4),
    as MINPACK-2's ``dcstep``: stx is the best step so far, sty the other
    end of the interval, stp the step just evaluated, lo and hi bound the
    next step while no minimizer is bracketed. Returns the updated stx, fx,
    dx, sty, fy, dy, the next step and whether a minimizer is bracketed."""
    opposite = dp < 0 < dx or dx < 0 < dp
    if fp > fx:                                   # higher value: bracketed
        r, _ = _cubic_step(stx, fx, dx, stp, fp, dp)
        cubic = stx + r * (stp - stx)
        quad = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        new = cubic if abs(cubic - stx) < abs(quad - stx) else cubic + (quad - cubic) / 2.0
        bracketed = True
    elif opposite:                                # the derivative changed sign
        r, _ = _cubic_step(stp, fp, dp, stx, fx, dx)
        cubic = stp + r * (stx - stp)
        secant = stp + dp / (dp - dx) * (stx - stp)
        new = cubic if abs(cubic - stp) > abs(secant - stp) else secant
        bracketed = True
    elif abs(dp) < abs(dx):                       # the derivative shrank
        r, gamma = _cubic_step(stp, fp, dp, stx, fx, dx)
        if r < 0 and gamma != 0:
            cubic = stp + r * (stx - stp)
        else:
            cubic = hi if stp > stx else lo
        secant = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            new = cubic if abs(cubic - stp) < abs(secant - stp) else secant
            limit = stp + 0.66 * (sty - stp)
            new = min(limit, new) if stp > stx else max(limit, new)
        else:
            new = cubic if abs(cubic - stp) > abs(secant - stp) else secant
            new = min(max(new, lo), hi)
    elif bracketed:                               # the derivative grew
        r, _ = _cubic_step(stp, fp, dp, sty, fy, dy)
        new = stp + r * (sty - stp)
    else:
        new = hi if stp > stx else lo
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, new, bracketed


def _wolfe_search(fun, x: np.ndarray, d: np.ndarray, f0: float, slope0: float,
                  step: float):
    """A Moré–Thuente line search from x along the descent direction d, as
    MINPACK-2's ``dcsrch`` with ftol 1e-3, gtol 0.9, xtol 0.1 and steps in
    [0, 1e10]: at most 20 evaluations of ``fun`` for a strong-Wolfe step,
    f <= f0 + 1e-3 step slope0 and |slope| <= 0.9 |slope0|.

    When the bracket shrinks below xtol, or rounding or a degenerate
    interpolant stops progress, the best step so far (``dcsrch``'s stx) is
    taken, as L-BFGS-B takes a ``dcsrch`` warning. Returns (point, f, g),
    or None when that best step is still 0 or the 20 evaluations run out,
    and the evaluations spent.
    """
    gtest = 1e-3 * slope0
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = slope0
    best = None
    bracketed, stage1 = False, True
    width, width1 = 1e10, 2e10
    lo, hi = 0.0, 5.0 * step
    for evals in range(1, 21):
        point = x + step * d
        f, g = fun(point)
        slope = float(g @ d)
        ftest = f0 + step * gtest
        if f <= ftest and abs(slope) <= -0.9 * slope0:
            return (point, f, g), evals
        if stage1 and f <= ftest and slope >= 0:
            stage1 = False
        # Until a step has sufficient decrease and a nonnegative slope, a
        # lower f without sufficient decrease is stepped on through
        # psi(t) = f(t) - f0 - t gtest.
        shift = gtest if stage1 and ftest < f <= fx else 0.0
        try:
            stx, fx, gx, sty, fy, gy, new, bracketed = _safeguarded_step(
                stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
                step, f - step * shift, slope - shift, bracketed, lo, hi)
        except ZeroDivisionError:
            return best, evals
        fx, gx, fy, gy = fx + stx * shift, gx + shift, fy + sty * shift, gy + shift
        if stx == step:
            best = (point, f, g)
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                new = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            lo, hi = min(stx, sty), max(stx, sty)
        else:
            lo, hi = new + 1.1 * (new - stx), new + 4.0 * (new - stx)
        step = min(max(new, 0.0), 1e10)
        if bracketed and (step <= lo or step >= hi or hi - lo <= 0.1 * hi):
            return best, evals
    return None, evals


def _minimize_lbfgs(fun, x: np.ndarray, gtol: float, maxiter: int):
    """L-BFGS (Liu and Nocedal, Math. Program. 45, 503 (1989)) as L-BFGS-B
    runs it on an unbounded problem: 10 correction pairs, the first trial
    step 1/|g|_2 and then 1, ``_wolfe_search`` for the step. A pair is
    skipped when s.y <= eps y.y. ``fun`` maps a point to (f, g).

    Stops when max|g| <= gtol, when a step lowers f by at most 1e-18 of
    max(|f|, 1), after ``maxiter`` iterations or 15000 evaluations, or when
    the direction does not descend or the line search finds no step; then
    at the last accepted point.
    Returns the end point and the iterations taken.
    """
    f, g = fun(x)
    evals, nit = 1, 0
    pairs = []                                    # (s, y, 1 / s.y), oldest first
    while np.max(np.abs(g)) > gtol and nit < maxiter and evals < 15000:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * (s @ d)
            d = d - alpha * y
            alphas.append(alpha)
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = float(g @ d)
        if not slope < 0:
            break
        step = 1.0 / np.linalg.norm(d) if nit == 0 else 1.0
        found, spent = _wolfe_search(fun, x, d, f, slope, step)
        evals += spent
        if found is None:
            break
        point, f_new, g_new = found
        nit += 1
        s, y = point - x, g_new - g
        x, f_old, f, g = point, f, f_new, g_new
        if f_old - f <= 1e-18 * max(abs(f_old), abs(f), 1.0):
            break
        sy = s @ y
        if sy > np.finfo(float).eps * (y @ y):
            pairs = [*pairs[-9:], (s, y, 1.0 / sy)]
    return x, nit


def _lbfgs(fac: XDFFactorization, cfg: AnsatzConfig, x0: np.ndarray,
           tol: float, maxiter: int):
    """L-BFGS on the ansatz energy from x0 to max|g| <= 0.1 tol (the Newton
    polish finishes to tol); returns the end point and the iterations."""
    return _minimize_lbfgs(lambda x: _energy_and_gradient(fac, cfg, x), x0,
                           0.1 * tol, maxiter)


def _hessian_modes(fac: XDFFactorization, cfg: AnsatzConfig,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hessian at x, a central difference
    of the adjoint gradient over the 2P stencil points x +- h e_i, evaluated
    as one batch (in slices of at most ``STENCIL_SWEEP_ENTRIES`` gate-factor
    entries, so deep N=8 stencils stay small), cheap at desk-scale parameter
    counts."""
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
    return np.linalg.eigh(hess)


def _pseudo_inverse(modes: tuple[np.ndarray, np.ndarray], rcond: float) -> np.ndarray:
    """Inverse of a Hessian given by its eigenvalues and eigenvectors
    ``modes``, on the eigen-directions with curvature above ``rcond`` of the
    largest; the others are dropped."""
    evals, evecs = modes
    cutoff = rcond * max(np.max(np.abs(evals)), 1e-300)
    inv = np.where(np.abs(evals) > cutoff, 1.0 / np.where(evals == 0, 1, evals), 0.0)
    return (evecs * inv) @ evecs.T


def _halved_step(fac: XDFFactorization, cfg: AnsatzConfig, x: np.ndarray,
                 step: np.ndarray, gmax: float):
    """The first of x + step, x + step / 2, ... (30 trials) whose max|g| is
    below gmax, with its energy and gradient; None when there is none."""
    for k in range(30):
        trial = x + 0.5 ** k * step
        e_new, g_new = _energy_and_gradient(fac, cfg, trial)
        if np.max(np.abs(g_new)) < gmax:
            return trial, e_new, g_new
    return None


def _newton_polish(fac: XDFFactorization, cfg: AnsatzConfig, x: np.ndarray,
                   tol: float, max_steps: int, curvature: np.ndarray | None = None):
    """Damped Newton steps on the exact gradient until max|g| <= tol.

    A chord step x - C g on the current pseudo-inverse Hessian C is taken when
    it at least halves max|g|. Otherwise the Hessian is rebuilt at x. If the
    Newton step on C without its gauge directions (``GAUGE_RCOND``) moves any
    angle by more than ``NEWTON_REACH``, x is outside Newton's basin and
    Newton stops there. Otherwise that step is halved until max|g| drops
    (``_halved_step``). If that stalls, the step on C with every mode above
    the noise (``NOISE_RCOND``) is tried the same way: a gradient left along a
    soft mode is not lowered otherwise, and the energy is too flat there for
    a line search to see. If both stall, Newton stops. Returns the end point,
    its energy and gradient, the last C and the number of steps taken.
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
        modes = _hessian_modes(fac, cfg, x)
        curvature = _pseudo_inverse(modes, GAUGE_RCOND)
        step = -curvature @ grad
        if np.max(np.abs(step)) > NEWTON_REACH:
            break
        found = _halved_step(fac, cfg, x, step, gmax)
        if found is None:
            curvature = _pseudo_inverse(modes, NOISE_RCOND)
            found = _halved_step(fac, cfg, x, -curvature @ grad, gmax)
        if found is None:
            break
        x, energy, grad = found
        steps += 1
    return x, energy, grad, curvature, steps


def _grown_start(fac: XDFFactorization, cfg: AnsatzConfig, tol: float,
                 maxiter: int) -> tuple[list[np.ndarray], int]:
    """Optimize layer by layer, embedding each solution into the next depth.

    Blocks are ordered by layer, so a shallower solution is a parameter
    prefix of the deeper ansatz. Each depth, the full one included, runs
    L-BFGS only into its basin, to max|g| <= 0.1 max(tol, ``BASIN_TOL``): a
    shallow point only seeds the next depth, and Newton finishes the full
    depth to tol. A depth's point depends only on the depths before it, so
    it is also the grown start of a shallower solve. Returns the point of
    every depth and the L-BFGS iterations spent.
    """
    rng = np.random.default_rng(cfg.seed)
    params = np.zeros(0)
    grown, total = [], 0
    for depth in range(1, cfg.n_layers + 1):
        sub = AnsatzConfig(depth, cfg.seed)
        fresh = n_parameters(fac.n_orbitals, sub) - params.size
        x0 = np.concatenate([params, 0.05 * rng.standard_normal(fresh)])
        params, nit = _lbfgs(fac, sub, x0, max(tol, BASIN_TOL), maxiter)
        grown.append(params)
        total += nit
    return grown, total


def optimize(fac: XDFFactorization, cfg: AnsatzConfig, tol: float = 1e-10,
             start: np.ndarray | None = None, curvature: np.ndarray | None = None,
             maxiter: int = 2000) -> VQEResult:
    """Minimize the factorized energy over the ansatz angles.

    Deterministic for fixed (cfg.seed, start, curvature, tol). Every solve
    is Newton steps from a start already near the answer. With no ``start``
    the solve is cold: it grows the ansatz layer by layer with L-BFGS, each
    depth only into its basin (``_grown_start``), keeps every depth's point
    as ``grown`` and reads no ``curvature``. With a ``start``, usually a
    solved or predicted point of a nearby Hamiltonian, it is warm: it
    begins exactly there, which keeps displaced re-solves on the same local
    minimum, with chord steps on ``curvature`` (a result's) when given.
    Only if Newton ends above ``tol``, stalled or with the start outside
    its reach, is there one fallback: L-BFGS from the start to 0.1 tol,
    then Newton on a fresh Hessian; the converged, else the lower-energy,
    end point is returned. ``n_iterations`` counts L-BFGS iterations and
    Newton steps. Non-convergence is reported through ``converged``, not
    raised. An ansatz without parameters (no layers, or one orbital) leaves
    the reference state, which is trivially stationary.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if n_parameters(fac.n_orbitals, cfg) == 0:
        energy, _ = _energy_and_gradient(fac, cfg, np.zeros(0))
        return VQEResult(np.zeros(0), energy, 0.0, True, 0)

    if start is None:
        grown, iterations = _grown_start(fac, cfg, tol, maxiter)
        start, curvature = grown[-1], None
    else:
        grown, iterations, start = (), 0, np.asarray(start, dtype=float)
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
    return VQEResult(x, float(energy), grad_norm, converged, iterations, curvature, grown)
