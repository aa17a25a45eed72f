"""Variational ground-state preparation with a number/spin-conserving ansatz.

The ansatz is a brickwork fabric over adjacent spatial-orbital pairs, laid
out by ``givens.brickwork`` at the configured layer count. Each block
carries two angles: a spin-locked orbital rotation followed by a
pair-exchange rotation between the two doubly-occupied configurations. Both
gates conserve particle number, S_z, and total spin on singlet references.

Every solve is one trust-region loop on a quadratic model of the energy
(``_trust_region``); ``VQEResult.curvature`` hands the model to the next
solve. The loop, the growth and the central-difference Hessian are
generators that yield the points they need and are sent (f, g) there, so
``lockstep`` can run independent solves together, one batched adjoint
sweep per round (``optimize_all``, and verify's campaign).
"""

from __future__ import annotations

import math
import sys
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
    "optimize_all",
    "solve_task",
    "lockstep",
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
    solve's ``tol``, and the trust-region steps it took.
    Every array is kept as a read-only float copy.

    ``curvature`` is the (P, P) Hessian of the quadratic model the solve
    ended with: a central-difference Hessian or the model handed to it,
    updated by every trial step since; None when the solve took no step and
    was handed no model. A warm re-solve started with it steps on it.

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
# A trust-region step keeps the model's eigen-directions with curvature
# above STIFF_RCOND of the largest, and those above SOFT_RCOND whose gradient
# component is still above the tolerance: the rest are flat (gauge)
# directions of the ansatz or the central difference's noise.
STIFF_RCOND = 1e-6
SOFT_RCOND = 1e-9
TRUST_RADIUS = 0.3  # radians: the first trust radius of every loop
MAX_RADIUS = 2.0    # radians: the largest
# Each grown depth runs only until max|g| <= 0.1 max(tol, BASIN_TOL): far
# enough into the basin for the full depth's finish to reach tol.
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


def _energy_and_gradient(fac, cfg: AnsatzConfig, params: np.ndarray):
    """Energy and its exact parameter gradient via one reverse sweep: a float
    and (P,) at a (P,) point, or (B,) and (B, P) at a (B, P) stack of
    points, batch axis leading as in ``qsim.apply_gate``. ``fac`` is the
    factorization of every row, or a sequence of B factorizations of one
    filling, one per row. Every row comes out bitwise as its own
    single-point call.

    H is applied one point at a time, with the row's own factorization. The
    kets and lambda = H|psi> are stacked as (2, B, dim) and every gate of
    the table is un-applied to both at once, on the forward sweep's factors
    with ``shift`` negated, the alpha gate of a block before its beta gate;
    each gate's derivative is read off its generator, 2 <lambda| K |psi>,
    from the entries it acts on, taken where the sweep passes it. The locked
    rotation's generator is the sum of its alpha and beta ones, which
    commute.
    """
    params = np.asarray(params, dtype=float)
    points = params[None] if params.ndim == 1 else params
    facs = [fac] * len(points) if isinstance(fac, XDFFactorization) else fac
    n, n_alpha, n_beta = facs[0].n_orbitals, facs[0].n_alpha, facs[0].n_beta
    table, psi, scale, shift = _forward_sweep(facs[0], cfg, points)
    kets = np.empty((2, *psi.shape))
    kets[0] = psi
    energy = np.empty(len(points))
    shape = qsim.sector_shape(n, n_alpha, n_beta)
    for b, amps in enumerate(psi):
        ket = Statevector(n, n_alpha, n_beta, amps.reshape(shape))
        kets[1, b] = qsim.apply_hamiltonian(ket, facs[b]).reshape(-1)
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


def _evaluate(facs, cfg: AnsatzConfig, points: np.ndarray):
    """``_energy_and_gradient`` of a (B, P) stack, row b on ``facs[b]``, in
    slices of at most ``STENCIL_SWEEP_ENTRIES`` gate-factor entries, so deep
    N=8 batches stay small."""
    if len(points) > 1:
        fac = facs[0]
        entries = 3 * points.shape[1] // 2 * math.prod(
            qsim.sector_shape(fac.n_orbitals, fac.n_alpha, fac.n_beta))
        rows = max(1, STENCIL_SWEEP_ENTRIES // max(1, entries))
        if len(points) > rows:
            parts = [_energy_and_gradient(facs[i:i + rows], cfg, points[i:i + rows])
                     for i in range(0, len(points), rows)]
            return tuple(np.concatenate(part) for part in zip(*parts))
    return _energy_and_gradient(facs, cfg, points)


def _fd_hessian(x: np.ndarray):
    """The Hessian at x, the symmetrized central difference of the adjoint
    gradient over the 2P stencil points x +- h e_i. A generator: it yields
    the stencil as one (2P, P) stack, is sent its energies and gradients
    and returns the Hessian."""
    h = 1e-5
    diag = np.arange(x.size)
    stencil = np.tile(x, (2, x.size, 1))
    stencil[0, diag, diag] += h
    stencil[1, diag, diag] -= h
    _, grads = yield stencil.reshape(-1, x.size)
    hess = ((grads[:x.size] - grads[x.size:]) / (2 * h)).T
    return 0.5 * (hess + hess.T)


def _model_step(evals: np.ndarray, coef: np.ndarray, radius: float) -> np.ndarray:
    """The minimizer of coef.s + s.(evals s) / 2 over |s| <= radius, for
    ascending evals, as Moré and Sorensen (SIAM J. Sci. Stat. Comput. 4, 553
    (1983)) find it in the model's eigenbasis: the Newton step when the
    model is convex and that step inside; else the boundary step (evals +
    sigma) s = -coef, sigma >= max(0, -evals[0]), by Newton's method on
    1/|s| = 1/radius from below the root; in the hard case, where coef has
    no part on the lowest modes, the rest of the step at sigma = -evals[0]
    plus the lowest mode out to the radius."""
    if evals[0] > 0 and (np.abs(coef) <= radius * evals).all():
        step = -coef / evals
        if step @ step <= radius ** 2:
            return step
    gap = evals - evals[0]
    lowest = gap == 0
    if evals[0] <= 0 and (np.abs(coef) <= radius * gap).all():
        step = -np.divide(coef, gap, out=np.zeros_like(coef), where=~lowest)
        if step @ step <= radius ** 2:
            step[np.argmax(lowest)] = math.sqrt(radius ** 2 - step @ step)
            return step
    # shift = sigma + evals[0], from below the root: no |s_i| exceeds radius
    shift = max(evals[0], 0.0, np.linalg.norm(coef[lowest]) / radius,
                (np.abs(coef) / radius - gap).max())
    live = coef != 0
    lift, part = gap[live], coef[live]
    for _ in range(100):
        ratios = part / (lift + shift)
        norm2 = ratios @ ratios
        if norm2 <= (radius * (1 + 1e-10)) ** 2:
            break
        norm = math.sqrt(norm2)
        shift += (norm / radius - 1.0) * norm2 / np.sum(ratios ** 2 / (lift + shift))
    step = np.zeros_like(coef)
    step[live] = -part / (lift + shift)
    return step


def _sr1(hess: np.ndarray, step: np.ndarray, dgrad: np.ndarray) -> np.ndarray:
    """The symmetric-rank-one update of hess that maps ``step`` to ``dgrad``,
    hess + r r^T / (r . step) with r = dgrad - hess step (Nocedal and
    Wright, Numerical Optimization, eq. 6.24). It is skipped when |r . step|
    is at most 2e-3 |r| |step|: the update then puts a curvature of
    |r| / (|step| cos) on r, and a small mismatch r orthogonal to a short
    step, such as a handed model's error for a nearby Hamiltonian, would
    become a large spurious curvature."""
    r = dgrad - hess @ step
    denom = r @ step
    if abs(denom) <= 2e-3 * math.sqrt((r @ r) * (step @ step)):
        return hess
    return hess + r[:, None] * (r / denom)


def _trust_region(x: np.ndarray, hess: np.ndarray | None, gtol: float, maxiter: int):
    """Trust-region steps on a quadratic model of f from x until max|g| <= gtol.

    A generator: it yields each point it needs as a (1, P) stack, and each
    model Hessian it needs as ``_fd_hessian``'s stencil, and is sent (f, g)
    there as (B,) energies and (B, P) gradients. ``hess`` is the model
    Hessian to start from; None asks for a central-difference Hessian at x
    (``_fd_hessian``), once, when the first step is needed. Each step is
    ``_model_step`` on the model's eigen-directions with curvature above
    ``STIFF_RCOND`` of the largest, and those above ``SOFT_RCOND`` whose
    gradient component exceeds gtol. Every trial point updates the model
    (``_sr1``), as in Byrd, Khalfan and Schnabel's analysis of symmetric-
    rank-one trust regions (SIAM J. Optim. 6, 1025 (1996)). A trial is taken
    when f falls by more than 1e-4 of the predicted decrease, or at the flat
    end, where f differences are rounding, when max|g| falls and f rises by
    at most 1e-13 |f|. The radius starts at ``TRUST_RADIUS``. On a ratio of
    actual to predicted decrease below 0.25 it shrinks to a quarter of the
    step, unless the trial is taken with a predicted decrease below 1e-13
    |f|, where the ratio is noise, and to a sixteenth from the third refusal
    in a row, when the updates have not mended the model; on a ratio above
    0.75 at the boundary it doubles, up to ``MAX_RADIUS``. Stops at max|g|
    <= gtol, after ``maxiter`` taken steps, or when a step predicts no
    decrease or no longer moves x; refused trials shrink the radius, so that
    comes after a bounded number of them. Returns the end point, f and g
    there, the model (None if none was given or built) and the steps taken.
    """
    energies, grads = yield x[None]
    f, g = float(energies[0]), grads[0]
    gmax = np.abs(g).max()
    hess = None if hess is None else np.array(hess, dtype=float)
    radius, steps, refused = TRUST_RADIUS, 0, 0
    while gmax > gtol and steps < maxiter:
        if hess is None:
            hess = yield from _fd_hessian(x)
        evals, evecs = np.linalg.eigh(hess)
        coef = evecs.T @ g
        size = np.abs(evals)
        rcond = np.where(np.abs(coef) > gtol, SOFT_RCOND, STIFF_RCOND)
        keep = size >= rcond * np.max(size)
        evals, coef = evals[keep], coef[keep]
        local = _model_step(evals, coef, radius)
        predicted = -(coef + 0.5 * evals * local) @ local
        step = evecs[:, keep] @ local
        trial = x + step
        if not predicted > 0 or (trial == x).all():
            break
        energies, grads = yield trial[None]
        f_new, g_new = float(energies[0]), grads[0]
        gmax_new = np.abs(g_new).max()
        hess = _sr1(hess, step, g_new - g)
        ratio = (f - f_new) / predicted
        taken = ratio > 1e-4 or (gmax_new < gmax and f_new - f <= 1e-13 * abs(f))
        length = math.sqrt(local @ local)
        refused = 0 if taken else refused + 1
        if ratio < 0.25 and (predicted >= 1e-13 * abs(f) or not taken):
            radius = (0.25 if refused < 3 else 0.0625) * length
        elif ratio > 0.75 and length >= 0.99 * radius:
            radius = min(2.0 * radius, MAX_RADIUS)
        if taken:
            x, f, g, gmax = trial, f_new, g_new, gmax_new
            steps += 1
    return x, f, g, hess, steps


def _on_ansatz(fac: XDFFactorization, cfg: AnsatzConfig, steps):
    """``steps``, a generator of the solve loop, with each point stack it
    yields paired with the factorization and ansatz it is for: yields (fac,
    cfg, points), passes on what it is sent and returns what ``steps``
    returns."""
    reply = None
    while True:
        try:
            points = steps.send(reply)
        except StopIteration as done:
            return done.value
        reply = yield fac, cfg, points


def _grown_start(fac: XDFFactorization, cfg: AnsatzConfig, tol: float, maxiter: int):
    """Optimize layer by layer, embedding each solution into the next depth.

    Blocks are ordered by layer, so a shallower solution is a parameter
    prefix of the deeper ansatz. Each depth, the full one included, runs
    ``_trust_region`` only into its basin, to max|g| <= 0.1 max(tol,
    ``BASIN_TOL``), on the previous depth's model padded with the identity:
    a shallow point only seeds the next depth, and the full depth is
    finished to tol from a fresh Hessian. A depth's point depends only on
    the depths before it, so it is also the grown start of a shallower
    solve. A generator that yields (fac, depth's config, points), as
    ``_on_ansatz``; returns the point of every depth and the trust-region
    steps spent.
    """
    rng = np.random.default_rng(cfg.seed)
    params, model = np.zeros(0), np.zeros((0, 0))
    grown, total = [], 0
    for depth in range(1, cfg.n_layers + 1):
        sub = AnsatzConfig(depth, cfg.seed)
        fresh = n_parameters(fac.n_orbitals, sub) - params.size
        x0 = np.concatenate([params, 0.05 * rng.standard_normal(fresh)])
        padded = np.eye(x0.size)
        padded[:params.size, :params.size] = model
        params, _, _, model, steps = yield from _on_ansatz(fac, sub, _trust_region(
            x0, padded, 0.1 * max(tol, BASIN_TOL), maxiter))
        grown.append(params)
        total += steps
    return grown, total


def solve_task(fac: XDFFactorization, cfg: AnsatzConfig, tol: float = 1e-10,
               start: np.ndarray | None = None, curvature: np.ndarray | None = None,
               maxiter: int = 2000):
    """One ``optimize`` solve as a ``lockstep`` task: a generator that
    yields (fac, cfg, points), as ``_on_ansatz``, is sent (energies, grads)
    there and returns its ``VQEResult``."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if n_parameters(fac.n_orbitals, cfg) == 0:
        energies, _ = yield fac, cfg, np.zeros((1, 0))
        return VQEResult(np.zeros(0), float(energies[0]), 0.0, True, 0)

    if start is None:
        grown, iterations = yield from _grown_start(fac, cfg, tol, maxiter)
        start, curvature = grown[-1], None
    else:
        grown, iterations = (), 0
    x, energy, grad, model, steps = yield from _on_ansatz(fac, cfg, _trust_region(
        np.asarray(start, dtype=float), curvature, tol, maxiter))
    grad_norm = float(np.max(np.abs(grad)))
    return VQEResult(x, energy, grad_norm, bool(grad_norm <= tol), iterations + steps,
                     model, grown)


def _replies(asked: dict, members: list) -> list:
    """(t, (energies, grads)) for each task t of ``members``, from one
    ``_evaluate`` call on the points each asks for in ``asked``, (fac, cfg,
    points), every row on its own task's factorization: the points of one
    task as they were asked for, of several concatenated."""
    if len(members) == 1:
        fac, cfg, points = asked[members[0]]
        return [(members[0], _evaluate([fac] * len(points), cfg, points))]
    stacks = [asked[t][2] for t in members]
    facs = [asked[t][0] for t, stack in zip(members, stacks) for _ in range(len(stack))]
    energies, grads = _evaluate(facs, asked[members[0]][1], np.concatenate(stacks))
    replies, end = [], 0
    for t, stack in zip(members, stacks):
        start, end = end, end + len(stack)
        replies.append((t, (energies[start:end], grads[start:end])))
    return replies


def _round(asked: dict) -> list:
    """One lockstep round: the points every task asks for in ``asked``,
    grouped by filling and ``AnsatzConfig``, each group evaluated by one
    ``_replies`` call. A group whose call raises is evaluated task by task,
    and a task whose own points raise gets that exception as its reply, as
    it would meet it in a solve alone."""
    groups = {}
    for t, (fac, cfg, _) in asked.items():
        groups.setdefault((fac.n_orbitals, fac.n_alpha, fac.n_beta, cfg), []).append(t)
    replies = []
    for members in groups.values():
        try:
            replies += _replies(asked, members)
        except Exception:
            for t in members:
                try:
                    replies += _replies(asked, [t])
                except Exception as exc:
                    replies.append((t, exc))
    return replies


def lockstep(tasks) -> list:
    """Runs ``tasks`` together and returns what each returned, in order.

    A task is a generator that yields (fac, cfg, points), as
    ``solve_task`` does, and is sent (energies, grads) there. Every round
    evaluates the points of every unfinished task (``_round``). Rows come
    out bitwise as single-point calls, so each task sees the bits it would
    see alone. An exception ends only its own task; once every task has
    ended, the exception of the first failed task is raised.
    """
    tasks = list(tasks)
    outcomes, errors, asked = [None] * len(tasks), {}, {}

    def advance(t, resume, reply):
        try:
            asked[t] = resume(reply)
        except StopIteration as done:
            outcomes[t] = done.value
        except Exception as exc:
            errors[t] = exc

    for t, task in enumerate(tasks):
        advance(t, task.send, None)
    while asked:
        for t, reply in _round(asked):
            del asked[t]
            task = tasks[t]
            advance(t, task.throw if isinstance(reply, Exception) else task.send, reply)
    if errors:
        raise errors[min(errors)]
    return outcomes


def _warn_stalled(results) -> None:
    """Warns once for each result that stopped above its tolerance, at the
    first caller outside this module."""
    level, frame = 1, sys._getframe()
    while frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    for result in results:
        if not result.converged:
            warnings.warn(f"optimizer stalled with gradient norm {result.grad_norm:.3e}",
                          stacklevel=level)


def optimize_all(requests) -> list[VQEResult]:
    """Run independent ``optimize`` solves in lockstep; their results, in order.

    Each request is a tuple of ``optimize``'s arguments, (fac, cfg[, tol,
    start, curvature, maxiter]), and runs as a ``solve_task`` of
    ``lockstep``. Every round gathers the points each unfinished solve asks
    for next and evaluates them grouped by filling and ``AnsatzConfig``: one
    ``_energy_and_gradient`` sweep per group, sliced at
    ``STENCIL_SWEEP_ENTRIES``, each row on its own request's factorization,
    a group of one on its points as they were asked for. Rows come out
    bitwise as single-point calls, so each result is bitwise what the solve
    gives alone. A solve that stops above its ``tol`` warns once, after the
    last round. If solves fail, the error of the first in request order is
    raised once every solve has ended.
    """
    results = lockstep(solve_task(*request) for request in requests)
    _warn_stalled(results)
    return results


def optimize(fac: XDFFactorization, cfg: AnsatzConfig, tol: float = 1e-10,
             start: np.ndarray | None = None, curvature: np.ndarray | None = None,
             maxiter: int = 2000) -> VQEResult:
    """Minimize the factorized energy over the ansatz angles: ``optimize_all``
    of this one request.

    Deterministic for fixed (cfg.seed, start, curvature, tol). Every solve
    ends with ``_trust_region`` steps to max|g| <= tol. With no ``start``
    the solve is cold: it grows the ansatz layer by layer, each depth only
    into its basin (``_grown_start``), keeps every depth's point as
    ``grown``, reads no ``curvature`` and finishes from a central-difference
    Hessian at the full depth's point (``_fd_hessian``). With a ``start``,
    usually a solved or predicted point of a nearby Hamiltonian, it is
    warm: it begins exactly there, which keeps displaced re-solves on the
    same local minimum, on the model ``curvature`` (a result's) when given,
    else on a central-difference Hessian there. Each run of the loop takes
    at most ``maxiter`` steps; ``n_iterations`` counts the steps taken by
    every loop, growth included.
    Non-convergence is reported through ``converged``, not raised. An
    ansatz without parameters (no layers, or one orbital) leaves the
    reference state, which is trivially stationary.
    """
    return optimize_all([(fac, cfg, tol, start, curvature, maxiter)])[0]
