"""Fixed-pivot Givens fabrics: decomposition of SO(N), reconstruction, Jacobians.

Conventions (fixed once, relied on by every other module):

* A pivot ``(m, m+1)`` rotation acts on coordinates m and m+1 as
  ``[[cos t, -sin t], [sin t, cos t]]``.
* The pivot layout is the rectangle (brickwork) mesh: layer ``l`` carries
  pivots ``(m, m+1)`` for ``m = l % 2, l % 2 + 2, ...``, for ``l = 0 .. N-1``,
  giving ``N (N - 1) / 2`` pivots in total.
* ``reconstruct`` multiplies gates in application order: the first fabric
  entry is the rightmost matrix factor, i.e. ``U = G_K ... G_2 G_1``.
* Angles live in (-pi, pi].
* Strictly-lower-triangular entries are ordered as ``lower_indices(N)``,
  the row-major ``np.tril_indices(N, -1)``.

Every fabric of one N shares the same pivots, so a ``GivensFabric`` is one
fabric, (K,) angles, or a stack of B fabrics, (B, K) angles, one angle per
member at each gate. ``decompose`` turns one matrix into one fabric and a
(B, N, N) stack into one stacked fabric; ``reconstruct`` and ``jacobian``
keep the stack as the leading axis of what they return. What depends only
on N (the elimination schedule, the order of the factors, which factor
absorbs each sign flip, the permutation into rectangle order and the pivot
chains of the branch reduction) is a cached, read-only ``_Plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GivensFabric",
    "rectangle_pivots",
    "lower_indices",
    "decompose",
    "reconstruct",
    "jacobian",
]

ORTHOGONALITY_TOL = 1e-10


@lru_cache(maxsize=16)
def rectangle_pivots(n: int) -> tuple[tuple[int, int], ...]:
    """Rectangle-layout pivot sequence in gate application order. Cached."""
    pivots = []
    for layer in range(n):
        for m in range(layer % 2, n - 1, 2):
            pivots.append((m, m + 1))
    return tuple(pivots)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly-lower triangle of an n x n
    matrix, row-major. Cached; the arrays are read-only."""
    return _read_only(*np.tril_indices(n, -1))


@dataclass(frozen=True)
class GivensFabric:
    """Plane-rotation angles on the rectangle pivot layout: (K,) for one
    fabric, (B, K) for a stack of B fabrics of one N. Read-only."""

    n: int
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.array(self.angles, dtype=float))
        self.angles.setflags(write=False)
        k = len(self.pivots)
        if self.angles.ndim not in (1, 2) or self.angles.shape[-1] != k:
            raise ValueError(f"angles have shape {self.angles.shape}, "
                             f"expected ({k},) or (B, {k})")

    @property
    def pivots(self) -> tuple[tuple[int, int], ...]:
        return rectangle_pivots(self.n)


def _rotate_rows(u: np.ndarray, m: int, c: np.ndarray, s: np.ndarray) -> None:
    """Left-multiply every member of the stack u (B, n, k) in place by the
    pivot (m, m+1) rotation with its cosine and sine, c and s of shape (B, 1)."""
    row_m = u[:, m].copy()
    u[:, m] = c * row_m - s * u[:, m + 1]
    u[:, m + 1] = s * row_m + c * u[:, m + 1]


def _sweep(n: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fabric products of a (B, K) angle stack, gates applied in order
    to the rows of the identity, and rows m and m+1 of each partial product
    just before gate g on pivot (m, m+1), as (B, K, n) stacks."""
    prefix = np.tile(np.eye(n), (len(angles), 1, 1))
    lo = np.empty((*angles.shape, n))
    hi = np.empty_like(lo)
    c, s = np.cos(angles)[:, :, None], np.sin(angles)[:, :, None]
    for g, (m, _) in enumerate(rectangle_pivots(n)):
        lo[:, g], hi[:, g] = prefix[:, m], prefix[:, m + 1]
        _rotate_rows(prefix, m, c[:, g], s[:, g])
    return prefix, lo, hi


def reconstruct(fabric: GivensFabric) -> np.ndarray:
    """Ordered product of a fabric's plane rotations (first pivot applied
    first): (N, N) for one fabric, (B, N, N) for a stack."""
    product = _sweep(fabric.n, np.atleast_2d(fabric.angles))[0]
    return product if fabric.angles.ndim == 2 else product[0]


def _wrap_angle(theta: np.ndarray) -> np.ndarray:
    wrapped = (theta + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi + 1e-15, np.pi, wrapped)


def _raise_for_member(error: type[Exception], message: str, bad: np.ndarray,
                      stacked: bool) -> None:
    """Raise ``error`` for the first flagged member of a stack, naming its
    index when the caller passed a stack."""
    if np.any(bad):
        member = int(np.argmax(bad))
        raise error(f"stack member {member}: {message}" if stacked else message)


@dataclass(frozen=True, eq=False)
class _Plan:
    """What decomposing an n x n stack needs beyond its numbers; every array
    is read-only.

    Elimination step ``(right, m, r, c, r2, c2)`` computes ``arctan2(-W[r,
    c], W[r2, c2])`` and rotates the pivot (m, m+1) of W: its columns for a
    right step, its rows otherwise. The product of the inverted eliminations
    lists the ``n_left`` left steps in order, then the right steps reversed
    (``factor_steps``, on pivots ``factor_pivots``); the left ones take the
    sign of their pivot pair. The sign flip of pivot m adds pi to factor
    ``absorb[m][0]`` and negates the factors ``absorb[m][1]`` before it.
    Rectangle slot k takes factor ``canonical[k]``. Branch reduction walks
    ``chains``: per pivot m the gates on it, the gates on m - 1 or m + 1, and
    ``between[j, i]``, true when chain gate i precedes neighbour gate j.
    """

    steps: tuple[tuple[bool, int, int, int, int, int], ...]
    n_left: int
    factor_steps: np.ndarray
    factor_pivots: np.ndarray
    absorb: tuple[tuple[int, np.ndarray], ...]
    canonical: np.ndarray
    chains: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=16)
def _plan(n: int) -> _Plan:
    """The decomposition plan of n x n matrices. Cached.

    Alternating column/row elimination sweeps reduce a matrix to a +-1
    diagonal; the inverted eliminations are reordered into the rectangle
    layout (disjoint pivots commute) and the diagonal signs are absorbed
    into angles as pivot rotations by pi. Only the angles depend on the
    matrix; this plan checks once per n that the reordering and the
    absorption exist.
    """
    steps = []  # (right, pivot, row, col, row2, col2)
    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                row, col = n - 1 - j, i - 1 - j
                steps.append((True, col, row, col, row, col + 1))
        else:
            for j in range(1, i + 1):
                row, col = n - 1 + j - i, j - 1
                steps.append((False, row - 1, row, col, row - 1, col))
    left = [i for i, step in enumerate(steps) if not step[0]]
    right = [i for i, step in enumerate(steps) if step[0]]
    factor_steps = np.array(left + right[::-1], dtype=np.intp)
    factor_pivots = np.array([steps[i][1] for i in factor_steps], dtype=np.intp)

    absorb = []
    for m in range(n - 1):
        hits = np.nonzero(factor_pivots == m)[0]
        if not hits.size:
            raise AssertionError("sign flip could not be absorbed into the mesh")
        before = factor_pivots[:hits[0]]
        absorb.append((int(hits[0]), *_read_only(np.nonzero(np.abs(before - m) == 1)[0])))

    # Application order is the reverse of matrix-product order; sort into the
    # canonical rectangle sequence by commuting disjoint-pivot neighbors.
    applied = list(range(len(factor_steps)))[::-1]
    canonical = []
    for m, _ in rectangle_pivots(n):
        for idx, factor in enumerate(applied):
            piv = factor_pivots[factor]
            if piv == m:
                canonical.append(applied.pop(idx))
                break
            if abs(piv - m) <= 1:
                raise AssertionError("elimination order is not rectangle-sortable")
        else:
            raise AssertionError("missing pivot in elimination sequence")

    gate_pivots = np.array([m for m, _ in rectangle_pivots(n)], dtype=np.intp)
    chains = []
    for m in range(n - 1):
        chain = np.nonzero(gate_pivots == m)[0]
        neighbours = np.nonzero(np.abs(gate_pivots - m) == 1)[0]
        chains.append((chain, neighbours, chain[None, :] < neighbours[:, None]))

    return _Plan(tuple(steps), len(left), *_read_only(factor_steps, factor_pivots),
                 tuple(absorb), *_read_only(np.array(canonical, dtype=np.intp)),
                 tuple(_read_only(*chain) for chain in chains))


def _eliminate(plan: _Plan, work: np.ndarray) -> np.ndarray:
    """Run the elimination sweeps on the stack ``work`` in place; returns the
    (B, S) elimination angles in step order."""
    thetas = np.empty((len(work), len(plan.steps)))
    for i, (right, m, r, c, r2, c2) in enumerate(plan.steps):
        theta = np.arctan2(-work[:, r, c], work[:, r2, c2])
        thetas[:, i] = theta
        if right:
            rot = -theta[:, None]
            _rotate_rows(np.swapaxes(work, 1, 2), m, np.cos(rot), np.sin(rot))
        else:
            _rotate_rows(work, m, np.cos(theta)[:, None], np.sin(theta)[:, None])
    return thetas


def _reduce_branch(plan: _Plan, angles: np.ndarray) -> np.ndarray:
    """Gauge away pi-shifted angle pairs, preferring angles near zero.

    Inserting an adjacent sign-pair flip between two same-pivot gates adds pi
    to both of their angles and negates every overlapping-pivot angle in
    between, without changing the reconstructed matrix. Shifts therefore come
    in even-cardinality subsets per pivot chain, and interior sign flips never
    change angle magnitudes, so each chain can be minimized independently.
    Chains run in ascending pivot order, each over the whole stack.
    """
    angles = _wrap_angle(angles)
    members = np.arange(len(angles))
    for chain, neighbours, between in plan.chains:
        ends = angles[:, chain]
        gains = np.abs(_wrap_angle(ends)) - np.abs(_wrap_angle(ends + np.pi))
        chosen = gains > 1e-12
        # an odd count drops its cheapest chosen gate or adds the best other
        drop = np.where(chosen, gains, np.inf)
        add = np.where(chosen, -np.inf, gains)
        toggle = np.where(-add.max(axis=1) < drop.min(axis=1),
                          add.argmax(axis=1), drop.argmin(axis=1))
        odd = chosen.sum(axis=1) % 2 == 1
        chosen[members[odd], toggle[odd]] ^= True
        angles[:, chain] = np.where(chosen, _wrap_angle(ends + np.pi), ends)
        inside = (chosen.astype(np.intp) @ between.T) % 2 == 1
        angles[:, neighbours] = np.where(inside, -angles[:, neighbours],
                                         angles[:, neighbours])
    return angles


def decompose(u: np.ndarray) -> GivensFabric:
    """Decompose special orthogonal matrices into rectangle Givens fabrics.

    ``u`` is one (n, n) matrix, which gives its fabric, or a (B, n, n) stack,
    which gives one fabric with (B, K) angles, each row bitwise equal to its
    member's one-matrix call; an empty stack gives (0, K) angles. Raises
    ``ValueError`` for a matrix that is not square, not orthogonal within
    ``ORTHOGONALITY_TOL`` or of det -1, naming the member of a stack.
    """
    u = np.asarray(u, dtype=float)
    stacked = u.ndim == 3
    stack = u if stacked else u[None]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("input must be square")
    n = stack.shape[1]
    gram = np.swapaxes(stack, 1, 2) @ stack
    _raise_for_member(ValueError, "input is not orthogonal within tolerance",
                      np.max(np.abs(gram - np.eye(n)), axis=(1, 2)) > ORTHOGONALITY_TOL,
                      stacked)
    _raise_for_member(ValueError, "input has det != +1; sign-fix a column first",
                      np.abs(np.linalg.det(stack) - 1.0) > ORTHOGONALITY_TOL, stacked)

    plan = _plan(n)
    work = stack.copy()
    thetas = _eliminate(plan, work)
    diag = np.diagonal(work, axis1=1, axis2=2)
    _raise_for_member(ValueError, "elimination sweeps did not reach a +-1 diagonal",
                      (np.max(np.abs(work - diag[:, :, None] * np.eye(n)), axis=(1, 2)) > 1e-9)
                      | (np.max(np.abs(np.abs(diag) - 1.0), axis=1) > 1e-9), stacked)
    signs = np.where(diag > 0, 1, -1)

    # U = L_1^T ... L_nL^T  D  R_nR^T ... R_1^T; pull D to the far left,
    # flipping the angle sign of every left factor whose pivot signs differ.
    factors = -thetas[:, plan.factor_steps]
    left = plan.factor_pivots[:plan.n_left]
    factors[:, :plan.n_left] *= signs[:, left] * signs[:, left + 1]

    # Factor D into adjacent sign-pair flips (at every m where the running
    # product of signs is negative) and push each one rightward until it is
    # absorbed by a same-pivot rotation as an extra pi.
    flips = np.cumprod(signs, axis=1) < 0
    _raise_for_member(ValueError, "diagonal has det -1; input cannot be reached by rotations",
                      flips[:, n - 1], stacked)
    for m, (at, negate) in enumerate(plan.absorb):
        flip = flips[:, m]
        factors[flip, at] += np.pi
        factors[np.ix_(flip, negate)] = -factors[np.ix_(flip, negate)]

    angles = _reduce_branch(plan, _wrap_angle(factors[:, plan.canonical]))
    fabric = GivensFabric(n, angles)
    _raise_for_member(AssertionError, "fabric does not reproduce the input matrix",
                      np.max(np.abs(reconstruct(fabric) - stack), axis=(1, 2))
                      > ORTHOGONALITY_TOL, stacked)
    return fabric if stacked else GivensFabric(n, angles[0])


def jacobian(fabric: GivensFabric) -> np.ndarray:
    """Angle derivatives of the reconstructed matrix's strictly-lower triangle.

    Entry [g, c] is the derivative of entry c of ``lower_indices(N)`` with
    respect to angle g; square of dimension K = N (N - 1) / 2. One fabric
    gives that matrix; a stacked fabric gives the (B, K, K) stack, each
    member bitwise equal to its one-fabric call.
    With P the product of the gates before gate g on pivot (m, m+1),
    dU/dtheta_g = U (outer(P[m+1], P[m]) - outer(P[m], P[m+1])); one forward
    sweep carries P through the gates and records those two rows.
    """
    product, lo, hi = _sweep(fabric.n, np.atleast_2d(fabric.angles))
    u_t = np.swapaxes(product, 1, 2)  # after the last gate, P is the whole product U
    rows, cols = lower_indices(fabric.n)
    jac = (hi @ u_t)[:, :, rows] * lo[:, :, cols] - (lo @ u_t)[:, :, rows] * hi[:, :, cols]
    return jac if fabric.angles.ndim == 2 else jac[0]

