"""Fixed-pivot Givens fabrics: decomposition of SO(N) and reconstruction.

Conventions (fixed once, relied on by every other module):

* A pivot ``(m, m+1)`` rotation acts on coordinates m and m+1 as
  ``[[cos t, -sin t], [sin t, cos t]]``.
* The pivot layout is the rectangle (brickwork) mesh ``brickwork(N, N)``:
  layer ``l`` carries pivots ``(m, m+1)`` for ``m = l % 2, l % 2 + 2, ...``,
  for ``l = 0 .. N-1``, giving ``N (N - 1) / 2`` pivots in total. The same
  schedule, at its own layer count, lays out the VQE ansatz (``vqe``).
* ``reconstruct`` multiplies gates in application order: the first fabric
  entry is the rightmost matrix factor, i.e. ``U = G_K ... G_2 G_1``.
* Angles live in (-pi, pi].
* Strictly-lower-triangular entries are ordered as ``lower_indices(N)``,
  the row-major ``np.tril_indices(N, -1)``.

Every fabric of one N shares the same pivots, so a ``GivensFabric`` is one
fabric, (K,) angles, or a stack of B fabrics, (B, K) angles, one angle per
member at each gate. ``decompose`` turns one matrix into one fabric and a
(B, N, N) stack into one stacked fabric; ``reconstruct`` keeps the stack as
the leading axis of what it returns. What depends only on N (the
elimination schedule, the order of the factors, which factor absorbs each
sign flip, the permutation into rectangle order and the pivot chains of the
branch reduction) is a cached, read-only ``_Plan``.

Production reads only ``brickwork``, ``read_only`` and ``lower_indices``
from here: the ansatz is laid out by ``brickwork``, and the measurement
frames act through compound matrices of their orbital frames
(``qsim.Frames``), with no angle. The fabrics serve criterion 2 and the
angle-route referees in ``verify``, which decompose the frames themselves.
One row kernel, ``rotate_rows``, applies every fabric gate here, to
orbital rows; the angle Jacobian of the paper's angle route is a referee,
``verify.jacobian``, on its own plane-rotation sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GivensFabric",
    "brickwork",
    "read_only",
    "lower_indices",
    "rotate_rows",
    "decompose",
    "reconstruct",
]

ORTHOGONALITY_TOL = 1e-10


@lru_cache(maxsize=64)
def brickwork(n: int, layers: int) -> tuple[int, ...]:
    """Pivot orbital m of every gate (m, m+1) of a brickwork circuit on n
    orbitals, in application order: layer l starts at l % 2. Cached."""
    return tuple(m for layer in range(layers) for m in range(layer % 2, n - 1, 2))


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly-lower triangle of an n x n
    matrix, row-major. Cached; the arrays are read-only."""
    return read_only(*np.tril_indices(n, -1))


@dataclass(frozen=True, eq=False)
class GivensFabric:
    """Plane-rotation angles on the rectangle pivot layout: (K,) for one
    fabric, (B, K) for a stack of B fabrics of one N. Read-only."""

    n: int
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", read_only(np.array(self.angles, dtype=float))[0])
        k = len(self.pivots)
        if self.angles.ndim not in (1, 2) or self.angles.shape[-1] != k:
            raise ValueError(f"angles have shape {self.angles.shape}, "
                             f"expected ({k},) or (B, {k})")

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot orbital of every gate: ``brickwork(n, n)``."""
        return brickwork(self.n, self.n)


def rotate_rows(u: np.ndarray, a, b, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate rows a -> c * a - s * b and b -> s * a + c * b of every member
    of the stack u in place: orbital rows m and m + 1, or any equal-length
    index arrays. c and s broadcast against u[:, a]."""
    row_a, row_b = u[:, a], u[:, b]
    u[:, a], u[:, b] = c * row_a - s * row_b, s * row_a + c * row_b


def reconstruct(fabric: GivensFabric) -> np.ndarray:
    """Ordered product of a fabric's plane rotations (first pivot applied
    first), the gates applied in order to the rows of the identity: (N, N)
    for one fabric, (B, N, N) for a stack."""
    angles = np.atleast_2d(fabric.angles)
    product = np.tile(np.eye(fabric.n), (len(angles), 1, 1))
    c, s = np.cos(angles)[:, :, None], np.sin(angles)[:, :, None]
    for g, m in enumerate(fabric.pivots):
        rotate_rows(product, m, m + 1, c[:, g], s[:, g])
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
        absorb.append((int(hits[0]), *read_only(np.nonzero(np.abs(before - m) == 1)[0])))

    # Application order is the reverse of matrix-product order; sort into the
    # canonical rectangle sequence by commuting disjoint-pivot neighbors.
    applied = list(range(len(factor_steps)))[::-1]
    canonical = []
    for m in brickwork(n, n):
        for idx, factor in enumerate(applied):
            piv = factor_pivots[factor]
            if piv == m:
                canonical.append(applied.pop(idx))
                break
            if abs(piv - m) <= 1:
                raise AssertionError("elimination order is not rectangle-sortable")
        else:
            raise AssertionError("missing pivot in elimination sequence")

    gate_pivots = np.array(brickwork(n, n), dtype=np.intp)
    chains = []
    for m in range(n - 1):
        chain = np.nonzero(gate_pivots == m)[0]
        neighbours = np.nonzero(np.abs(gate_pivots - m) == 1)[0]
        chains.append((chain, neighbours, chain[None, :] < neighbours[:, None]))

    return _Plan(tuple(steps), len(left), *read_only(factor_steps, factor_pivots),
                 tuple(absorb), *read_only(np.array(canonical, dtype=np.intp)),
                 tuple(read_only(*chain) for chain in chains))


def _eliminate(plan: _Plan, work: np.ndarray) -> np.ndarray:
    """Run the elimination sweeps on the stack ``work`` in place; returns the
    (B, S) elimination angles in step order."""
    thetas = np.empty((len(work), len(plan.steps)))
    for i, (right, m, r, c, r2, c2) in enumerate(plan.steps):
        theta = np.arctan2(-work[:, r, c], work[:, r2, c2])
        thetas[:, i] = theta
        if right:
            rot = -theta[:, None]
            rotate_rows(np.swapaxes(work, 1, 2), m, m + 1, np.cos(rot), np.sin(rot))
        else:
            rotate_rows(work, m, m + 1, np.cos(theta)[:, None], np.sin(theta)[:, None])
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

    At a signed permutation matrix the fabric's gauge is not unique:
    ``arctan2`` of roundoff-sized entries picks one of a continuum of
    fabrics, and round trips can alternate between gauge-distinct ones.
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
