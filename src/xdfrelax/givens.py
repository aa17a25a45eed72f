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

A ``GivensFabric`` is one fabric, (K,) angles. ``decompose`` turns one
(N, N) matrix into its fabric and ``reconstruct`` turns it back, both one
gate at a time through one pivot rotation, ``_rotate``.

Production reads only ``brickwork``, ``read_only`` and ``lower_indices``
from here: the ansatz is laid out by ``brickwork``, and the measurement
frames act through compound matrices of their orbital frames
(``qsim.Frames``), with no angle. The fabrics serve criterion 2 and the
angle-route referees in ``verify``, which decompose the frames one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["GivensFabric", "brickwork", "read_only", "lower_indices", "decompose",
           "reconstruct"]

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
    """Plane-rotation angles of one fabric on the rectangle pivot layout,
    (K,). Read-only."""

    n: int
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", read_only(np.array(self.angles, dtype=float))[0])
        k = len(self.pivots)
        if self.angles.shape != (k,):
            raise ValueError(f"angles have shape {self.angles.shape}, expected ({k},): "
                             "one fabric, not a stack")

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot orbital of every gate: ``brickwork(n, n)``."""
        return brickwork(self.n, self.n)


def _rotate(u: np.ndarray, m: int, c, s) -> None:
    """Left-multiply u in place by the pivot (m, m+1) rotation of cosine c
    and sine s."""
    u[m], u[m + 1] = c * u[m] - s * u[m + 1], s * u[m] + c * u[m + 1]


def reconstruct(fabric: GivensFabric) -> np.ndarray:
    """Ordered product of a fabric's plane rotations (first pivot applied
    first), the gates applied in order to the rows of the identity: (N, N)."""
    product = np.eye(fabric.n)
    for m, c, s in zip(fabric.pivots, np.cos(fabric.angles), np.sin(fabric.angles)):
        _rotate(product, m, c, s)
    return product


def _wrap_angle(theta: float) -> float:
    wrapped = (theta + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if wrapped <= -np.pi + 1e-15 else wrapped


def _reduce_branch(pivots: tuple[int, ...], angles: np.ndarray) -> np.ndarray:
    """Gauge away pi-shifted angle pairs, preferring angles near zero.

    Inserting an adjacent sign-pair flip between two same-pivot gates adds pi
    to both of their angles and negates every overlapping-pivot angle in
    between, without changing the reconstructed matrix. Shifts therefore come
    in even-cardinality subsets per pivot chain, and interior sign flips never
    change angle magnitudes, so each chain can be minimized independently.
    """
    angles = np.array([_wrap_angle(t) for t in angles])
    for m in sorted(set(pivots)):
        chain = [g for g, p in enumerate(pivots) if p == m]
        gains = [abs(_wrap_angle(angles[g])) - abs(_wrap_angle(angles[g] + np.pi))
                 for g in chain]
        chosen = [i for i, gain in enumerate(gains) if gain > 1e-12]
        if len(chosen) % 2 == 1:
            # an odd count drops its cheapest chosen gate or adds the best other
            rest = [i for i in range(len(chain)) if i not in chosen]
            drop_cost = min(gains[i] for i in chosen)
            add_cost = -max(gains[i] for i in rest) if rest else np.inf
            if add_cost < drop_cost:
                chosen.append(max(rest, key=lambda i: gains[i]))
            else:
                chosen.remove(min(chosen, key=lambda i: gains[i]))
        chosen.sort()
        for a, b in zip(chosen[::2], chosen[1::2]):
            g, g2 = chain[a], chain[b]
            angles[g] = _wrap_angle(angles[g] + np.pi)
            angles[g2] = _wrap_angle(angles[g2] + np.pi)
            for h in range(g + 1, g2):
                if abs(pivots[h] - m) == 1:
                    angles[h] = -angles[h]
    return np.where(angles == -np.pi, np.pi, angles)  # a negated pi stays pi


def decompose(u: np.ndarray) -> GivensFabric:
    """Decompose one special orthogonal (n, n) matrix into its Givens fabric.

    Alternating column/row elimination sweeps reduce u to the identity;
    the inverted eliminations are reordered into the rectangle layout
    (disjoint pivots commute), and each pivot chain is gauged toward angles
    near zero (``_reduce_branch``). Raises ``ValueError`` for input that is
    not one square matrix, not orthogonal within ``ORTHOGONALITY_TOL`` or of
    det -1.

    At a signed permutation matrix the fabric's gauge is not unique:
    ``arctan2`` of roundoff-sized entries picks one of a continuum of
    fabrics, and round trips can alternate between gauge-distinct ones.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("input must be square")
    n = len(u)
    if np.max(np.abs(u.T @ u - np.eye(n))) > ORTHOGONALITY_TOL:
        raise ValueError("input is not orthogonal within tolerance")
    if abs(np.linalg.det(u) - 1.0) > ORTHOGONALITY_TOL:
        raise ValueError("input has det != +1; sign-fix a column first")

    work = u.copy()
    right_ops, left_ops = [], []
    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                row, col = n - 1 - j, i - 1 - j
                theta = np.arctan2(-work[row, col], work[row, col + 1])
                _rotate(work.T, col, np.cos(-theta), np.sin(-theta))
                right_ops.append((col, theta))
        else:
            for j in range(1, i + 1):
                row, col = n - 1 + j - i, j - 1
                theta = np.arctan2(-work[row, col], work[row - 1, col])
                _rotate(work, row - 1, np.cos(theta), np.sin(theta))
                left_ops.append((row - 1, theta))
    # every elimination leaves its kept entry at +hypot, so a det +1 input
    # ends at the identity: U = L_1^T ... L_nL^T R_nR^T ... R_1^T
    if np.max(np.abs(work - np.eye(n))) > 1e-9:
        raise ValueError("elimination sweeps did not reach the identity")
    factors = [(m, -theta) for m, theta in left_ops]
    factors += [(m, -theta) for m, theta in reversed(right_ops)]

    # Application order is the reverse of matrix-product order; sort into the
    # rectangle sequence by commuting disjoint-pivot neighbours.
    applied = factors[::-1]
    pivots = brickwork(n, n)
    angles = np.zeros(len(pivots))
    for slot, m in enumerate(pivots):
        idx = next(i for i, (piv, _) in enumerate(applied) if piv == m)
        angles[slot] = _wrap_angle(applied.pop(idx)[1])
    fabric = GivensFabric(n, _reduce_branch(pivots, angles))
    if np.max(np.abs(reconstruct(fabric) - u)) > ORTHOGONALITY_TOL:
        raise AssertionError("fabric does not reproduce the input matrix")
    return fabric
