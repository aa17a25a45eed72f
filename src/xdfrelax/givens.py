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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GivensFabric",
    "rectangle_pivots",
    "decompose",
    "reconstruct",
    "jacobian",
    "pinv_solve",
    "identity_fabric",
]

ORTHOGONALITY_TOL = 1e-10
PINV_RCOND = 1e-10


def rectangle_pivots(n: int) -> tuple[tuple[int, int], ...]:
    """Rectangle-layout pivot sequence in gate application order."""
    pivots = []
    for layer in range(n):
        for m in range(layer % 2, n - 1, 2):
            pivots.append((m, m + 1))
    return tuple(pivots)


@dataclass(frozen=True)
class GivensFabric:
    """An ordered set of plane-rotation angles on the rectangle pivot layout."""

    n: int
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.array(self.angles, dtype=float))
        self.angles.setflags(write=False)
        if self.angles.shape != (len(self.pivots),):
            raise ValueError("angle count does not match pivot count")

    @property
    def pivots(self) -> tuple[tuple[int, int], ...]:
        return rectangle_pivots(self.n)


def identity_fabric(n: int) -> GivensFabric:
    return GivensFabric(n, np.zeros(n * (n - 1) // 2))


def _rotate_rows(u: np.ndarray, m: int, theta: float) -> None:
    """Left-multiply u in place by the pivot (m, m+1) rotation at theta."""
    c, s = np.cos(theta), np.sin(theta)
    row_m = u[m].copy()
    u[m] = c * row_m - s * u[m + 1]
    u[m + 1] = s * row_m + c * u[m + 1]


def reconstruct(fabric: GivensFabric) -> np.ndarray:
    """Ordered product of the fabric's plane rotations (first pivot applied first)."""
    u = np.eye(fabric.n)
    for (m, _), theta in zip(fabric.pivots, fabric.angles):
        _rotate_rows(u, m, theta)
    return u


def _wrap_angle(theta: float) -> float:
    wrapped = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if wrapped <= -np.pi + 1e-15:
        wrapped = np.pi
    return wrapped


def _check_special_orthogonal(u: np.ndarray) -> None:
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("input must be square")
    if np.max(np.abs(u.T @ u - np.eye(n))) > ORTHOGONALITY_TOL:
        raise ValueError("input is not orthogonal within tolerance")
    if abs(np.linalg.det(u) - 1.0) > ORTHOGONALITY_TOL:
        raise ValueError("input has det != +1; sign-fix a column first")


def decompose(u: np.ndarray) -> GivensFabric:
    """Decompose a special orthogonal matrix into the rectangle Givens fabric.

    Alternating column/row elimination sweeps reduce the matrix to a +-1
    diagonal; the inverted eliminations are then reordered into the rectangle
    layout (disjoint pivots commute) and the diagonal signs are absorbed into
    angles as pivot rotations by pi.
    """
    u = np.asarray(u, dtype=float)
    _check_special_orthogonal(u)
    n = u.shape[0]
    if n == 1:
        return identity_fabric(1)

    work = u.copy()
    right_ops = []  # (pivot, angle), applied as work @ G
    left_ops = []  # (pivot, angle), applied as G @ work
    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                row, col = n - 1 - j, i - 1 - j
                theta = np.arctan2(-work[row, col], work[row, col + 1])
                _rotate_rows(work.T, col, -theta)
                right_ops.append((col, theta))
        else:
            for j in range(1, i + 1):
                row, col = n - 1 + j - i, j - 1
                m = row - 1
                theta = np.arctan2(-work[row, col], work[m, col])
                _rotate_rows(work, m, theta)
                left_ops.append((m, theta))

    diag = np.diagonal(work).copy()
    if np.max(np.abs(work - np.diag(diag))) > 1e-9 or np.max(np.abs(np.abs(diag) - 1.0)) > 1e-9:
        raise ValueError("elimination sweeps did not reach a +-1 diagonal")
    signs = np.where(diag > 0, 1, -1)

    # U = L_1^T ... L_nL^T  D  R_nR^T ... R_1^T; pull D to the far left,
    # flipping the angle sign of every left factor whose pivot signs differ.
    factors = []  # matrix product, left to right
    for m, theta in left_ops:
        factors.append((m, -theta * signs[m] * signs[m + 1]))
    for m, theta in reversed(right_ops):
        factors.append((m, -theta))

    # Factor D into adjacent sign-pair flips and push each one rightward
    # until it is absorbed by a same-pivot rotation as an extra pi.
    s = signs.copy()
    flips = []
    p = 0
    while p < n - 1:
        if s[p] < 0:
            flips.append(p)
            s[p] = -s[p]
            s[p + 1] = -s[p + 1]
        else:
            p += 1
    if s[n - 1] < 0:
        raise ValueError("diagonal has det -1; input cannot be reached by rotations")
    for m in flips:
        for idx, (piv, ang) in enumerate(factors):
            if piv == m:
                factors[idx] = (piv, ang + np.pi)
                break
            if abs(piv - m) == 1:
                factors[idx] = (piv, -ang)
        else:
            raise AssertionError("sign flip could not be absorbed into the mesh")

    # Application order is the reverse of matrix-product order; sort into the
    # canonical rectangle sequence by commuting disjoint-pivot neighbors.
    applied = list(reversed(factors))
    canonical = rectangle_pivots(n)
    angles = np.zeros(len(canonical))
    for slot, (m, _) in enumerate(canonical):
        for idx, (piv, ang) in enumerate(applied):
            if piv == m:
                if any(abs(prev - m) <= 1 for prev, _ in applied[:idx]):
                    raise AssertionError("elimination order is not rectangle-sortable")
                angles[slot] = _wrap_angle(ang)
                del applied[idx]
                break
            if abs(piv - m) <= 1:
                raise AssertionError("elimination order is not rectangle-sortable")
        else:
            raise AssertionError("missing pivot in elimination sequence")

    angles = _reduce_branch(canonical, angles)
    fabric = GivensFabric(n, angles)
    if np.max(np.abs(reconstruct(fabric) - u)) > ORTHOGONALITY_TOL:
        raise AssertionError("fabric does not reproduce the input matrix")
    return fabric


def _reduce_branch(pivots, angles: np.ndarray) -> np.ndarray:
    """Gauge away pi-shifted angle pairs, preferring angles near zero.

    Inserting an adjacent sign-pair flip between two same-pivot gates adds pi
    to both of their angles and negates every overlapping-pivot angle in
    between, without changing the reconstructed matrix. Shifts therefore come
    in even-cardinality subsets per pivot chain, and interior sign flips never
    change angle magnitudes, so each chain can be minimized independently.
    """
    angles = np.array([_wrap_angle(t) for t in angles])

    def magnitude_gain(t: float) -> float:
        return abs(_wrap_angle(t)) - abs(_wrap_angle(t + np.pi))

    for m in sorted({p for p, _ in pivots}):
        chain = [g for g, (p, _) in enumerate(pivots) if p == m]
        gains = [magnitude_gain(angles[g]) for g in chain]
        chosen = [i for i, b in enumerate(gains) if b > 1e-12]
        if len(chosen) % 2 == 1:
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
                if abs(pivots[h][0] - m) == 1:
                    angles[h] = -angles[h]
    return angles


def jacobian(fabric: GivensFabric) -> np.ndarray:
    """Angle derivatives of the reconstructed matrix's strictly-lower triangle.

    Entry [g, c] is the derivative of entry c of ``np.tril_indices(N, -1)``
    (row-major) with respect to angle g; square of dimension N (N - 1) / 2.
    With P the product of the gates before gate g on pivot (m, m+1),
    dU/dtheta_g = U (outer(P[m+1], P[m]) - outer(P[m], P[m+1])); one forward
    sweep carries P through the gates and records those two rows.
    """
    n = fabric.n
    prefix = np.eye(n)
    lo = np.empty((len(fabric.pivots), n))  # row m of P before each gate
    hi = np.empty_like(lo)  # row m+1
    for g, ((m, _), theta) in enumerate(zip(fabric.pivots, fabric.angles)):
        lo[g], hi[g] = prefix[m], prefix[m + 1]
        _rotate_rows(prefix, m, theta)
    u_t = prefix.T  # after the last gate, P is the whole product U
    rows, cols = np.tril_indices(n, -1)
    return (hi @ u_t)[:, rows] * lo[:, cols] - (lo @ u_t)[:, rows] * hi[:, cols]


def pinv_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve; small singular values are dropped."""
    solution, _, _, _ = np.linalg.lstsq(np.asarray(a, dtype=float),
                                        np.asarray(rhs, dtype=float), rcond=PINV_RCOND)
    return solution
