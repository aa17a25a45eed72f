"""Explicit double factorization of the two-electron integrals.

The N^2 x N^2 integral supermatrix annihilates antisymmetric index pairs, so
its eigenproblem is solved in the packed symmetric-pair basis. Each of the
N (N + 1) / 2 eigenpairs (g, V) forms a leaf; the symmetric eigen-matrix V is
then itself eigendecomposed into an orthogonal frame U and spectrum lambda,
yielding the diagonal two-body couplings Z = g * outer(lambda, lambda).

Every orbital frame comes from one stack, the effective one-body operator
first and then the leaf eigen-matrices: one ``np.linalg.eigh`` and one sign
fix cover the one-body frame and every leaf. The leaves are kept as stacks;
consumers slice them, and the retained leaves are a prefix.

A factorization carries its measurement frames, built once on construction
as one ``qsim.Frames`` stack for the electron filling from the orbital
frames it already holds: the one-body frame first, then one per retained
leaf. Their string operators are compound matrices of those frames; no
frame is compiled into Givens angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .givens import read_only
from .hammodel import EffectiveOperators, Hamiltonian, effective_operators
from .qsim import Frames, term_energies

__all__ = [
    "XDFFactorization",
    "TruncationPolicy",
    "factorize",
    "reconstruct_eri",
]


@dataclass(frozen=True, kw_only=True)
class TruncationPolicy:
    """Leaf retention rule: keep |g| >= threshold, or a fixed leading count;
    exactly one of the two is set, by keyword."""

    threshold: float | None = None
    count: int | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.count is None):
            raise ValueError("a truncation policy takes exactly one of threshold and count")
        if self.threshold is not None and np.isnan(self.threshold):
            raise ValueError("truncation threshold is NaN")
        if self.count is not None and self.count < 0:
            raise ValueError(f"leaf count must be non-negative, got {self.count}")

    @classmethod
    def by_threshold(cls, threshold: float) -> "TruncationPolicy":
        return cls(threshold=float(threshold))

    @classmethod
    def by_count(cls, count: int) -> "TruncationPolicy":
        return cls(count=int(count))

    @classmethod
    def exact(cls) -> "TruncationPolicy":
        return cls(threshold=-1.0)

    def retained_count(self, g: np.ndarray) -> int:
        if self.count is None:
            return int(np.sum(np.abs(g) >= self.threshold))
        return min(self.count, len(g))


@dataclass(frozen=True, eq=False)
class XDFFactorization:
    """Eigendecomposed one-body part plus the two-body leaves as stacks.

    The leaves are sorted by descending |g| and held as read-only stacks:
    couplings ``g`` (L,), eigen-matrices ``V`` (L, N, N), orbital frames
    ``U`` (L, N, N) and spectra ``lam`` (L, N). The retained set is the
    ``[:retained]`` prefix. Discarded leaves stay available as data: the
    inter-leaf response couples retained to discarded frames. ``frames``
    stacks the one-body frame and then the frame of each retained leaf.
    """

    n_orbitals: int
    n_alpha: int
    n_beta: int
    eff: EffectiveOperators
    U0: np.ndarray
    F0: np.ndarray
    g: np.ndarray
    V: np.ndarray
    U: np.ndarray
    lam: np.ndarray
    retained: int
    frames: Frames = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("U0", "F0", "g", "V", "U", "lam"):
            arr = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, read_only(arr)[0])
        filling = (self.n_alpha, self.n_beta)
        orbitals = np.concatenate([self.U0[None], self.U[:self.retained]])
        energies = term_energies(self.F0, self.Z[:self.retained], *filling)
        object.__setattr__(self, "frames", Frames(orbitals, *filling, energies))

    @property
    def n_leaves(self) -> int:
        return len(self.g)

    @property
    def Z(self) -> np.ndarray:
        """Diagonal couplings Z[t, k, l] = lambda_tk * g_t * lambda_tl of every
        leaf, as an (L, N, N) stack."""
        return self.g[:, None, None] * (self.lam[:, :, None] * self.lam[:, None, :])


def _lead_positive(x: np.ndarray) -> np.ndarray:
    """x with every column of a (..., m, n) stack negated where its
    largest-magnitude entry (the first on ties) is negative."""
    index = np.argmax(np.abs(x), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(x, index, axis=-2) < 0, -x, x)


def _special_orthogonalize(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrices (..., n, n) with every column's largest-magnitude
    entry made positive (``_lead_positive``), then the last column of each
    det -1 member negated."""
    u = _lead_positive(u)
    last = u[..., :, -1]
    u[..., :, -1] = np.where((np.linalg.det(u) < 0)[..., None], -last, last)
    return u


@lru_cache(maxsize=16)
def _pair_basis(n: int) -> np.ndarray:
    """Orthonormal basis of vectorized symmetric matrices, columns of shape N^2.
    Cached; the array is read-only."""
    p, q = np.triu_indices(n)
    col = np.arange(len(p))
    basis = np.zeros((n, n, len(p)))
    basis[p, q, col] = basis[q, p, col] = np.where(p == q, 1.0, 1.0 / np.sqrt(2.0))
    return read_only(basis.reshape(n * n, -1))[0]


def factorize(ham: Hamiltonian, policy: TruncationPolicy) -> XDFFactorization:
    """Nested eigendecomposition of a Hamiltonian into X-DF leaves.

    All leaves are kept regardless of the truncation policy; ``retained``
    marks the prefix entering the two-body energy.
    """
    ham.validate()
    n = ham.n_orbitals
    eff = effective_operators(ham)

    basis = _pair_basis(n)
    packed = basis.T @ ham.supermatrix() @ basis
    packed = 0.5 * (packed + packed.T)
    g_all, w_all = np.linalg.eigh(packed)

    # one matrix-vector product per column: a matrix product rounds differently
    vecs = _lead_positive(np.stack([basis @ w for w in w_all.T], axis=1)).T
    first_nonzero = np.argmax(np.abs(vecs) > 1e-12, axis=1)
    order = sorted(range(len(vecs)), key=lambda col: (
        -abs(float(g_all[col])), first_nonzero[col], vecs[col].tobytes()))

    v = vecs[order].reshape(-1, n, n)
    v = 0.5 * (v + np.swapaxes(v, 1, 2))
    spectra, frames = np.linalg.eigh(np.concatenate([eff.eff_one_body[None], v]))
    frames = _special_orthogonalize(frames)
    g = g_all[order]
    return XDFFactorization(n, ham.n_alpha, ham.n_beta, eff, frames[0], spectra[0], g, v,
                            frames[1:], spectra[1:], policy.retained_count(g))


def reconstruct_eri(fac: XDFFactorization) -> np.ndarray:
    """Rebuild (pq|rs) from the retained leaf frames.

    Contracts through the U / Z factors rather than the raw eigenvectors so
    the nested decomposition itself is exercised.
    """
    n = fac.n_orbitals
    out = np.zeros((n * n, n * n))
    for u, z in zip(fac.U[:fac.retained], fac.Z[:fac.retained]):
        cols = np.stack([np.outer(u[:, k], u[:, k]).reshape(-1) for k in range(n)], axis=1)
        out += cols @ z @ cols.T
    return out.reshape(n, n, n, n)
