"""Explicit double factorization of the two-electron integrals.

The N^2 x N^2 integral supermatrix annihilates antisymmetric index pairs, so
its eigenproblem is solved in the packed symmetric-pair basis. Each of the
N (N + 1) / 2 eigenpairs (g, V) forms a leaf; the symmetric eigen-matrix V is
then itself eigendecomposed into an orthogonal frame U and spectrum lambda,
yielding the diagonal two-body couplings Z = g * outer(lambda, lambda).

The leaves are built and kept as stacks, leaf first: one
``np.linalg.eigh`` over all leaf eigen-matrices and one sign fix over all of
their frames. Consumers slice the stacks; the retained leaves are a prefix.

A factorization carries its measurement frames, built once on construction
as one ``qsim.Frames`` stack for the electron filling: the one-body frame
first, then one per retained leaf. One ``givens.decompose`` call turns the
one-body and retained-leaf orbital frames into one stacked fabric, and its
operators come from one sweep per spin filling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .givens import decompose
from .hammodel import EffectiveOperators, Hamiltonian, effective_operators
from .qsim import Frames, leaf_energies, one_body_energy

__all__ = [
    "XDFFactorization",
    "TruncationPolicy",
    "factorize",
    "reconstruct_eri",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Leaf retention rule: keep |g| >= threshold, or a fixed leading count."""

    mode: str
    threshold: float | None = None
    count: int | None = None

    def __post_init__(self):
        if self.mode not in ("threshold", "count"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "threshold" and (self.threshold is None or self.count is not None):
            raise ValueError("threshold mode takes exactly a threshold")
        if self.mode == "count" and (self.count is None or self.threshold is not None):
            raise ValueError("count mode takes exactly a count")
        if self.mode == "count" and self.count < 0:
            raise ValueError(f"leaf count must be non-negative, got {self.count}")

    @classmethod
    def by_threshold(cls, threshold: float) -> "TruncationPolicy":
        return cls("threshold", threshold=float(threshold))

    @classmethod
    def by_count(cls, count: int) -> "TruncationPolicy":
        return cls("count", count=int(count))

    @classmethod
    def exact(cls) -> "TruncationPolicy":
        return cls("threshold", threshold=-1.0)

    def retained_count(self, g: np.ndarray) -> int:
        if self.mode == "threshold":
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
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        filling = (self.n_alpha, self.n_beta)
        kept = self.retained
        fabric = decompose(np.concatenate([self.U0[None], self.U[:kept]]))
        energies = np.concatenate([one_body_energy(self.F0, *filling)[None],
                                   leaf_energies(self.Z[:kept], *filling)])
        object.__setattr__(self, "frames", Frames(fabric, *filling, energies))

    @property
    def n_leaves(self) -> int:
        return len(self.g)

    @property
    def Z(self) -> np.ndarray:
        """Diagonal couplings Z[t, k, l] = lambda_tk * g_t * lambda_tl of every
        leaf, as an (L, N, N) stack."""
        return self.g[:, None, None] * (self.lam[:, :, None] * self.lam[:, None, :])


def _special_orthogonalize(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrices (..., n, n) with every column's largest-magnitude
    entry (the first on ties) made positive, then the last column of each
    det -1 member negated."""
    lead = np.take_along_axis(u, np.argmax(np.abs(u), axis=-2)[..., None, :], axis=-2)
    u = np.where(lead < 0, -u, u)
    last = u[..., :, -1]
    u[..., :, -1] = np.where((np.linalg.det(u) < 0)[..., None], -last, last)
    return u


@lru_cache(maxsize=16)
def _pair_basis(n: int) -> np.ndarray:
    """Orthonormal basis of vectorized symmetric matrices, columns of shape N^2.
    Cached; the array is read-only."""
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    basis = np.zeros((n * n, len(pairs)))
    for col, (p, q) in enumerate(pairs):
        mat = np.zeros((n, n))
        if p == q:
            mat[p, p] = 1.0
        else:
            mat[p, q] = mat[q, p] = 1.0 / np.sqrt(2.0)
        basis[:, col] = mat.reshape(-1)
    basis.setflags(write=False)
    return basis


def factorize(ham: Hamiltonian, policy: TruncationPolicy) -> XDFFactorization:
    """Nested eigendecomposition of a Hamiltonian into X-DF leaves.

    All leaves are kept regardless of the truncation policy; ``retained``
    marks the prefix entering the two-body energy.
    """
    ham.validate()
    n = ham.n_orbitals
    eff = effective_operators(ham)

    f0, u0 = np.linalg.eigh(eff.eff_one_body)
    u0 = _special_orthogonalize(u0)

    basis = _pair_basis(n)
    packed = basis.T @ ham.supermatrix() @ basis
    packed = 0.5 * (packed + packed.T)
    g_all, w_all = np.linalg.eigh(packed)

    # one matrix-vector product per column: a matrix product rounds differently
    vecs = np.array([basis @ w_all[:, col] for col in range(w_all.shape[1])])
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)
    vecs = np.where(lead < 0, -vecs, vecs)
    first_nonzero = np.argmax(np.abs(vecs) > 1e-12, axis=1)
    order = sorted(range(len(vecs)), key=lambda col: (
        -abs(float(g_all[col])), first_nonzero[col], vecs[col].tobytes()))

    v = vecs[order].reshape(-1, n, n)
    v = 0.5 * (v + np.swapaxes(v, 1, 2))
    lam, u = np.linalg.eigh(v)
    u = _special_orthogonalize(u)
    g = g_all[order]
    return XDFFactorization(n, ham.n_alpha, ham.n_beta, eff, u0, f0, g, v, u, lam,
                            policy.retained_count(g))


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
