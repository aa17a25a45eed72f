"""Jordan-Wigner statevector simulation over 2N qubits.

Qubit ordering is blocked by spin: qubits 0 .. N-1 are the alpha spin
orbitals, N .. 2N-1 the beta ones, and bit j of a basis index is the
occupation of qubit j. Alpha qubits are the low bits, so the amplitude vector
reshaped to (2^N, 2^N) is the matrix ``Psi[beta_string, alpha_string]``, where
bit k of a spin string is the occupation of orbital k in that spin.

All gate work is one in-place rotation between two sets of rows of an array,
``rotate_pair``. A Givens gate on orbitals (m, m+1) of one spin rotates the
strings ``pair_rows(N, m)``: rows of Psi for beta, rows of Psi^T for alpha.
The ansatz pair-exchange gate rotates ``pair_exchange_rows(N, p)`` of the flat
vector. Gates act on adjacent orbitals of one spin, so no Jordan-Wigner
strings appear in circuits; the direct RDM oracle handles the strings
explicitly on the full vector.

A spin-locked fabric acts on each spin through one 2^N x 2^N operator M, its
gates applied in order to the rows of the identity: the circuit maps Psi to
M Psi M^T and its dagger to M^T Psi M. Each term of a factorized Hamiltonian
is a ``Frame``: its fabric, the fabric's M and the term's energy operator,
diagonal in the rotated basis, as the matrix D[beta, alpha]. A factorization
builds its frames once, the one-body frame first, then one per retained leaf.

All angle derivatives of a frame's energy come from one forward sweep over its
gates (``angle_gradient``). The two-frequency shift rule,
``denergy_dtheta_shift``, evaluates shifted circuits one angle at a time and
stays as the hardware-faithful referee.

Expectation values are exact (infinite-shot limit). All gates have real
matrix elements, so amplitudes stay real in practice; complex amplitudes are
accepted and measured through |amplitude|^2 weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .givens import GivensFabric
from .hammodel import DESK_CAP

if TYPE_CHECKING:
    from .xdf import XDFFactorization, XDFLeaf

__all__ = [
    "Statevector",
    "EigenbasisDensities",
    "Frame",
    "one_body_frame",
    "leaf_frame",
    "SHIFT_STEPS",
    "string_bits",
    "pair_rows",
    "pair_exchange_rows",
    "rotate_pair",
    "hf_reference",
    "measure_densities",
    "energy",
    "apply_hamiltonian",
    "denergy_dtheta_shift",
    "angle_gradient",
    "measure_rdms_direct",
]

# Exact first-derivative rule for a plane-rotation gate, whose conjugation
# carries both single and double angle frequencies: two symmetric
# differences at pi/4 and pi/2, as (step, coefficient) pairs.
SHIFT_STEPS = ((np.pi / 4.0, 1.0), (np.pi / 2.0, (1.0 - np.sqrt(2.0)) / 2.0))


@lru_cache(maxsize=16)
def string_bits(n_bits: int) -> np.ndarray:
    """Read-only table whose row x holds bits 0 .. n_bits-1 of x."""
    x = np.arange(1 << n_bits, dtype=np.int64)
    table = ((x[:, None] >> np.arange(n_bits)) & 1).astype(np.int8)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Statevector:
    """Amplitudes over 2 * n_spatial Jordan-Wigner qubits, blocked by spin."""

    n_spatial: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.amplitudes) else float
        amps = np.array(self.amplitudes, dtype=dtype)
        if self.n_spatial > DESK_CAP:
            raise ValueError(f"n_spatial {self.n_spatial} above desk cap {DESK_CAP}")
        if amps.shape != (4 ** self.n_spatial,):
            raise ValueError("amplitude vector has wrong length")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def matrix(self) -> np.ndarray:
        """Read-only view of the amplitudes as Psi[beta_string, alpha_string]."""
        side = 1 << self.n_spatial
        return self.amplitudes.reshape(side, side)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class EigenbasisDensities:
    """Measured leaf-frame densities: omega0 (length N) and per-retained-leaf omega."""

    omega0: np.ndarray
    omega: tuple[np.ndarray, ...]


def hf_reference(n_spatial: int, n_alpha: int, n_beta: int) -> Statevector:
    """Computational basis determinant occupying the lowest orbitals per spin."""
    if not (0 <= n_alpha <= n_spatial and 0 <= n_beta <= n_spatial):
        raise ValueError("occupation exceeds orbital count")
    index = 0
    for k in range(n_alpha):
        index |= 1 << k
    for k in range(n_beta):
        index |= 1 << (n_spatial + k)
    amps = np.zeros(4 ** n_spatial)
    amps[index] = 1.0
    return Statevector(n_spatial, amps)


# ---------------------------------------------------------------------------
# Gate kernel
# ---------------------------------------------------------------------------

def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def pair_rows(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin strings of n orbitals with m occupied and m+1 empty, and the same
    strings with those two occupations swapped: the rows a (m, m+1) gate
    mixes. Cached; the arrays are read-only."""
    x = np.arange(1 << n)
    rows = x[((x >> m) & 3) == 1]
    return _read_only(rows, rows + (1 << m))


@lru_cache(maxsize=64)
def pair_exchange_rows(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat amplitude indices with both spins doubly occupying p (and p+1
    empty), and their images with the pair moved to p+1. Cached; the arrays
    are read-only."""
    on_p, on_next = pair_rows(n, p)
    return _read_only(((on_p[:, None] << n) | on_p).ravel(),
                      ((on_next[:, None] << n) | on_next).ravel())


def rotate_pair(rows: np.ndarray, a: np.ndarray, b: np.ndarray, theta: float) -> None:
    """In-place plane rotation of rows a and b along the leading axis:
    rows a -> cos * a - sin * b and rows b -> sin * a + cos * b."""
    if theta == 0.0:
        return
    c, s = np.cos(theta), np.sin(theta)
    old_a = rows[a]
    rows[a] = c * old_a - s * rows[b]
    rows[b] = s * old_a + c * rows[b]


def _fabric_operator(fabric: GivensFabric, angles: np.ndarray) -> np.ndarray:
    """Per-spin operator of the fabric gates at ``angles``, first gate rightmost."""
    op = np.eye(1 << fabric.n)
    for (m, _), theta in zip(fabric.pivots, angles):
        rotate_pair(op, *pair_rows(fabric.n, m), theta)
    return op


# ---------------------------------------------------------------------------
# Frames: one per term of the factorized Hamiltonian
# ---------------------------------------------------------------------------

def _spin_z(n: int) -> np.ndarray:
    """Pauli-Z eigenvalue of every orbital in every spin string."""
    return 1.0 - 2.0 * string_bits(n)


@dataclass(frozen=True, eq=False)
class Frame:
    """One term in its own basis: the fabric rotating into it, the term's
    energy operator ``D[beta, alpha]``, diagonal in the rotated basis, and
    the fabric's per-spin operator ``M``, built from the fabric on
    construction. The arrays are read-only."""

    fabric: GivensFabric
    D: np.ndarray
    M: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, arr in (("D", np.array(self.D, dtype=float)),
                          ("M", _fabric_operator(self.fabric, self.fabric.angles))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def one_body_frame(fabric: GivensFabric, f0: np.ndarray) -> Frame:
    """Frame of the one-body term with eigenvalues ``f0``."""
    d = string_bits(fabric.n) @ f0
    return Frame(fabric, d[:, None] + d[None, :] - float(np.sum(f0)))


def leaf_frame(fabric: GivensFabric, leaf: XDFLeaf) -> Frame:
    """Frame of one leaf, whose Z/ZZ couplings are ``leaf.Z``."""
    z_mat = leaf.Z
    z = _spin_z(fabric.n)
    w = z @ z_mat @ z.T
    q = np.diag(w)
    return Frame(fabric, 0.125 * (q[:, None] + q[None, :] + 2.0 * w)
                 - 0.25 * float(np.trace(z_mat)))


# ---------------------------------------------------------------------------
# Leaf-frame measurements
# ---------------------------------------------------------------------------

def _omega0(state: Statevector, op: np.ndarray) -> np.ndarray:
    weights = np.abs(op.T @ state.matrix() @ op) ** 2
    marginal = weights.sum(axis=0) + weights.sum(axis=1)
    return -0.5 * (marginal @ _spin_z(state.n_spatial))


def _omega_leaf(state: Statevector, op: np.ndarray) -> np.ndarray:
    weights = np.abs(op.T @ state.matrix() @ op) ** 2
    marginal = weights.sum(axis=0) + weights.sum(axis=1)
    z = _spin_z(state.n_spatial)
    moments = (z.T * marginal) @ z + z.T @ (weights + weights.T) @ z
    return (moments - 2.0 * np.eye(state.n_spatial)) / 8.0


def measure_densities(state: Statevector, fac: XDFFactorization) -> EigenbasisDensities:
    frame0, *leaf_frames = fac.frames
    return EigenbasisDensities(_omega0(state, frame0.M),
                               tuple(_omega_leaf(state, f.M) for f in leaf_frames))


# ---------------------------------------------------------------------------
# X-DF energy and its angle derivatives
# ---------------------------------------------------------------------------

def energy(state: Statevector, fac: XDFFactorization) -> float:
    """Eigenbasis-density energy: offset + F0 . omega0 + sum_t Z_t : omega_t."""
    omegas = measure_densities(state, fac)
    total = fac.eff.scalar_offset + float(fac.F0 @ omegas.omega0)
    for leaf, omega_t in zip(fac.retained_leaves, omegas.omega):
        total += float(np.sum(leaf.Z * omega_t))
    return total


def apply_hamiltonian(state: Statevector, fac: XDFFactorization) -> np.ndarray:
    """Action of the (possibly truncated) factorized Hamiltonian, frame by frame."""
    psi = state.matrix()
    out = fac.eff.scalar_offset * psi
    for frame in fac.frames:
        out = out + frame.M @ (frame.D * (frame.M.T @ psi @ frame.M)) @ frame.M.T
    return out.reshape(-1)


def denergy_dtheta_shift(state: Statevector, frame: Frame, g: int) -> float:
    """Shift-rule energy derivative with respect to one fabric angle of a frame.

    The spin-locked pair is unlocked and each spin's gate is differentiated
    with the exact two-frequency rule (symmetric differences at pi/4 and
    pi/2), eight evaluations in total. The unshifted spin keeps the frame's
    operator; the four shifted operators are built per call.
    """
    if not 0 <= g < len(frame.fabric.pivots):
        raise ValueError(f"angle index {g} out of range")
    psi = state.matrix()
    total = 0.0
    for step, coeff in SHIFT_STEPS:
        for sign in (1.0, -1.0):
            angles = frame.fabric.angles.copy()
            angles[g] += sign * step
            shifted = _fabric_operator(frame.fabric, angles)
            # alpha gate shifted (columns), then beta gate shifted (rows)
            for rotated in (frame.M.T @ psi @ shifted, shifted.T @ psi @ frame.M):
                total += sign * coeff * float(np.sum(frame.D * np.abs(rotated) ** 2))
    return total


def angle_gradient(state: Statevector, frame: Frame) -> np.ndarray:
    """Energy derivatives of one frame with respect to all of its fabric angles.

    With R = M^T Psi M and Lambda = D * conj(R), the derivative with respect
    to gate g is 2 Re sum(K_g * P_g Y P_g^T), where Y = M^T (Psi M Lambda^T +
    Psi^T M Lambda) collects both spins, P_g is the product of the gates
    before g and K_g is the generator of gate g. One forward sweep conjugates
    Y by each gate in turn: one pass over the gates on one array, no
    operator builds.
    """
    psi = state.matrix()
    m_op = frame.M
    lam = frame.D * np.conj(m_op.T @ psi @ m_op)
    y = m_op.T @ (psi @ m_op @ lam.T + psi.T @ m_op @ lam)
    grad = np.empty(len(frame.fabric.pivots))
    for g, ((m, _), theta) in enumerate(zip(frame.fabric.pivots, frame.fabric.angles)):
        a, b = pair_rows(frame.fabric.n, m)
        grad[g] = 2.0 * float(np.real(np.sum(y[b, a]) - np.sum(y[a, b])))
        rotate_pair(y, a, b, theta)
        rotate_pair(y.T, a, b, theta)
    return grad


# ---------------------------------------------------------------------------
# Direct (brute-force) fermionic RDMs
# ---------------------------------------------------------------------------

def _apply_singlet_excitation(amps: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """E_pq acting on the amplitude vector, Jordan-Wigner strings included."""
    nq = 2 * n
    bits = string_bits(nq)
    out = np.zeros_like(amps)
    for off in (0, n):
        ps, qs = p + off, q + off
        if p == q:
            out += bits[:, ps] * amps
            continue
        mask = (bits[:, qs] == 1) & (bits[:, ps] == 0)
        x = np.nonzero(mask)[0]
        if x.size == 0:
            continue
        y = x ^ (1 << qs) ^ (1 << ps)
        lo, hi = (ps, qs) if ps < qs else (qs, ps)
        if hi - lo > 1:
            parity = bits[x, lo + 1:hi].sum(axis=1) % 2
            signs = 1.0 - 2.0 * parity
        else:
            signs = np.ones(x.size)
        out[y] += signs * amps[x]
    return out


def measure_rdms_direct(state: Statevector) -> tuple[np.ndarray, np.ndarray]:
    """Full one- and two-body fermionic RDMs by explicit operator application.

    gamma[p, q] = <E_pq>; Gamma[p, q, r, s] = (<E_pq E_rs> - d_qr <E_ps>) / 2.
    This is the oracle the leaf-frame workflow avoids measuring.
    """
    n = state.n_spatial
    amps = state.amplitudes
    images = np.empty((n, n, amps.size), dtype=amps.dtype)
    for r in range(n):
        for s in range(n):
            images[r, s] = _apply_singlet_excitation(amps, n, r, s)
    gamma = np.real(images @ np.conj(amps))
    pair = np.real(np.einsum("qpx,rsx->pqrs", np.conj(images), images))
    gamma_term = np.einsum("qr,ps->pqrs", np.eye(n), gamma)
    big_gamma = 0.5 * (pair - gamma_term)
    return gamma, big_gamma
