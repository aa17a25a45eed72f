"""Jordan-Wigner statevector simulation over 2N qubits, one spin filling at a time.

Qubit ordering is blocked by spin: qubits 0 .. N-1 are the alpha spin
orbitals, N .. 2N-1 the beta ones, and bit j of a basis index is the
occupation of qubit j; bit k of a spin string is the occupation of orbital k
in that spin. Every gate and every frame operator here conserves each spin's
particle number, so a state with n_alpha and n_beta electrons lives in one
block: ``Statevector.amplitudes`` is the matrix ``Psi[beta_string,
alpha_string]`` of shape (C(N, n_beta), C(N, n_alpha)), whose rows and
columns are the spin strings of that filling in ascending order
(``sector_strings``). ``Statevector.embed`` returns the full 4^N vector,
alpha strings in the low bits; only referees call it.

All gate work is one kernel, ``apply_gate``: every gate is a signed
permutation of a flat amplitude array, x <- where(mask, cos, 1) * x + sin *
sign * x[..., perm], with batch axes leading and one angle per batch item.
The tables of a gate set (``GateTable``: per gate its entry pairs and the
perm, sign and mask rows) are built once and cached read-only. A Givens gate
on orbitals (m, m+1) of one spin mixes the block rows ``pair_rows(N,
filling, m)`` of that spin's filling: rows of Psi for beta, columns for
alpha. ``ansatz_table`` holds the ansatz circuit on the flat block, its pair
exchanges on ``pair_exchange_rows(N, n_alpha, n_beta, p)``;
``fabric_table`` holds a fabric's gates on the rows of one spin's
operators, and on their columns through the transpose. Gates act on
adjacent orbitals of one spin, so no Jordan-Wigner strings appear in
circuits; the direct RDM oracle handles the strings explicitly on the
embedded vector.

A spin-locked fabric acts on each spin through one operator on that spin's
strings, its gates applied in order to the rows of the identity: the circuit
maps Psi to M_beta Psi M_alpha^T and its dagger to M_beta^T Psi M_alpha (one
operator serves both spins when n_alpha = n_beta). The terms of a factorized
Hamiltonian, the one-body term first, then one per retained leaf, are one
``Frames`` stack, frame first: one stacked fabric with a row of angles per
frame, its M_alpha and M_beta, and the terms' energy operators, diagonal in
the rotated bases, as D[f, beta, alpha]. Every kernel reads the stack
through one rotation of the state, M_beta^T Psi M_alpha for all frames at
once: ``apply_hamiltonian`` maps it back and sums, ``measure_densities``
takes the densities and the orbital-rotation gradients of every frame from
it, and ``energy`` the densities alone. The leaf densities are one (T, N, N) stack, matching the
factorization's leaf stacks.

Production differentiates frames without an angle chart: G[a, b], the
derivative of each frame's energy along U -> U exp(kappa (e_a e_b^T - e_b
e_a^T)), a > b, comes from one product per spin against the string-space
table of E_ab - E_ba (``rotation_generators``), and ``lagrange`` takes
mu[a, b] = -G[a, b] / (spec[a] - spec[b]). The paper's angle route stays as
referees: ``angle_gradients``, one forward sweep over the shared rectangle
pivots, and the two-frequency shift rule ``denergy_dtheta_shift`` on the
embedded vector.

Expectation values are exact (infinite-shot limit). All gates have real
matrix elements, so amplitudes stay real in practice; complex amplitudes are
accepted and measured through |amplitude|^2 weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .givens import GivensFabric, lower_indices, rectangle_pivots
from .hammodel import DESK_CAP

if TYPE_CHECKING:
    from .xdf import XDFFactorization

__all__ = [
    "Statevector",
    "EigenbasisDensities",
    "Frames",
    "one_body_energy",
    "leaf_energies",
    "SHIFT_STEPS",
    "string_bits",
    "sector_strings",
    "sector_shape",
    "pair_rows",
    "pair_exchange_rows",
    "GateTable",
    "apply_gate",
    "fabric_table",
    "ansatz_table",
    "hf_reference",
    "measure_densities",
    "energy",
    "apply_hamiltonian",
    "denergy_dtheta_shift",
    "rotation_generators",
    "angle_gradients",
    "measure_rdms_direct",
]

# Exact first-derivative rule for a plane-rotation gate, whose conjugation
# carries both single and double angle frequencies: two symmetric
# differences at pi/4 and pi/2, as (step, coefficient) pairs.
SHIFT_STEPS = ((np.pi / 4.0, 1.0), (np.pi / 2.0, (1.0 - np.sqrt(2.0)) / 2.0))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def string_bits(n_bits: int) -> np.ndarray:
    """Read-only table whose row x holds bits 0 .. n_bits-1 of x."""
    x = np.arange(1 << n_bits, dtype=np.int64)
    table = ((x[:, None] >> np.arange(n_bits)) & 1).astype(np.int8)
    return _read_only(table)[0]


@lru_cache(maxsize=128)
def sector_strings(n: int, filling: int) -> np.ndarray:
    """Spin strings of n orbitals with ``filling`` of them occupied, ascending.
    Cached; the array is read-only."""
    x = np.arange(1 << n, dtype=np.int64)
    return _read_only(x[string_bits(n).sum(axis=1) == filling])[0]


def _sector_bits(n: int, filling: int) -> np.ndarray:
    """Orbital occupations (0 or 1) of every string of one spin filling."""
    return string_bits(n)[sector_strings(n, filling)]


def sector_shape(n: int, n_alpha: int, n_beta: int) -> tuple[int, int]:
    """Shape (C(n, n_beta), C(n, n_alpha)) of the amplitude block of a filling."""
    if not (0 <= n_alpha <= n and 0 <= n_beta <= n):
        raise ValueError("occupation exceeds orbital count")
    return comb(n, n_beta), comb(n, n_alpha)


def _embedded(block: np.ndarray, n: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """A filling's block placed in the 2^n x 2^n matrix over all spin strings."""
    full = np.zeros((1 << n, 1 << n), dtype=block.dtype)
    full[np.ix_(sector_strings(n, n_beta), sector_strings(n, n_alpha))] = block
    return full


@dataclass(frozen=True, eq=False)
class Statevector:
    """Amplitudes of one (n_alpha, n_beta) filling of 2 * n_spatial
    Jordan-Wigner qubits: the block Psi[beta_string, alpha_string]."""

    n_spatial: int
    n_alpha: int
    n_beta: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_spatial > DESK_CAP:
            raise ValueError(f"n_spatial {self.n_spatial} above desk cap {DESK_CAP}")
        shape = sector_shape(self.n_spatial, self.n_alpha, self.n_beta)
        dtype = complex if np.iscomplexobj(self.amplitudes) else float
        amps = np.array(self.amplitudes, dtype=dtype)
        if amps.shape != shape:
            raise ValueError(f"amplitude block has shape {amps.shape}, expected {shape}")
        object.__setattr__(self, "amplitudes", _read_only(amps)[0])

    def embed(self) -> np.ndarray:
        """The full 4^N amplitude vector, zero outside this filling."""
        return _embedded(self.amplitudes, self.n_spatial, self.n_alpha,
                         self.n_beta).reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class EigenbasisDensities:
    """What one rotation into the frame stack measures: omega0 (length N),
    the (T, N, N) stack ``omega`` of the retained leaves and every frame's
    (F, P) rotation ``gradients``."""

    omega0: np.ndarray
    omega: np.ndarray
    gradients: np.ndarray


def hf_reference(n_spatial: int, n_alpha: int, n_beta: int) -> Statevector:
    """Computational basis determinant occupying the lowest orbitals per spin:
    the first string of each spin's filling."""
    amps = np.zeros(sector_shape(n_spatial, n_alpha, n_beta))
    amps[0, 0] = 1.0
    return Statevector(n_spatial, n_alpha, n_beta, amps)


# ---------------------------------------------------------------------------
# Gate kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def pair_rows(n: int, filling: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows, among the strings of n orbitals with ``filling`` occupied, of
    those with m occupied and m+1 empty, and of the same strings with those
    two occupations swapped: the rows a (m, m+1) gate mixes. Cached; the
    arrays are read-only."""
    strings = sector_strings(n, filling)
    rows = np.nonzero(((strings >> m) & 3) == 1)[0]
    return _read_only(rows, np.searchsorted(strings, strings[rows] + (1 << m)))


@lru_cache(maxsize=512)
def pair_exchange_rows(n: int, n_alpha: int, n_beta: int,
                       p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat block indices with both spins doubly occupying p (and p+1 empty),
    and their images with the pair moved to p+1. Cached; the arrays are
    read-only."""
    alpha_p, alpha_next = pair_rows(n, n_alpha, p)
    beta_p, beta_next = pair_rows(n, n_beta, p)
    width = comb(n, n_alpha)
    return _read_only((beta_p[:, None] * width + alpha_p).ravel(),
                      (beta_next[:, None] * width + alpha_next).ravel())


def _row_entries(rows: np.ndarray, width: int) -> np.ndarray:
    """Flat indices of the given rows of a matrix ``width`` wide, row by row."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def _column_entries(cols: np.ndarray, height: int, width: int) -> np.ndarray:
    """Flat indices of the given columns of a (height, width) matrix, column
    by column."""
    return (np.arange(height)[None, :] * width + cols[:, None]).ravel()


@dataclass(frozen=True, eq=False)
class GateTable:
    """Plane-rotation gates on a flat amplitude array of length ``dim``, each a
    signed permutation of it.

    Gate k mixes the entries ``pairs[k] = (a, b)``, a (2, L) index array:
    a -> cos * a - sin * b and b -> sin * a + cos * b. Its row of ``perm``
    maps every entry to its partner (to itself off the gate), of ``sign``
    holds -1 on a, +1 on b and 0 off the gate, and of ``mask`` marks a and b.
    The (K, dim) arrays are built on construction; every array is read-only.
    """

    dim: int
    pairs: tuple[np.ndarray, ...]
    perm: np.ndarray = field(init=False, repr=False)
    sign: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perm = np.tile(np.arange(self.dim), (len(self.pairs), 1))
        sign = np.zeros(perm.shape)
        for k, (a, b) in enumerate(_read_only(*self.pairs)):
            perm[k, a], perm[k, b] = b, a
            sign[k, a], sign[k, b] = -1.0, 1.0
        for name, arr in (("perm", perm), ("sign", sign), ("mask", sign != 0.0)):
            object.__setattr__(self, name, _read_only(arr)[0])

    def factors(self, c, s, gates=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The kernel factors ``where(mask, c, 1)`` and ``s * sign`` of the
        selected gates (all by default) at cosines c and sines s, which
        broadcast against the selected rows of the tables."""
        return np.where(self.mask[gates], c, 1.0), s * self.sign[gates]


def apply_gate(x: np.ndarray, table: GateTable, k: int, scale: np.ndarray,
               shift: np.ndarray) -> np.ndarray:
    """Gate k of ``table`` on the flat amplitudes x, batch axes leading, with
    its ``GateTable.factors`` (one cosine and sine per batch item): returns
    ``scale * x + shift * x[..., perm[k]]``. On the gate's entries that is a
    plane rotation's products and sum, rounded as such; off them, x times 1
    plus a zero."""
    return scale * x + shift * x.take(table.perm[k], axis=-1)


@lru_cache(maxsize=64)
def fabric_table(n: int, filling: int) -> GateTable:
    """The rectangle-fabric gates on the rows of the flattened d x d arrays of
    one spin filling (d = C(n, filling)), gate g on the rows ``pair_rows(n,
    filling, m_g)``. Cached; the arrays are read-only."""
    d = comb(n, filling)
    return GateTable(d * d, tuple(
        np.array([_row_entries(a, d), _row_entries(b, d)])
        for a, b in (pair_rows(n, filling, m) for m, _ in rectangle_pivots(n))))


@lru_cache(maxsize=16)
def ansatz_table(n: int, n_alpha: int, n_beta: int, blocks: tuple[int, ...]) -> GateTable:
    """The ansatz gates on the flat amplitude block, three per block pivot m,
    in circuit order: the alpha rotation on the columns ``pair_rows(n,
    n_alpha, m)`` (entries column by column), the beta rotation on the rows
    ``pair_rows(n, n_beta, m)`` (row by row) and the pair exchange on
    ``pair_exchange_rows(n, n_alpha, n_beta, m)``.

    Cached. The largest at the desk cap, N=8 (4a, 4b) with 8 layers, has
    84 gates x 4900 amplitudes: about 7 MB, int64 ``perm`` and float
    ``sign`` 3.3 MB each.
    """
    height, width = sector_shape(n, n_alpha, n_beta)
    pairs = []
    for m in blocks:
        a, b = pair_rows(n, n_alpha, m)
        pairs.append(np.array([_column_entries(a, height, width),
                               _column_entries(b, height, width)]))
        a, b = pair_rows(n, n_beta, m)
        pairs.append(np.array([_row_entries(a, width), _row_entries(b, width)]))
        pairs.append(np.array(pair_exchange_rows(n, n_alpha, n_beta, m)))
    return GateTable(height * width, tuple(pairs))


def _fabric_operators(n: int, angles: np.ndarray, filling: int) -> np.ndarray:
    """Operators of n-orbital fabrics at the (B, K) ``angles`` on the strings
    of one spin filling, first gate rightmost: one sweep applies each gate,
    one angle per fabric, to the rows of B identities. Returns (B, d, d)."""
    d = comb(n, filling)
    rows = fabric_table(n, filling)
    c, s = np.cos(angles)[:, :, None], np.sin(angles)[:, :, None]
    ops = np.tile(np.eye(d).reshape(-1), (len(angles), 1))
    for k in range(angles.shape[1]):
        ops = apply_gate(ops, rows, k, *rows.factors(c[:, k], s[:, k], k))
    return ops.reshape(-1, d, d)


# ---------------------------------------------------------------------------
# Frames: the terms of the factorized Hamiltonian as one stack
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _spin_z(n: int, filling: int) -> np.ndarray:
    """Pauli-Z eigenvalue of every orbital in every string of one spin filling.
    Cached; the array is read-only."""
    return _read_only(1.0 - 2.0 * _sector_bits(n, filling))[0]


@dataclass(frozen=True, eq=False)
class Frames:
    """The terms of a factorized Hamiltonian for one (n_alpha, n_beta)
    filling, frame first: one stacked fabric with (F, K) angles rotating into
    the frames' bases, the (F, rows, cols) energy operators ``D[f, beta,
    alpha]``, diagonal there, and the fabric's (F, d, d) operators on the
    alpha and beta strings, ``M_alpha`` and ``M_beta`` (one array when the
    fillings are equal). One sweep per spin filling builds the operators on
    construction, each gate applied to the stacked identities with one angle
    per frame, so every member equals its one-fabric build bitwise. The
    arrays are read-only."""

    fabric: GivensFabric
    n_alpha: int
    n_beta: int
    D: np.ndarray
    M_alpha: np.ndarray = field(init=False, repr=False)
    M_beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, angles = self.fabric.n, self.fabric.angles
        if angles.ndim != 2:
            raise ValueError(f"Frames needs a stacked fabric with (F, K) angles, "
                             f"got one fabric with angles of shape {angles.shape}")
        energies = np.array(self.D, dtype=float)
        shape = (len(angles), *sector_shape(n, self.n_alpha, self.n_beta))
        if energies.shape != shape:
            raise ValueError(f"D has shape {energies.shape}, expected {shape}")
        m_alpha = _fabric_operators(n, angles, self.n_alpha)
        m_beta = (m_alpha if self.n_beta == self.n_alpha
                  else _fabric_operators(n, angles, self.n_beta))
        for name, arr in (("D", energies), ("M_alpha", m_alpha), ("M_beta", m_beta)):
            object.__setattr__(self, name, _read_only(arr)[0])


def one_body_energy(f0: np.ndarray, n_alpha: int, n_beta: int) -> np.ndarray:
    """Energy operator of the one-body term with eigenvalues ``f0``."""
    n = len(f0)
    d_alpha = _sector_bits(n, n_alpha) @ f0
    d_beta = _sector_bits(n, n_beta) @ f0
    return d_beta[:, None] + d_alpha[None, :] - float(np.sum(f0))


def leaf_energies(couplings: np.ndarray, n_alpha: int, n_beta: int) -> np.ndarray:
    """Energy operators of the leaves with the (T, N, N) stack of Z/ZZ
    couplings ``couplings`` (a slice of ``XDFFactorization.Z``), as a (T,
    rows, cols) stack."""
    n = couplings.shape[-1]
    z_alpha, z_beta = _spin_z(n, n_alpha), _spin_z(n, n_beta)
    w = z_beta @ couplings @ z_alpha.T
    q_alpha = np.sum((z_alpha @ couplings) * z_alpha, axis=-1)
    q_beta = (q_alpha if n_beta == n_alpha
              else np.sum((z_beta @ couplings) * z_beta, axis=-1))
    traces = np.trace(couplings, axis1=1, axis2=2)
    return (0.125 * (q_beta[:, :, None] + q_alpha[:, None, :] + 2.0 * w)
            - 0.25 * traces[:, None, None])


def _check_filling(state: Statevector, frames: Frames) -> None:
    if (state.n_alpha, state.n_beta) != (frames.n_alpha, frames.n_beta):
        raise ValueError(f"state filling ({state.n_alpha}, {state.n_beta}) differs from "
                         f"frame filling ({frames.n_alpha}, {frames.n_beta})")


def _rotated(state: Statevector, frames: Frames) -> np.ndarray:
    """M_beta^T Psi M_alpha: the state in the basis of every frame, as an (F,
    rows, cols) stack. Every kernel reads the frames through this one
    rotation; it refuses a state of another filling."""
    _check_filling(state, frames)
    return np.swapaxes(frames.M_beta, 1, 2) @ state.amplitudes @ frames.M_alpha


# ---------------------------------------------------------------------------
# Frame measurements
# ---------------------------------------------------------------------------

def _omega0(state: Statevector, weights: np.ndarray) -> np.ndarray:
    n = state.n_spatial
    return -0.5 * (weights.sum(axis=0) @ _spin_z(n, state.n_alpha)
                   + weights.sum(axis=1) @ _spin_z(n, state.n_beta))


def _omega_leaves(state: Statevector, weights: np.ndarray) -> np.ndarray:
    """Leaf densities from a (T, rows, cols) stack of weights."""
    n = state.n_spatial
    z_alpha, z_beta = _spin_z(n, state.n_alpha), _spin_z(n, state.n_beta)
    cross = z_beta.T @ weights @ z_alpha
    moments = ((z_alpha.T * weights.sum(axis=1)[:, None, :]) @ z_alpha
               + (z_beta.T * weights.sum(axis=2)[:, None, :]) @ z_beta
               + cross + np.swapaxes(cross, 1, 2))
    return (moments - 2.0 * np.eye(n)) / 8.0


@lru_cache(maxsize=64)
def rotation_generators(n: int, filling: int) -> np.ndarray:
    """String-space matrices of E_ab - E_ba on one spin filling, one per pair
    a > b in ``lower_indices(n)`` order, as a (P, d, d) stack: the hop
    a_a^+ a_b carries +(-1)^(occupied orbitals strictly between b and a),
    the reverse hop the opposite sign. Cached; the array is read-only."""
    strings, bits = sector_strings(n, filling), _sector_bits(n, filling)
    a, b = lower_indices(n)
    filled = np.cumsum(bits, axis=1)
    hops = (bits[:, b] == 1) & (bits[:, a] == 0)
    sign = 1.0 - 2.0 * ((filled[:, a - 1] - filled[:, b]) % 2)
    rows, pairs = np.nonzero(hops)
    targets = np.searchsorted(strings, strings[rows] + (1 << a[pairs]) - (1 << b[pairs]))
    table = np.zeros((len(a), len(strings), len(strings)))
    table[pairs, targets, rows] = sign[rows, pairs]
    table[pairs, rows, targets] = -sign[rows, pairs]
    return _read_only(table)[0]


def _frame_responses(state: Statevector, frames: Frames,
                     rotated: np.ndarray) -> tuple[tuple[np.ndarray, int], ...]:
    """The (F, d, d) stacks R^T Lambda on the alpha strings and R Lambda^T on
    the beta ones, with R the ``_rotated`` state and Lambda = D * conj(R),
    each with its spin's filling; their sum alone when the fillings are equal."""
    lam = frames.D * np.conj(rotated)
    alpha = np.swapaxes(rotated, 1, 2) @ lam
    beta = rotated @ np.swapaxes(lam, 1, 2)
    if state.n_alpha == state.n_beta:
        return ((alpha + beta, state.n_alpha),)
    return (alpha, state.n_alpha), (beta, state.n_beta)


def _rotation_gradients(state: Statevector, frames: Frames,
                        rotated: np.ndarray) -> np.ndarray:
    """Energy derivative of each frame along every orbital rotation U -> U
    exp(kappa (e_a e_b^T - e_b e_a^T)), a > b, at kappa = 0, as (F, P) rows in
    ``lower_indices(N)`` order. The rotation moves each spin's operator as
    M -> M k_ab (``rotation_generators``), so G = 2 Re sum over spins of
    vec(Y) . k_ab with Y the ``_frame_responses``: one product per spin
    against the stacked table. A row equals the one-frame result bitwise."""
    grad = 0.0
    for y, filling in _frame_responses(state, frames, rotated):
        table = rotation_generators(state.n_spatial, filling)
        y = np.real(y).reshape(len(y), 1, -1)
        grad = grad + y @ table.reshape(len(table), y.shape[-1]).T
    return 2.0 * grad[:, 0]


def _densities(state: Statevector, rotated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """omega0 and the (T, N, N) leaf omega stack from the ``_rotated`` state."""
    weights = np.abs(rotated) ** 2
    return _omega0(state, weights[0]), _omega_leaves(state, weights[1:])


def measure_densities(state: Statevector, fac: XDFFactorization) -> EigenbasisDensities:
    """omega0 in the one-body frame, omega in every leaf frame and the
    orbital-rotation gradients of every frame, all from one rotation of the
    state into the frame stack."""
    rotated = _rotated(state, fac.frames)
    return EigenbasisDensities(*_densities(state, rotated),
                               _rotation_gradients(state, fac.frames, rotated))


# ---------------------------------------------------------------------------
# X-DF energy and the angle-route referees
# ---------------------------------------------------------------------------

def energy(state: Statevector, fac: XDFFactorization) -> float:
    """Eigenbasis-density energy: offset + F0 . omega0 + sum_t Z_t : omega_t,
    from the densities alone (no rotation gradients)."""
    omega0, omega = _densities(state, _rotated(state, fac.frames))
    total = fac.eff.scalar_offset + float(fac.F0 @ omega0)
    for z, omega_t in zip(fac.Z[:fac.retained], omega):
        total += float(np.sum(z * omega_t))
    return total


def apply_hamiltonian(state: Statevector, fac: XDFFactorization) -> np.ndarray:
    """Action of the (possibly truncated) factorized Hamiltonian on the
    amplitude block: every frame's term M_beta (D * R) M_alpha^T from one
    rotation R of the stack, added one at a time in frame order after the
    offset (``np.add.reduce`` would add a (1, 1) block's terms pairwise, and
    so round them differently). Returns a block of the same shape."""
    frames = fac.frames
    terms = (frames.M_beta @ (frames.D * _rotated(state, frames))
             @ np.swapaxes(frames.M_alpha, 1, 2))
    return sum(terms, fac.eff.scalar_offset * state.amplitudes)


def _full_operator(n: int, angles: np.ndarray) -> np.ndarray:
    """Per-spin operator of one n-orbital fabric at the (K,) ``angles`` on all
    2^n strings: the direct sum of its operators on every filling."""
    op = np.zeros((1 << n, 1 << n))
    for filling in range(n + 1):
        strings = sector_strings(n, filling)
        op[np.ix_(strings, strings)] = _fabric_operators(n, angles[None], filling)[0]
    return op


def denergy_dtheta_shift(state: Statevector, frames: Frames, f: int, g: int) -> float:
    """Shift-rule energy derivative with respect to angle g of frame f.

    The spin-locked pair is unlocked and each spin's gate is differentiated
    with the exact two-frequency rule (symmetric differences at pi/4 and
    pi/2), eight evaluations in total. Every evaluation runs on the embedded
    2^N x 2^N amplitude matrix with full per-spin operators, built per call.
    """
    row = frames.fabric.angles[f]
    if not 0 <= g < len(row):
        raise ValueError(f"angle index {g} out of range")
    _check_filling(state, frames)
    n = state.n_spatial
    psi = state.embed().reshape(1 << n, 1 << n)
    d_full = _embedded(frames.D[f], n, frames.n_alpha, frames.n_beta)
    unshifted = _full_operator(n, row)
    total = 0.0
    for step, coeff in SHIFT_STEPS:
        for sign in (1.0, -1.0):
            angles = row.copy()
            angles[g] += sign * step
            shifted = _full_operator(n, angles)
            # alpha gate shifted (columns), then beta gate shifted (rows)
            for rotated in (unshifted.T @ psi @ shifted, shifted.T @ psi @ unshifted):
                total += sign * coeff * float(np.sum(d_full * np.abs(rotated) ** 2))
    return total


def angle_gradients(state: Statevector, frames: Frames) -> np.ndarray:
    """Energy derivatives of each frame with respect to all of its fabric
    angles, one row per frame: the paper's angle route, kept as a referee.
    With Y the ``_frame_responses``, the derivative by gate g is 2 Re
    sum(K_g * P_g Y P_g^T) over the spins (P_g the gates before g, K_g the
    generator of g), from one forward sweep per spin over the frames' shared
    gate table, applied to the rows of Y and then to the rows of its
    transpose. A row equals the one-frame result bitwise.
    """
    n, angles = state.n_spatial, frames.fabric.angles
    c, s = np.cos(angles)[:, :, None], np.sin(angles)[:, :, None]
    grad = np.zeros(angles.shape)
    for y, filling in _frame_responses(state, frames, _rotated(state, frames)):
        table, d = fabric_table(n, filling), y.shape[-1]
        y = y.reshape(len(y), -1)
        for g, (m, _) in enumerate(rectangle_pivots(n)):
            a, b = pair_rows(n, filling, m)
            grad[:, g] += 2.0 * np.real(y.take(b * d + a, axis=1).sum(axis=1)
                                        - y.take(a * d + b, axis=1).sum(axis=1))
            factors = table.factors(c[:, g], s[:, g], g)
            for _ in range(2):  # rows, then columns through the transpose: G Y G^T
                y = apply_gate(y, table, g, *factors)
                y = np.swapaxes(y.reshape(-1, d, d), 1, 2).reshape(len(y), -1)
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
    This is the oracle the leaf-frame workflow avoids measuring; it runs on
    the embedded 4^N vector.
    """
    n = state.n_spatial
    amps = state.embed()
    images = np.empty((n, n, amps.size), dtype=amps.dtype)
    for r in range(n):
        for s in range(n):
            images[r, s] = _apply_singlet_excitation(amps, n, r, s)
    gamma = np.real(images @ np.conj(amps))
    pair = np.real(np.einsum("qpx,rsx->pqrs", np.conj(images), images))
    gamma_term = np.einsum("qr,ps->pqrs", np.eye(n), gamma)
    big_gamma = 0.5 * (pair - gamma_term)
    return gamma, big_gamma
