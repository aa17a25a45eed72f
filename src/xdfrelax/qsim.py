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
alpha strings in the low bits; only the oracles call it, and the direct RDM
oracle reads it only at the filling's strings.

A Givens gate on orbitals (m, m+1) of one spin mixes the block rows
``pair_rows(N, filling, m)`` of that spin's filling: rows of Psi for beta,
columns for alpha. The ansatz, laid out by ``givens.brickwork``, runs on
``apply_gate``: every gate is a signed permutation of the flat block, x <-
where(mask, cos, 1) * x + sin * sign * x[..., perm], with batch axes leading
and one angle per batch item, from the cached read-only ``ansatz_table`` (a
``GateTable``; pair exchanges on ``pair_exchange_rows(N, n_alpha, n_beta,
p)``). Gates act on adjacent orbitals of one spin, so no Jordan-Wigner
strings appear in circuits. The direct RDM oracle handles the strings
explicitly on the filling's full 2N-qubit basis strings, from its own cached
table of every E_pq's nonzero matrix elements there, so its cost follows
the filling's C(N, n_alpha) C(N, n_beta) amplitudes, not 4^N.

A spin-locked orbital rotation U acts on each spin through one operator on
that spin's strings, the filling's compound matrix M[I, J] = det U[I, J]
(Löwdin): it maps Psi to M_beta Psi M_alpha^T and its dagger to M_beta^T
Psi M_alpha (one operator serves both spins when n_alpha = n_beta). On
hardware U is a Givens network; here no angle is needed. The terms of a
factorized Hamiltonian, the one-body term first, then one per retained
leaf, are one ``Frames`` stack, frame first: the orbital frames U, their
M_alpha and M_beta, built by Laplace expansion from filling 1 (where M =
U), and the terms' energy operators, diagonal in the rotated bases, as D[f,
beta, alpha]. Each term is a polynomial in its frame's occupations, so one
occupation table per filling serves D (``term_energies``) and the densities
(``measure_densities``). Every kernel reads the stack through one rotation
of the state, M_beta^T Psi M_alpha for all frames at once:
``apply_hamiltonian`` maps it back and sums, and ``measure_densities``
takes the densities and the orbital-rotation gradients of every frame from
it. The leaf densities are one (T, N, N) stack, matching the
factorization's leaf stacks.

Production differentiates frames without an angle chart: G[a, b], the
derivative of each frame's energy along U -> U exp(kappa (e_a e_b^T - e_b
e_a^T)), a > b, comes from one product per spin against the string-space
table of E_ab - E_ba (``rotation_generators``), and ``lagrange`` takes
mu[a, b] = -G[a, b] / (spec[a] - spec[b]). The paper's angle route, the
density energy and the dense ground state are referees in ``verify``, on
their own rotations; of this module's measurements only the brute-force
``measure_rdms_direct`` serves as an oracle, and ``cli rdm`` reports its gap.

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

from .givens import lower_indices, read_only
from .hammodel import DESK_CAP

if TYPE_CHECKING:
    from .xdf import XDFFactorization

__all__ = [
    "Statevector",
    "EigenbasisDensities",
    "Frames",
    "term_energies",
    "string_bits",
    "sector_strings",
    "sector_shape",
    "pair_rows",
    "pair_exchange_rows",
    "GateTable",
    "apply_gate",
    "ansatz_table",
    "hf_reference",
    "measure_densities",
    "apply_hamiltonian",
    "rotation_generators",
    "measure_rdms_direct",
]

@lru_cache(maxsize=16)
def string_bits(n_bits: int) -> np.ndarray:
    """Read-only table whose row x holds bits 0 .. n_bits-1 of x."""
    x = np.arange(1 << n_bits, dtype=np.int64)
    table = ((x[:, None] >> np.arange(n_bits)) & 1).astype(np.int8)
    return read_only(table)[0]


@lru_cache(maxsize=128)
def sector_strings(n: int, filling: int) -> np.ndarray:
    """Spin strings of n orbitals with ``filling`` of them occupied, ascending.
    Cached; the array is read-only."""
    x = np.arange(1 << n, dtype=np.int64)
    return read_only(x[string_bits(n).sum(axis=1) == filling])[0]


def _sector_bits(n: int, filling: int) -> np.ndarray:
    """Orbital occupations (0 or 1) of every string of one spin filling."""
    return string_bits(n)[sector_strings(n, filling)]


def sector_shape(n: int, n_alpha: int, n_beta: int) -> tuple[int, int]:
    """Shape (C(n, n_beta), C(n, n_alpha)) of the amplitude block of a filling."""
    if not (0 <= n_alpha <= n and 0 <= n_beta <= n):
        raise ValueError("occupation exceeds orbital count")
    return comb(n, n_beta), comb(n, n_alpha)


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
        object.__setattr__(self, "amplitudes", read_only(amps)[0])

    def embed(self) -> np.ndarray:
        """The full 4^N amplitude vector, zero outside this filling."""
        n = self.n_spatial
        full = np.zeros((1 << n, 1 << n), dtype=self.amplitudes.dtype)
        block = np.ix_(sector_strings(n, self.n_beta), sector_strings(n, self.n_alpha))
        full[block] = self.amplitudes
        return full.reshape(-1)


@dataclass(frozen=True, eq=False)
class EigenbasisDensities:
    """What one rotation into the frame stack measures: omega0 (length N),
    the (T, N, N) stack ``omega`` of the retained leaves and every frame's
    (F, P) rotation ``gradients``."""

    omega0: np.ndarray
    omega: np.ndarray
    gradients: np.ndarray


@lru_cache(maxsize=64)
def hf_reference(n_spatial: int, n_alpha: int, n_beta: int) -> Statevector:
    """Computational basis determinant occupying the lowest orbitals per spin:
    the first string of each spin's filling. Cached; a Statevector is
    immutable."""
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
    return read_only(rows, np.searchsorted(strings, strings[rows] + (1 << m)))


@lru_cache(maxsize=512)
def pair_exchange_rows(n: int, n_alpha: int, n_beta: int,
                       p: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat block indices with both spins doubly occupying p (and p+1 empty),
    and their images with the pair moved to p+1. Cached; the arrays are
    read-only."""
    alpha_p, alpha_next = pair_rows(n, n_alpha, p)
    beta_p, beta_next = pair_rows(n, n_beta, p)
    width = comb(n, n_alpha)
    return read_only((beta_p[:, None] * width + alpha_p).ravel(),
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
        for k, (a, b) in enumerate(read_only(*self.pairs)):
            perm[k, a], perm[k, b] = b, a
            sign[k, a], sign[k, b] = -1.0, 1.0
        for name, arr in (("perm", perm), ("sign", sign), ("mask", sign != 0.0)):
            object.__setattr__(self, name, read_only(arr)[0])


def apply_gate(x: np.ndarray, table: GateTable, k: int, scale: np.ndarray,
               shift: np.ndarray) -> np.ndarray:
    """Gate k of ``table`` on the flat amplitudes x, batch axes leading, with
    its factors ``scale = where(mask[k], cos, 1)`` and ``shift = sin *
    sign[k]`` (one cosine and sine per batch item): returns ``scale * x +
    shift * x[..., perm[k]]``. On the gate's entries that is a
    plane rotation's products and sum, rounded as such; off them, x times 1
    plus a zero."""
    return scale * x + shift * x.take(table.perm[k], axis=-1)


@lru_cache(maxsize=16)
def ansatz_table(n: int, n_alpha: int, n_beta: int, blocks: tuple[int, ...]) -> GateTable:
    """The ansatz gates on the flat amplitude block, three per block pivot m
    of ``blocks`` (a ``brickwork`` schedule), in circuit order: the alpha
    rotation on the columns ``pair_rows(n, n_alpha, m)`` (entries column by
    column), the beta rotation on the rows ``pair_rows(n, n_beta, m)`` (row
    by row) and the pair exchange on
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


# ---------------------------------------------------------------------------
# Frames: the terms of the factorized Hamiltonian as one stack
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _laplace_tables(n: int, filling: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather indices of one level of the Laplace expansion of
    ``_compound_matrices`` on n orbitals, one row per term t < filling: the
    (filling - 1) compound at (I less its highest orbital h, J less its t-th
    orbital J_t) and U at (h, J_t), for every row string I and column string
    J of the filling, row by row. Cached; the arrays are read-only."""
    strings, lower = sector_strings(n, filling), sector_strings(n, filling - 1)
    occupied = np.nonzero(_sector_bits(n, filling))[1].reshape(len(strings), filling).T
    highest = occupied[-1]
    minor_rows = np.searchsorted(lower, strings - (1 << highest))
    minor_cols = np.searchsorted(lower, strings - (1 << occupied))
    minors = minor_rows[None, :, None] * len(lower) + minor_cols[:, None, :]
    entries = highest[None, :, None] * n + occupied[:, None, :]
    return read_only(minors.reshape(filling, -1), entries.reshape(filling, -1))


def _compound_matrices(u: np.ndarray, filling: int) -> np.ndarray:
    """The filling-th compound matrices of the (B, n, n) stack u, M[I, J] =
    det u[I, J] over the ascending strings of that filling, as (B, d, d).

    Filling 0 gives ones and filling 1 is u itself. Each higher filling
    expands every minor along the highest orbital of its row string, det
    u[I, J] = sum over t of (-1)^(k - 1 + t) u[h, J_t] det u[I - h, J -
    J_t], as one product per term on the gathers of ``_laplace_tables``.
    The expansion runs member last, so that each gather moves all B members
    of an entry at once. Members never mix, so each equals its one-matrix
    build bitwise."""
    size, n = len(u), u.shape[-1]
    if filling < 2:
        return u if filling else np.ones((size, 1, 1))
    flat = np.ascontiguousarray(u.reshape(size, n * n).T)
    compound = flat
    for k in range(2, filling + 1):
        minors, entries = _laplace_tables(n, k)
        expansion = compound.take(minors[0], axis=0) * flat.take(entries[0], axis=0)
        for t in range(1, k):
            term = compound.take(minors[t], axis=0) * flat.take(entries[t], axis=0)
            if t % 2:
                expansion -= term
            else:
                expansion += term
        compound = expansion if k % 2 else -expansion
    d = comb(n, filling)
    return np.ascontiguousarray(compound.T).reshape(size, d, d)


@dataclass(frozen=True, eq=False)
class Frames:
    """The terms of a factorized Hamiltonian for one (n_alpha, n_beta)
    filling, frame first: the (F, N, N) orbital frames ``U`` whose bases
    the terms are diagonal in, the (F, rows, cols) energy operators ``D[f,
    beta, alpha]`` there, and the frames' (F, d, d) operators on the alpha
    and beta strings, ``M_alpha`` and ``M_beta`` (one array when the
    fillings are equal): the compound matrices of U at each spin's filling
    (``_compound_matrices``), built on construction. Every member equals its
    one-frame build bitwise. The arrays are read-only."""

    U: np.ndarray
    n_alpha: int
    n_beta: int
    D: np.ndarray
    M_alpha: np.ndarray = field(init=False, repr=False)
    M_beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        orbitals = np.array(self.U, dtype=float)
        energies = np.array(self.D, dtype=float)
        if orbitals.ndim != 3 or orbitals.shape[1] != orbitals.shape[2]:
            raise ValueError(f"U has shape {orbitals.shape}, expected (F, N, N), "
                             f"with D of shape {energies.shape}")
        n = orbitals.shape[-1]
        shape = (len(orbitals), *sector_shape(n, self.n_alpha, self.n_beta))
        if energies.shape != shape:
            raise ValueError(f"D has shape {energies.shape}, expected {shape} "
                             f"for U of shape {orbitals.shape}")
        m_alpha = _compound_matrices(orbitals, self.n_alpha)
        m_beta = (m_alpha if self.n_beta == self.n_alpha
                  else _compound_matrices(orbitals, self.n_beta))
        for name, arr in (("U", orbitals), ("D", energies), ("M_alpha", m_alpha),
                          ("M_beta", m_beta)):
            object.__setattr__(self, name, read_only(arr)[0])


@lru_cache(maxsize=64)
def _occupation_table(n: int, n_alpha: int, n_beta: int) -> tuple[np.ndarray, np.ndarray]:
    """z_k = Z_k,alpha + Z_k,beta = 2 - 2 n_k of every orbital k on every flat
    block entry (beta-major, as ``amplitudes.ravel()``), shape (N, dim), and
    the pair products zz[k N + l] = z_k z_l, shape (N^2, dim). Cached; the
    arrays are read-only."""
    occupied = _sector_bits(n, n_beta)[:, None, :] + _sector_bits(n, n_alpha)[None, :, :]
    z = np.ascontiguousarray(2.0 - 2.0 * occupied.reshape(-1, n).T)
    return read_only(z, (z[:, None, :] * z[None, :, :]).reshape(n * n, -1))


def term_energies(f0: np.ndarray, couplings: np.ndarray, n_alpha: int, n_beta: int) -> np.ndarray:
    """Energy operators of the one-body term with eigenvalues ``f0`` and of
    the leaves with the (T, N, N) stack of Z/ZZ couplings ``couplings`` (a
    slice of ``XDFFactorization.Z``), each diagonal in its frame, as a (1 +
    T, rows, cols) stack: -1/2 f0 . z, then 1/8 vec(Z_t) . zz - 1/4 tr Z_t
    over the ``_occupation_table``."""
    n = len(f0)
    z, zz = _occupation_table(n, n_alpha, n_beta)
    leaves = (0.125 * (couplings.reshape(len(couplings), n * n) @ zz)
              - 0.25 * np.trace(couplings, axis1=1, axis2=2)[:, None])
    energies = np.concatenate([-0.5 * (f0 @ z)[None], leaves])
    return energies.reshape(-1, *sector_shape(n, n_alpha, n_beta))


def _rotated(state: Statevector, frames: Frames) -> np.ndarray:
    """M_beta^T Psi M_alpha: the state in the basis of every frame, as an (F,
    rows, cols) stack. Every kernel reads the frames through this one
    rotation; it refuses a state of another filling."""
    if (state.n_alpha, state.n_beta) != (frames.n_alpha, frames.n_beta):
        raise ValueError(f"state filling ({state.n_alpha}, {state.n_beta}) differs from "
                         f"frame filling ({frames.n_alpha}, {frames.n_beta})")
    return np.swapaxes(frames.M_beta, 1, 2) @ state.amplitudes @ frames.M_alpha


# ---------------------------------------------------------------------------
# Frame measurements
# ---------------------------------------------------------------------------

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
    return read_only(table)[0]


def _rotation_gradients(state: Statevector, frames: Frames,
                        rotated: np.ndarray) -> np.ndarray:
    """Energy derivative of each frame along every orbital rotation U -> U
    exp(kappa (e_a e_b^T - e_b e_a^T)), a > b, at kappa = 0, as (F, P) rows in
    ``lower_indices(N)`` order. The rotation moves each spin's operator as
    M -> M k_ab (``rotation_generators``), so G = 2 Re sum over spins of
    vec(Y) . k_ab, where, with R the ``_rotated`` state and Lambda = D *
    conj(R), Y is R^T Lambda on the alpha strings and R Lambda^T on the beta
    ones (their sum alone when the fillings are equal): one product per spin
    against the stacked table. A row equals the one-frame result bitwise."""
    lam = frames.D * np.conj(rotated)
    alpha = np.swapaxes(rotated, 1, 2) @ lam
    beta = rotated @ np.swapaxes(lam, 1, 2)
    responses = ([(alpha + beta, state.n_alpha)] if state.n_alpha == state.n_beta
                 else [(alpha, state.n_alpha), (beta, state.n_beta)])
    grad = 0.0
    for y, filling in responses:
        table = rotation_generators(state.n_spatial, filling)
        y = np.real(y).reshape(len(y), 1, -1)
        grad = grad + y @ table.reshape(len(table), y.shape[-1]).T
    return 2.0 * grad[:, 0]


def measure_densities(state: Statevector, fac: XDFFactorization) -> EigenbasisDensities:
    """omega0 in the one-body frame, omega in every leaf frame and every
    frame's orbital-rotation gradients, from one rotation R of the state into
    the frame stack. The occupation table that built D reads the densities
    off the weights w = |R|^2: omega0 = -z.w_0/2 and omega_t = zz.w_t/8 - I/4."""
    n = state.n_spatial
    z, zz = _occupation_table(n, state.n_alpha, state.n_beta)
    rotated = _rotated(state, fac.frames)
    weights = (np.abs(rotated) ** 2).reshape(len(rotated), -1)
    omega = (0.125 * (weights[1:] @ zz.T)).reshape(-1, n, n) - 0.25 * np.eye(n)
    return EigenbasisDensities(-0.5 * (z @ weights[0]), omega,
                               _rotation_gradients(state, fac.frames, rotated))


# ---------------------------------------------------------------------------
# The Hamiltonian's action
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Direct (brute-force) fermionic RDMs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _excitation_tables(n: int, n_alpha: int, n_beta: int) -> tuple[np.ndarray, ...]:
    """Every nonzero matrix element of every E_pq = sum over spins of a_p^+
    a_q on one filling, by Jordan-Wigner on the full 2N-qubit strings.

    Returns ``strings``, the filling's D full basis indices in ascending
    order (beta in the high bits, as ``Statevector.embed`` lays them out),
    and one entry per element: its ``sources`` position in ``strings``, its
    ``targets`` position in the flattened (N^2, D) image array (row p N + q,
    column the image string's position, found by ``searchsorted``) and its
    ``signs``, (-1)^(occupied qubits strictly between p and q). An image
    entry gets at most one element per spin, so its sum does not depend on
    the order of the entries. Cached; the arrays are read-only."""
    alpha, beta = sector_strings(n, n_alpha), sector_strings(n, n_beta)
    strings = ((beta[:, None] << n) | alpha[None, :]).ravel()
    occupied = ((strings[:, None] >> np.arange(2 * n)) & 1).reshape(-1, 2, n)
    filled = np.cumsum(occupied, axis=2)
    # in each spin, E_pq takes a string with q occupied, and p empty or p ==
    # q, to the one with q emptied and p filled
    moves = ((occupied[:, :, None, :] == 1)
             & ((occupied[:, :, :, None] == 0) | np.eye(n, dtype=bool)))
    x, spin, p, q = np.nonzero(moves)      # views of one (K, 4) index array
    flips = (1 << (p + n * spin)) ^ (1 << (q + n * spin))
    targets = (p * n + q) * len(strings) + np.searchsorted(strings, strings[x] ^ flips)
    # the occupied qubits strictly between p and q number filled[p] -
    # filled[q] when p > q (p is empty) and filled[q] - filled[p] - 1 when
    # p < q (q is occupied); only the parity counts
    parity = filled[x, spin, p] - filled[x, spin, q] + (p < q)
    return read_only(strings, x.copy(), targets, 1.0 - 2.0 * (parity % 2))


def measure_rdms_direct(state: Statevector) -> tuple[np.ndarray, np.ndarray]:
    """Full one- and two-body fermionic RDMs by explicit operator application.

    gamma[p, q] = <E_pq>; Gamma[p, q, r, s] = (<E_pq E_rs> - d_qr <E_ps>) / 2.
    This is the oracle the leaf-frame workflow avoids measuring. It reads the
    embedded 4^N vector at the filling's D strings, applies every E_pq there
    through the Jordan-Wigner signs of ``_excitation_tables`` (one scatter of
    all N^2 images into an (N^2, D) array) and contracts the images with two
    matrix products, so its cost follows D, not 4^N.
    """
    n = state.n_spatial
    strings, sources, targets, signs = _excitation_tables(n, state.n_alpha, state.n_beta)
    amps = state.embed()[strings]
    moved = signs * amps[sources]
    size = n * n * len(strings)
    images = np.bincount(targets, moved.real, size)
    if np.iscomplexobj(amps):
        images = images + 1j * np.bincount(targets, moved.imag, size)
    images = images.reshape(n * n, len(strings))
    gamma = np.real(images @ amps.conj()).reshape(n, n)
    pair = np.real(images.conj() @ images.T).reshape(n, n, n, n).transpose(1, 0, 2, 3)
    gamma_term = np.einsum("qr,ps->pqrs", np.eye(n), gamma)
    big_gamma = 0.5 * (pair - gamma_term)
    return gamma, big_gamma
