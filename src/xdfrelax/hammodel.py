"""Active-space Hamiltonian model: FCIDUMP I/O, synthetic fixtures, effective operators."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hamiltonian",
    "EffectiveOperators",
    "Perturbation",
    "parse_fcidump",
    "write_fcidump",
    "synth_hamiltonian",
    "effective_operators",
    "interpolate",
    "apply_perturbation",
    "random_one_body_perturbation",
    "random_two_body_perturbation",
]

# largest spatial-orbital count; a statevector holds its filling's
# C(N, n_beta) x C(N, n_alpha) block, 4900 amplitudes at N=8 half filling
DESK_CAP = 8
SYMMETRY_TOL = 1e-12
DUPLICATE_TOL = 1e-10


def _symmetrize_one_body(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def eight_fold_images(p: int, q: int, r: int, s: int):
    """All index images of (pq|rs) under the 8-fold permutational symmetry."""
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def eight_fold_symmetrize(eri: np.ndarray) -> np.ndarray:
    """Average a rank-4 tensor over the 8-fold permutation group of (pq|rs)."""
    t = eri
    t = 0.5 * (t + t.transpose(1, 0, 2, 3))
    t = 0.5 * (t + t.transpose(0, 1, 3, 2))
    t = 0.5 * (t + t.transpose(2, 3, 0, 1))
    return t


def eight_fold_deviation(eri: np.ndarray) -> float:
    """Max absolute deviation of a tensor from its 8-fold symmetrization."""
    return float(np.max(np.abs(eri - eight_fold_symmetrize(eri))))


@dataclass(frozen=True)
class Hamiltonian:
    """Active-space electronic Hamiltonian in chemists' notation.

    ``one_body[p, q]`` holds the (core-dressed) one-electron integrals and
    ``two_body[p, q, r, s]`` the electron repulsion integrals (pq|rs), both in
    Hartree. Electron counts are per spin channel.
    """

    n_orbitals: int
    n_alpha: int
    n_beta: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "one_body", np.array(self.one_body, dtype=float))
        object.__setattr__(self, "two_body", np.array(self.two_body, dtype=float))
        self.one_body.setflags(write=False)
        self.two_body.setflags(write=False)

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta

    def supermatrix(self) -> np.ndarray:
        """Two-body tensor reshaped to the N^2 x N^2 matrix M[(pq),(rs)]."""
        n = self.n_orbitals
        return self.two_body.reshape(n * n, n * n)

    def validate(self, check_psd: bool = False) -> None:
        """Raise ValueError if shapes, finiteness or permutational symmetries are violated."""
        n = self.n_orbitals
        if n < 1:
            raise ValueError(f"n_orbitals must be positive, got {n}")
        if not (0 <= self.n_alpha <= n and 0 <= self.n_beta <= n):
            raise ValueError("electron counts must lie in [0, n_orbitals]")
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body has shape {self.one_body.shape}, expected {(n, n)}")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError(f"two_body has shape {self.two_body.shape}")
        for name, value in (("core energy", self.core_energy), ("one_body", self.one_body),
                            ("two_body", self.two_body)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} holds a non-finite value")
        dev1 = float(np.max(np.abs(self.one_body - self.one_body.T))) if n else 0.0
        if dev1 > SYMMETRY_TOL:
            raise ValueError(f"one_body not symmetric (deviation {dev1:.3e})")
        dev2 = eight_fold_deviation(self.two_body)
        if dev2 > SYMMETRY_TOL:
            raise ValueError(f"two_body breaks 8-fold symmetry (deviation {dev2:.3e})")
        if check_psd:
            evals = np.linalg.eigvalsh(self.supermatrix())
            if evals.min() < -1e-12:
                raise ValueError(f"supermatrix not PSD (min eigenvalue {evals.min():.3e})")


@dataclass(frozen=True)
class EffectiveOperators:
    """Scalar and one-body operators absorbing mean two-body contributions.

    ``eff_one_body`` is the operator the factorization diagonalizes.
    """

    scalar_offset: float
    eff_one_body: np.ndarray


@dataclass(frozen=True)
class Perturbation:
    """Symmetric integral-space direction, unit-normalized in Frobenius norm."""

    kind: str  # "one_body" | "two_body"
    tensor: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("one_body", "two_body"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "tensor", np.array(self.tensor, dtype=float))
        self.tensor.setflags(write=False)


# ---------------------------------------------------------------------------
# FCIDUMP I/O
# ---------------------------------------------------------------------------

_HEADER_END = re.compile(r"&END|/", re.IGNORECASE)


def parse_fcidump(text: str) -> Hamiltonian:
    """Parse an FCIDUMP character stream into a Hamiltonian.

    The namelist header must define NORB and NELEC (MS2 defaults to 0).
    Records are ``value i j k l`` with 1-based indices in chemists' notation;
    ``value i j 0 0`` is a one-body entry and ``value 0 0 0 0`` the core
    energy. Unlisted permutational images are implied.
    """
    m = _HEADER_END.search(text)
    if m is None or "&FCI" not in text[: m.start()].upper():
        raise ValueError("malformed FCIDUMP header: missing &FCI ... &END/ block")
    header, body = text[: m.start()], text[m.end():]

    fields = {}
    for key, val in re.findall(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=[A-Za-z0-9_]+\s*=|$)", header):
        fields[key.upper()] = val.strip().rstrip(",")
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2") or 0)
    except KeyError as exc:
        raise ValueError(f"malformed FCIDUMP header: missing {exc.args[0]}") from None
    except ValueError:
        raise ValueError("malformed FCIDUMP header: NORB/NELEC/MS2 not integers") from None
    if not 1 <= norb <= DESK_CAP:
        raise ValueError(f"NORB={norb} outside the supported range [1, {DESK_CAP}]")
    if (nelec + ms2) % 2 != 0:
        raise ValueError(f"NELEC={nelec} and MS2={ms2} have incompatible parity")
    n_alpha = (nelec + ms2) // 2
    n_beta = (nelec - ms2) // 2

    tokens = body.split()
    if len(tokens) % 5 != 0:
        raise ValueError("FCIDUMP body is not whitespace-separated 5-token records")

    core_energy = 0.0
    core_seen = False
    one_body = np.zeros((norb, norb))
    two_body = np.zeros((norb, norb, norb, norb))
    seen_one = {}
    seen_two = {}

    for off in range(0, len(tokens), 5):
        try:
            value = float(tokens[off])
            i, j, k, l = (int(t) for t in tokens[off + 1: off + 5])
        except ValueError:
            raise ValueError(f"malformed FCIDUMP record: {' '.join(tokens[off:off + 5])}") from None
        if (i, j, k, l) == (0, 0, 0, 0):
            if core_seen and abs(core_energy - value) > DUPLICATE_TOL:
                raise ValueError("conflicting duplicate core-energy records")
            core_energy, core_seen = value, True
            continue
        if k == 0 and l == 0:
            if not (1 <= i <= norb and 1 <= j <= norb):
                raise ValueError(f"one-body index out of range [1,{norb}]: ({i},{j})")
            key = (max(i, j), min(i, j))
            if key in seen_one and abs(seen_one[key] - value) > DUPLICATE_TOL:
                raise ValueError(f"conflicting duplicate one-body record for {key}")
            seen_one[key] = value
            one_body[i - 1, j - 1] = one_body[j - 1, i - 1] = value
            continue
        if not all(1 <= x <= norb for x in (i, j, k, l)):
            raise ValueError(f"two-body index out of range [1,{norb}]: ({i},{j},{k},{l})")
        images = eight_fold_images(i - 1, j - 1, k - 1, l - 1)
        key = min(images)
        if key in seen_two and abs(seen_two[key] - value) > DUPLICATE_TOL:
            raise ValueError(f"conflicting duplicate two-body record for {key}")
        seen_two[key] = value
        for p, q, r, s in images:
            two_body[p, q, r, s] = value

    ham = Hamiltonian(norb, n_alpha, n_beta, core_energy, one_body, two_body)
    ham.validate()
    return ham


def write_fcidump(ham: Hamiltonian) -> str:
    """Serialize a Hamiltonian to FCIDUMP text (canonical unique records only)."""
    n = ham.n_orbitals
    ms2 = ham.n_alpha - ham.n_beta
    lines = [
        f"&FCI NORB={n},NELEC={ham.n_electrons},MS2={ms2},",
        "  ORBSYM=" + ",".join(["1"] * n) + ",",
        "  ISYM=1,",
        "&END",
    ]

    def rec(value, i, j, k, l):
        lines.append(f"{value: 23.16E} {i:4d} {j:4d} {k:4d} {l:4d}")

    written = set()
    for p in range(n):
        for q in range(p + 1):
            for r in range(n):
                for s in range(r + 1):
                    if (p, q) < (r, s):
                        continue
                    key = min(eight_fold_images(p, q, r, s))
                    if key in written:
                        continue
                    written.add(key)
                    value = ham.two_body[p, q, r, s]
                    if value != 0.0:
                        rec(value, p + 1, q + 1, r + 1, s + 1)
    for p in range(n):
        for q in range(p + 1):
            value = ham.one_body[p, q]
            if value != 0.0:
                rec(value, p + 1, q + 1, 0, 0)
    rec(ham.core_energy, 0, 0, 0, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic fixtures and integral-space calculus
# ---------------------------------------------------------------------------

def synth_hamiltonian(n_orbitals: int, n_alpha: int, n_beta: int, seed: int) -> Hamiltonian:
    """Deterministic random Hamiltonian with a PSD two-body supermatrix.

    The two-body tensor is assembled as A A^T in the supermatrix, with the
    columns of A being vectorized random symmetric matrices, so the 8-fold
    permutational symmetry holds by construction and positive semidefiniteness
    is guaranteed.
    """
    if n_orbitals < 2:
        raise ValueError(f"n_orbitals must be >= 2, got {n_orbitals}")
    n = n_orbitals
    rng = np.random.default_rng(seed)

    one_body = 0.3 * _symmetrize_one_body(rng.standard_normal((n, n)))
    one_body += np.diag(np.linspace(-2.0, -0.5, n))

    n_pairs = n * (n + 1) // 2
    cols = []
    for _ in range(n_pairs):
        x = _symmetrize_one_body(rng.standard_normal((n, n))) / n
        w = rng.uniform(0.05, 0.7)
        cols.append(np.sqrt(w) * x.reshape(-1))
    a = np.stack(cols, axis=1)
    two_body = (a @ a.T).reshape(n, n, n, n)
    two_body = eight_fold_symmetrize(two_body)  # scrub roundoff only

    core_energy = float(rng.uniform(-1.0, 1.0))
    ham = Hamiltonian(n, n_alpha, n_beta, core_energy, one_body, two_body)
    ham.validate(check_psd=True)
    return ham


def effective_operators(ham: Hamiltonian) -> EffectiveOperators:
    """Fold mean-field two-body contributions into scalar and one-body terms."""
    h = ham.one_body
    eri = ham.two_body
    scalar = (
        ham.core_energy
        + float(np.trace(h))
        + 0.5 * float(np.einsum("ppqq->", eri))
        - 0.25 * float(np.einsum("pqpq->", eri))
    )
    direct = np.einsum("pqrr->pq", eri)
    exchange = np.einsum("prqr->pq", eri)
    eff = h + direct - 0.5 * exchange
    return EffectiveOperators(scalar, eff)


def interpolate(ham_a: Hamiltonian, ham_b: Hamiltonian, s: float) -> Hamiltonian:
    """Linear interpolation between two same-shape Hamiltonians at parameter s."""
    if ham_a.n_orbitals != ham_b.n_orbitals:
        raise ValueError("Hamiltonians differ in orbital count")
    if (ham_a.n_alpha, ham_a.n_beta) != (ham_b.n_alpha, ham_b.n_beta):
        raise ValueError("Hamiltonians differ in electron counts")
    w = float(s)
    return Hamiltonian(
        ham_a.n_orbitals,
        ham_a.n_alpha,
        ham_a.n_beta,
        (1 - w) * ham_a.core_energy + w * ham_b.core_energy,
        (1 - w) * ham_a.one_body + w * ham_b.one_body,
        (1 - w) * ham_a.two_body + w * ham_b.two_body,
    )


def apply_perturbation(ham: Hamiltonian, pert: Perturbation, eps: float) -> Hamiltonian:
    """Shift the targeted integral tensor by eps times the perturbation."""
    n = ham.n_orbitals
    if pert.kind == "one_body":
        if pert.tensor.shape != (n, n):
            raise ValueError("one-body perturbation has wrong shape")
        if np.max(np.abs(pert.tensor - pert.tensor.T)) > DUPLICATE_TOL:
            raise ValueError("one-body perturbation is not symmetric")
        return Hamiltonian(
            n, ham.n_alpha, ham.n_beta, ham.core_energy,
            ham.one_body + eps * pert.tensor, ham.two_body,
        )
    if pert.tensor.shape != (n, n, n, n):
        raise ValueError("two-body perturbation has wrong shape")
    if eight_fold_deviation(pert.tensor) > DUPLICATE_TOL:
        raise ValueError("two-body perturbation breaks 8-fold symmetry")
    return Hamiltonian(
        n, ham.n_alpha, ham.n_beta, ham.core_energy,
        ham.one_body, ham.two_body + eps * pert.tensor,
    )


def random_one_body_perturbation(n: int, seed: int) -> Perturbation:
    rng = np.random.default_rng(seed)
    p = _symmetrize_one_body(rng.standard_normal((n, n)))
    p /= np.linalg.norm(p)
    return Perturbation("one_body", p, label=f"one_body[{seed}]")


def random_two_body_perturbation(n: int, seed: int) -> Perturbation:
    rng = np.random.default_rng(seed)
    p = eight_fold_symmetrize(rng.standard_normal((n, n, n, n)))
    p /= np.linalg.norm(p.reshape(-1))
    return Perturbation("two_body", p, label=f"two_body[{seed}]")
