"""Workload definitions: inputs drawn from the seed, the CLI op, its referee.

Every op is one in-process ``xdfrelax`` command (``cli.main(argv)``) on
FCIDUMP files written in set-up. An op fails when its exit code is not 0 or
when its payload misses the referee check of its command.

VQE work is chaotic in the input, so each workload cycles a fixed pool of
four models in an order drawn from the seed, and every op is about the
same work. On one N=6 model, mixing in 1e-5 of another synthetic
Hamiltonian moved a cold ``rdm --layers 2`` from 111 to 158
energy+gradient calls; the ``rdm-n6`` pool makes 93 to 96. Warm re-solves
are chaotic too. Base fixtures mixed 5% with twelve synthetic models gave
1665 to 1984 calls per ``verify`` op and 799 to 1494 per 25-step ``path``
op. The ``verify-n4`` pool makes 1914 to 1950 and the ``path-n3`` pool
1002 to 1044.
"""

from __future__ import annotations

import json
import re
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from xdfrelax import cli
from xdfrelax.hammodel import Hamiltonian, interpolate, synth_hamiltonian, write_fcidump

ORACLE_GAP_TOL = 1e-8
PATH_DRIFT_TOL = 1e-6
JITTER = 0.05          # weight of the synthetic Hamiltonian mixed into a base model
RDM_POOL = (101, 102, 104, 107)   # synth_hamiltonian(6, 3, 3, seed) seeds
VERIFY_POOL = (0, 1, 6, 9)        # k of the models _jittered(fixture, MIX_SEED, k, 0)
PATH_POOL = (0, 7, 9, 11)         # k of the pairs _jittered(fixture, MIX_SEED, k, end)
MIX_SEED = 3
PATH_STEPS = 25

LAGRANGE_WARNING = re.compile(r"^(eta solve residual|state gradient norm)")


def _op_seed(seed: int, op: int, slot: int) -> int:
    return int(np.random.SeedSequence([seed, op, slot]).generate_state(1)[0])


def _jittered(base: Hamiltonian, seed: int, op: int, slot: int) -> Hamiltonian:
    other = synth_hamiltonian(base.n_orbitals, base.n_alpha, base.n_beta,
                              _op_seed(seed, op, slot))
    return interpolate(base, other, JITTER)


def _cycle(pool: list, seed: int, n_ops: int) -> list:
    """The pool in an order drawn from the seed, repeated to ``n_ops`` inputs."""
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[order[op % len(pool)]] for op in range(n_ops)]


def _rdm_inputs(seed: int, n_ops: int) -> list[tuple[Hamiltonian, ...]]:
    return _cycle([(synth_hamiltonian(6, 3, 3, s),) for s in RDM_POOL], seed, n_ops)


def _verify_inputs(seed: int, n_ops: int) -> list[tuple[Hamiltonian, ...]]:
    base = synth_hamiltonian(4, 2, 2, 13)   # the regime fixture of the test suite
    return _cycle([(_jittered(base, MIX_SEED, k, 0),) for k in VERIFY_POOL], seed, n_ops)


def _path_inputs(seed: int, n_ops: int) -> list[tuple[Hamiltonian, ...]]:
    base_a, base_b = synth_hamiltonian(3, 1, 1, 2), synth_hamiltonian(3, 1, 1, 8)
    pool = [(_jittered(base_a, MIX_SEED, k, 0), _jittered(base_b, MIX_SEED, k, 1))
            for k in PATH_POOL]
    return _cycle(pool, seed, n_ops)


def _check_rdm(payload: dict, argv: list[str]) -> tuple[str | None, dict]:
    oracle = payload.get("oracle")
    if not isinstance(oracle, dict):
        return f"oracle {oracle!r}", {}
    gap = max(oracle.values())
    miss = None if gap <= ORACLE_GAP_TOL else f"oracle gap {gap:.3e} > {ORACLE_GAP_TOL:.0e}"
    return miss, {"oracle_gap": gap}


def _check_verify(payload: dict, argv: list[str]) -> tuple[str | None, dict]:
    accuracy = {"fd_abs_diff": payload["max_abs_diff"]}
    return (None if payload.get("all_passed") is True else "all_passed is false"), accuracy


def _check_path(payload: dict, argv: list[str]) -> tuple[str | None, dict]:
    steps = int(argv[argv.index("--steps") + 1])
    done, drift = payload["steps_completed"], payload["relative_drift"]
    accuracy = {"rel_drift": drift}
    if done < steps:
        return f"{done} of {steps} steps", accuracy
    if not drift < PATH_DRIFT_TOL:
        return f"relative drift {drift:.3e} >= {PATH_DRIFT_TOL:.0e}", accuracy
    return None, accuracy


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single client issues one op at a time."""

    name: str
    command: str
    options: tuple[str, ...]
    make_inputs: Callable[[int, int], list[tuple[Hamiltonian, ...]]]
    check: Callable[[dict, list[str]], tuple[str | None, dict]]
    nominal_op_s: float       # op wall time on a 2-core x86 VM
    tiny_options: tuple[str, ...]

    def max_ops(self, seconds: float) -> int:
        """Inputs to prepare: enough for a machine four times the nominal speed."""
        return 4 * max(1, round(seconds / self.nominal_op_s))

    def trace_ops(self, seconds: float) -> int:
        """Traced ops per run; fixed by ``seconds`` so span counts repeat exactly."""
        return max(1, round(seconds / self.nominal_op_s / 2))

    def argv(self, files: list[Path], out: Path, tiny: bool = False) -> list[str]:
        argv = [self.command, "--fcidump", str(files[0])]
        if len(files) > 1:
            argv += ["--fcidump-b", str(files[1])]
        return argv + list(self.tiny_options if tiny else self.options) + ["--out", str(out)]

    def tiny_inputs(self) -> tuple[Hamiltonian, ...]:
        """N=3 models (the path fixture pair), for warm-up and the self-test."""
        return tuple(synth_hamiltonian(3, 1, 1, 2 + 6 * i)
                     for i in range(2 if self.command == "path" else 1))


WORKLOADS = {
    w.name: w for w in (
        Workload("rdm-n6", "rdm", ("--layers", "2"), _rdm_inputs, _check_rdm, 9.0,
                 ("--layers", "1")),
        Workload("verify-n4", "verify",
                 ("--layers", "4", "--layers-small", "2", "--leaves", "4",
                  "--perturbations", "1"),
                 _verify_inputs, _check_verify, 9.0,
                 ("--layers", "1", "--layers-small", "1", "--leaves", "2",
                  "--perturbations", "1")),
        Workload("path-n3", "path",
                 ("--layers", "3", "--tol", "1e-8", "--dt", "0.005", "--mass", "10",
                  "--s0", "0.3", "--v0", "0.05", "--steps", str(PATH_STEPS)),
                 _path_inputs, _check_path, 2.4,
                 ("--layers", "3", "--tol", "1e-8", "--steps", "2")),
    )
}


def write_inputs(hams: tuple[Hamiltonian, ...], directory: Path, stem: str) -> list[Path]:
    paths = []
    for k, ham in enumerate(hams):
        path = directory / f"{stem}-{k}.fcidump"
        path.write_text(write_fcidump(ham), encoding="ascii")
        paths.append(path)
    return paths


@dataclass
class OpResult:
    argv: list[str]
    exit_code: int | None
    wall_s: float
    cpu_s: float
    failure: str | None
    accuracy: dict
    warnings: list[str]

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def lagrange_warnings(self) -> int:
        return sum(bool(LAGRANGE_WARNING.match(w)) for w in self.warnings)


def run_op(workload: Workload, argv: list[str], out: Path) -> OpResult:
    """Issue one CLI command in-process and apply its referee.

    Warnings are recorded, not filtered, so every one is counted.
    """
    code, failure, accuracy = None, None, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a traceback is a failed op, not a crash
            failure = traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if failure is None:
        if code != cli.EXIT_OK:
            failure = f"exit code {code}"
        else:
            payload = json.loads(out.read_text(encoding="ascii"))
            failure, accuracy = workload.check(payload, argv)
    return OpResult(argv, code, wall, cpu, failure, accuracy,
                    [str(w.message) for w in caught])
