"""Command-line driver: factorize | vqe | rdm | verify | path, JSON output."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import lagrange, qsim, verify, vqe
from .hammodel import (
    eight_fold_symmetrize,
    parse_fcidump,
    random_one_body_perturbation,
    random_two_body_perturbation,
)
from .verify import NonConvergence
from .vqe import AnsatzConfig
from .xdf import TruncationPolicy, factorize, reconstruct_eri

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_NONCONVERGED = 3


def _array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float(x) for x in np.asarray(a).reshape(-1)]}


def _load(path: str):
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return parse_fcidump(text), digest


def _policy(args) -> TruncationPolicy:
    if args.threshold is not None and args.leaves is not None:
        raise ValueError("--threshold and --leaves are mutually exclusive")
    if args.threshold is not None:
        return TruncationPolicy.by_threshold(args.threshold)
    if args.leaves is not None:
        return TruncationPolicy.by_count(args.leaves)
    return TruncationPolicy.exact()


# Smallest accepted value of each numeric flag; a subcommand checks the ones it has.
_FLAG_MINIMA = (("leaves", 0), ("layers", 1), ("layers_small", 1), ("maxiter", 0),
                ("perturbations", 1), ("seed", 0), ("steps", 1))


def _check_flags(args) -> None:
    """Reject out-of-range and non-finite numeric flags before any work,
    naming the flag."""
    for name, low in _FLAG_MINIMA:
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
    for name in ("tol", "mass"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"--{name} must be positive and finite, got {value}")
    for name in ("threshold", "dt", "s0", "v0"):
        value = getattr(args, name, None)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")


def _config_echo(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _render(payload: dict, code: int, args) -> str:
    return json.dumps(dict(payload, config=_config_echo(args), exit_code=code),
                      indent=2, sort_keys=True)


def _optimize(fac, args):
    cfg = AnsatzConfig(args.layers, args.seed)
    result = vqe.optimize(fac, cfg, tol=args.tol, maxiter=args.maxiter)
    if not result.converged:
        raise NonConvergence(
            f"VQE gradient norm {result.grad_norm:.3e} above tolerance {args.tol:.1e}")
    return cfg, result


def cmd_factorize(args) -> dict:
    ham, digest = _load(args.fcidump)
    fac = factorize(ham, _policy(args))
    rebuilt = reconstruct_eri(fac)
    err = float(np.linalg.norm(rebuilt - ham.two_body))
    denom = float(np.linalg.norm(ham.two_body))
    return {
        "input_sha256": digest,
        "n_orbitals": fac.n_orbitals,
        "total_leaves": fac.n_leaves,
        "retained": fac.retained,
        "leaf_eigenvalues": fac.g.tolist(),
        "reconstruction_error": err / denom if denom > 0 else err,
        "scalar_offset": fac.eff.scalar_offset,
        "eff_one_body_spectrum": _array(fac.F0),
    }


def cmd_vqe(args) -> dict:
    ham, digest = _load(args.fcidump)
    fac = factorize(ham, _policy(args))
    _, result = _optimize(fac, args)
    return {
        "input_sha256": digest,
        "retained": fac.retained,
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "params": _array(result.params),
    }


def cmd_rdm(args) -> dict:
    ham, digest = _load(args.fcidump)
    fac = factorize(ham, _policy(args))
    cfg, result = _optimize(fac, args)
    state = vqe.prepare_state(fac, cfg, result.params)
    rdms, mult = lagrange.reconstruct_rdms(
        fac, state, ablate=args.ablate, stationarity_grad=result.grad_norm)

    untruncated = fac.retained == fac.n_leaves
    if untruncated and args.ablate is None:
        gamma_m, big_m = qsim.measure_rdms_direct(state)
        gamma_m = 0.5 * (gamma_m + gamma_m.T)
        big_m = eight_fold_symmetrize(big_m)
        oracle = {
            "gamma_max_abs_diff": float(np.max(np.abs(rdms.gamma_sym - gamma_m))),
            "Gamma_max_abs_diff": float(np.max(np.abs(rdms.Gamma_sym - big_m))),
        }
    else:
        oracle = "not-applicable"
    return {
        "input_sha256": digest,
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "gamma_sym": _array(rdms.gamma_sym),
        "Gamma_sym": _array(rdms.Gamma_sym),
        "multipliers": {
            "mu0": _array(mult.mu0),
            "mu": [_array(m) for m in mult.mu],
            "nu": _array(mult.nu),
        },
        "multiplier_norms": {
            "mu0": float(np.max(np.abs(mult.mu0))),
            "mu_leaf_max": float(np.max(np.abs(mult.mu), initial=0.0)),
            "nu": float(np.max(np.abs(mult.nu))),
        },
        "ablated": args.ablate,
        "oracle": oracle,
    }


def cmd_verify(args) -> dict:
    ham, digest = _load(args.fcidump)
    truncated = TruncationPolicy.by_count(args.leaves if args.leaves is not None else 4)
    specs = verify.RegimeSpec.grid(args.layers, args.layers_small, truncated,
                                   ansatz_seed=args.seed, vqe_tol=args.tol)
    n = ham.n_orbitals
    perturbations = (
        [random_one_body_perturbation(n, args.seed + 10 + i) for i in range(args.perturbations)]
        + [random_two_body_perturbation(n, args.seed + 50 + i) for i in range(args.perturbations)]
    )
    reports = verify.run_regime_suite(ham, specs, perturbations, ablate=args.ablate)
    payload = {
        "input_sha256": digest,
        "ablated": args.ablate,
        "tolerance": verify.DERIVATIVE_TOL,
        "reports": [
            {
                "regime": r.regime,
                "perturbation": r.perturbation,
                "analytic": r.analytic,
                "numerical": r.numerical,
                "abs_diff": r.abs_diff,
                "passed": r.passed(),
            }
            for r in reports
        ],
    }
    payload["all_passed"] = all(r.passed() for r in reports)
    payload["max_abs_diff"] = max(r.abs_diff for r in reports)
    payload["table"] = verify.format_reports(reports)
    return payload


def cmd_path(args) -> dict:
    ham_a, digest_a = _load(args.fcidump)
    ham_b, digest_b = _load(args.fcidump_b)
    regime = verify.RegimeSpec("path", _policy(args), args.layers,
                               ansatz_seed=args.seed, vqe_tol=args.tol)
    trace = verify.verlet_path(
        ham_a, ham_b, n_steps=args.steps, dt=args.dt, mass=args.mass,
        regime=regime, s0=args.s0, v0=args.v0, ablate=args.ablate)
    if trace.aborted is not None:
        # a failed VQE solve exits 3; any other failure of a later step is numerical
        kind = NonConvergence if isinstance(trace.aborted, NonConvergence) else RuntimeError
        raise kind(f"dynamics aborted at step {trace.completed + 1}: {trace.aborted}")
    return {
        "input_sha256": [digest_a, digest_b],
        "steps_completed": trace.completed,
        "drift": trace.drift(),
        "relative_drift": trace.relative_drift(),
        "secular_slope": trace.secular_slope(),
        "ablated": args.ablate,
        "s": _array(trace.s),
        "kinetic": _array(trace.kinetic),
        "potential": _array(trace.potential),
        "total": _array(trace.total),
    }


# Flags several subcommands share; each subcommand registers those it reads.
_SHARED_FLAGS = {
    "--threshold": {"type": float, "default": None,
                    "help": "retain leaves with |g| >= threshold"},
    "--leaves": {"type": int, "default": None,
                 "help": "retain a fixed number of leading leaves"},
    "--layers": {"type": int, "default": 4},
    "--tol": {"type": float, "default": 1e-9},
    "--maxiter": {"type": int, "default": 2000},
    "--seed": {"type": int, "default": 0},
    "--ablate": {"choices": lagrange.ABLATION_MODES, "default": None,
                 "help": "zero one multiplier block: eta0 the one-body mu, "
                         "etat every leaf mu, nu the inter-leaf nu"},
}


def _add_common(parser, *flags):
    parser.add_argument("--fcidump", required=True, help="input integral file")
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, for the exit-1 path of ``main``."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xdfrelax",
        description="Double-factorized Hamiltonians, statevector VQE, relaxed densities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="eigendecompose the integrals into leaves")
    _add_common(p, "--threshold", "--leaves")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("vqe", help="variational ground-state optimization")
    _add_common(p, "--threshold", "--leaves", "--layers", "--tol", "--maxiter", "--seed")
    p.set_defaults(func=cmd_vqe)

    p = sub.add_parser("rdm", help="relaxed density matrices from multiplier solves")
    _add_common(p, *_SHARED_FLAGS)
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("verify", help="four-regime derivative validation suite")
    _add_common(p, "--leaves", "--layers", "--tol", "--seed", "--ablate")
    p.add_argument("--layers-small", type=int, default=1)
    p.add_argument("--perturbations", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("path", help="velocity-Verlet run on an interpolated pair")
    _add_common(p, "--threshold", "--leaves", "--layers", "--tol", "--seed", "--ablate")
    p.add_argument("--fcidump-b", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--mass", type=float, default=10.0)
    p.add_argument("--s0", type=float, default=0.3)
    p.add_argument("--v0", type=float, default=0.1)
    p.set_defaults(func=cmd_path, layers=3)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        # a usage error: no parsed --out to honour and no config to echo
        print(json.dumps({"error": str(exc), "exit_code": EXIT_INPUT}, indent=2, sort_keys=True))
        return EXIT_INPUT
    try:
        _check_flags(args)
        payload = args.func(args)
        code = EXIT_OK
    except NonConvergence as exc:
        payload, code = {"error": str(exc)}, EXIT_NONCONVERGED
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError, AssertionError) as exc:
        payload, code = {"error": str(exc)}, EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        payload, code = {"error": str(exc)}, EXIT_INPUT

    text = _render(payload, code, args)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(text + "\n")
            return code
        except OSError as exc:
            # an unwritable --out is an input error, reported on stdout
            code = EXIT_INPUT
            text = _render({"error": str(exc)}, code, args)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
