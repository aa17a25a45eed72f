"""Self-test of the benchmark harness on tiny N=3 configurations.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the tiny op twice under a fresh tracer and checks
that each op passes its referee, that every span count and the
energy+gradient count repeat exactly, that the ``from ... import`` bindings
are wrapped where callers look them up, and that every binding is restored
afterwards. Exits 1 on the first failure or mismatch.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, cap_threads

cap_threads()
sys.path.insert(0, str(SRC))

from tracer import Tracer, package_modules, summarize  # noqa: E402
from workloads import WORKLOADS, run_op, write_inputs  # noqa: E402

REQUIRED_BINDINGS = (
    "xdfrelax.cli.parse_fcidump", "xdfrelax.cli.factorize",
    "xdfrelax.verify.factorize", "xdfrelax.verify.apply_perturbation",
    "xdfrelax.verify.interpolate", "xdfrelax.xdf.decompose",
)


def bindings_snapshot() -> dict:
    return {(mod.__name__, key): value
            for mod in package_modules() for key, value in vars(mod).items()}


def traced_counts(workload, workdir: Path) -> tuple[dict, list[str]]:
    files = write_inputs(workload.tiny_inputs(), workdir, "tiny")
    out = workdir / "tiny.json"
    with Tracer() as tracer:
        result = run_op(workload, workload.argv(files, out, tiny=True), out)
    if result.failed:
        raise SystemExit(f"{workload.name}: tiny op failed: {result.failure}")
    summary = summarize(tracer.spans)
    return ({"calls": summary["calls"], "energy_grad_calls": summary["energy_grad_calls"]},
            tracer.bindings)


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / "perfbench"))
    before = bindings_snapshot()
    try:
        bindings = set()
        for workload in WORKLOADS.values():
            first, wrapped = traced_counts(workload, workdir)
            second, _ = traced_counts(workload, workdir)
            bindings.update(wrapped)
            if first != second:
                print(f"{workload.name}: counts differ between runs\n{first}\n{second}")
                return 1
            print(f"{workload.name}: {first['energy_grad_calls']} energy+gradient calls, "
                  f"{sum(first['calls'].values())} spans, repeated exactly")
        missing = [b for b in REQUIRED_BINDINGS if b not in bindings]
        if missing:
            print(f"bindings not wrapped: {missing}")
            return 1
        after = bindings_snapshot()
        unrestored = sorted(f"{mod}.{key}" for (mod, key), value in before.items()
                            if after.get((mod, key)) is not value)
        if unrestored:
            print(f"bindings not restored: {unrestored}")
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
