"""Benchmark of the xdfrelax command line: rdm-n6, verify-n4 and path-n3.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rdm-n6 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: it issues ``xdfrelax``
commands in-process through ``cli.main(argv)``, the next only after the
previous one returns. An op is a fixed amount of work. ``--trace 0`` issues
ops with nothing wrapped for ``--seconds`` and reports the end-to-end
metrics of ``BENCHMARK.json``, op times as means over the ops. ``--trace 1``
runs a number of ops fixed by ``--seconds`` under the span tracer and
reports the per-layer metrics, totalled over those ops; the tracing
overhead is the span count times the calibrated cost of one wrapper.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine, versions, thread caps, per-op results and, when traced, every
span) is written to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3


def cap_threads() -> dict:
    """Run the BLAS and OpenMP pools with one thread each, well under nproc.

    Every op is one client on arrays of at most 4096 amplitudes. On a 2-vCPU
    VM a second OpenBLAS thread made rdm-n6 and path-n3 ops slower, not
    faster, spun at 2x the CPU time, and left each op exposed to a neighbour
    on either vCPU. Must run before numpy is imported; the pools are sized
    at load time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():    # an exported tree; a parent repo's SHA would mislead
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_caps": threads,
    }


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each command pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import xdfrelax.cli"], env=env, check=True)
    return time.perf_counter() - start


def set_up(workload, seed: int, n_ops: int, workdir: Path):
    """Cold import, input generation and one small warm-up op of the same command."""
    from workloads import run_op, write_inputs

    start = time.perf_counter()
    import_s = cold_import_s()
    inputs = [write_inputs(hams, workdir, f"op{i}")
              for i, hams in enumerate(workload.make_inputs(seed, n_ops))]
    tiny = write_inputs(workload.tiny_inputs(), workdir, "tiny")
    warm = run_op(workload, workload.argv(tiny, workdir / "tiny.json", tiny=True),
                  workdir / "tiny.json")
    return time.perf_counter() - start, import_s, inputs, warm.failure


def layer_metrics(names: list[str], summary: dict, results: list, overhead_s: float) -> dict:
    """Per-layer values; ``<span>.s``, ``<span>.self_s`` and ``<span>.calls``
    come straight from the span summary, the rest are named here."""
    def worst(key):
        return max((r.accuracy.get(key, 0.0) for r in results), default=0.0)

    special = {
        "vqe.energy_grad_calls": summary["energy_grad_calls"],
        "vqe.converged_ratio": summary["converged_ratio"],
        "lagrange.warnings": sum(r.lagrange_warnings for r in results),
        "lagrange.oracle_gap_max": worst("oracle_gap"),
        "hammodel.perturb.s": (summary["s"].get("hammodel.apply_perturbation", 0.0)
                               + summary["s"].get("hammodel.interpolate", 0.0)),
        "verify.fd_abs_diff_max": worst("fd_abs_diff"),
        "verify.rel_drift": worst("rel_drift"),
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        else:
            span, kind = name.rsplit(".", 1)
            values[name] = summary[kind].get(span, 0)
    return values


def op_record(result) -> dict:
    return {
        "argv": [Path(a).name if "/" in a else a for a in result.argv],
        "exit_code": result.exit_code,
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "failure": result.failure,
        "accuracy": result.accuracy,
        "warnings": len(result.warnings),
        "lagrange_warnings": result.lagrange_warnings,
        "warning_messages": sorted(set(result.warnings)),
    }


def run(args, threads: dict) -> tuple[dict, dict]:
    from tracer import Tracer, summarize, wrapper_cost_s
    from workloads import WORKLOADS, run_op

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    n_ops = workload.max_ops(args.seconds)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads)}
    try:
        workdir.mkdir(parents=True)
        setups = [set_up(workload, args.seed, n_ops, workdir)
                  for _ in range(1 if args.trace else SETUP_REPS)]
        record["setup_s"] = [s[0] for s in setups]
        record["cold_import_s"] = [s[1] for s in setups]
        record["warmup_failures"] = [s[3] for s in setups if s[3]]
        inputs = setups[-1][2]

        def op(i):
            out = workdir / f"op{i}.json"
            return run_op(workload, workload.argv(inputs[i], out), out)

        if args.trace:
            tracer = Tracer()
            results = []
            with tracer:
                for i in range(workload.trace_ops(args.seconds)):
                    tracer.trace_id = i
                    results.append(op(i))
            overhead = len(tracer.spans) * wrapper_cost_s()
            names = [m["name"] for m in spec["per_layer"]]
            values = layer_metrics(names, summarize(tracer.spans), results, overhead)
            record["layer_map"] = json.loads(
                (ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
            record["bindings"] = tracer.bindings
            record["unwrapped"] = tracer.missing
            record["spans"] = {"fields": ["trace_id", "span_id", "parent_id", "name",
                                          "start", "end", "attrs"],
                               "rows": tracer.spans}
        else:
            results = []
            start = time.perf_counter()
            while len(results) < n_ops:     # start no op that would end past --seconds
                results.append(op(len(results)))
                typical = statistics.median(r.wall_s for r in results)
                if time.perf_counter() - start + typical > args.seconds:
                    break
            names = [m["name"] for m in spec["end_to_end"]]
            # Means, not medians: a run holds 3 to 14 ops, and over ten runs
            # on a shared 2-vCPU VM the mean spread less on every workload.
            values = {
                "wall_s": statistics.fmean(r.wall_s for r in results),
                "cpu_s": statistics.fmean(r.cpu_s for r in results),
                "setup_s": statistics.median(record["setup_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": sum(not r.failed for r in results) / len(results),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(names):
        raise KeyError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    failed = sum(r.failed for r in results)
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    record["ops"] = [op_record(r) for r in results]
    record["fail_ratio"] = failed / len(results)
    record["result"] = result
    return result, record


def print_summary(result: dict, record: dict) -> None:
    print(f"{record['workload']}  seed {record['seed']}  ops {len(record['ops'])}  "
          f"trace {record['trace']}  threads {record['environment']['thread_caps']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<34} {record['fail_ratio']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in record["warmup_failures"]:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
    for i, op in enumerate(record["ops"]):
        if op["failure"]:
            print(f"op {i} failed: {op['failure']}", file=sys.stderr)
        if op["warnings"]:
            print(f"op {i}: {op['warnings']} warnings ({op['lagrange_warnings']} from lagrange)",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xdfrelax" / "__init__.py").is_file():
        print(f"no xdfrelax sources under {SRC}", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result, record = run(args, threads)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print_summary(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
