"""In-memory span tracer for the xdfrelax layers.

The tracer replaces every module-level binding of a traced function inside
the ``xdfrelax`` package with one timing wrapper, so calls are recorded where
the caller looks the name up: ``cli.parse_fcidump`` and ``xdf.decompose``
are ``from ... import`` bindings of ``hammodel.parse_fcidump`` and
``givens.decompose`` and get the same wrapper. Spans stay in memory until the
run ends; ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Canonical span names: the module that defines the function, then its name.
TRACED = (
    "cli.main",
    "hammodel.parse_fcidump",
    "hammodel.apply_perturbation",
    "hammodel.interpolate",
    "xdf.factorize",
    "givens.decompose",
    "givens.jacobian",
    "qsim.apply_hamiltonian",
    "qsim.denergy_dtheta_shift",
    "qsim.measure_densities",
    "qsim.measure_rdms_direct",
    "vqe.optimize",
    "lagrange.reconstruct_rdms",
    "verify.run_regime_suite",
    "verify.fd_energy_derivative",
    "verify.run_pipeline",
    "verify.verlet_path",
)

PACKAGE = "xdfrelax"


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records (trace_id, span_id, parent_id, name, start, end, attrs) spans.

    One trace id covers one benchmark op. ``attrs`` is None except for
    ``vqe.optimize``, whose span keeps the result's ``converged`` flag.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        keep_converged = name == "vqe.optimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_converged:
                    attrs = {"converged": bool(result.converged)}
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.trace_id, span_id, parent, name, start, end, attrs))

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        modules = package_modules()
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        for name in TRACED:
            home, attr = name.split(".")
            original = getattr(by_name.get(home), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        self.bindings.append(f"{mod.__name__}.{key}")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, timed on a no-op.

    Tracing costs about a microsecond per span; the wall time of one op on a
    shared VM varies by far more, so traced-minus-untraced op times would
    measure the host, not the tracer.
    """
    def noop():
        return None

    timings = []
    for fn in (noop, Tracer()._wrap("noop", noop)):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(0.0, (timings[1] - timings[0]) / calls)


def summarize(spans: list[tuple]) -> dict:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time counts only the outermost span of a name, so recursion
    is not double counted. Self time is a span's duration minus the
    durations of its direct children; spans of one thread nest, so the
    children never overlap.
    """
    by_id = {s[1]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]

    def ancestors(span):
        parent = span[2]
        while parent is not None:
            span = by_id[parent]
            yield span
            parent = span[2]

    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    energy_grad_calls = 0
    optimize_runs = converged = 0
    for s in spans:
        name, duration = s[3], s[5] - s[4]
        names_above = [a[3] for a in ancestors(s)]
        calls[name] += 1
        own[name] += duration - child_time[s[1]]
        if name not in names_above:
            total[name] += duration
        if name == "qsim.apply_hamiltonian" and "vqe.optimize" in names_above:
            energy_grad_calls += 1
        if name == "vqe.optimize":
            optimize_runs += 1
            converged += bool(s[6] and s[6]["converged"])
    return {
        "s": dict(total),
        "self_s": dict(own),
        "calls": dict(calls),
        "energy_grad_calls": energy_grad_calls,
        "converged_ratio": converged / optimize_runs if optimize_runs else 0.0,
    }
