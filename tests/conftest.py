import numpy as np
import pytest

from xdfrelax import vqe


@pytest.fixture
def energy_grad_calls(monkeypatch):
    """Records every point the optimizer evaluates energy+gradient at: one
    entry per point of a single-point call, one per row of a batched one."""
    calls = []
    real = vqe._energy_and_gradient

    def counting(*args):
        calls.extend(np.atleast_2d(args[-1]))  # the evaluated parameters
        return real(*args)

    monkeypatch.setattr(vqe, "_energy_and_gradient", counting)
    return calls


@pytest.fixture
def hessian_builds(monkeypatch):
    """Records the parameter count of every central-difference Hessian the
    optimizer builds: one entry per stencil generator started."""
    builds = []
    real = vqe._fd_hessian

    def counting(x):
        builds.append(x.size)
        return (yield from real(x))

    monkeypatch.setattr(vqe, "_fd_hessian", counting)
    return builds
