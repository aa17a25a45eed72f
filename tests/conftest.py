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
def lbfgs_calls(monkeypatch):
    """Records the parameter count of every L-BFGS run the optimizer starts."""
    calls = []
    real = vqe._lbfgs

    def counting(fac, cfg, x0, tol, maxiter):
        calls.append(x0.size)
        return real(fac, cfg, x0, tol, maxiter)

    monkeypatch.setattr(vqe, "_lbfgs", counting)
    return calls
