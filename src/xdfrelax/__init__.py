"""Explicitly double-factorized active-space Hamiltonians, statevector VQE,
and relaxed density matrices reconstructed from nested multiplier solves."""

from . import givens, hammodel, lagrange, qsim, verify, vqe, xdf

__all__ = ["givens", "hammodel", "lagrange", "qsim", "verify", "vqe", "xdf"]

__version__ = "0.1.0"
