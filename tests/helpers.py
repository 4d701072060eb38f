"""Shared builders for the test suite."""

import numpy as np

from xfertrack.control import StepLog
from xfertrack.systems import LtiSystem

# the bundled benchmark pair, rebuilt directly so tests do not depend on
# the config layer they are checking
SOURCE_A = [[0.0, 1.0], [-0.15, 0.8]]
SOURCE_B = [0.0, 1.0]
SOURCE_C = [-0.2, 1.0]
TARGET_A = [[0.0, 1.0], [-0.24, 1.0]]
TARGET_B = [0.0, 1.0]
TARGET_C = [-0.1, 1.0]


def source_system() -> LtiSystem:
    return LtiSystem(SOURCE_A, SOURCE_B, SOURCE_C)


def target_system() -> LtiSystem:
    return LtiSystem(TARGET_A, TARGET_B, TARGET_C)


def random_stable_system(rng, n: int = 2) -> LtiSystem:
    """Random Schur-stable SISO system with a well-defined relative degree.

    The spectrum is scaled inside the unit circle; B and C are redrawn
    until the first Markov parameter is clearly nonzero (r = 1), so every
    generated system supports lifted gains and similarity comparisons.
    """
    while True:
        A = rng.standard_normal((n, n))
        rho = max(abs(np.linalg.eigvals(A)))
        A = A * (rng.uniform(0.2, 0.9) / max(rho, 1e-12))
        B = rng.standard_normal(n)
        C = rng.standard_normal(n)
        if abs(C @ B) > 1e-3:
            return LtiSystem(A, B, C)


def error_log(errors, n: int = 2) -> StepLog:
    """Log whose tracking error y_d - y at step k is errors[k]."""
    y_d = np.asarray(errors, dtype=float)
    zero = np.zeros_like(y_d)
    return StepLog(np.zeros((y_d.size, n)), y=zero, y_d=y_d, u1=zero, e_p=zero,
                   alpha=zero, u2=zero, u=zero, e_p_star=np.full(y_d.size, np.nan))
