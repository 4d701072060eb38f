"""The package's online transfer loop against the from-scratch reference of
tests/reference_loop.py, on three pairs, 4 s each, with the fit off.

Each tolerance is about three times the largest difference measured, so
it holds the reference's rounding (dense LU solves, kernels from
differences) and no more:
- bundled pair: max |dy| 5.7e-9, |du| 6.4e-9, |de_p| 1.0e-8, |dalpha| 1.8e-7
- r = 2 pair: |dy| 1.6e-8, |du| 1.9e-8, |de_p| 1.4e-8, |dalpha| 1.3e-8
- drag pair: |dy| 6.3e-5, |du| 4.7e-2, |de_p| 4.7e-5, |dalpha| 8.1
The drag pair's loop amplifies rounding itself: scaling the package's
prediction by 1 + 1e-15 on every step moves its y by 4.7e-5 and alpha by
5.9, as its window needs jitter up to 8e-7 on almost every factorization.
Its differences all start in the transient after the window fills.
"""

from dataclasses import replace

import numpy as np
import pytest

from xfertrack.bench import default_benchmark_config
from xfertrack.control import TransferController, track_trajectory
from xfertrack.gp import GpWindowModel
from xfertrack.inverse import AnalyticInverse
from xfertrack.systems import LtiSystem

from helpers import (SOURCE_A, SOURCE_B, SOURCE_C, TARGET_A, TARGET_B, TARGET_C,
                     drag_pair, reference_trajectory)
from reference_loop import reference_loop


def _lti_pair(c_source, c_target):
    """The bundled A and B with the given C: (source, target, and the
    target's step and output and the source's inverse for the reference)."""
    source = LtiSystem(SOURCE_A, SOURCE_B, c_source)
    target = LtiSystem(TARGET_A, TARGET_B, c_target)
    A, B, C = map(np.array, (TARGET_A, TARGET_B, c_target))
    As, Bs, Cs = map(np.array, (SOURCE_A, SOURCE_B, c_source))
    r = source.r  # y(k+r) = Cs As^r x + Cs As^(r-1) Bs u
    F = Cs @ np.linalg.matrix_power(As, r)
    G = Cs @ np.linalg.matrix_power(As, r - 1) @ Bs
    return (source, target, lambda x, u: A @ x + B * u, lambda x: C @ x,
            lambda x, y_d: (y_d - F @ x) / G)


def _drag():
    source, target = drag_pair()
    return (source, target, lambda x, u: target.f(x) + target.g(x) * u, target.h,
            lambda x, y_d: (y_d - source.F(x)) / source.G(x))


CASES = {  # pair, gain cap, atol of y, u, e_p and alpha
    "bundled": (lambda: _lti_pair(SOURCE_C, TARGET_C), 20.0, (2e-8, 2e-8, 3e-8, 6e-7)),
    "r2": (lambda: _lti_pair([1.0, 0.0], [1.0, 0.0]), 20.0, (5e-8, 6e-8, 4e-8, 4e-8)),
    "drag": (_drag, 2000.0, (2e-4, 0.15, 1.5e-4, 25.0)),
}


@pytest.mark.parametrize("case", CASES)
def test_online_loop_matches_the_reference(case):
    pair, cap, atols = CASES[case]
    source, target, f, h, inverse = pair()
    cfg = default_benchmark_config()
    gp, gain = replace(cfg.gp, optimize=False), replace(cfg.gain, cap=cap)
    traj = reference_trajectory(duration=4.0)
    ctrl = TransferController(AnalyticInverse(source), r=target.r,
                              online=GpWindowModel(target.n + 2, gp), gain=gain)
    _, log = track_trajectory(target, ctrl, traj)
    want = reference_loop(f, h, inverse, traj.values(traj.n_steps + target.r), target.r,
                          np.zeros(target.n), gp.capacity, gp.noise_variance0,
                          gain.floor, gain.cap, gain.smoothing)
    assert np.count_nonzero(want["alpha"]) > 2000  # the correction engaged
    for name, atol in zip(("y", "u", "e_p", "alpha"), atols):
        np.testing.assert_allclose(getattr(log, name), want[name], rtol=0, atol=atol,
                                   err_msg=name)
