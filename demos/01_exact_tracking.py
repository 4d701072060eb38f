# 01_exact_tracking.py
#
# The starting point for everything else in this package: a SISO system
# with relative degree r satisfies y(k+r) = A_l x(k) + B_l u(k), so the
# input u(k) = (y_d(k+r) - A_l x(k)) / B_l reproduces any desired output
# exactly after the first r steps. This script builds the bundled source
# system, reads off its lifted gains, and tracks the 48-second test signal
# to machine precision.

import numpy as np

from xfertrack import AnalyticInverse, LtiSystem, TrajectoryCfg, simulate

source = LtiSystem([[0.0, 1.0], [-0.15, 0.8]], [0.0, 1.0], [-0.2, 1.0])
print(f"source system: n={source.n}, relative degree r={source.r}")
print(f"poles {np.sort(source.poles.real)}, zeros {source.zeros.real}")
print(f"lifted gains: A_l={source.lifted_A}, B_l={source.lifted_B}")
print(f"minimum phase: {source.is_minimum_phase}")

inverse = AnalyticInverse(source)
traj = TrajectoryCfg().build()  # the bundled test signal
print(f"\ntracking {traj.n_steps} steps of the test signal "
      f"({traj.n_steps * traj.dt:.0f} s at dt={traj.dt} s)")

trace = simulate(source, lambda k, x, yd_ahead: inverse.reference(x, yd_ahead),
                 traj)

yd = traj.values(traj.n_steps + source.r)
err = np.abs(trace.outputs[source.r:] - yd[source.r:traj.n_steps + 1])
print(f"max |y - y_d| for k >= r: {err.max():.3e}")
print(f"rms tracking error:       {np.sqrt(np.mean(err ** 2)):.3e}")
print("\nthe first r steps are excluded: the output there is fixed by the")
print("initial state before any input can reach it")
