"""Transfer controller: offline inverse plus online error-prediction correction.

The applied input decomposes as u(k) = u1(k) + u2(k). u1 comes from the
offline inverse module queried with (x(k), y_d(k+r)); u2 = alpha * e_p(k+r)
corrects it with the online error prediction, engaging once the online
model's sliding window is full. Observations are paired per the r-step
alignment: at step k the record enqueued at step k - r retires with label
y_d(k) - y(k).
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

# `step` is re-exported so instrumentation can patch control.step
from .systems import SimTrace, SimulationDiverged, simulate, step  # noqa: F401

EPS_GAIN_DENOMINATOR = 1e-8


@dataclass(frozen=True)
class FixedGain:
    alpha: float


@dataclass(frozen=True)
class EstimatedGain:
    """alpha = -1 / (d e_p / d u1), clamped to [floor, cap] by magnitude.

    smoothing, when set, blends the new estimate with the previous one:
    alpha <- smoothing * alpha_prev + (1 - smoothing) * alpha_new.
    """

    floor: float = 0.05
    cap: float = 20.0
    smoothing: Optional[float] = None


@dataclass(frozen=True)
class ControlDecision:
    u1: float
    e_p: float
    variance: float
    alpha: float
    u2: float
    u: float


class AffineErrorOracle:
    """Exact error predictor for a known linear target.

    Implements the online-module interface (predict / mean_derivative /
    observe) from the target's lifted gains, for exactness checks:
    e_p(k+r) = y_d(k+r) - lifted_A x - lifted_B u1.
    """

    def __init__(self, target):
        self.target = target
        self.n = target.n
        self.size = 1  # never cold

    def observe(self, xi, e):
        return self

    def error(self, x, u1: float, y_d_future: float) -> float:
        return float(y_d_future - self.target.lifted_A @ x - self.target.lifted_B * u1)

    def predict(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.error(xi[:self.n], xi[self.n], xi[self.n + 1]), 0.0

    def mean_derivative(self, xi, dim: int) -> float:
        if dim < self.n:
            return float(-self.target.lifted_A[dim])
        if dim == self.n:
            return -self.target.lifted_B
        return 1.0


class TransferController:
    """Combines an offline inverse with an optional online error predictor."""

    def __init__(self, inverse, r: int, online=None, gain=None,
                 u_max: float = 1e6, eps_denominator: float = EPS_GAIN_DENOMINATOR):
        self.inverse = inverse
        self.r = int(r)
        self.online = online
        self.gain = gain if gain is not None else EstimatedGain()
        self.u_max = float(u_max)
        self.eps_denominator = float(eps_denominator)
        self._pending = deque()
        self._last_alpha = None
        if self.r < 1:
            raise ValueError("relative degree must be >= 1")

    def reset(self):
        self._pending.clear()
        self._last_alpha = None

    def select_gain(self, xi_query, u1_dim: int) -> float:
        if isinstance(self.gain, FixedGain):
            return float(self.gain.alpha)
        g = self.gain
        denom = 0.0
        if self.online is not None and getattr(self.online, "size", 0) > 0:
            denom = self.online.mean_derivative(xi_query, u1_dim)
        if abs(denom) < self.eps_denominator:
            # degenerate estimate: hold the last valid gain, else the floor
            return self._last_alpha if self._last_alpha is not None else g.floor
        alpha = -1.0 / denom
        alpha = math.copysign(min(max(abs(alpha), g.floor), g.cap), alpha)
        if g.smoothing is not None and self._last_alpha is not None:
            alpha = g.smoothing * self._last_alpha + (1.0 - g.smoothing) * alpha
            if alpha == 0.0:
                alpha = g.floor
            alpha = math.copysign(min(max(abs(alpha), g.floor), g.cap), alpha)
        return alpha

    def control_step(self, k: int, x, y_d_future: float, y_now: float) -> ControlDecision:
        """One control decision; also retires the r-step-old pending record."""
        x = np.asarray(x, dtype=float)
        if len(self._pending) == self.r:
            k0, x0, u0, yd_k = self._pending.popleft()
            if self.online is not None:
                xi = np.concatenate([x0, [u0], [yd_k]])
                self.online.observe(xi, yd_k - y_now)
        u1 = float(self.inverse.reference(x, y_d_future))
        if self.online is None:
            e_p, var, alpha, u2, u = 0.0, math.inf, 0.0, 0.0, u1
        elif not getattr(self.online, "full", True):
            # warm-up: the prediction is logged but the correction stays
            # off until the model's window is full. A part-filled window
            # gives derivative (hence gain) estimates of arbitrary sign,
            # and alpha * e_p with a wrong-sign gain can kick the plant
            # hard enough to poison the window it is learning from.
            xi_query = np.concatenate([x, [u1], [y_d_future]])
            e_p, var = self.online.predict(xi_query)
            alpha, u2, u = 0.0, 0.0, u1
            if (isinstance(self.gain, EstimatedGain)
                    and self.gain.smoothing is not None):
                # seed the smoother so the first live gain starts at the
                # floor instead of jumping straight to the raw estimate
                self._last_alpha = self.gain.floor
        else:
            xi_query = np.concatenate([x, [u1], [y_d_future]])
            e_p, var = self.online.predict(xi_query)
            alpha = self.select_gain(xi_query, u1_dim=x.shape[0])
            self._last_alpha = alpha
            u2 = alpha * e_p
            u = u1 + u2
        if not np.isfinite(u) or abs(u) > self.u_max:
            raise SimulationDiverged(
                f"input guard tripped: |u|={abs(u):.3e} exceeds {self.u_max:.3e}", k)
        self._pending.append((k, x.copy(), u, float(y_d_future)))
        return ControlDecision(u1=u1, e_p=e_p, variance=var, alpha=alpha, u2=u2, u=u)


# per-step columns of a StepLog after the states, in CSV order
LOG_COLUMNS = ("y", "y_d", "u1", "e_p", "alpha", "u2", "u", "e_p_star")


@dataclass(frozen=True, eq=False)
class StepLog:
    """Column arrays of a run, one row per applied input u(k), k = 0..T-1.

    From a run, states, y and u are views of its SimTrace and y_d of the
    trajectory samples; serializes to CSV.
    """

    states: np.ndarray  # (T, n)
    y: np.ndarray
    y_d: np.ndarray
    u1: np.ndarray
    e_p: np.ndarray
    alpha: np.ndarray
    u2: np.ndarray
    u: np.ndarray
    e_p_star: np.ndarray

    def __len__(self):
        return self.u.shape[0]

    def column(self, name: str) -> np.ndarray:
        return np.arange(len(self), dtype=float) if name == "k" else getattr(self, name)

    def to_csv(self, path):
        n = self.states.shape[1]
        data = np.column_stack([self.states] + [getattr(self, c) for c in LOG_COLUMNS])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k"] + [f"x{i}" for i in range(n)] + list(LOG_COLUMNS))
            w.writerows([k] + [repr(v) for v in row]
                        for k, row in enumerate(data.tolist()))

    @classmethod
    def from_csv(cls, path) -> "StepLog":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            headers = next(reader)
            rows = [[float(v) for v in row] for row in reader]
        n = len(headers) - 1 - len(LOG_COLUMNS)
        data = np.array(rows, dtype=float).reshape(-1, len(headers))
        return cls(data[:, 1:1 + n], *data[:, 1 + n:].T)


def track_trajectory(system, controller: TransferController, trajectory,
                     x0=None, error_oracle_target=None):
    """Run a controller against a plant along a trajectory via simulate.

    Returns (SimTrace, StepLog). When error_oracle_target (a linear system
    with lifted gains) is given, the analytic error map is evaluated at
    each query and logged as e_p_star for prediction-accuracy audits;
    otherwise e_p_star is NaN. On divergence the raised error carries the
    partial trace and a log with one row per input of that trace.
    """
    oracle = (None if error_oracle_target is None
              else AffineErrorOracle(error_oracle_target))
    T = trajectory.n_steps
    cols = np.full((T, 5), math.nan)  # u1, e_p, alpha, u2, e_p_star

    def policy(k, x, y_d_future):
        dec = controller.control_step(k, x, y_d_future, system.output(x))
        e_star = math.nan if oracle is None else oracle.error(x, dec.u1, y_d_future)
        cols[k] = dec.u1, dec.e_p, dec.alpha, dec.u2, e_star
        return dec.u

    yd = trajectory.values(T + system.r)  # as simulate samples it
    try:
        trace = simulate(system, policy, trajectory, x0=x0)
    except SimulationDiverged as err:
        err.partial_log = _step_log(err.partial_trace, yd, cols)
        raise
    return trace, _step_log(trace, yd, cols)


def _step_log(trace: SimTrace, yd, cols) -> StepLog:
    T = trace.inputs.shape[0]
    return StepLog(trace.states[:T], trace.outputs[:T], yd[:T], *cols[:T, :4].T,
                   trace.inputs, cols[:T, 4])
