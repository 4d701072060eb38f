"""Transfer controller: offline inverse plus online error-prediction correction.

The applied input decomposes as u(k) = u1(k) + u2(k). u1 comes from the
offline inverse module queried with (x(k), y_d(k+r)); u2 = alpha * e_p(k+r)
corrects it with the online error prediction, engaging once the online
model's sliding window is full. With an online model, each step queues the
row [x(k), u(k), y_d(k+r)] of its applied input, which the model observes
at step k + r with label y_d(k+r) - y(k+r).
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .inverse import SingularInverse
from .systems import finite_number
# `step` is re-exported so instrumentation can patch control.step
from .systems import SimTrace, SimulationDiverged, simulate, step  # noqa: F401

EPS_GAIN_DENOMINATOR = 1e-8


@dataclass(frozen=True)
class FixedGain:
    alpha: float

    def __post_init__(self):
        if not finite_number(self.alpha):
            raise ValueError(f"gain alpha must be a finite number, got {self.alpha!r}")


@dataclass(frozen=True)
class EstimatedGain:
    """alpha = -1 / (d e_p / d u1), clamped to [floor, cap] by magnitude and
    blended with the previous gain, which starts at the floor:
    alpha <- smoothing * alpha_prev + (1 - smoothing) * alpha_new. Also the
    `gain` section of a benchmark config, checked here once.
    """

    floor: float = 0.05
    cap: float = 20.0
    smoothing: float = 0.0

    def __post_init__(self):
        if not (finite_number(self.floor) and finite_number(self.cap)
                and 0 <= self.floor <= self.cap):
            raise ValueError("gain floor and cap must be finite numbers with "
                             f"0 <= floor <= cap, got {self.floor!r}, {self.cap!r}")
        if not (finite_number(self.smoothing) and 0 <= self.smoothing < 1):
            raise ValueError("gain smoothing must be a number in [0, 1), "
                             f"got {self.smoothing!r}")

    def clamp(self, alpha: float) -> float:
        """alpha with its magnitude clamped to [floor, cap]."""
        return math.copysign(min(max(abs(alpha), self.floor), self.cap), alpha)


class ControlDecision(NamedTuple):
    u1: float
    e_p: float
    alpha: float
    u2: float
    u: float


class TransferController:
    """Combines an offline inverse with an optional online error predictor."""

    def __init__(self, inverse, r: int, online=None, gain=None, u_max: float = 1e6):
        self.inverse = inverse
        self.r = int(r)
        self.online = online
        self.gain = gain if gain is not None else EstimatedGain()
        self.u_max = float(u_max)
        self._pending = deque()
        # the gain a degenerate estimate holds and the smoother starts from
        self._last_alpha = (self.gain.floor if isinstance(self.gain, EstimatedGain)
                            else None)
        if self.r < 1:
            raise ValueError("relative degree must be >= 1")

    def select_gain(self, xi_query, u1_dim: int) -> float:
        """The gain alpha; reached only once the online window is full."""
        if isinstance(self.gain, FixedGain):
            return float(self.gain.alpha)
        g = self.gain
        denom = self.online.mean_derivative(xi_query, u1_dim)
        if abs(denom) < EPS_GAIN_DENOMINATOR:
            return self._last_alpha  # degenerate estimate: hold the last gain
        alpha = g.clamp(-1.0 / denom)
        return g.clamp(g.smoothing * self._last_alpha + (1.0 - g.smoothing) * alpha)

    def control_step(self, k: int, x, y_d_future: float, y_now: float) -> ControlDecision:
        """One control decision; also retires the r-step-old pending record."""
        x = np.asarray(x, dtype=float)
        if len(self._pending) == self.r:  # only an online model queues rows
            row = self._pending.popleft()
            self.online.observe(row, row[-1] - y_now)
        u1 = float(self.inverse.reference(x, y_d_future))
        if not math.isfinite(u1):
            # a divergence; checked here because predict rejects the query
            raise SimulationDiverged(f"inverse returned u1={u1}", k)
        e_p, alpha, u2, u = 0.0, 0.0, 0.0, u1
        if self.online is not None:
            n = x.shape[0]
            xi_query = np.empty(n + 2)
            xi_query[:n], xi_query[n], xi_query[n + 1] = x, u1, y_d_future
            e_p = self.online.predict(xi_query)
            # warm-up: the prediction is logged but the correction stays
            # off until the model's window is full. A part-filled window
            # gives derivative (hence gain) estimates of arbitrary sign,
            # and alpha * e_p with a wrong-sign gain can kick the plant
            # hard enough to poison the window it is learning from.
            if self.online.full:
                alpha = self.select_gain(xi_query, u1_dim=n)
                self._last_alpha = alpha
                u2 = alpha * e_p
                u = u1 + u2
        if not math.isfinite(u) or abs(u) > self.u_max:
            raise SimulationDiverged(
                f"input guard tripped: |u|={abs(u):.3e} exceeds {self.u_max:.3e}", k)
        if self.online is not None:  # a copy: the model has seen the query row
            self._pending.append(xi_query.copy())
            self._pending[-1][n] = u  # the applied input in u1's slot
        return ControlDecision(u1, e_p, alpha, u2, u)


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
            # csv spells a float as repr does: nan, inf, -0.0, 5e-324
            w.writerows([k, *row] for k, row in enumerate(data.tolist()))


def track_trajectory(system, controller: TransferController, trajectory,
                     x0=None, error_oracle_target=None):
    """Run a controller against a plant along a trajectory via simulate.

    Returns (SimTrace, StepLog). When error_oracle_target (a system with
    io_terms) is given, the analytic error map
    e*(k+r) = y_d(k+r) - F(x) - G(x) u1 of its r-step map y(k+r) = F + G u
    is evaluated at each query and logged as e_p_star for prediction-accuracy
    audits; otherwise e_p_star is NaN. On divergence, when the online model's
    factorization fails, or when the inverse's input gain is too small to
    invert, the raised SimulationDiverged carries the partial trace and a
    log with one row per input of that trace.
    """
    T = trajectory.n_steps
    cols = np.full((T, 5), math.nan)  # u1, e_p, alpha, u2, e_p_star

    def policy(k, x, y_d_future):
        try:
            dec = controller.control_step(k, x, y_d_future, system.output(x))
        except (LinAlgError, SingularInverse) as err:
            raise SimulationDiverged(f"{type(err).__name__}: {err}", k) from err
        e_star = math.nan
        if error_oracle_target is not None:
            F, G = error_oracle_target.io_terms(x)
            e_star = y_d_future - F - G * dec.u1
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
