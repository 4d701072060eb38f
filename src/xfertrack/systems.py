"""Discrete-time SISO system models, structural analysis, and simulation.

Linear systems are x(k+1) = A x(k) + B u(k), y(k) = C x(k). Nonlinear
systems are control-affine, x(k+1) = f(x) + g(x) u, y = h(x). Both expose
the r-step-ahead input/output form y(k+r) = F(x) + G(x) u(k), where r is
the relative degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy.linalg import matrix_power
from scipy import linalg as sla

# |C A^(j-1) B| above this counts as a nonzero Markov parameter.
EPS_RELATIVE_DEGREE = 1e-9
# input gain magnitudes below this are treated as singular
EPS_GAIN = 1e-12
# tolerance for validating user-supplied lifted maps of nonlinear systems
TOL_IO = 1e-6


class IllDefinedRelativeDegree(ValueError):
    """No r in 1..n produced a Markov parameter above threshold."""


class SimulationDiverged(RuntimeError):
    """A simulation step produced a non-finite value or tripped the input guard.

    Carries the failing step index and, once simulate and track_trajectory
    have attached them, the partial trace and step log accumulated so far.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
        self.partial_trace = None
        self.partial_log = None


def _as_state_matrices(A, B, C):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(B, dtype=float).reshape(-1)
    c = np.asarray(C, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if b.shape != (n,) or c.shape != (n,):
        raise ValueError(f"B and C must have {n} entries, got {b.shape} and {c.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("system matrices must be finite")
    return A, b, c


def _relative_degree_lti(A, b, c, eps=EPS_RELATIVE_DEGREE):
    # smallest r >= 1 with |C A^(r-1) B| > eps; search is capped at n
    n = A.shape[0]
    v = b.copy()
    for r in range(1, n + 1):
        if abs(c @ v) > eps:
            return r
        v = A @ v
    raise IllDefinedRelativeDegree(
        f"no relative degree in 1..{n}: all Markov parameters below {eps}"
    )


class LtiSystem:
    """Linear SISO system with precomputed relative degree and lifted gains.

    lifted_A = C A^r (row vector) and lifted_B = C A^(r-1) B (scalar) give
    the r-step-ahead output map y(k+r) = lifted_A x(k) + lifted_B u(k).
    """

    def __init__(self, A, B, C):
        A, b, c = _as_state_matrices(A, B, C)
        self.A = A
        self.B = b
        self.C = c
        self.n = A.shape[0]
        self.r = _relative_degree_lti(A, b, c)
        self.lifted_A = c @ matrix_power(A, self.r)
        self.lifted_B = float(c @ matrix_power(A, self.r - 1) @ b)
        for arr in (self.A, self.B, self.C, self.lifted_A):
            arr.setflags(write=False)

    def step(self, x, u: float) -> np.ndarray:
        return self.A @ x + self.B * u

    def output(self, x) -> float:
        return float(self.C @ x)

    def io_terms(self, x):
        """Return (F(x), G(x)) of the r-step-ahead map y(k+r) = F + G u."""
        return float(self.lifted_A @ x), self.lifted_B

    @property
    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    @property
    def zeros(self) -> np.ndarray:
        """Transmission zeros: the finite generalized eigenvalues of the
        system-matrix pencil [[A - zI, B], [C, 0]]."""
        n = self.n
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.A
        M[:n, n] = self.B
        M[n, :n] = self.C
        N = np.zeros((n + 1, n + 1))
        N[:n, :n] = np.eye(n)
        vals = sla.eig(M, N, right=False)
        return np.array([z for z in vals
                         if np.isfinite(z.real) and np.isfinite(z.imag)])

    @property
    def is_schur_stable(self) -> bool:
        return bool(np.max(np.abs(self.poles)) < 1.0)

    @property
    def is_minimum_phase(self) -> bool:
        z = self.zeros
        return bool(z.size == 0 or np.max(np.abs(z)) < 1.0)

    def __repr__(self):
        return f"LtiSystem(n={self.n}, r={self.r})"


class NonlinearSystem:
    """Control-affine system from callables f, g, h (and optionally F, G).

    F and G define the r-step-ahead map y(k+r) = F(x) + G(x) u(k). When
    supplied they are cross-checked at construction against an r-step
    rollout of (f, g, h) on randomly sampled (x, u).
    """

    def __init__(self, n: int, f: Callable, g: Callable, h: Callable, r: int,
                 F: Optional[Callable] = None, G: Optional[Callable] = None):
        if n < 1 or r < 1:
            raise ValueError("state dimension and relative degree must be >= 1")
        self.n = int(n)
        self.f = f
        self.g = g
        self.h = h
        self.r = int(r)
        self.F = F
        self.G = G
        if (F is None) != (G is None):
            raise ValueError("F and G must be supplied together")
        if F is not None:
            self._validate_lifted_map()

    def _validate_lifted_map(self):
        rng = np.random.default_rng(1234)
        for _ in range(16):
            x = rng.standard_normal(self.n)
            u = float(rng.standard_normal())
            y_roll = self._rollout_output(x, u)
            y_map = float(self.F(x)) + float(self.G(x)) * u
            if abs(y_roll - y_map) > TOL_IO * max(1.0, abs(y_roll)):
                raise ValueError(
                    "supplied lifted map disagrees with an r-step rollout "
                    f"({y_map} vs {y_roll})"
                )

    def _rollout_output(self, x, u: float) -> float:
        # inputs after the first step cannot influence y(k+r) below the
        # relative degree, so they are taken as zero
        z = np.asarray(self.f(x), dtype=float) + np.asarray(self.g(x), dtype=float) * u
        for _ in range(self.r - 1):
            z = np.asarray(self.f(z), dtype=float)
        return float(self.h(z))

    def step(self, x, u: float) -> np.ndarray:
        return np.asarray(self.f(x), dtype=float) + np.asarray(self.g(x), dtype=float) * u

    def output(self, x) -> float:
        return float(self.h(x))

    def io_terms(self, x):
        if self.F is None:
            raise ValueError("system was built without lifted-map callables F, G")
        return float(self.F(x)), float(self.G(x))

    def __repr__(self):
        return f"NonlinearSystem(n={self.n}, r={self.r})"


@dataclass(frozen=True)
class SimTrace:
    """States (T+1, n), inputs (T,), outputs (T+1,) of one simulation run,
    or (T+1, R, n), (T, R), (T+1, R) of a stack of R runs."""

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        T = self.inputs.shape[0]
        if self.states.shape[0] != T + 1 or self.outputs.shape[0] != T + 1:
            raise ValueError("trace arrays are misaligned")

    def members(self) -> list:
        """The per-run traces of a stacked simulation, in stack order."""
        return [SimTrace(states=self.states[:, i], inputs=self.inputs[:, i],
                         outputs=self.outputs[:, i])
                for i in range(self.inputs.shape[1])]


class _LtiStack:
    """R copies of an LtiSystem stepped together: states (R, n), inputs (R,).

    Each member's update and output is its own matrix-vector product, so a
    member gets the bits of LtiSystem.step and LtiSystem.output on its own
    state. X @ A.T (one matrix-matrix product) and X @ C do not: they
    differ in the last bit on a sizeable share of states.
    """

    def __init__(self, system: LtiSystem):
        self.A = system.A
        self.B = system.B
        self.C = system.C[:, None]

    def step(self, X, u) -> np.ndarray:
        return (self.A @ X[..., None])[..., 0] + self.B * u[..., None]

    def output(self, X) -> np.ndarray:
        return (X[..., None, :] @ self.C)[..., 0, 0]


def _all_finite(a) -> bool:
    return bool(np.isfinite(a).all())


def step(system, x, u, k: Optional[int] = None) -> np.ndarray:
    """One plant step with divergence checking; x and u may be a stack."""
    x_next = system.step(np.asarray(x, dtype=float), u)
    if not np.isfinite(x_next).all():
        raise SimulationDiverged("state became non-finite", -1 if k is None else k)
    return x_next


def simulate(system, policy, trajectory, x0=None) -> SimTrace:
    """Roll a policy u = policy(k, x, y_d(k+r)) against a trajectory.

    The policy sees the current step index, the state, and the desired
    output r steps ahead. Deterministic: identical arguments produce a
    bit-identical trace. When the policy or the plant raises
    SimulationDiverged at step k, the error carries the trace up to x(k).

    A list or tuple of R trajectories with equal n_steps rolls R runs of an
    LtiSystem at once: the policy sees states (R, n) and previews (R,) and
    returns R inputs, and the trace holds states (T+1, R, n), inputs (T, R)
    and outputs (T+1, R), each member bit-identical to its own run. The
    stack diverges at the first step where any member does.
    """
    r = system.r
    if isinstance(trajectory, (list, tuple)):
        if not isinstance(system, LtiSystem):
            raise TypeError("only an LtiSystem simulates a stack of runs")
        T = trajectory[0].n_steps
        if any(traj.n_steps != T for traj in trajectory):
            raise ValueError("stacked trajectories must have equal n_steps")
        yd = np.stack([traj.values(T + r) for traj in trajectory], axis=1)
        plant, shape = _LtiStack(system), (len(trajectory), system.n)
        as_input, finite = partial(np.asarray, dtype=float), _all_finite
    else:
        T = trajectory.n_steps
        yd = trajectory.values(T + r)
        plant, shape = system, (system.n,)
        as_input, finite = float, math.isfinite
    x = np.zeros(shape) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != shape:
        raise ValueError(f"x0 must have shape {shape}")
    states = np.empty((T + 1,) + shape)
    inputs = np.empty((T,) + shape[:-1])
    outputs = np.empty((T + 1,) + shape[:-1])
    states[0] = x
    outputs[0] = plant.output(x)
    k = 0
    try:
        for k in range(T):
            u = as_input(policy(k, x, yd[k + r]))
            if not finite(u):
                raise SimulationDiverged("policy produced a non-finite input", k)
            inputs[k] = u
            x = step(plant, x, u, k)
            states[k + 1] = x
            outputs[k + 1] = plant.output(x)
    except SimulationDiverged as err:
        err.partial_trace = SimTrace(states=states[:k + 1].copy(),
                                     inputs=inputs[:k].copy(),
                                     outputs=outputs[:k + 1].copy())
        raise
    return SimTrace(states=states, inputs=inputs, outputs=outputs)
