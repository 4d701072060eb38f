"""Shared builders for the test suite."""

import math

import numpy as np

from xfertrack.control import StepLog
from xfertrack.gp import GpCfg, GpHyperparams, GpWindowModel
from xfertrack.systems import LtiSystem, NonlinearSystem
from xfertrack.trajectory import SinusoidTrajectory

# the bundled benchmark pair, rebuilt directly so tests do not depend on
# the config layer they are checking
SOURCE_A = [[0.0, 1.0], [-0.15, 0.8]]
SOURCE_B = [0.0, 1.0]
SOURCE_C = [-0.2, 1.0]
TARGET_A = [[0.0, 1.0], [-0.24, 1.0]]
TARGET_B = [0.0, 1.0]
TARGET_C = [-0.1, 1.0]


# config keys that became module constants, each with the value it always
# had: the mlp recipe (inverse.HIDDEN, BATCH_SIZE, LEARNING_RATE,
# VAL_FRACTION, PATIENCE), the GP's starting GpHyperparams and the t,yd
# header of a CSV trajectory; a config that sets one is a config error
REMOVED_CONFIG_KEYS = [
    ("mlp", "hidden", [20, 20]), ("mlp", "batch_size", 64),
    ("mlp", "learning_rate", 1e-3), ("mlp", "val_fraction", 0.1),
    ("mlp", "patience", 50), ("gp", "length_scale0", 1.0),
    ("gp", "signal_variance0", 1.0), ("trajectory", "time_column", "t"),
    ("trajectory", "value_column", "yd")]


def source_system() -> LtiSystem:
    return LtiSystem(SOURCE_A, SOURCE_B, SOURCE_C)


def target_system() -> LtiSystem:
    return LtiSystem(TARGET_A, TARGET_B, TARGET_C)


def drag_pair() -> tuple:
    """(source, target): a vertical point mass with quadratic drag whose
    output is its velocity, v+ = v + dt (u/m - g - c_d v|v|) (n = 1, r = 1,
    g = 9.81, dt = 1.5 ms, the bundled sample period). The source has m = 1
    and c_d = 0.1, the target m = 1.3 and c_d = 0.3: the paper's transfer
    between robots of different mass and aerodynamics, with
    G_t / G_s = 1 / 1.3 and a state-dependent F. F and G are given, so the
    constructor cross-checks them against f and g."""
    dt = 1.5e-3

    def point_mass(m, c_d):
        def F(x):
            v = x[0]
            return v + dt * (-9.81 - c_d * v * abs(v))

        return NonlinearSystem(n=1, f=lambda x: np.array([F(x)]),
                               g=lambda x: np.array([dt / m]),
                               h=lambda x: float(x[0]), r=1,
                               F=F, G=lambda x: dt / m)

    return point_mass(1.0, 0.1), point_mass(1.3, 0.3)


def reference_trajectory(dt: float = 1.5e-3,
                         duration: float = 48.0) -> SinusoidTrajectory:
    """The benchmark test signal sin(2*pi/8 t) + cos(2*pi/16 t) - 1, built
    directly: the oracle that TrajectoryCfg's defaults are checked against.

    Period 16 s; the cosine is phrased as a quarter-phase sine.
    """
    return SinusoidTrajectory(
        amplitudes=(1.0, 1.0),
        angular_freqs=(2.0 * math.pi / 8.0, 2.0 * math.pi / 16.0),
        phases=(0.0, math.pi / 2.0),
        offset=-1.0,
        dt=dt,
        duration=duration,
    )


def hyper_model(dim: int, hyper: GpHyperparams, **settings) -> GpWindowModel:
    """A GpWindowModel that starts from hyper: the config carries its noise
    variance, and the length scale and signal variance, which have no config
    field, are set before the first observe."""
    gp = GpWindowModel(dim, GpCfg(noise_variance0=hyper.noise_variance, **settings))
    gp.hyper = hyper
    return gp


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


def basis_features(X: np.ndarray) -> np.ndarray:
    """Explicit basis rows [1, xi, xi^2] for inputs (N, d), built directly:
    the oracle for the basis rows the GP window keeps."""
    return np.concatenate((np.ones((X.shape[0], 1)), X, X ** 2), axis=1)


def kernel(xi, xj, hyper: GpHyperparams) -> float:
    """Squared-exponential kernel sigma_1^2 exp(-1/2 sum ((xi-xj)/l)^2), one
    pair at a time."""
    a = np.asarray(xi, dtype=float)
    b = np.asarray(xj, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = (a - b) / hyper.length_scale
    return float(hyper.signal_variance * np.exp(-0.5 * np.dot(d, d)))


def kernel_matrix(X, Z, hyper: GpHyperparams) -> np.ndarray:
    """k(X, Z) from scratch, in the model's arithmetic: the unscaled squared
    distances |x|^2 + |z|^2 - 2 x'z (the product a gemm), then divided by
    l^2. The oracle that GpWindowModel's query kernel, from the row norms
    it forms on each window change, must match bit for bit."""
    sq = (X ** 2).sum(axis=1)[:, None] + (Z ** 2).sum(axis=1)[None, :] - 2.0 * X @ Z.T
    return hyper.signal_variance * np.exp(-0.5 * (np.maximum(sq, 0.0)
                                                  / hyper.length_scale ** 2))


class AffineErrorOracle:
    """Exact error predictor for a known linear target, with the
    online-module interface (full / observe / predict / mean_derivative).

    predict is the analytic error map e_p(k+r) = y_d(k+r) - F(x) - G u1
    from the target's io_terms; mean_derivative reads the lifted gains
    (F = lifted_A x, G = lifted_B).
    """

    def __init__(self, target):
        self.target = target
        self.n = target.n
        self.full = True

    def observe(self, xi, e):
        return self

    def predict(self, xi):
        xi = np.asarray(xi, dtype=float)
        F, G = self.target.io_terms(xi[:self.n])
        return float(xi[self.n + 1] - F - G * xi[self.n])

    def mean_derivative(self, xi, dim: int) -> float:
        if dim < self.n:
            return float(-self.target.lifted_A[dim])
        if dim == self.n:
            return -self.target.lifted_B
        return 1.0


def error_log(errors, n: int = 2) -> StepLog:
    """Log whose tracking error y_d - y at step k is errors[k]."""
    y_d = np.asarray(errors, dtype=float)
    zero = np.zeros_like(y_d)
    return StepLog(np.zeros((y_d.size, n)), y=zero, y_d=y_d, u1=zero, e_p=zero,
                   alpha=zero, u2=zero, u=zero, e_p_star=np.full(y_d.size, np.nan))


class AffineInverse:
    """u = [x, y_d(k+r), 1] @ coef, with the .reference interface of an inverse."""

    def __init__(self, coef):
        self.coef = coef

    def reference(self, x, y_d_future):
        feat = np.concatenate([np.asarray(x, dtype=float), [float(y_d_future)], [1.0]])
        return float(feat @ self.coef)


def affine_lstsq_inverse(dataset) -> AffineInverse:
    """Closed-form least-squares inverse on the same features as the MLP.

    Fits u ~ [x, y] @ w + c exactly; an independent check when the true
    inverse is affine.
    """
    X = np.hstack([dataset.inputs, np.ones((len(dataset), 1))])
    coef, *_ = np.linalg.lstsq(X, dataset.labels, rcond=None)
    return AffineInverse(coef)
