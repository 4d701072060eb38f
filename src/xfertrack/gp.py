"""Sliding-window Gaussian process regression with an explicit polynomial basis.

The model keeps the latest N observations (xi, e) and fits
e(xi) ~ h(xi)' beta + GP(0, k_se), where h collects the basis functions
{1, xi_i, xi_i^2} (no cross terms) and beta has prior N(c, tau^2 I), which
keeps the fit well-posed on a window with fewer samples than basis terms.
With the basis folded into C = K + sigma_2^2 I + tau^2 H H', one Cholesky
factor of C per window change gives the log marginal likelihood and the
posterior (GPML section 2.7 with B = tau^2 I, b = c): a = C^-1 (y - H c),
beta = c + tau^2 H' a and mean(xi) = h(xi)' beta + k(xi)' a. LAPACK
(potrf, potrs, trtrs) is called directly: at window sizes of tens,
scipy.linalg's checked wrappers cost several times the routine they wrap.

A refit of the hyperparameters is spread over the observes that follow it,
a bounded number of likelihood evaluations each (GpWindowModel.fit_hyperparams),
so that no control step waits for a whole fit.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

logger = logging.getLogger(__name__)

DEFAULT_JITTER = 1e-10
MAX_JITTER = 1e-6
BASIS_KINDS = ("none", "constant", "linear", "quadratic")
# box of the hyperparameter refit, applied in log space
LENGTH_SCALE_BOUNDS = (1e-2, 1e3)
SIGNAL_VARIANCE_BOUNDS = (1e-8, 1e4)
NOISE_VARIANCE_BOUNDS = (1e-12, 1.0)


@dataclass(frozen=True)
class GpHyperparams:
    """The kernel settings a refit fits: one length scale shared by every
    input dimension and the two variances."""

    length_scale: float = 1.0      # l
    signal_variance: float = 1.0   # sigma_1^2
    noise_variance: float = 1e-6   # sigma_2^2

    def __post_init__(self):
        if not (0 < self.length_scale < math.inf and 0 < self.signal_variance < math.inf
                and 0 <= self.noise_variance < math.inf):
            raise ValueError("length scale and signal variance must be positive, "
                             "noise variance nonnegative, all finite")


@dataclass
class GpCfg:
    """Settings of a GpWindowModel and the `gp` section of a benchmark
    config, checked here once. The *0 fields are the starting GpHyperparams,
    which a refit moves; the basis term (basis, tau^2) stays fixed."""

    capacity: int = 15                  # window size N
    basis: str = "quadratic"            # one of BASIS_KINDS
    optimize: bool = True               # refit the hyperparameters online
    fit_noise: bool = True              # refit sigma_2^2 too
    refit_stride: int = 1               # observations between refits
    min_fit_size: int = 5               # no refit on a smaller window
    basis_prior_variance: float = 1e4   # tau^2
    length_scale0: float = GpHyperparams.length_scale
    signal_variance0: float = GpHyperparams.signal_variance
    noise_variance0: float = GpHyperparams.noise_variance
    max_fit_evals: int = 100            # hard cap of likelihood evaluations per refit

    def __post_init__(self):
        if not (self.capacity >= 1 and float(self.capacity).is_integer()):
            raise ValueError("capacity must be a whole number >= 1, "
                             f"got {self.capacity}")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")
        if not 0 < self.basis_prior_variance < math.inf:
            raise ValueError("basis prior variance must be positive and finite")
        if not self.max_fit_evals >= 1:
            raise ValueError(f"max_fit_evals must be >= 1, got {self.max_fit_evals}")
        self.hyper0  # building the starting GpHyperparams checks them

    @property
    def hyper0(self) -> GpHyperparams:
        """The starting hyperparameters."""
        return GpHyperparams(self.length_scale0, self.signal_variance0,
                             self.noise_variance0)


def _scaled_sq_dist(X, Z, ls: float) -> np.ndarray:
    """Squared distances between the rows of X / ls and Z / ls; X is Z
    scales and squares the rows once."""
    Xs = X / ls
    nx = (Xs ** 2).sum(axis=1)
    Zs, nz = Xs, nx
    if Z is not X:
        Zs = Z / ls
        nz = (Zs ** 2).sum(axis=1)
    # 2.0 * Xs is its own array, so the product stays a gemm even when
    # Zs is Xs: numpy would switch Xs @ Xs.T to syrk, which rounds differently
    sq = nx[:, None] + nz[None, :] - 2.0 * Xs @ Zs.T
    np.maximum(sq, 0.0, out=sq)
    return sq


def _kernel_matrix(X, Z, hyper: GpHyperparams) -> np.ndarray:
    sq = _scaled_sq_dist(X, Z, hyper.length_scale)
    return hyper.signal_variance * np.exp(-0.5 * sq)


def basis_features(X: np.ndarray, kind: str) -> np.ndarray:
    """Explicit basis rows for inputs (N, d): {1}, {xi_i}, {xi_i^2} by kind."""
    N, d = X.shape
    if kind == "none":
        return np.zeros((N, 0))
    cols = [np.ones((N, 1))]
    if kind in ("linear", "quadratic"):
        cols.append(X)
    if kind == "quadratic":
        cols.append(X ** 2)
    return np.hstack(cols)


def _chol_with_jitter(M: np.ndarray):
    """Lower Cholesky factor of M + jitter*I, doubling jitter up to MAX_JITTER;
    the jitter goes onto M's diagonal in place. potrf may factor a matrix
    with an infinite diagonal without complaint, so a non-finite M raises
    LinAlgError up front."""
    if not np.isfinite(M).all():
        raise LinAlgError("covariance is not finite")
    diag = M.reshape(-1)[::M.shape[0] + 1]  # a view: M is contiguous
    base = diag.copy()
    jitter = DEFAULT_JITTER
    while True:
        np.add(base, jitter, out=diag)
        L, info = dpotrf(M, lower=1)
        if info == 0:
            return L, jitter
        jitter *= 2.0
        if jitter > MAX_JITTER:
            raise LinAlgError(f"{info}-th leading minor of the array is not "
                              "positive definite")


class _Factor(NamedTuple):
    """One factorization of a window's covariance with the basis folded in."""

    L: np.ndarray   # lower Cholesky factor of C + jitter I
    jitter: float
    a: np.ndarray   # C^-1 (y - H c)
    y: np.ndarray   # y - H c: the outputs centered on the basis prior mean
    K: np.ndarray
    sq: np.ndarray  # scaled squared distances, K = sigma_1^2 exp(-sq / 2)


class GpWindowModel:
    """Online error predictor over a sliding window of recent observations."""

    def __init__(self, dim: int, cfg: GpCfg | None = None):
        self.cfg = GpCfg() if cfg is None else cfg
        self.dim = int(dim)
        self.hyper = self.cfg.hyper0

        self._X = np.zeros((0, self.dim))
        self._y = np.zeros(0)
        self._H = basis_features(self._X, self.cfg.basis)
        self._tau2HH = np.zeros((0, 0))  # tau^2 H H'
        self.observation_count = 0
        self.rejected_count = 0
        self._since_fit = 0
        self._cache = None  # _Factor of the current window
        self._refit = None  # the refit under way, a _refit_steps generator
        self._query = None  # (xi bytes, k(xi, X)) of the latest query
        # Latest basis coefficients, also the prior mean c of the next
        # factorization, so directions the window cannot identify (collinear
        # inputs on a converged trajectory) hold instead of drifting to zero.
        self._beta = np.zeros(self._H.shape[1])

    # -- window bookkeeping -------------------------------------------------

    @property
    def size(self) -> int:
        return self._X.shape[0]

    @property
    def full(self) -> bool:
        """True once the window holds capacity observations: the warm-up
        boundary, since a part-filled window supports the posterior mean
        but not yet a trustworthy input derivative."""
        return self.size >= self.cfg.capacity

    def observe(self, xi, e: float) -> "GpWindowModel":
        """Insert one observation, evicting the oldest beyond capacity."""
        xi = self._as_input(xi)
        if not (np.isfinite(xi).all() and np.isfinite(e)):
            self.rejected_count += 1
            logger.warning("rejected non-finite observation (total rejected: %d)",
                           self.rejected_count)
            return self
        if self.size == self.cfg.capacity:
            self._X[:-1] = self._X[1:]
            self._X[-1] = xi
            self._y[:-1] = self._y[1:]
            self._y[-1] = float(e)
        else:
            self._X = np.vstack([self._X, xi])
            self._y = np.concatenate([self._y, [float(e)]])
        self._H = basis_features(self._X, self.cfg.basis)
        self._tau2HH = self.cfg.basis_prior_variance * (self._H @ self._H.T)
        self.observation_count += 1
        self._since_fit += 1
        if self._refit is not None or (
                self.cfg.optimize and self.size >= self.cfg.min_fit_size
                and self._since_fit >= self.cfg.refit_stride):
            self.fit_hyperparams()
        else:
            self._refresh()
        return self

    # -- factorization ------------------------------------------------------

    def _factorize(self, hyper: GpHyperparams) -> _Factor:
        """Factor C = K + sigma_2^2 I + tau^2 H H' for the current window, the
        outputs centered on the basis prior mean H c. LinAlgError when C is
        not finite, or not positive definite at MAX_JITTER."""
        sq = _scaled_sq_dist(self._X, self._X, hyper.length_scale)
        K = hyper.signal_variance * np.exp(-0.5 * sq)
        C = K.copy()
        C.reshape(-1)[::self.size + 1] += hyper.noise_variance
        C += self._tau2HH
        y = self._y - self._H @ self._beta
        L, jitter = _chol_with_jitter(C)
        return _Factor(L, jitter, dpotrs(L, y, lower=1)[0], y, K, sq)

    def _refresh(self):
        """Cache the factorization of the current window."""
        self._query = None
        if self.size == 0:
            self._cache = None
            return
        self._cache = f = self._factorize(self.hyper)
        self._beta = self._beta + self.cfg.basis_prior_variance * (self._H.T @ f.a)

    @property
    def jitter(self) -> float | None:
        return None if self._cache is None else self._cache.jitter

    # -- prediction ---------------------------------------------------------

    def _as_input(self, xi) -> np.ndarray:
        """xi as a flat array; ValueError unless it has the model's dimension."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape != (self.dim,):
            raise ValueError(f"expected {self.dim}-dimensional input, got {xi.shape}")
        return xi

    def _checked_query(self, xi) -> np.ndarray:
        """_as_input, and ValueError unless xi is finite."""
        xi = self._as_input(xi)
        if not np.isfinite(xi).all():
            raise ValueError("query must be finite")
        return xi

    def predict(self, xi) -> tuple:
        """Predictive mean and variance at xi; (0, inf) on an empty window."""
        xi = self._checked_query(xi)
        if self.size == 0:
            return 0.0, math.inf
        c = self._cache
        ks = self._query_kernel(xi)
        hs = basis_features(xi[None, :], self.cfg.basis)[0]
        mean = float(hs @ self._beta + ks @ c.a)
        # prior covariance of the folded model: k + tau^2 h' h
        tau2 = self.cfg.basis_prior_variance
        v = dtrtrs(c.L, ks + tau2 * (self._H @ hs), lower=1)[0]
        var = self.hyper.signal_variance + tau2 * float(hs @ hs) - float(v @ v)
        return mean, max(var, 0.0)

    def _query_kernel(self, xi: np.ndarray) -> np.ndarray:
        """k(xi, X) on the current window, kept until the next _refresh: the
        controller asks predict and mean_derivative at the same query."""
        key = xi.tobytes()
        if self._query is None or self._query[0] != key:
            self._query = key, _kernel_matrix(xi[None, :], self._X, self.hyper)[0]
        return self._query[1]

    def mean_derivative(self, xi, dim: int) -> float:
        """d mean / d xi_dim at xi, combining kernel and basis terms; zero on
        an empty window, matching predict's zero mean."""
        xi = self._checked_query(xi)
        if not 0 <= dim < self.dim:
            raise ValueError(f"dim must be in 0..{self.dim - 1}")
        if self.size == 0:
            return 0.0
        ks = self._query_kernel(xi)
        dks = -((xi[dim] - self._X[:, dim]) / self.hyper.length_scale ** 2) * ks
        out = float(dks @ self._cache.a)
        if self._beta.size:
            dh = np.zeros(self._beta.size)  # d h(xi) / d xi_dim
            if self.cfg.basis != "constant":
                dh[1 + dim] = 1.0
            if self.cfg.basis == "quadratic":
                dh[1 + self.dim + dim] = 2.0 * xi[dim]
            out += float(dh @ self._beta)
        return out

    # -- hyperparameter fitting ----------------------------------------------

    def log_marginal_likelihood(self, hyper: GpHyperparams | None = None,
                                grad: bool = False):
        """Marginal log-likelihood of the window with beta integrated out;
        with grad=True, (value, gradient in log l, log sigma_1^2, log
        sigma_2^2) (GPML eq. 5.9). A covariance that cannot be factorized
        gives -inf (and a zero gradient)."""
        if self.size == 0:
            raise ValueError("empty window")
        hyper = hyper or self.hyper
        try:
            f = self._factorize(hyper)
        except LinAlgError:
            return (-math.inf, np.zeros(3)) if grad else -math.inf
        val = float(-0.5 * f.y @ f.a - np.log(f.L.diagonal()).sum()
                    - 0.5 * self.size * math.log(2.0 * math.pi))
        if not grad:
            return val
        # d val / d theta = 1/2 tr(Q dC/d theta) with Q = a a' - C^-1 and
        # dC/d theta = K * sq, K, sigma_2^2 I (elementwise products)
        Q = f.a[:, None] * f.a - dpotrs(f.L, np.eye(self.size), lower=1)[0]
        QK = Q * f.K
        return val, 0.5 * np.array([(QK * f.sq).sum(), QK.sum(),
                                    hyper.noise_variance * Q.trace()])

    def fit_hyperparams(self) -> GpHyperparams:
        """Run the next slice of the refit, at most ceil(max_fit_evals /
        refit_stride) likelihood evaluations, starting one if none is under
        way, and refresh the window. A refit takes effect when it ends:
        within refit_stride slices, in this call when the stride is 1."""
        if self._refit is None:
            if self.size < 2:
                self._refresh()
                return self.hyper
            self._refit = self._refit_steps()
            next(self._refit)  # up to the first evaluation
            self._since_fit = 0
        try:
            for _ in range(math.ceil(self.cfg.max_fit_evals / self.cfg.refit_stride)):
                next(self._refit)
        except StopIteration as done:
            self._refit, self.hyper = None, done.value
        self._refresh()
        return self.hyper

    def _refit_steps(self):
        """A refit from the current hyperparameters, in log space within the
        *_BOUNDS, on a copy of the window (observe shifts _X and _y in place):
        yields before each likelihood evaluation, returns the GpHyperparams."""
        frozen = copy.copy(self)
        for name in ("_X", "_y", "_H", "_tau2HH", "_beta"):
            setattr(frozen, name, getattr(self, name).copy())
        h, n = self.hyper, 3 if self.cfg.fit_noise else 2
        lo, hi = np.array([LENGTH_SCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS,
                           NOISE_VARIANCE_BOUNDS][:n]).T
        start = [h.length_scale, h.signal_variance, h.noise_variance][:n]

        def hyper_of(theta):
            nv = math.exp(theta[2]) if n == 3 else h.noise_variance
            return GpHyperparams(math.exp(theta[0]), math.exp(theta[1]), nv)

        def objective(theta):
            val, g = frozen.log_marginal_likelihood(hyper_of(theta), grad=True)
            return -val, -g[:n]

        theta = yield from _projected_bfgs(objective, np.log(np.clip(start, lo, hi)),
                                           np.log(lo), np.log(hi),
                                           self.cfg.max_fit_evals)
        if theta is None:
            logger.warning("hyperparameter fit failed; keeping previous values")
            return h
        return hyper_of(theta)


def _projected_bfgs(fun, x, lb, ub, max_evals, pgtol=1e-5, ftol=2.2e-9,
                    line_trials=4):
    """Minimize fun(x) -> (value, gradient) in the box [lb, ub] from x, in at
    most max_evals evaluations: damped BFGS on the coordinates no bound holds,
    backtracking projected line search. Yields before each evaluation; returns
    the best point (only a lower value moves it), or None if fun is not finite
    at x. Stops on a projected gradient below pgtol, line_trials failed trials
    in one search, or a relative decrease below ftol by a step along -gradient."""
    yield
    f, g = fun(x)
    if not np.isfinite(f):
        return None
    evals, M = 1, None  # M estimates the Hessian
    while evals < max_evals and np.abs(np.clip(x - g, lb, ub) - x).max() > pgtol:
        free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        d = np.where(free, -g, 0.0)
        if M is not None:
            d[free] = np.linalg.solve(M[np.ix_(free, free)], d[free])
        # a step moves no coordinate by more than 1, nor past the point where
        # the last moving one reaches its bound (beyond, all trials coincide)
        moving = d != 0
        t = min(1.0 / max(1.0, np.abs(d).max()),
                ((np.where(d > 0, ub, lb) - x)[moving] / d[moving]).max())
        for _ in range(line_trials):
            xt = np.clip(x + t * d, lb, ub)
            if evals == max_evals or (xt == x).all():
                return x
            yield
            ft, gt = fun(xt)
            evals += 1
            slope = g @ (xt - x)
            if ft <= f + 1e-4 * slope:
                break
            # the minimum of the quadratic through f, slope and ft, in [0.1, 0.5] t
            t *= min(0.5, max(0.1, -slope / (2.0 * (ft - f - slope))))
        else:
            return x
        s, y, steepest = xt - x, gt - g, M is None
        if steepest:
            M = np.eye(x.size) * (y @ y / (s @ y) if s @ y > 0 else 1.0)
        Ms, sMs = M @ s, s @ M @ s
        if s @ y < 0.2 * sMs:  # Powell's damping keeps M positive definite
            r = 0.8 * sMs / (sMs - s @ y)
            y = r * y + (1.0 - r) * Ms
        M += np.outer(y, y) / (s @ y) - np.outer(Ms, Ms) / sMs
        if f - ft <= ftol * max(abs(f), abs(ft), 1.0):
            if steepest:
                return xt
            M = None  # stalled: retry from the gradient, as M's scale may be stale
        x, f, g = xt, ft, gt
    return x
