"""Sliding-window Gaussian process regression with an explicit polynomial basis.

The model keeps the latest N observations (xi, e) and fits

    e(xi) ~ h(xi)' beta + GP(0, k_se)

where h collects polynomial basis functions {1, xi_i, xi_i^2} (no cross
terms) and beta has prior N(c, tau^2 I), which keeps the fit well-posed
even when the window holds fewer samples than basis terms. With the basis
folded into the covariance, C = K + sigma_2^2 I + tau^2 H H', one Cholesky
factor of C per window change gives the log marginal likelihood and the
posterior (GPML section 2.7 with B = tau^2 I, b = c): a = C^-1 (y - H c),
beta = c + tau^2 H' a and mean(xi) = h(xi)' beta + k(xi)' a.

The N x N factorizations and solves call LAPACK (potrf, potrs, trtrs)
directly: at window sizes of tens, scipy.linalg's checked wrappers cost
several times the routine they wrap, and give the same bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize

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
    """Settings of a GpWindowModel, and the `gp` section of a benchmark
    config, checked here once. The *0 fields are the starting
    GpHyperparams; a refit moves the hyperparameters from there. The basis
    term (basis, tau^2) stays fixed."""

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
    max_fit_evals: int = 100            # L-BFGS-B maxfun per refit

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


def basis_derivative(xi: np.ndarray, kind: str, dim: int) -> np.ndarray:
    """d h(xi) / d xi_dim for the same basis layout."""
    d = xi.shape[0]
    if kind == "none":
        return np.zeros(0)
    m = {"constant": 1, "linear": 1 + d, "quadratic": 1 + 2 * d}[kind]
    out = np.zeros(m)
    if kind in ("linear", "quadratic"):
        out[1 + dim] = 1.0
    if kind == "quadratic":
        out[1 + d + dim] = 2.0 * xi[dim]
    return out


def _chol_with_jitter(M: np.ndarray):
    """Lower Cholesky factor of M + jitter*I, doubling jitter up to MAX_JITTER.

    The jitter goes onto M's diagonal in place. potrf may factor a matrix
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
        self._last_factor = None  # of the latest log_marginal_likelihood call
        self._query = None  # (xi bytes, k(xi, X)) of the latest query
        # Latest basis coefficient estimate and the prior mean c of the next
        # factorization. Directions the window cannot identify (collinear
        # inputs on a converged trajectory) so hold their last value
        # instead of drifting toward zero.
        self._beta = np.zeros(self._H.shape[1])

    # -- window bookkeeping -------------------------------------------------

    @property
    def size(self) -> int:
        return self._X.shape[0]

    @property
    def full(self) -> bool:
        """True once the sliding window holds capacity observations.

        Downstream consumers treat this as the warm-up boundary: the
        transfer controller keeps its correction off until the window is
        full, because a part-filled window supports the posterior mean
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
        if (self.cfg.optimize and self.size >= self.cfg.min_fit_size
                and self._since_fit >= self.cfg.refit_stride):
            self.fit_hyperparams()
        else:
            self._refresh()
        return self

    # -- factorization ------------------------------------------------------

    def _factorize(self, hyper: GpHyperparams) -> _Factor:
        """Factor C = K + sigma_2^2 I + tau^2 H H' for the current window,
        with the outputs centered on the prior mean H c of the basis term.
        Raises LinAlgError when C is not finite, or not positive definite
        at MAX_JITTER."""
        sq = _scaled_sq_dist(self._X, self._X, hyper.length_scale)
        K = hyper.signal_variance * np.exp(-0.5 * sq)
        C = K.copy()
        C.reshape(-1)[::self.size + 1] += hyper.noise_variance
        C += self._tau2HH
        y = self._y - self._H @ self._beta
        L, jitter = _chol_with_jitter(C)
        return _Factor(L, jitter, dpotrs(L, y, lower=1)[0], y, K, sq)

    def _refresh(self, f: _Factor | None = None):
        """Cache the factorization of the current window, f when it is
        already at hand."""
        self._query = None
        if self.size == 0:
            self._cache = None
            return
        self._cache = f = self._factorize(self.hyper) if f is None else f
        self._beta = self._beta + self.cfg.basis_prior_variance * (self._H.T @ f.a)

    @property
    def factor(self) -> np.ndarray | None:
        """Lower Cholesky factor of K + tau^2 H H' + (sigma_2^2 + jitter) I."""
        return None if self._cache is None else self._cache.L.copy()

    @property
    def jitter(self) -> float | None:
        return None if self._cache is None else self._cache.jitter

    # -- prediction ---------------------------------------------------------

    def _as_input(self, xi) -> np.ndarray:
        """xi as a flat array; ValueError unless it has the model's
        dimension."""
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
        """k(xi, X) on the current window. The controller asks predict and
        mean_derivative at the same query, so the latest one is kept until
        the next _refresh."""
        key = xi.tobytes()
        if self._query is None or self._query[0] != key:
            self._query = key, _kernel_matrix(xi[None, :], self._X, self.hyper)[0]
        return self._query[1]

    def mean_derivative(self, xi, dim: int) -> float:
        """d mean / d xi_dim at xi, combining kernel and basis terms.

        Zero on an empty window, matching predict's zero mean."""
        xi = self._checked_query(xi)
        if not 0 <= dim < self.dim:
            raise ValueError(f"dim must be in 0..{self.dim - 1}")
        if self.size == 0:
            return 0.0
        ks = self._query_kernel(xi)
        dks = -((xi[dim] - self._X[:, dim]) / self.hyper.length_scale ** 2) * ks
        out = float(dks @ self._cache.a)
        if self._beta.size:
            dh = basis_derivative(xi, self.cfg.basis, dim)
            out += float(dh @ self._beta)
        return out

    # -- hyperparameter fitting ----------------------------------------------

    def log_marginal_likelihood(self, hyper: GpHyperparams | None = None,
                                grad: bool = False):
        """Marginal log-likelihood of the window with beta integrated out.

        With grad=True, returns (value, gradient), the gradient taken with
        respect to (log l, log sigma_1^2, log sigma_2^2) (GPML eq. 5.9). A
        covariance that cannot be factorized gives -inf (and a zero
        gradient).
        """
        if self.size == 0:
            raise ValueError("empty window")
        hyper = hyper or self.hyper
        try:
            f = self._factorize(hyper)
        except LinAlgError:
            f = None
        self._last_factor = f
        if f is None:
            return (-math.inf, np.zeros(3)) if grad else -math.inf
        val = float(-0.5 * f.y @ f.a - np.sum(np.log(np.diag(f.L)))
                    - 0.5 * self.size * math.log(2.0 * math.pi))
        if not grad:
            return val
        # d val / d theta = 1/2 tr(Q dC/d theta) with Q = a a' - C^-1 and
        # dC/d theta = K * sq, K, sigma_2^2 I (elementwise products)
        Q = np.outer(f.a, f.a) - dpotrs(f.L, np.eye(self.size), lower=1)[0]
        QK = Q * f.K
        return val, 0.5 * np.array([np.sum(QK * f.sq), np.sum(QK),
                                    hyper.noise_variance * np.trace(Q)])

    def fit_hyperparams(self) -> GpHyperparams:
        """Maximize the marginal likelihood over (l, sigma_1^2[, sigma_2^2]).

        Bounded L-BFGS-B over log-parameters on the analytic likelihood
        gradient. max_fit_evals is scipy's maxfun, which is checked between
        iterations, so one fit may overshoot it by a line search. The
        better of the start and the optimizer's result is kept, so the
        likelihood never degrades. The box is LENGTH_SCALE_BOUNDS,
        SIGNAL_VARIANCE_BOUNDS and NOISE_VARIANCE_BOUNDS.

        Each point is evaluated once: the objective depends on theta only
        through the hyperparameters it maps to, so it is memoized on those
        (neighbouring thetas may round to the same ones), and the
        factorization kept at the accepted point is the one its evaluation
        computed.
        """
        if self.size < 2:
            self._refresh()
            return self.hyper
        bounds = [LENGTH_SCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS]
        theta0 = [math.log(self.hyper.length_scale),
                  math.log(self.hyper.signal_variance)]
        if self.cfg.fit_noise:
            bounds.append(NOISE_VARIANCE_BOUNDS)
            nv0 = min(max(self.hyper.noise_variance, NOISE_VARIANCE_BOUNDS[0]),
                      NOISE_VARIANCE_BOUNDS[1])
            theta0.append(math.log(nv0))
        lb = [math.log(lo) for lo, _ in bounds]
        ub = [math.log(hi) for _, hi in bounds]
        theta0 = np.clip(np.asarray(theta0), lb, ub)

        def hyper_of(theta):
            ls = math.exp(theta[0])
            sv = math.exp(theta[1])
            nv = math.exp(theta[2]) if self.cfg.fit_noise else self.hyper.noise_variance
            return GpHyperparams(ls, sv, nv)

        memo = {}  # GpHyperparams -> (objective, gradient, factor or None)

        def evaluate(theta):
            hyper = hyper_of(theta)
            if hyper not in memo:
                val, g = self.log_marginal_likelihood(hyper, grad=True)
                memo[hyper] = ((-val, -g[:theta.size], self._last_factor)
                               if np.isfinite(val) else
                               (1e30, np.zeros(theta.size), None))
            return memo[hyper]

        def objective(theta):
            val, g, _ = evaluate(theta)
            return val, g.copy()  # scipy may write into the gradient

        res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lb, ub)),
                       options={"maxfun": self.cfg.max_fit_evals})
        best_theta, best_f = res.x, float(res.fun)
        f0, _, _ = evaluate(theta0)
        if f0 < best_f:
            best_theta, best_f = theta0, f0
        factor = None
        if np.isfinite(best_f) and best_f < 1e30:
            self.hyper = hyper_of(best_theta)
            factor = memo.get(self.hyper, (None, None, None))[2]
        else:
            logger.warning("hyperparameter fit failed; keeping previous values")
        self._since_fit = 0
        self._refresh(factor)
        return self.hyper
