"""Sliding-window Gaussian process regression with an explicit quadratic basis.

The model keeps the latest N observations (xi, e) and fits
e(xi) ~ h(xi)' beta + GP(0, k_se), where h(xi) = [1, xi, xi^2] (no cross
terms, 2d + 1 functions) and beta has prior N(c, tau^2 I) with tau^2 =
BASIS_PRIOR_VARIANCE, which keeps the fit well-posed on a window with fewer
samples than basis terms.
With the basis folded into C = K + sigma_2^2 I + tau^2 H H', one Cholesky
factor of C per window change gives the log marginal likelihood and the
posterior (GPML section 2.7 with B = tau^2 I, b = c): a = C^-1 (y - H c),
beta = c + tau^2 H' a and mean(xi) = h(xi)' beta + k(xi)' a. LAPACK
(potrf, potrs, trtri, trtrs) is called directly: at window sizes of tens,
scipy.linalg's checked wrappers cost several times the routine they wrap.

The window is its basis rows H and y, in two preallocated arrays that
observe shifts in place, one new row per observation; X is the view of H's
xi columns, and the squared row norms of X are the sums of its xi^2
columns. Each window change forms the unscaled squared distances D from X
as a new array; a factorization adds tau^2 H H', and factorizations and
queries divide distances by l^2. A query is checked once: predict,
variance and mean_derivative at the same point share its kernel and basis
rows until the window changes. The control path asks only for the mean.
With optimize on, the observe that fills the window fits the length scale
and signal variance to it by maximum likelihood (fit_hyperparams), once;
they hold from then on, and the noise variance is never fitted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

from .systems import finite_number, whole_number

logger = logging.getLogger(__name__)

DEFAULT_JITTER = 1e-10
MAX_JITTER = 1e-6
BASIS_PRIOR_VARIANCE = 1e4  # tau^2
FIT_EVALS = 100  # likelihood evaluations a hyperparameter fit may make
# box of the hyperparameter fit, applied in log space
LENGTH_SCALE_BOUNDS = (1e-2, 1e3)
SIGNAL_VARIANCE_BOUNDS = (1e-8, 1e4)
_ONE = np.ones(1)  # the constant basis function's entry of a basis row


@dataclass(frozen=True)
class GpHyperparams:
    """The kernel settings: one length scale shared by every input
    dimension and the two variances. A fit moves l and sigma_1^2; sigma_2^2
    keeps its configured value."""

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
    config, checked here once. The model starts from GpHyperparams' length
    scale and signal variance of 1.0; with optimize on, the observe that
    fills the window replaces them by one fit, and they hold from then on."""

    capacity: int = 15                  # window size N
    optimize: bool = True               # fit the hyperparameters at the fill
    noise_variance0: float = GpHyperparams.noise_variance  # sigma_2^2, never fitted

    def __post_init__(self):
        if not isinstance(self.optimize, bool):
            raise ValueError(f"optimize must be true or false, got {self.optimize!r}")
        if not whole_number(self.capacity):
            raise ValueError(f"capacity must be a whole number >= 1, got {self.capacity!r}")
        # an int, so capacity: 15.0 digests as 15 and sizes the window buffers
        self.capacity = int(self.capacity)
        if not (finite_number(self.noise_variance0) and self.noise_variance0 >= 0):
            raise ValueError("noise_variance0 must be nonnegative and finite, "
                             f"got {self.noise_variance0!r}")

    @property
    def hyper0(self) -> GpHyperparams:
        """The starting hyperparameters."""
        return GpHyperparams(noise_variance=self.noise_variance0)


def _sq_dist(X, nx, Z, nz) -> np.ndarray:
    """Squared distances between the rows of X and Z, whose squared row
    norms are nx and nz."""
    # 2.0 * X is its own array, so the product stays a gemm even when Z is
    # X: numpy would switch X @ X.T to syrk, which rounds differently
    sq = nx[:, None] + nz[None, :] - 2.0 * X @ Z.T
    np.maximum(sq, 0.0, out=sq)
    return sq


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite. A NaN or +-inf anywhere makes the
    sum non-finite, so only a sum that overflows needs the entrywise check."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def _chol_with_jitter(M: np.ndarray):
    """Lower Cholesky factor of M + jitter*I, doubling jitter up to MAX_JITTER;
    the jitter goes onto M's diagonal in place. potrf may factor a matrix
    with an infinite diagonal without complaint, so a non-finite M raises
    LinAlgError up front."""
    if not _finite(M):
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
    K: np.ndarray


class _WindowTerms(NamedTuple):
    """The parts of a window's likelihood that (l, sigma_1^2) leave alone."""

    dist: np.ndarray  # D: squared distances between the inputs, unscaled
    H: np.ndarray     # basis rows
    y: np.ndarray     # y - H c: the outputs centered on the basis prior mean


def _factor(hyper: GpHyperparams, terms: _WindowTerms) -> _Factor:
    """Factor C = K + sigma_2^2 I + tau^2 H H' of the window with terms.
    LinAlgError when C is not finite, or not positive definite at
    MAX_JITTER."""
    K = hyper.signal_variance * np.exp(-0.5 * (terms.dist / hyper.length_scale ** 2))
    C = K.copy()
    C.reshape(-1)[::K.shape[0] + 1] += hyper.noise_variance
    C += BASIS_PRIOR_VARIANCE * (terms.H @ terms.H.T)
    L, jitter = _chol_with_jitter(C)
    return _Factor(L, jitter, dpotrs(L, terms.y, lower=1)[0], K)


class GpWindowModel:
    """Online error predictor over a sliding window of recent observations."""

    def __init__(self, dim: int, cfg: GpCfg | None = None):
        self.cfg = GpCfg() if cfg is None else cfg
        self.dim = int(dim)
        self.hyper = self.cfg.hyper0

        # the window H, y: the live rows of two buffers, oldest first, H's
        # rows being [1, xi, xi^2] and X the view of its xi columns. observe
        # writes the buffers in place, so window terms hold until the next one
        cap = self.cfg.capacity
        self._Hbuf, self._ybuf = np.ones((cap, 2 * self.dim + 1)), np.zeros(cap)
        self._H, self._y = self._Hbuf[:0], self._ybuf[:0]
        self._X, self._nx = self._H[:, 1:self.dim + 1], np.zeros(0)
        self._D = np.zeros((0, 0))
        self.observation_count = 0
        self.rejected_count = 0
        self._cache = None  # _Factor of the current window
        self._query = None  # (xi bytes, k(xi, X), h(xi)) of the latest query
        # Latest basis coefficients, also the prior mean c of the next
        # factorization, so directions the window cannot identify (collinear
        # inputs on a converged trajectory) hold instead of drifting to zero.
        self._beta = np.zeros(self._H.shape[1])

    # -- window bookkeeping -------------------------------------------------

    @property
    def size(self) -> int:
        return self._y.size

    @property
    def full(self) -> bool:
        """True once the window holds capacity observations: the warm-up
        boundary, since a part-filled window supports the posterior mean
        but not yet a trustworthy input derivative."""
        return self.size >= self.cfg.capacity

    def observe(self, xi, e: float) -> "GpWindowModel":
        """Insert one observation, evicting the oldest beyond capacity."""
        xi = self._as_input(xi)
        if not (math.isfinite(e) and _finite(xi)):
            self.rejected_count += 1
            logger.warning("rejected non-finite observation (total rejected: %d)",
                           self.rejected_count)
            return self
        n, d = self.size, self.dim
        if n == self.cfg.capacity:
            n -= 1
            self._Hbuf[:-1], self._ybuf[:-1] = self._Hbuf[1:], self._ybuf[1:]
        row = self._Hbuf[n]
        row[1:d + 1], self._ybuf[n] = xi, e
        np.multiply(xi, xi, out=row[d + 1:])
        H, self._y = self._Hbuf[:n + 1], self._ybuf[:n + 1]
        X, self._nx = H[:, 1:d + 1], H[:, d + 1:].sum(axis=1)
        self._H, self._X, self._D = H, X, _sq_dist(X, self._nx, X, self._nx)
        self.observation_count += 1
        if self.cfg.optimize and self.observation_count == self.cfg.capacity:
            self.fit_hyperparams()
        else:
            self._refresh()
        return self

    # -- factorization ------------------------------------------------------

    def _refresh(self):
        """Cache the factorization of the current window."""
        self._query = None
        if self.size == 0:
            self._cache = None
            return
        self._cache = f = _factor(self.hyper, self._window_terms())
        self._beta = self._beta + BASIS_PRIOR_VARIANCE * (self._H.T @ f.a)

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

    def predict(self, xi) -> float:
        """Predictive mean at xi; 0 on an empty window."""
        _, ks, hs = self._query_terms(xi)
        if self.size == 0:
            return 0.0
        return float(hs @ self._beta + ks @ self._cache.a)

    def variance(self, xi) -> float:
        """Predictive variance at xi; inf on an empty window."""
        _, ks, hs = self._query_terms(xi)
        if self.size == 0:
            return math.inf
        # prior covariance of the folded model: k + tau^2 h' h
        tau2 = BASIS_PRIOR_VARIANCE
        v = dtrtrs(self._cache.L, ks + tau2 * (self._H @ hs), lower=1)[0]
        var = self.hyper.signal_variance + tau2 * float(hs @ hs) - float(v @ v)
        return max(var, 0.0)

    def _query_terms(self, xi) -> tuple:
        """xi as a flat array, k(xi, X) and h(xi); ValueError unless xi has
        the model's dimension and is finite. k and h are kept until the next
        _refresh, as the controller asks predict and mean_derivative at the
        same query; only a new query is checked for finiteness."""
        xi = self._as_input(xi)
        key = xi.tobytes()
        if self._query is None or self._query[0] != key:
            if not _finite(xi):
                raise ValueError("query must be finite")
            hs = np.concatenate((_ONE, xi, xi * xi))
            sq = _sq_dist(xi[None, :], hs[self.dim + 1:].sum(keepdims=True),
                          self._X, self._nx)[0]
            sq /= self.hyper.length_scale ** 2
            self._query = (key, self.hyper.signal_variance * np.exp(-0.5 * sq), hs)
        return (xi,) + self._query[1:]

    def mean_derivative(self, xi, dim: int) -> float:
        """d mean / d xi_dim at xi, combining kernel and basis terms; zero on
        an empty window, matching predict's zero mean."""
        xi, ks, _ = self._query_terms(xi)
        if not 0 <= dim < self.dim:
            raise ValueError(f"dim must be in 0..{self.dim - 1}")
        if self.size == 0:
            return 0.0
        dks = -((xi[dim] - self._X[:, dim]) / self.hyper.length_scale ** 2) * ks
        dh = np.zeros(self._beta.size)  # d h(xi) / d xi_dim
        dh[1 + dim] = 1.0
        dh[1 + self.dim + dim] = 2.0 * xi[dim]
        return float(dks @ self._cache.a) + float(dh @ self._beta)

    # -- hyperparameter fitting ----------------------------------------------

    def _window_terms(self) -> _WindowTerms:
        """The current window's terms, centered on the current coefficients."""
        return _WindowTerms(self._D, self._H, self._y - self._H @ self._beta)

    def log_marginal_likelihood(self, hyper: GpHyperparams,
                                terms: _WindowTerms | None = None):
        """(value, gradient in log l and log sigma_1^2) of the marginal
        log-likelihood with beta integrated out (GPML eq. 5.9) of the window
        with terms, by default the current one. A covariance that cannot be
        factorized gives (-inf, zero gradient)."""
        if terms is None:
            if self.size == 0:
                raise ValueError("empty window")
            terms = self._window_terms()
        try:
            f = _factor(hyper, terms)
        except LinAlgError:
            return -math.inf, np.zeros(2)
        val = (-0.5 * float(terms.y @ f.a) - float(np.log(f.L.diagonal()).sum())
               - 0.5 * terms.y.size * math.log(2.0 * math.pi))
        # d val / d theta = 1/2 sum(Q * dC/d theta) with Q = a a' - C^-1 and
        # dC/d theta = K * D / l^2, K (elementwise products). C^-1 = W' W
        # with W = L^-1: potri's lauum step rounds differently with the
        # number of BLAS threads, trtri and the product do not
        W = dtrtri(f.L, lower=1)[0]
        QK = f.a[:, None] * f.a - W.T @ W
        QK *= f.K
        return val, 0.5 * np.array([np.vdot(QK, terms.dist) / hyper.length_scale ** 2,
                                    QK.sum()])

    def fit_hyperparams(self) -> GpHyperparams:
        """Fit (log l, log sigma_1^2) to the current window by maximum
        likelihood from the current values, within the *_BOUNDS, in at most
        FIT_EVALS likelihood evaluations (a window of fewer than two keeps
        them); refresh the window and return the hyperparameters. sigma_2^2
        keeps its configured value: the simulation is noise-free, and a
        fitted noise level jitters the basis coefficients through the
        smoothed gain loop."""
        if self.size >= 2:
            terms, h = self._window_terms(), self.hyper
            # the box in log space: lower bounds (l, sigma_1^2), then upper ones
            lb, ub = zip(*(map(math.log, bounds)
                           for bounds in (LENGTH_SCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS)))

            def hyper_of(theta):
                return GpHyperparams(math.exp(theta[0]), math.exp(theta[1]),
                                     h.noise_variance)

            def objective(theta):
                val, g = self.log_marginal_likelihood(hyper_of(theta), terms)
                g0, g1 = g.tolist()
                return -val, (-g0, -g1)

            theta = _projected_bfgs(
                objective, (math.log(h.length_scale), math.log(h.signal_variance)),
                lb, ub, FIT_EVALS)
            if theta is None:
                logger.warning("hyperparameter fit failed; keeping previous values")
            else:
                self.hyper = hyper_of(theta)
        self._refresh()
        return self.hyper


def _projected_bfgs(fun, x, lb, ub, max_evals, pgtol=1e-5, ftol=2.2e-9,
                    line_trials=4):
    """Minimize fun(x) -> (value, gradient) over pairs of floats x in the box
    [lb, ub] from x projected into it, in at most max_evals evaluations:
    damped BFGS on the coordinates no bound holds, backtracking projected
    line search. Returns the best point (only a lower value moves it), or
    None if fun is not finite at x. Stops on a projected gradient below
    pgtol, line_trials failed trials in one search, or a relative decrease
    below ftol by a step along -gradient. Points, gradients and steps are
    tuples and the Hessian estimate M is (m00, m01, m11): at two
    parameters, numpy's per-call cost would exceed the arithmetic."""

    def clip(p):
        return min(max(p[0], lb[0]), ub[0]), min(max(p[1], lb[1]), ub[1])

    x = clip(x)
    f, g = fun(x)
    if not math.isfinite(f):
        return None
    evals, M = 1, None
    while evals < max_evals:
        pg = clip((x[0] - g[0], x[1] - g[1]))
        if max(abs(pg[0] - x[0]), abs(pg[1] - x[1])) <= pgtol:
            break
        free = [not ((xi <= lo and gi > 0) or (xi >= hi and gi < 0))
                for xi, gi, lo, hi in zip(x, g, lb, ub)]
        d = [-gi if fi else 0.0 for gi, fi in zip(g, free)]
        if M is not None:  # solve M d = -g on the free coordinates
            m00, m01, m11 = M
            if all(free):
                det = m00 * m11 - m01 * m01
                d = [(m11 * d[0] - m01 * d[1]) / det, (m00 * d[1] - m01 * d[0]) / det]
            else:
                d = [d[0] / m00, d[1] / m11]
        # a step moves no coordinate by more than 1, nor past the point where
        # the last moving one reaches its bound (beyond, all trials coincide)
        t = min(1.0 / max(1.0, abs(d[0]), abs(d[1])),
                max(((hi if di > 0 else lo) - xi) / di
                    for di, xi, lo, hi in zip(d, x, lb, ub) if di != 0))
        for _ in range(line_trials):
            xt = clip((x[0] + t * d[0], x[1] + t * d[1]))
            if evals == max_evals or xt == x:
                return x
            ft, gt = fun(xt)
            evals += 1
            s = (xt[0] - x[0], xt[1] - x[1])
            slope = g[0] * s[0] + g[1] * s[1]
            if ft <= f + 1e-4 * slope:
                break
            # the minimum of the quadratic through f, slope and ft, in [0.1, 0.5] t
            t *= min(0.5, max(0.1, -slope / (2.0 * (ft - f - slope))))
        else:
            return x
        y, steepest = (gt[0] - g[0], gt[1] - g[1]), M is None
        sy = s[0] * y[0] + s[1] * y[1]
        if steepest:
            m = (y[0] * y[0] + y[1] * y[1]) / sy if sy > 0 else 1.0
            M = (m, 0.0, m)
        m00, m01, m11 = M
        Ms = (m00 * s[0] + m01 * s[1], m01 * s[0] + m11 * s[1])
        sMs = s[0] * Ms[0] + s[1] * Ms[1]
        if sy < 0.2 * sMs:  # Powell's damping keeps M positive definite
            r = 0.8 * sMs / (sMs - sy)
            y = (r * y[0] + (1.0 - r) * Ms[0], r * y[1] + (1.0 - r) * Ms[1])
            sy = s[0] * y[0] + s[1] * y[1]
        M = (m00 + y[0] * y[0] / sy - Ms[0] * Ms[0] / sMs,
             m01 + y[0] * y[1] / sy - Ms[0] * Ms[1] / sMs,
             m11 + y[1] * y[1] / sy - Ms[1] * Ms[1] / sMs)
        if f - ft <= ftol * max(abs(f), abs(ft), 1.0):
            if steepest:
                return xt
            M = None  # stalled: retry from the gradient, as M's scale may be stale
        x, f, g = xt, ft, gt
    return x
