"""Sliding-window Gaussian process regression with an explicit polynomial basis.

The model keeps the latest N observations (xi, e) and fits

    e(xi) ~ h(xi)' beta + GP(0, k_se)

where h collects polynomial basis functions {1, xi_i, xi_i^2} (no cross
terms) and beta carries a zero-mean Gaussian prior with variance tau^2 per
coefficient. beta is estimated by generalized least squares under the GP
prior, which keeps the fit well-posed even when the window holds fewer
samples than basis terms. Hyperparameters maximize the log marginal
likelihood with the basis profiled out (equivalently: the basis block is
folded into the covariance).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

logger = logging.getLogger(__name__)

DEFAULT_JITTER = 1e-10
MAX_JITTER = 1e-6
BASIS_KINDS = ("none", "constant", "linear", "quadratic")


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel settings: per-dimension length scales and the two variances."""

    length_scales: np.ndarray  # (d,) or scalar, broadcast over dimensions
    signal_variance: float = 1.0   # sigma_1^2
    noise_variance: float = 1e-6   # sigma_2^2
    basis: str = "quadratic"

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float))
        object.__setattr__(self, "length_scales", ls)
        if np.any(ls <= 0) or self.signal_variance <= 0 or self.noise_variance < 0:
            raise ValueError("length scales and signal variance must be positive, "
                             "noise variance nonnegative")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")

    def scales(self, dim: int) -> np.ndarray:
        ls = self.length_scales
        if ls.size == 1:
            return np.full(dim, ls[0])
        if ls.size != dim:
            raise ValueError(f"{ls.size} length scales for {dim}-dimensional inputs")
        return ls


def kernel(xi, xj, hyper: GpHyperparams) -> float:
    """Squared-exponential kernel sigma_1^2 exp(-1/2 sum ((xi-xj)/l)^2)."""
    a = np.asarray(xi, dtype=float)
    b = np.asarray(xj, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ls = hyper.scales(a.shape[-1])
    d = (a - b) / ls
    return float(hyper.signal_variance * np.exp(-0.5 * np.dot(d, d)))


def _kernel_matrix(X, Z, hyper: GpHyperparams) -> np.ndarray:
    ls = hyper.scales(X.shape[1])
    Xs = X / ls
    Zs = Z / ls
    sq = (np.sum(Xs ** 2, axis=1)[:, None] + np.sum(Zs ** 2, axis=1)[None, :]
          - 2.0 * Xs @ Zs.T)
    np.maximum(sq, 0.0, out=sq)
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
    """Lower Cholesky factor of M + jitter*I, doubling jitter up to MAX_JITTER."""
    jitter = DEFAULT_JITTER
    while True:
        try:
            L = cholesky(M + jitter * np.eye(M.shape[0]), lower=True)
            return L, jitter
        except LinAlgError:
            jitter *= 2.0
            if jitter > MAX_JITTER:
                raise


class GpWindowModel:
    """Online error predictor over a sliding window of recent observations."""

    def __init__(self, dim: int, capacity: int = 15,
                 hyper: GpHyperparams | None = None,
                 basis_prior_variance: float = 1e4,
                 optimize: bool = True, fit_noise: bool = True,
                 refit_stride: int = 1, min_fit_size: int = 5,
                 length_scale_bounds=(1e-2, 1e3),
                 signal_variance_bounds=(1e-8, 1e4),
                 noise_variance_bounds=(1e-12, 1.0),
                 max_fit_evals: int = 100):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.hyper = hyper or GpHyperparams(length_scales=np.array([1.0]))
        self.basis_prior_variance = float(basis_prior_variance)
        self.optimize = bool(optimize)
        self.fit_noise = bool(fit_noise)
        self.refit_stride = int(refit_stride)
        self.min_fit_size = int(min_fit_size)
        self.length_scale_bounds = length_scale_bounds
        self.signal_variance_bounds = signal_variance_bounds
        self.noise_variance_bounds = noise_variance_bounds
        self.max_fit_evals = int(max_fit_evals)

        self._X = np.zeros((0, self.dim))
        self._y = np.zeros(0)
        self.observation_count = 0
        self.rejected_count = 0
        self._since_fit = 0
        self._cache = None  # refreshed on every window change
        # Prior mean for the basis coefficients. None means zero (fresh
        # model); after each fit it is re-centered on the latest estimate,
        # so directions the current window cannot identify (collinear
        # inputs on a converged trajectory) hold their last value instead
        # of drifting toward zero.
        self._beta_center = None

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
        return self.size >= self.capacity

    @property
    def window_inputs(self) -> np.ndarray:
        return self._X.copy()

    @property
    def window_outputs(self) -> np.ndarray:
        return self._y.copy()

    def observe(self, xi, e: float) -> "GpWindowModel":
        """Insert one observation, evicting the oldest beyond capacity."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape != (self.dim,):
            raise ValueError(f"expected {self.dim}-dimensional input, got {xi.shape}")
        if not (np.isfinite(xi).all() and np.isfinite(e)):
            self.rejected_count += 1
            logger.warning("rejected non-finite observation (total rejected: %d)",
                           self.rejected_count)
            return self
        if self.size == self.capacity:
            self._X = np.vstack([self._X[1:], xi])
            self._y = np.concatenate([self._y[1:], [float(e)]])
        else:
            self._X = np.vstack([self._X, xi])
            self._y = np.concatenate([self._y, [float(e)]])
        self.observation_count += 1
        self._since_fit += 1
        if (self.optimize and self.size >= self.min_fit_size
                and self._since_fit >= self.refit_stride):
            self.fit_hyperparams()
        else:
            self._refresh()
        return self

    # -- factorization ------------------------------------------------------

    def _refresh(self):
        """Rebuild the cached factorization for the current window."""
        if self.size == 0:
            self._cache = None
            return
        X, y = self._X, self._y
        K = _kernel_matrix(X, X, self.hyper)
        Ky = K + self.hyper.noise_variance * np.eye(self.size)
        L, jitter = _chol_with_jitter(Ky)
        H = basis_features(X, self.hyper.basis)
        m = H.shape[1]
        W = solve_triangular(L, H, lower=True)
        z = solve_triangular(L, y, lower=True)
        if m:
            tau = math.sqrt(self.basis_prior_variance)
            center = self._beta_center
            if center is None or center.size != m:
                center = np.zeros(m)
            aug_A = np.vstack([W, np.eye(m) / tau])
            aug_b = np.concatenate([z, center / tau])
            beta, *_ = np.linalg.lstsq(aug_A, aug_b, rcond=None)
            A = np.eye(m) / self.basis_prior_variance + W.T @ W
            La, _ = _chol_with_jitter(A)
            self._beta_center = beta.copy()
        else:
            beta = np.zeros(0)
            La = None
        resid = y - H @ beta if m else y.copy()
        resid_alpha = cho_solve((L, True), resid)
        self._cache = {
            "L": L, "jitter": jitter, "H": H, "W": W,
            "beta": beta, "La": La, "resid_alpha": resid_alpha,
        }

    @property
    def beta(self) -> np.ndarray:
        """Current basis coefficients (empty when basis is 'none')."""
        if self._cache is None:
            return np.zeros(0)
        return self._cache["beta"].copy()

    @property
    def factor(self) -> np.ndarray | None:
        """Lower Cholesky factor of K + (sigma_2^2 + jitter) I."""
        return None if self._cache is None else self._cache["L"].copy()

    @property
    def jitter(self) -> float | None:
        return None if self._cache is None else self._cache["jitter"]

    # -- prediction ---------------------------------------------------------

    def predict(self, xi) -> tuple:
        """Predictive mean and variance at xi; (0, inf) on an empty window."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.shape != (self.dim,):
            raise ValueError(f"expected {self.dim}-dimensional input, got {xi.shape}")
        if not np.isfinite(xi).all():
            raise ValueError("query must be finite")
        if self.size == 0:
            return 0.0, math.inf
        c = self._cache
        ks = _kernel_matrix(xi[None, :], self._X, self.hyper)[0]
        hs = basis_features(xi[None, :], self.hyper.basis)[0]
        mean = float(hs @ c["beta"] + ks @ c["resid_alpha"])
        v = solve_triangular(c["L"], ks, lower=True)
        var = self.hyper.signal_variance - float(v @ v)
        if hs.size:
            rho = hs - c["W"].T @ v
            w = solve_triangular(c["La"], rho, lower=True)
            var += float(w @ w)
        return mean, max(var, 0.0)

    def mean_derivative(self, xi, dim: int) -> float:
        """d mean / d xi_dim at xi, combining kernel and basis terms.

        Zero on an empty window, matching predict's zero mean."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if not 0 <= dim < self.dim:
            raise ValueError(f"dim must be in 0..{self.dim - 1}")
        if self.size == 0:
            return 0.0
        c = self._cache
        ks = _kernel_matrix(xi[None, :], self._X, self.hyper)[0]
        ls = self.hyper.scales(self.dim)
        dks = -((xi[dim] - self._X[:, dim]) / ls[dim] ** 2) * ks
        out = float(dks @ c["resid_alpha"])
        if c["beta"].size:
            dh = basis_derivative(xi, self.hyper.basis, dim)
            out += float(dh @ c["beta"])
        return out

    # -- hyperparameter fitting ----------------------------------------------

    def log_marginal_likelihood(self, hyper: GpHyperparams | None = None) -> float:
        """Marginal log-likelihood of the window with beta integrated out."""
        if self.size == 0:
            raise ValueError("empty window")
        hyper = hyper or self.hyper
        X, y = self._X, self._y
        C = _kernel_matrix(X, X, hyper) + hyper.noise_variance * np.eye(self.size)
        H = basis_features(X, hyper.basis)
        if H.shape[1]:
            C = C + self.basis_prior_variance * (H @ H.T)
            if self._beta_center is not None and self._beta_center.size == H.shape[1]:
                y = y - H @ self._beta_center
        try:
            L, _ = _chol_with_jitter(C)
        except LinAlgError:
            return -math.inf
        a = cho_solve((L, True), y)
        return float(-0.5 * y @ a - np.sum(np.log(np.diag(L)))
                     - 0.5 * self.size * math.log(2.0 * math.pi))

    def fit_hyperparams(self) -> GpHyperparams:
        """Maximize the marginal likelihood over (l, sigma_1^2[, sigma_2^2]).

        Bounded derivative-free simplex search over log-parameters with a
        capped evaluation budget. The best parameters seen (including the
        starting point) are kept, so the reported likelihood never
        degrades. A shared scalar length scale is fitted.
        """
        if self.size < 2:
            self._refresh()
            return self.hyper
        lb = [math.log(self.length_scale_bounds[0]),
              math.log(self.signal_variance_bounds[0])]
        ub = [math.log(self.length_scale_bounds[1]),
              math.log(self.signal_variance_bounds[1])]
        theta0 = [math.log(float(np.mean(self.hyper.scales(self.dim)))),
                  math.log(self.hyper.signal_variance)]
        if self.fit_noise:
            lb.append(math.log(self.noise_variance_bounds[0]))
            ub.append(math.log(self.noise_variance_bounds[1]))
            nv0 = min(max(self.hyper.noise_variance, self.noise_variance_bounds[0]),
                      self.noise_variance_bounds[1])
            theta0.append(math.log(nv0))
        lb = np.asarray(lb)
        ub = np.asarray(ub)
        theta0 = np.clip(np.asarray(theta0), lb, ub)

        def hyper_of(theta):
            ls = math.exp(theta[0])
            sv = math.exp(theta[1])
            nv = math.exp(theta[2]) if self.fit_noise else self.hyper.noise_variance
            return replace(self.hyper, length_scales=np.array([ls]),
                           signal_variance=sv, noise_variance=nv)

        def objective(theta):
            theta = np.clip(theta, lb, ub)
            val = self.log_marginal_likelihood(hyper_of(theta))
            return -val if np.isfinite(val) else 1e30

        best_theta, best_f = _nelder_mead(objective, theta0, lb, ub,
                                          max_evals=self.max_fit_evals)
        f0 = objective(theta0)
        if f0 < best_f:
            best_theta, best_f = theta0, f0
        if np.isfinite(best_f) and best_f < 1e30:
            self.hyper = hyper_of(np.clip(best_theta, lb, ub))
        else:
            logger.warning("hyperparameter fit failed; keeping previous values")
        self._since_fit = 0
        self._refresh()
        return self.hyper

    # -- window persistence ---------------------------------------------------

    def dump_window(self, path):
        """Write the window oldest-first as CSV rows: xi entries, then output."""
        rows = np.hstack([self._X, self._y[:, None]])
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def restore_window(self, path):
        """Replace the window contents from a dump_window file."""
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(v) for v in line.split(",")])
        data = np.asarray(rows, dtype=float)
        if data.size == 0:
            self._X = np.zeros((0, self.dim))
            self._y = np.zeros(0)
        else:
            if data.shape[1] != self.dim + 1:
                raise ValueError(f"expected {self.dim + 1} columns, got {data.shape[1]}")
            if data.shape[0] > self.capacity:
                raise ValueError("more rows than capacity")
            self._X = data[:, :-1].copy()
            self._y = data[:, -1].copy()
        self._beta_center = None  # restored fixtures fit from a fresh prior
        self._refresh()
        return self


def _nelder_mead(fn, x0, lb, ub, max_evals=100, f_tol=1e-9, x_tol=1e-5):
    """Minimal bounded Nelder-Mead working in clipped parameter space."""
    n = x0.size
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return fn(x)

    # initial simplex: x0 plus per-coordinate nudges
    pts = [np.clip(x0, lb, ub)]
    for i in range(n):
        p = pts[0].copy()
        step = 0.25 * max(ub[i] - lb[i], 1.0) * 0.1
        p[i] = p[i] + step if p[i] + step <= ub[i] else p[i] - step
        pts.append(np.clip(p, lb, ub))
    fs = [f(p) for p in pts]

    while evals < max_evals:
        order = np.argsort(fs)
        pts = [pts[i] for i in order]
        fs = [fs[i] for i in order]
        if abs(fs[-1] - fs[0]) < f_tol or max(
                np.max(np.abs(p - pts[0])) for p in pts[1:]) < x_tol:
            break
        centroid = np.mean(pts[:-1], axis=0)
        xr = np.clip(centroid + (centroid - pts[-1]), lb, ub)
        fr = f(xr)
        if fr < fs[0]:
            xe = np.clip(centroid + 2.0 * (centroid - pts[-1]), lb, ub)
            fe = f(xe)
            if fe < fr:
                pts[-1], fs[-1] = xe, fe
            else:
                pts[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            pts[-1], fs[-1] = xr, fr
        else:
            xc = np.clip(centroid + 0.5 * (pts[-1] - centroid), lb, ub)
            fc = f(xc)
            if fc < fs[-1]:
                pts[-1], fs[-1] = xc, fc
            else:
                for i in range(1, len(pts)):
                    pts[i] = np.clip(pts[0] + 0.5 * (pts[i] - pts[0]), lb, ub)
                    fs[i] = f(pts[i])
                    if evals >= max_evals:
                        break
    i_best = int(np.argmin(fs))
    return pts[i_best], fs[i_best]
