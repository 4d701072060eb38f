"""The online transfer step written from the paper and GPML section 2.7,
with no package code: the oracle that the controller, the GP window and
the plant loop must reproduce.

Each step k: retire the record made r steps ago, labelled y_d(k) - y(k),
into a window of the last N; query the inverse for u1; predict the error
e_p at [x, u1, y_d(k+r)]; once the window holds N observations, apply
u = u1 + alpha e_p with alpha = -1 / (d e_p / d u1), clamped and smoothed;
record [x, u, y_d(k+r)] and step the plant. The GP is an SE kernel plus
the basis h = [1, xi, xi^2] under the prior beta ~ N(c, tau^2 I), c being
the previous posterior beta, solved densely at the fit's starting
hyperparameters (l = sigma_1^2 = 1). C's diagonal gets the jitter 1e-10,
doubled until C is positive definite as in the package: a window of the
drag pair needs up to 8e-7, and with 1e-10 alone its C is singular.
"""

import math
from collections import deque

import numpy as np

TAU2 = 1e4      # basis prior variance
JITTER = 1e-10  # the first jitter tried on C's diagonal
EPS_SLOPE = 1e-8  # a flatter slope holds the last gain


def _basis(xi):
    return np.concatenate(([1.0], xi, xi ** 2))


def _se(X, xi):
    """SE kernel, l = sigma_1^2 = 1, between the rows of X and xi."""
    return np.exp(-0.5 * ((X - xi) ** 2).sum(axis=1))


def _positive_definite(M):
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def reference_loop(f, h, inverse, yd, r, x0, capacity, noise, floor, cap,
                   smoothing):
    """Run T = len(yd) - r steps of the plant x+ = f(x, u), y = h(x) under
    the inverse u1 = inverse(x, y_d(k+r)) and the online correction.
    Returns the arrays y, u, e_p and alpha of the steps."""
    def clamp(v):  # |v| into [floor, cap]
        return math.copysign(min(max(abs(v), floor), cap), v)

    T = len(yd) - r
    x = np.array(x0, dtype=float)
    records, X, e = deque(), [], []
    beta, alpha_last = np.zeros(2 * x.size + 5), floor
    log = {name: np.zeros(T) for name in ("y", "u", "e_p", "alpha")}
    for k in range(T):
        y = h(x)
        if len(records) == r:  # the record made at step k - r
            xi_old = records.popleft()
            X, e = (X + [xi_old])[-capacity:], (e + [xi_old[-1] - y])[-capacity:]
            Xa, H = np.array(X), np.array([_basis(v) for v in X])
            K = np.array([_se(Xa, v) for v in X])
            C = K + noise * np.eye(len(X)) + TAU2 * H @ H.T
            jitter = JITTER  # doubled until C + jitter I is positive definite
            while not _positive_definite(C + jitter * np.eye(len(X))):
                jitter *= 2
            a = np.linalg.solve(C + jitter * np.eye(len(X)), np.array(e) - H @ beta)
            beta = beta + TAU2 * H.T @ a
        u1 = inverse(x, yd[k + r])
        xi = np.concatenate((x, [u1, yd[k + r]]))
        e_p, alpha, u = 0.0, 0.0, u1
        if X:
            ks = _se(Xa, xi)
            e_p = _basis(xi) @ beta + ks @ a
        if len(X) == capacity:  # d e_p / d u1, u1 being xi[i]
            i, d = x.size, xi.size
            slope = (-((xi[i] - Xa[:, i]) * ks) @ a
                     + beta[1 + i] + 2 * xi[i] * beta[1 + d + i])
            alpha = alpha_last  # a flat slope holds the last gain
            if abs(slope) >= EPS_SLOPE:
                blend = smoothing * alpha_last + (1 - smoothing) * clamp(-1 / slope)
                alpha = clamp(blend)
            alpha_last = alpha
            u = u1 + alpha * e_p
        records.append(np.concatenate((x, [u, yd[k + r]])))
        for name, value in (("y", y), ("u", u), ("e_p", e_p), ("alpha", alpha)):
            log[name][k] = value
        x = f(x, u)
    return log
