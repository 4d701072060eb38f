"""System similarity, ISS gains, prediction-error budgets, and the
closed-loop boundedness condition.

All norms are Euclidean (vectors) / induced-2 (matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import EPS_GAIN, LtiSystem

DEFAULT_SERIES_TOL = 1e-12
MAX_SERIES_TERMS = 200_000


class AssumptionViolation(ValueError):
    """Structural mismatch between systems (relative degree, dimension)."""


class UndefinedSimilarity(ValueError):
    """Source lifted input gain too small to form the ratio."""


class NotSchurStable(ValueError):
    """Spectral radius >= 1; the ISS series does not converge."""


@dataclass(frozen=True)
class SimilarityVector:
    """S1 = 1 - B_t/B_s (scalar), S2 = A_t - (B_t/B_s) A_s (row vector).

    Identical lifted gains give exactly (0, 0): the transferred inverse is
    then exact on the target.
    """

    s1: float
    s2: np.ndarray

    @property
    def s2_norm(self) -> float:
        return float(np.linalg.norm(self.s2))


def similarity(source: LtiSystem, target: LtiSystem) -> SimilarityVector:
    if source.r != target.r:
        raise AssumptionViolation(
            f"relative degree mismatch: {source.r} vs {target.r}")
    if source.n != target.n:
        raise AssumptionViolation(f"state dimension mismatch: {source.n} vs {target.n}")
    if abs(source.lifted_B) < EPS_GAIN:
        raise UndefinedSimilarity(f"source lifted input gain {source.lifted_B}")
    ratio = target.lifted_B / source.lifted_B
    return SimilarityVector(s1=1.0 - ratio, s2=target.lifted_A - ratio * source.lifted_A)


def iss_gains(system: LtiSystem, tol: float = DEFAULT_SERIES_TOL):
    """Input-to-state gains (L1, L2) of a Schur-stable linear system.

    L1 bounds sum_j ||A^j B||: the series is truncated once m consecutive
    terms fall below tol, where m is the smallest power with ||A^m|| < 1,
    and the geometric block bound sum(last m terms) / (1 - ||A^m||) covers
    the tail. The reported L1 is an upper bound of the true series and
    shrinks (weakly) as tol shrinks. L2 = max_k ||A^k||, attained within
    the first m powers.
    """
    A = system.A
    if not system.is_schur_stable:
        raise NotSchurStable("spectral radius >= 1")
    # smallest m with ||A^m||_2 < 1; L2 over k < m is the global max,
    # since ||A^(qm+i)|| <= c^q ||A^i||, and ||A^0|| = 1
    P = np.eye(A.shape[0])
    m = 0
    L2 = 1.0
    while True:
        P = P @ A
        m += 1
        c = np.linalg.norm(P, 2)
        if c < 1.0:
            break
        L2 = max(L2, c)
        if m > 10_000:
            raise NotSchurStable("||A^m|| failed to contract (numerical)")
    # series terms t_j = ||A^j B||
    terms = []
    v = system.B.copy()
    below = 0
    while below < m:
        t = float(np.linalg.norm(v))
        terms.append(t)
        below = below + 1 if t < tol else 0
        v = A @ v
        if len(terms) > MAX_SERIES_TERMS:
            raise NotSchurStable("series failed to fall below tol (numerical)")
    tail = sum(terms[-m:]) / (1.0 - c)
    L1 = float(sum(terms[:-m]) + tail)
    return L1, float(L2)


def fit_prediction_budget(residual_log):
    """Fit nonnegative (beta1, beta2, beta3) with
    |residual_i| <= beta1 * a_i + beta2 * b_i + beta3 on every sample,
    where a = ||y_d|| and b = ||x||.

    Lexicographic: minimize beta3 first, then beta1 + beta2 among the
    beta3-optimal points (the first stage alone is degenerate whenever the
    regressors are nonzero). Solved as two small LPs.
    """
    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import linprog

    data = np.asarray(list(residual_log), dtype=float)
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] == 0:
        raise ValueError("residual log must be a nonempty sequence of "
                         "(residual, ||y_d||, ||x||) triples")
    lam = np.abs(data[:, 0])
    a = np.abs(data[:, 1])
    b = np.abs(data[:, 2])
    # stage 1: min beta3  s.t.  a*b1 + b*b2 + b3 >= lam, beta >= 0
    A_ub = -np.column_stack([a, b, np.ones_like(lam)])
    res1 = linprog(c=[0.0, 0.0, 1.0], A_ub=A_ub, b_ub=-lam,
                   bounds=[(0, None)] * 3, method="highs")
    if not res1.success:
        raise RuntimeError(f"budget fit stage 1 failed: {res1.message}")
    beta3_star = max(res1.x[2], 0.0)
    # stage 2: min beta1 + beta2 with beta3 pinned at its optimum
    slack = beta3_star + 1e-12 * max(1.0, beta3_star)
    res2 = linprog(c=[1.0, 1.0, 0.0], A_ub=A_ub, b_ub=-lam,
                   bounds=[(0, None), (0, None), (0, slack)], method="highs")
    if not res2.success:
        raise RuntimeError(f"budget fit stage 2 failed: {res2.message}")
    b1, b2, b3 = (max(v, 0.0) for v in res2.x)
    return float(b1), float(b2), float(b3)


@dataclass(frozen=True)
class StabilityBudget:
    """ISS gains of the target plus a fitted prediction-error budget.

    beta4 and alpha_max are derived, never stored, so they cannot go stale
    with respect to l1 and the source gain ratio.
    """

    l1: float
    l2: float
    beta1: float
    beta2: float
    beta3: float
    gain_ratio_norm: float  # ||lifted_A_s / lifted_B_s||
    s2_norm: float

    @property
    def beta4(self) -> float:
        return 1.0 - self.l1 * self.gain_ratio_norm

    @property
    def alpha_max(self) -> float:
        if self.beta4 <= 0.0:
            return 0.0
        denom = self.l1 * (self.s2_norm + self.beta2)
        if denom == 0.0:
            return math.inf
        return self.beta4 / denom


def assemble_budget(source: LtiSystem, target: LtiSystem,
                    betas=(0.0, 0.0, 0.0)) -> StabilityBudget:
    """Build a StabilityBudget from the pair and fitted betas."""
    l1, l2 = iss_gains(target)
    S = similarity(source, target)
    ratio = np.linalg.norm(source.lifted_A / source.lifted_B)
    return StabilityBudget(l1=l1, l2=l2, beta1=float(betas[0]), beta2=float(betas[1]),
                           beta3=float(betas[2]), gain_ratio_norm=float(ratio),
                           s2_norm=S.s2_norm)


@dataclass(frozen=True)
class Lemma1Verdict:
    status: str  # "satisfied" | "violated" | "vacuous"
    lhs: float
    rhs: float
    margin: float


def lemma1_check(source: LtiSystem, target: LtiSystem, budget: StabilityBudget,
                 alpha: float) -> Lemma1Verdict:
    """Sufficient boundedness condition |alpha| (||S2|| + beta2) < beta4 / L1.

    "vacuous" flags beta4 <= 0: the condition cannot hold for any alpha,
    including 0, because the gain-ratio scenario check already fails.
    ||S2|| is budget.s2_norm, the value alpha_max uses; source and target
    are not read again, and stay in the signature for existing callers.
    """
    lhs = abs(alpha) * (budget.s2_norm + budget.beta2)
    rhs = budget.beta4 / budget.l1
    if budget.beta4 <= 0.0:
        status = "vacuous"
    elif lhs < rhs:
        status = "satisfied"
    else:
        status = "violated"
    return Lemma1Verdict(status=status, lhs=lhs, rhs=rhs, margin=rhs - lhs)


def nonlinear_similarity(source, target, x):
    """Pointwise similarity (theta1, theta2) of r-step-ahead maps at x:
    theta1 = G_t(x) / G_s(x), theta2 = F_t(x) - theta1 F_s(x).

    Works for any systems exposing io_terms(x), including linear ones.
    """
    Fs, Gs = source.io_terms(x)
    Ft, Gt = target.io_terms(x)
    if abs(Gs) < EPS_GAIN:
        raise UndefinedSimilarity(f"source input gain {Gs} at this state")
    theta1 = Gt / Gs
    return float(theta1), float(Ft - theta1 * Fs)


def stability_report(source: LtiSystem, target: LtiSystem, budget: StabilityBudget,
                     alpha: float | None = None) -> dict:
    """JSON-ready summary of the pair's similarity and stability margins."""
    S = similarity(source, target)
    report = {
        "version": "1",
        "similarity": {"s1": S.s1, "s2": S.s2.tolist(), "s2_norm": S.s2_norm},
        "iss": {"l1": budget.l1, "l2": budget.l2},
        "budget": {"beta1": budget.beta1, "beta2": budget.beta2,
                   "beta3": budget.beta3, "beta4": budget.beta4},
        "gain_ratio_norm": budget.gain_ratio_norm,
        "alpha_max": budget.alpha_max,
        "source": {"poles": _clist(source.poles), "zeros": _clist(source.zeros),
                   "relative_degree": source.r},
        "target": {"poles": _clist(target.poles), "zeros": _clist(target.zeros),
                   "relative_degree": target.r},
    }
    if alpha is not None:
        v = lemma1_check(source, target, budget, alpha)
        report["verdict_at_alpha"] = {
            "alpha": alpha, "status": v.status, "lhs": v.lhs, "rhs": v.rhs,
            "margin": v.margin,
        }
    return report


def _clist(vals) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(vals, dtype=complex)]
