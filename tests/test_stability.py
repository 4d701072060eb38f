"""Similarity vectors, ISS gain bounds, prediction-error budgets, and the
boundedness verdict."""

import math

import numpy as np
import pytest

from xfertrack import stability
from xfertrack.stability import (AssumptionViolation, NotSchurStable,
                                 StabilityBudget, UndefinedSimilarity,
                                 assemble_budget, fit_prediction_budget,
                                 iss_gains, lemma1_check, nonlinear_similarity,
                                 similarity, stability_report)
from xfertrack.systems import LtiSystem, NonlinearSystem

from helpers import random_stable_system, source_system, target_system


# -- similarity ----------------------------------------------------------------


def test_benchmark_pair_similarity():
    # lifted rows [-0.15, 0.6] and [-0.24, 0.9], both input gains 1:
    # S1 = 0, S2 = [-0.09, 0.3]
    S = similarity(source_system(), target_system())
    assert S.s1 == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(S.s2, [-0.09, 0.3], atol=1e-12)
    assert S.s2_norm == pytest.approx(np.hypot(0.09, 0.3), rel=1e-12)


def test_identical_pair_is_exactly_zero():
    s = source_system()
    S = similarity(s, s)
    assert S.s1 == 0.0
    np.testing.assert_array_equal(S.s2, [0.0, 0.0])


def test_doubled_input_gain():
    base = target_system()
    doubled = LtiSystem(base.A, [0.0, 2.0], base.C)
    S = similarity(base, doubled)
    assert S.s1 == pytest.approx(-1.0)
    np.testing.assert_allclose(S.s2, base.lifted_A - 2.0 * base.lifted_A)


def test_relative_degree_mismatch_rejected():
    chain = LtiSystem([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.1]],
                      [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert chain.r == 3
    with pytest.raises(AssumptionViolation, match="relative degree"):
        similarity(source_system(), chain)


def test_state_dimension_mismatch_rejected():
    wide = LtiSystem(np.diag([0.1, 0.2, 0.3]), [1.0, 1.0, 1.0],
                     [1.0, 0.0, 0.0])
    assert wide.r == 1
    with pytest.raises(AssumptionViolation, match="dimension"):
        similarity(source_system(), wide)


def test_self_similarity_is_zero_for_random_systems():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = random_stable_system(rng)
        S = similarity(s, s)
        assert S.s1 == 0.0
        assert S.s2_norm <= 1e-12


# -- ISS gains -----------------------------------------------------------------


def test_iss_gains_nilpotent():
    # A = 0: only the j = 0 term survives, so L1 = ||B|| and L2 = ||I||
    s = LtiSystem([[0.0, 0.0], [0.0, 0.0]], [3.0, 4.0], [1.0, 0.0])
    L1, L2 = iss_gains(s)
    assert L1 == pytest.approx(5.0, rel=1e-12)
    assert L2 == 1.0


def test_iss_gains_scalar_geometric():
    # sum_j 0.5^j = 2
    s = LtiSystem([[0.5]], [1.0], [1.0])
    L1, L2 = iss_gains(s)
    assert L1 == pytest.approx(2.0, abs=1e-9)
    assert L2 == 1.0


def test_iss_gains_benchmark_target():
    L1, L2 = iss_gains(target_system())
    assert L1 == pytest.approx(6.2540198107425065, rel=1e-9)
    assert L2 == pytest.approx(1.4245050487938984, rel=1e-9)


def test_iss_gain_upper_bounds_plain_series():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_stable_system(rng)
        # direct partial sums far past the truncation point
        total, v = 0.0, s.B.copy()
        for _ in range(20000):
            t = float(np.linalg.norm(v))
            total += t
            if t < 1e-15:
                break
            v = s.A @ v
        loose = iss_gains(s, tol=1e-6)[0]
        mid = iss_gains(s, tol=1e-9)[0]
        tight = iss_gains(s, tol=1e-12)[0]
        assert loose >= mid - 1e-12
        assert mid >= tight - 1e-12
        assert tight >= total - 1e-12


def test_iss_rejects_unstable():
    with pytest.raises(NotSchurStable):
        iss_gains(LtiSystem([[1.0]], [1.0], [1.0]))


# -- budget fit ----------------------------------------------------------------


def test_budget_fit_zero_residuals():
    log = [(0.0, 1.0, 2.0)] * 10
    assert fit_prediction_budget(log) == (0.0, 0.0, 0.0)


def test_budget_fit_pure_offset():
    log = [(0.7, 0.0, 0.0), (-0.7, 0.0, 0.0), (0.1, 0.0, 0.0)]
    b1, b2, b3 = fit_prediction_budget(log)
    assert (b1, b2) == (0.0, 0.0)
    assert b3 == pytest.approx(0.7, abs=1e-9)


def test_budget_fit_proportional_term():
    # residual = 2 ||y_d|| exactly: no offset needed, slope 2 recovered
    a = np.linspace(0.5, 3.0, 12)
    log = [(2.0 * ai, ai, 0.0) for ai in a]
    b1, b2, b3 = fit_prediction_budget(log)
    assert b3 <= 1e-9
    assert b1 == pytest.approx(2.0, abs=1e-9)
    assert b2 == 0.0


def test_budget_fit_bound_is_valid_and_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        lam = rng.standard_normal(40)
        a = np.abs(rng.standard_normal(40))
        b = np.abs(rng.standard_normal(40))
        log = np.column_stack([lam, a, b])
        b1, b2, b3 = fit_prediction_budget(log)
        assert b1 >= 0.0 and b2 >= 0.0 and b3 >= 0.0
        assert np.all(np.abs(lam) <= b1 * a + b2 * b + b3 + 1e-9)


def test_budget_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_prediction_budget([])
    with pytest.raises(ValueError):
        fit_prediction_budget([(1.0, 2.0)])


# -- derived stability quantities ----------------------------------------------


def test_budget_derived_fields():
    bud = StabilityBudget(l1=2.0, l2=1.0, beta1=0.0, beta2=0.1, beta3=0.0,
                          gain_ratio_norm=0.2, s2_norm=0.3)
    assert bud.beta4 == pytest.approx(0.6)
    assert bud.alpha_max == pytest.approx(0.6 / (2.0 * 0.4))


def test_alpha_max_zero_when_ratio_check_fails():
    bud = StabilityBudget(l1=10.0, l2=1.0, beta1=0.0, beta2=0.0, beta3=0.0,
                          gain_ratio_norm=1.0, s2_norm=0.5)
    assert bud.beta4 == pytest.approx(-9.0)
    assert bud.alpha_max == 0.0


def test_alpha_max_unbounded_for_identical_pair():
    bud = StabilityBudget(l1=1.25, l2=1.0, beta1=0.0, beta2=0.0, beta3=0.0,
                          gain_ratio_norm=0.1, s2_norm=0.0)
    assert bud.alpha_max == math.inf


def test_benchmark_pair_condition_is_vacuous():
    # the target's ISS gain is far too large for its source gain ratio:
    # beta4 < 0, so no correction gain is certified, not even 0
    src, tgt = source_system(), target_system()
    bud = assemble_budget(src, tgt)
    assert bud.gain_ratio_norm == pytest.approx(0.6184658438426491, rel=1e-12)
    assert bud.beta4 == pytest.approx(-2.867897639659509, rel=1e-9)
    assert bud.alpha_max == 0.0
    for alpha in (0.0, 0.05, 1.0):
        assert lemma1_check(src, tgt, bud, alpha).status == "vacuous"


def test_satisfied_pair_has_exact_alpha_threshold():
    src = LtiSystem([[0.1]], [1.0], [1.0])
    tgt = LtiSystem([[0.2]], [1.0], [1.0])
    bud = assemble_budget(src, tgt)
    assert bud.beta4 == pytest.approx(0.875, rel=1e-12)
    assert bud.alpha_max == pytest.approx(7.0, rel=1e-12)
    below = lemma1_check(src, tgt, bud, bud.alpha_max * (1 - 1e-9))
    assert below.status == "satisfied"
    assert below.margin > 0.0
    at = lemma1_check(src, tgt, bud, bud.alpha_max)
    assert at.status == "violated"  # strict inequality
    assert lemma1_check(src, tgt, bud, 0.0).status == "satisfied"


def test_lemma1_check_reads_the_budget_similarity(monkeypatch):
    src, tgt = source_system(), target_system()
    bud = assemble_budget(src, tgt, betas=(0.0, 0.01, 0.0))
    want = lemma1_check(src, tgt, bud, 0.5)

    def recomputed(*args):
        raise AssertionError("similarity recomputed")

    monkeypatch.setattr(stability, "similarity", recomputed)
    assert lemma1_check(src, tgt, bud, 0.5) == want
    assert want.lhs == 0.5 * (bud.s2_norm + 0.01)


def test_identical_pair_satisfied_for_any_gain():
    s = LtiSystem([[0.1]], [1.0], [1.0])
    bud = assemble_budget(s, s)
    assert bud.alpha_max == math.inf
    assert lemma1_check(s, s, bud, 1e6).status == "satisfied"


# -- pointwise similarity ------------------------------------------------------


def test_nonlinear_similarity_identity_pair():
    s = source_system()
    theta1, theta2 = nonlinear_similarity(s, s, np.array([0.4, -1.2]))
    assert theta1 == 1.0
    assert theta2 == 0.0


def test_nonlinear_similarity_matches_linear_vector():
    src, tgt = source_system(), target_system()
    S = similarity(src, tgt)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(2)
        u = float(rng.standard_normal())
        theta1, theta2 = nonlinear_similarity(src, tgt, x)
        assert theta1 == pytest.approx(1.0 - S.s1, rel=1e-12)
        assert theta2 == pytest.approx(float(S.s2 @ x), abs=1e-12)
        # the defining identity: theta1 y_s + theta2 = y_t for any input
        Fs, Gs = src.io_terms(x)
        Ft, Gt = tgt.io_terms(x)
        y_s = Fs + Gs * u
        y_t = Ft + Gt * u
        assert theta1 * y_s + theta2 == pytest.approx(y_t, abs=1e-12)


def test_nonlinear_similarity_singular_point():
    nl = NonlinearSystem(n=1,
                         f=lambda x: 0.5 * x,
                         g=lambda x: x,
                         h=lambda x: float(x[0]),
                         r=1,
                         F=lambda x: 0.5 * x[0],
                         G=lambda x: x[0])
    with pytest.raises(UndefinedSimilarity):
        nonlinear_similarity(nl, nl, np.array([0.0]))


# -- report --------------------------------------------------------------------


def test_stability_report_structure():
    src, tgt = source_system(), target_system()
    bud = assemble_budget(src, tgt)
    rep = stability_report(src, tgt, bud)
    assert rep["version"] == "1"
    assert set(rep["similarity"]) == {"s1", "s2", "s2_norm"}
    assert set(rep["budget"]) == {"beta1", "beta2", "beta3", "beta4"}
    assert rep["alpha_max"] == 0.0
    assert "verdict_at_alpha" not in rep
    poles = [complex(re, im) for re, im in rep["target"]["poles"]]
    assert sorted(p.real for p in poles) == pytest.approx([0.4, 0.6], abs=1e-9)

    with_verdict = stability_report(src, tgt, bud, alpha=0.5)
    assert with_verdict["verdict_at_alpha"]["status"] == "vacuous"
    assert with_verdict["verdict_at_alpha"]["alpha"] == 0.5
