"""Sliding-window GP: kernel values, window bookkeeping, factorization,
derivatives, hyperparameter fitting."""

import copy
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import xfertrack
from xfertrack.bench import default_benchmark_config, run_strategy
from xfertrack import gp as gp_module
from xfertrack.gp import (BASIS_PRIOR_VARIANCE, LENGTH_SCALE_BOUNDS,
                          SIGNAL_VARIANCE_BOUNDS, GpCfg, GpHyperparams,
                          GpWindowModel, _kernel_matrix, basis_features)

from helpers import hyper_cfg, kernel


def filled_model(rng, dim=3, n=15, **kwargs):
    defaults = dict(optimize=False)
    defaults.update(kwargs)
    gp = GpWindowModel(dim, GpCfg(capacity=max(n, 15), **defaults))
    for _ in range(n):
        xi = rng.standard_normal(dim)
        gp.observe(xi, float(np.sin(xi).sum()))
    return gp


# -- kernel --------------------------------------------------------------------


def test_kernel_at_zero_distance_is_signal_variance():
    hyper = GpHyperparams(length_scale=2.0, signal_variance=3.5)
    xi = np.array([0.3, -1.0])
    assert kernel(xi, xi, hyper) == pytest.approx(3.5)


def test_kernel_known_value():
    # unit scales, squared distance 2 -> exp(-1)
    hyper = GpHyperparams(length_scale=1.0, signal_variance=1.0)
    val = kernel(np.array([1.0, 1.0]), np.array([0.0, 0.0]), hyper)
    assert val == pytest.approx(0.36787944117144233, rel=1e-12)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    hyper = GpHyperparams(length_scale=1.3, signal_variance=1.2)
    for _ in range(30):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert kernel(a, b, hyper) == kernel(b, a, hyper)


def test_kernel_dimension_mismatch():
    hyper = GpHyperparams(length_scale=1.0)
    with pytest.raises(ValueError, match="mismatch"):
        kernel(np.zeros(2), np.zeros(3), hyper)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        GpHyperparams(length_scale=-1.0)
    with pytest.raises(ValueError):
        GpHyperparams(length_scale=1.0, signal_variance=0.0)
    with pytest.raises(ValueError):
        GpHyperparams(length_scale=1.0, noise_variance=-1e-9)
    for bad in (dict(length_scale=math.nan), dict(signal_variance=math.inf),
                dict(noise_variance=math.inf), dict(noise_variance=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            GpHyperparams(**bad)


@pytest.mark.parametrize("field, value", [
    ("refit_stride", 0), ("refit_stride", -5), ("refit_stride", 2.5),
    ("refit_stride", None), ("max_fit_evals", 0), ("max_fit_evals", 1.5)])
def test_refit_schedule_is_whole_numbers(field, value):
    # a stride of 0 divided by zero in the first refit, and a negative one
    # gave a negative slice budget that left the hyperparameters unfitted
    with pytest.raises(ValueError, match=f"{field} must be a whole number >= 1"):
        GpWindowModel(2, GpCfg(**{field: value}))


def test_basis_feature_layout():
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    H = basis_features(X)
    assert H.shape == (2, 5)
    np.testing.assert_allclose(H[0], [1.0, 1.0, 2.0, 1.0, 4.0])


# -- window bookkeeping --------------------------------------------------------


def test_eviction_keeps_latest_n():
    gp = GpWindowModel(1, GpCfg(capacity=15, optimize=False))
    for i in range(40):
        gp.observe([float(i)], float(i))
    assert gp.size == 15
    np.testing.assert_array_equal(gp._X[:, 0], np.arange(25.0, 40.0))
    np.testing.assert_array_equal(gp._y, np.arange(25.0, 40.0))
    assert gp.observation_count == 40


def test_nonfinite_observation_rejected():
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    gp.observe([0.0, 0.0], 1.0)
    gp.observe([np.nan, 0.0], 1.0)
    gp.observe([0.0, 0.0], math.inf)
    assert gp.size == 1
    assert gp.rejected_count == 2


def test_observation_dimension_checked():
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    with pytest.raises(ValueError):
        gp.observe([1.0, 2.0, 3.0], 0.0)


def test_duplicate_inputs_still_factorize():
    gp = GpWindowModel(2, GpCfg(capacity=8, optimize=False, length_scale0=1.0,
                                noise_variance0=1e-6))
    for _ in range(6):
        gp.observe([1.0, 1.0], 0.5)
    assert gp._cache is not None
    m, v = gp.predict([1.0, 1.0])
    assert np.isfinite(m) and np.isfinite(v)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_covariance_is_a_factorization_failure(monkeypatch):
    # tau^2 |h|^2 overflows: C = [[inf]] must fail like an indefinite C,
    # not factor to [[inf]] and predict NaN
    monkeypatch.setattr(gp_module, "BASIS_PRIOR_VARIANCE", 1e308)
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    with pytest.raises(LinAlgError, match="not finite"):
        gp.observe([10.0, 10.0], 0.5)


def test_predictions_live_from_first_observation_and_full_flag():
    # the posterior is served from the very first observation (the
    # controller decides what to do with part-filled-window estimates);
    # `full` flips exactly when the window reaches capacity
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    assert not gp.full
    for i in range(5):
        gp.observe([float(i), 0.0], float(i))
        mean, var = gp.predict([float(i), 0.0])
        assert np.isfinite(mean) and np.isfinite(var)
        assert gp.full == (i == 4)
    assert gp.predict([2.0, 0.0])[0] == pytest.approx(2.0, abs=1e-3)
    gp.observe([5.0, 0.0], 5.0)  # eviction keeps the window full
    assert gp.full and gp.size == 5


# -- prediction ----------------------------------------------------------------


def test_empty_window_cold_start():
    gp = GpWindowModel(3, GpCfg(capacity=15))
    mean, var = gp.predict([0.0, 0.0, 0.0])
    assert mean == 0.0
    assert var == math.inf
    assert gp.mean_derivative([0.0, 0.0, 0.0], 0) == 0.0
    with pytest.raises(ValueError, match="empty"):
        gp.log_marginal_likelihood(gp.hyper)


def test_interpolation_limit_at_observed_inputs():
    rng = np.random.default_rng(0)
    gp = filled_model(rng, length_scale0=1.0, noise_variance0=0.0)
    for xi, e in zip(gp._X, gp._y):
        mean, _ = gp.predict(xi)
        assert abs(mean - e) <= 1e-6


def test_variance_nonnegative_and_small_at_data():
    rng = np.random.default_rng(1)
    gp = filled_model(rng, length_scale0=1.0, noise_variance0=0.0)
    for xi in gp._X:
        _, var = gp.predict(xi)
        assert 0.0 <= var <= 1e-9
    for _ in range(50):
        _, var = gp.predict(rng.standard_normal(3) * 3)
        assert var >= 0.0


def test_affine_window_recovered_through_basis():
    # outputs exactly affine in the inputs: the explicit basis must carry
    # the fit, so interior queries match the generating function
    rng = np.random.default_rng(2)
    w = np.array([0.8, -0.4, 1.1])
    c = 0.25
    gp = GpWindowModel(3, GpCfg(capacity=15, optimize=False, length_scale0=1.0,
                                noise_variance0=1e-10))
    X = rng.uniform(-1, 1, size=(15, 3))
    for xi in X:
        gp.observe(xi, float(w @ xi + c))
    for _ in range(20):
        q = rng.uniform(-0.9, 0.9, size=3)
        mean, _ = gp.predict(q)
        assert abs(mean - (w @ q + c)) <= 1e-6


def gpml_posterior(X, y, xs, hyper, tau2, b, jitter):
    """Mean and variance of h' beta + f at xs and the coefficient estimate,
    by GPML eqs. 2.41-2.42 with B = tau2 I and prior mean b, solved densely.
    K_y carries the model's jitter, which its factor adds to the diagonal."""
    K = np.array([[kernel(p, q, hyper) for q in X] for p in X])
    Ky = K + (hyper.noise_variance + jitter) * np.eye(len(X))
    H = basis_features(X)  # (n, m), the transpose of GPML's H
    ks = np.array([kernel(p, xs, hyper) for p in X])
    hs = basis_features(xs[None, :])[0]
    Ky_inv_H = np.linalg.solve(Ky, H)
    A = np.eye(H.shape[1]) / tau2 + H.T @ Ky_inv_H
    beta = np.linalg.solve(A, H.T @ np.linalg.solve(Ky, y) + b / tau2)
    mean = hs @ beta + ks @ np.linalg.solve(Ky, y - H @ beta)
    R = hs - Ky_inv_H.T @ ks
    var = (hyper.signal_variance - ks @ np.linalg.solve(Ky, ks)
           + R @ np.linalg.solve(A, R))
    return mean, var, beta


def test_prediction_matches_explicit_basis_posterior(monkeypatch):
    # the folded-covariance posterior equals the two-stage explicit-basis
    # one; the prior mean b of each window is the previous window's
    # coefficient estimate (zero for the first), as the model re-centers.
    # tau^2 is drawn at random too, set through the module constant
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 16))
        tau2 = float(10 ** rng.uniform(0, 4))
        monkeypatch.setattr(gp_module, "BASIS_PRIOR_VARIANCE", tau2)
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-2)))
        gp = GpWindowModel(d, hyper_cfg(hyper, capacity=15, optimize=False))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        b = np.zeros(2 * d + 1)
        for j in range(n):
            if j:
                b = gpml_posterior(X[:j], y[:j], X[0], hyper, tau2, b, gp.jitter)[2]
            gp.observe(X[j], y[j])
        for _ in range(5):
            xs = 1.5 * rng.standard_normal(d)
            mean, var, _ = gpml_posterior(X, y, xs, hyper, tau2, b, gp.jitter)
            got_mean, got_var = gp.predict(xs)
            assert abs(got_mean - mean) <= 1e-6 * max(1.0, abs(mean))
            assert abs(got_var - var) <= 1e-6 * max(1e-2, var)


def test_mean_derivative_matches_finite_differences():
    # 120 random windows of varying size/dimension/hyperparameters
    rng = np.random.default_rng(42)
    for _ in range(120):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 16))
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-6, 1e-3)))
        gp = GpWindowModel(d, hyper_cfg(hyper, capacity=16, optimize=False))
        for _ in range(n):
            gp.observe(rng.standard_normal(d), float(rng.standard_normal()))
        q = rng.standard_normal(d)
        dim = int(rng.integers(0, d))
        analytic = gp.mean_derivative(q, dim)
        h = 1e-5
        lo, hi = q.copy(), q.copy()
        lo[dim] -= h
        hi[dim] += h
        fd = (gp.predict(hi)[0] - gp.predict(lo)[0]) / (2 * h)
        assert abs(analytic - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_query_memo_never_stale():
    # predict and mean_derivative share k(xi, X) at a repeated query; after
    # every observe (slides and refits included) and explicit refit, each
    # result must equal a recomputation with the memo cleared, and the memo
    # must hold _kernel_matrix on the current window and hyperparameters
    rng = np.random.default_rng(3)
    gp = GpWindowModel(3, GpCfg(capacity=6, refit_stride=4, max_fit_evals=10))
    queries = [rng.standard_normal(3) for _ in range(3)]

    def recomputed(method, *args):
        gp._query = None
        return getattr(gp, method)(*args)

    for _ in range(120):
        action = rng.integers(4)
        if action == 0 or gp.size == 0:
            xi = rng.standard_normal(3)
            gp.observe(xi, float(np.sin(xi).sum()))
        elif action == 1:
            gp.fit_hyperparams()
        else:
            q = (queries[rng.integers(3)] if rng.random() < 0.7
                 else rng.standard_normal(3))
            method, args = (("predict", (q,)) if action == 2
                            else ("mean_derivative", (q, int(rng.integers(3)))))
            got = getattr(gp, method)(*args)
            assert np.array_equal(gp._query[1],
                                  _kernel_matrix(q[None, :], gp._X, gp.hyper)[0])
            assert got == recomputed(method, *args)


def test_derivative_dim_bounds():
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    gp.observe([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        gp.mean_derivative([0.0, 0.0], 2)


@pytest.mark.parametrize("method", ["predict", "mean_derivative"])
def test_queries_checked_for_shape_and_finiteness(method):
    gp = GpWindowModel(2, GpCfg(capacity=5, optimize=False))
    gp.observe([0.0, 0.0], 1.0)
    ask = getattr(gp, method)
    extra = () if method == "predict" else (0,)
    with pytest.raises(ValueError, match="query must be finite"):
        ask([math.nan, 0.0], *extra)
    with pytest.raises(ValueError, match="expected 2-dimensional input"):
        ask([0.0, 0.0, 0.0], *extra)


def test_factorization_reconstructs_covariance():
    # L L' = K + tau^2 H H' + (sigma_2^2 + jitter) I to 1e-10 relative
    # Frobenius error, with K rebuilt independently from the public kernel
    # function and H from the basis features
    rng = np.random.default_rng(3)
    gp = filled_model(rng, length_scale0=1.4, signal_variance0=0.9,
                      noise_variance0=1e-5)
    X = gp._X
    K = np.array([[kernel(a, b, gp.hyper) for b in X] for a in X])
    H = basis_features(X)
    target = (K + BASIS_PRIOR_VARIANCE * H @ H.T
              + (gp.hyper.noise_variance + gp.jitter) * np.eye(len(X)))
    L = gp._cache.L
    err = np.linalg.norm(L @ L.T - target) / np.linalg.norm(target)
    assert err <= 1e-10


# -- hyperparameter fitting ----------------------------------------------------


def test_likelihood_gradient_matches_finite_differences():
    # the fit's parameters: log l and log sigma_1^2; noise >= 1e-4 keeps the
    # windows well-conditioned and the jitter fixed across the perturbations
    rng = np.random.default_rng(12)
    h = 1e-3  # the basis prior (tau^2 = 1e4) makes smaller steps round off
    for _ in range(25):
        d = int(rng.integers(1, 5))
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-2)))
        gp = GpWindowModel(d, hyper_cfg(hyper, capacity=15, optimize=False))
        for _ in range(int(rng.integers(3, 16))):
            gp.observe(rng.standard_normal(d), float(rng.standard_normal()))
        grad = gp.log_marginal_likelihood(hyper)[1]
        theta = np.log([hyper.length_scale, hyper.signal_variance])

        def lml(t):
            return gp.log_marginal_likelihood(replace(
                hyper, length_scale=math.exp(t[0]),
                signal_variance=math.exp(t[1])))[0]

        fd = [(lml(theta + h * e) - lml(theta - h * e)) / (2 * h) for e in np.eye(2)]
        np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-3)


def test_fit_budget_stops_early_without_degrading(monkeypatch):
    # max_fit_evals is a hard cap on likelihood evaluations: a budget of 5
    # ends the fit there, well before an uncapped fit. The objective depends
    # on the coefficient centering, so the likelihoods compare at the one
    # the fit used
    calls = []
    lml = GpWindowModel.log_marginal_likelihood

    def counted(self, *args, **kwargs):
        calls.append(1)
        return lml(self, *args, **kwargs)

    monkeypatch.setattr(GpWindowModel, "log_marginal_likelihood", counted)
    for seed in range(4):
        evals = {}
        for budget in (5, 100):
            rng = np.random.default_rng(seed)
            gp = GpWindowModel(2, GpCfg(capacity=15, optimize=False,
                                        max_fit_evals=budget, length_scale0=1.0,
                                        noise_variance0=1e-4))
            for _ in range(15):
                xi = rng.uniform(-3, 3, size=2)
                gp.observe(xi, float(np.cos(xi[0]) + 0.3 * xi[1]))
            center = gp._beta
            before = gp.log_marginal_likelihood(gp.hyper)[0]
            calls.clear()
            gp.fit_hyperparams()
            evals[budget] = len(calls)
            gp._beta = center
            assert gp.log_marginal_likelihood(gp.hyper)[0] >= before - 1e-9
        assert evals[5] < evals[100]
        assert evals[5] <= 5


def test_refit_evaluates_each_point_once(monkeypatch):
    # the optimizer evaluates the start once and never repeats a trial
    # point (steps that round away end the fit), and a finished refit
    # refreshes the window exactly once: the factor and coefficients it
    # leaves are bit for bit those of one refresh from the prior mean
    points = []
    lml = GpWindowModel.log_marginal_likelihood

    def recorded(self, hyper):
        points.append((hyper.length_scale, hyper.signal_variance))
        return lml(self, hyper)

    monkeypatch.setattr(GpWindowModel, "log_marginal_likelihood", recorded)
    rng = np.random.default_rng(31)
    for trial in range(10):
        d = int(rng.integers(1, 5))
        gp = GpWindowModel(d, GpCfg(capacity=15, optimize=False,
                                    noise_variance0=1e-6))
        x = 0.1 * rng.standard_normal(d)
        for _ in range(int(rng.integers(5, 16))):
            x = 0.9 * x + 0.05 * rng.standard_normal(d)
            gp.observe(x, float(np.sin(x).sum()))
        points.clear()
        center = gp._beta  # the prior mean the fit factors with
        gp.fit_hyperparams()
        assert points and len(set(points)) == len(points)
        L, jitter, beta = gp._cache.L, gp.jitter, gp._beta
        gp._beta = center
        gp._refresh()
        assert L.tobytes() == gp._cache.L.tobytes()
        assert jitter == gp.jitter
        assert beta.tobytes() == gp._beta.tobytes()


def test_optimizer_never_degrades_likelihood():
    # the optimizer moves only to points of higher likelihood, so the start
    # stays a candidate; the objective depends on the coefficient centering,
    # so before/after values compare at the one the fit used
    rng = np.random.default_rng(4)
    for trial in range(8):
        gp = GpWindowModel(2, GpCfg(capacity=15, optimize=False,
                                    length_scale0=1.0, noise_variance0=1e-4))
        for _ in range(12):
            xi = rng.uniform(-3, 3, size=2)
            gp.observe(xi, float(np.cos(xi[0]) + 0.3 * xi[1]))
        center = gp._beta
        before = gp.log_marginal_likelihood(gp.hyper)[0]
        gp.fit_hyperparams()
        gp._beta = center
        assert gp.log_marginal_likelihood(gp.hyper)[0] >= before - 1e-9


def _evaluations_per_observe(monkeypatch):
    """Patch GpWindowModel so that each observe appends the number of
    likelihood evaluations it made, on frozen copies included, to a list."""
    per_observe, calls = [], []
    lml, observe = GpWindowModel.log_marginal_likelihood, GpWindowModel.observe

    def counted_lml(self, *args, **kwargs):
        calls.append(1)
        return lml(self, *args, **kwargs)

    def counted_observe(self, *args, **kwargs):
        calls.clear()
        out = observe(self, *args, **kwargs)
        per_observe.append(len(calls))
        return out

    monkeypatch.setattr(GpWindowModel, "log_marginal_likelihood", counted_lml)
    monkeypatch.setattr(GpWindowModel, "observe", counted_observe)
    return per_observe


def test_sliced_refit_bounds_evaluations_per_observe_on_bundled_run(monkeypatch):
    # the deadline proxy that does not depend on the host: with the bundled
    # stride of 25 no control step runs more than ceil(100 / 25) = 4
    # evaluations, and refits that need more go on in the next observe
    per_observe = _evaluations_per_observe(monkeypatch)
    cfg = default_benchmark_config(inverse_mode="analytic")
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=4.0))
    assert (cfg.gp.refit_stride, cfg.gp.max_fit_evals) == (25, 100)
    assert not run_strategy(cfg, "online").aborted
    assert max(per_observe) == 4
    assert any(a == 4 and b > 0 for a, b in zip(per_observe, per_observe[1:]))


def test_sliced_refit_bounds_evaluations_per_observe(monkeypatch):
    per_observe = _evaluations_per_observe(monkeypatch)
    rng = np.random.default_rng(43)
    for trial in range(4):
        cfg = GpCfg(capacity=15, refit_stride=int(rng.integers(2, 30)),
                    noise_variance0=1e-4, max_fit_evals=int(rng.integers(1, 120)))
        gp = GpWindowModel(2, cfg)
        x = rng.standard_normal(2)
        per_observe.clear()
        for _ in range(200):
            x = 0.9 * x + 0.3 * rng.standard_normal(2)
            gp.observe(x, float(np.sin(3 * x).sum()))
        assert 0 < max(per_observe) <= math.ceil(cfg.max_fit_evals / cfg.refit_stride)


def test_sliced_refit_applies_the_fit_of_its_frozen_window():
    # a refit spread over the observes of a stride-25 model ends with the
    # hyperparameters, bit for bit, that a stride-1 copy taken just before
    # the observe that starts it fits at once; until then the old ones hold
    rng = np.random.default_rng(21)
    gp = GpWindowModel(2, GpCfg(capacity=15, refit_stride=25, noise_variance0=1e-4))
    want, applied, sliced = None, 0, 0
    x = rng.standard_normal(2)
    for _ in range(600):
        x = 0.9 * x + 0.3 * rng.standard_normal(2)
        e = float(np.sin(3 * x).sum())
        before, hyper = copy.deepcopy(gp) if gp._refit is None else None, gp.hyper
        gp.observe(x, e)
        if gp._since_fit == 0:  # a refit started in this observe
            before.cfg = replace(before.cfg, refit_stride=1)
            want = before.observe(x, e).hyper
        if gp._refit is not None:
            assert gp.hyper == hyper
            sliced += gp._since_fit == 0
        elif want is not None:
            assert gp.hyper == want
            want, applied = None, applied + 1
    assert applied >= 20 and sliced >= 10


def _scipy_fit(gp) -> float:
    """The likelihood at scipy's L-BFGS-B maximum from the same start, in the
    same box, under the same evaluation budget."""
    from scipy.optimize import minimize
    h = gp.hyper
    bounds = np.log([LENGTH_SCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS])

    def hyper_of(t):
        return GpHyperparams(math.exp(t[0]), math.exp(t[1]), h.noise_variance)

    def objective(t):
        val, g = gp.log_marginal_likelihood(hyper_of(t))
        return -val, -g

    t0 = np.log([h.length_scale, h.signal_variance])
    res = minimize(objective, t0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxfun": gp.cfg.max_fit_evals})
    return gp.log_marginal_likelihood(hyper_of(res.x))[0]


def test_optimizer_reaches_scipy_lbfgsb_likelihood():
    # scipy's L-BFGS-B as the oracle on well-conditioned windows (noise >=
    # 1e-4). The fit ends no more than 2e-3 below scipy's log-likelihood,
    # unless it ends at another local maximum: a point whose projected
    # gradient is below 1e-3. Over 1,800 windows drawn this way, 10 (0.6%)
    # ended at another maximum than scipy's, lower by up to 0.69; beyond
    # 1e-6, 22% ended higher than scipy's and 4% lower.
    rng = np.random.default_rng(17)
    gains = []
    for trial in range(48):
        d = int(rng.integers(1, 4))
        gp = GpWindowModel(d, GpCfg(
            capacity=15, optimize=False, length_scale0=float(rng.uniform(0.3, 3.0)),
            noise_variance0=float(rng.uniform(1e-4, 1e-2))))
        for _ in range(int(rng.integers(5, 16))):
            x = rng.uniform(-2, 2, size=d)
            gp.observe(x, float(np.sin(2 * x).sum() + 0.01 * rng.standard_normal()))
        frozen = copy.deepcopy(gp)
        best = _scipy_fit(frozen)
        gp.fit_hyperparams()
        got, grad = frozen.log_marginal_likelihood(gp.hyper)
        gains.append(got - best)
        if got < best - 2e-3:
            theta = np.log([gp.hyper.length_scale, gp.hyper.signal_variance])
            lo, hi = np.log([LENGTH_SCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS]).T
            assert np.abs(np.clip(theta + grad, lo, hi) - theta).max() <= 1e-3
    assert np.median(gains) >= -1e-9


def test_import_leaves_scipy_optimize_unloaded():
    # the refit has its own optimizer and stability imports linprog where
    # it is used, so importing the package does not pay for scipy.optimize
    code = "import sys, xfertrack; print('scipy.optimize' in sys.modules)"
    src = str(Path(xfertrack.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_length_scale_recovery_from_synthetic_data():
    # data drawn from a known SE prior with l = 2; small-window variance
    # makes this a wide-band check (within a factor of 1.5)
    hyp_true = GpHyperparams(length_scale=2.0, signal_variance=1.0,
                             noise_variance=1e-8)
    for seed in (0, 2, 6, 9):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, size=(15, 1))
        K = np.array([[kernel(a, b, hyp_true) for b in X] for a in X])
        y = rng.multivariate_normal(np.zeros(15), K + 1e-10 * np.eye(15))
        gp = GpWindowModel(1, GpCfg(capacity=15, optimize=False,
                                    length_scale0=1.0, noise_variance0=1e-8))
        for xi, e in zip(X, y):
            gp.observe(xi, float(e))
        gp.fit_hyperparams()
        assert 1.0 <= gp.hyper.length_scale <= 3.0


def test_fixed_hyper_mode_skips_optimization():
    gp = GpWindowModel(2, GpCfg(capacity=40, optimize=False, length_scale0=20.0,
                                signal_variance0=1.0, noise_variance0=2e-5))
    rng = np.random.default_rng(8)
    for _ in range(40):
        gp.observe(rng.standard_normal(2), float(rng.standard_normal()))
    assert gp.hyper.length_scale == 20.0
    assert gp.hyper.signal_variance == 1.0
    assert gp.hyper.noise_variance == 2e-5


def test_refit_stride_controls_schedule():
    rng = np.random.default_rng(9)
    per_step = GpWindowModel(1, GpCfg(capacity=15, optimize=True, refit_stride=1))
    strided = GpWindowModel(1, GpCfg(capacity=15, optimize=True, refit_stride=50))
    xs = rng.uniform(-2, 2, size=20)
    for x in xs:
        per_step.observe([float(x)], float(np.sin(x)))
        strided.observe([float(x)], float(np.sin(x)))
    # the per-step model has fitted; the strided one is still at its start
    assert strided.hyper.length_scale == 1.0
    assert per_step.hyper.length_scale != 1.0
