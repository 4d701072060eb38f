"""Sliding-window GP: kernel values, window bookkeeping, factorization,
derivatives, hyperparameter fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from xfertrack.gp import (BASIS_KINDS, GpHyperparams, GpWindowModel,
                          _kernel_matrix, basis_features, kernel)


def filled_model(rng, dim=3, n=15, **kwargs):
    defaults = dict(optimize=False)
    defaults.update(kwargs)
    gp = GpWindowModel(dim=dim, capacity=max(n, 15), **defaults)
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
    with pytest.raises(ValueError):
        GpHyperparams(length_scale=1.0, basis="cubic")
    for bad in (dict(length_scale=math.nan), dict(signal_variance=math.inf),
                dict(noise_variance=math.inf), dict(noise_variance=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            GpHyperparams(**bad)
    with pytest.raises(ValueError, match="finite"):
        GpWindowModel(dim=2, basis_prior_variance=math.inf)


def test_basis_feature_layout():
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    H = basis_features(X, "quadratic")
    np.testing.assert_allclose(H[0], [1.0, 1.0, 2.0, 1.0, 4.0])
    assert basis_features(X, "none").shape == (2, 0)
    assert basis_features(X, "constant").shape == (2, 1)
    assert basis_features(X, "linear").shape == (2, 3)


# -- window bookkeeping --------------------------------------------------------


def test_eviction_keeps_latest_n():
    gp = GpWindowModel(dim=1, capacity=15, optimize=False)
    for i in range(40):
        gp.observe([float(i)], float(i))
    assert gp.size == 15
    np.testing.assert_array_equal(gp._X[:, 0], np.arange(25.0, 40.0))
    np.testing.assert_array_equal(gp._y, np.arange(25.0, 40.0))
    assert gp.observation_count == 40


def test_nonfinite_observation_rejected():
    gp = GpWindowModel(dim=2, capacity=5, optimize=False)
    gp.observe([0.0, 0.0], 1.0)
    gp.observe([np.nan, 0.0], 1.0)
    gp.observe([0.0, 0.0], math.inf)
    assert gp.size == 1
    assert gp.rejected_count == 2


def test_observation_dimension_checked():
    gp = GpWindowModel(dim=2, capacity=5, optimize=False)
    with pytest.raises(ValueError):
        gp.observe([1.0, 2.0, 3.0], 0.0)


def test_duplicate_inputs_still_factorize():
    gp = GpWindowModel(dim=2, capacity=8, optimize=False,
                       hyper=GpHyperparams(length_scale=1.0,
                                           noise_variance=1e-6))
    for _ in range(6):
        gp.observe([1.0, 1.0], 0.5)
    assert gp.factor is not None
    m, v = gp.predict([1.0, 1.0])
    assert np.isfinite(m) and np.isfinite(v)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_covariance_is_a_factorization_failure():
    # tau^2 |h|^2 overflows: C = [[inf]] must fail like an indefinite C,
    # not factor to [[inf]] and predict NaN
    gp = GpWindowModel(dim=2, capacity=5, optimize=False,
                       basis_prior_variance=1e308)
    with pytest.raises(LinAlgError, match="not finite"):
        gp.observe([10.0, 10.0], 0.5)


def test_predictions_live_from_first_observation_and_full_flag():
    # the posterior is served from the very first observation (the
    # controller decides what to do with part-filled-window estimates);
    # `full` flips exactly when the window reaches capacity
    gp = GpWindowModel(dim=2, capacity=5, optimize=False)
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
    gp = GpWindowModel(dim=3, capacity=15)
    mean, var = gp.predict([0.0, 0.0, 0.0])
    assert mean == 0.0
    assert var == math.inf
    assert gp.mean_derivative([0.0, 0.0, 0.0], 0) == 0.0
    with pytest.raises(ValueError, match="empty"):
        gp.log_marginal_likelihood()


def test_interpolation_limit_at_observed_inputs():
    rng = np.random.default_rng(0)
    gp = filled_model(rng, hyper=GpHyperparams(length_scale=1.0,
                                               noise_variance=0.0))
    for xi, e in zip(gp._X, gp._y):
        mean, _ = gp.predict(xi)
        assert abs(mean - e) <= 1e-6


def test_variance_nonnegative_and_small_at_data():
    rng = np.random.default_rng(1)
    gp = filled_model(rng, hyper=GpHyperparams(length_scale=1.0,
                                               noise_variance=0.0))
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
    gp = GpWindowModel(dim=3, capacity=15, optimize=False,
                       hyper=GpHyperparams(length_scale=1.0,
                                           noise_variance=1e-10))
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
    H = basis_features(X, hyper.basis)  # (n, m), the transpose of GPML's H
    ks = np.array([kernel(p, xs, hyper) for p in X])
    hs = basis_features(xs[None, :], hyper.basis)[0]
    Ky_inv_H = np.linalg.solve(Ky, H)
    A = np.eye(H.shape[1]) / tau2 + H.T @ Ky_inv_H
    beta = np.linalg.solve(A, H.T @ np.linalg.solve(Ky, y) + b / tau2)
    mean = hs @ beta + ks @ np.linalg.solve(Ky, y - H @ beta)
    R = hs - Ky_inv_H.T @ ks
    var = (hyper.signal_variance - ks @ np.linalg.solve(Ky, ks)
           + R @ np.linalg.solve(A, R))
    return mean, var, beta


@pytest.mark.parametrize("basis", ["none", "constant", "linear", "quadratic"])
def test_prediction_matches_explicit_basis_posterior(basis):
    # the folded-covariance posterior equals the two-stage explicit-basis
    # one; the prior mean b of each window is the previous window's
    # coefficient estimate (zero for the first), as the model re-centers
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 16))
        tau2 = float(10 ** rng.uniform(0, 4))
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-2)), basis=basis)
        gp = GpWindowModel(dim=d, capacity=15, hyper=hyper,
                           basis_prior_variance=tau2, optimize=False)
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        b = np.zeros(basis_features(X[:1], basis).shape[1])
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
        gp = GpWindowModel(dim=d, capacity=16, hyper=hyper, optimize=False)
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


@pytest.mark.parametrize("basis", BASIS_KINDS)
def test_query_memo_never_stale(basis):
    # predict and mean_derivative share k(xi, X) at a repeated query; after
    # every observe (slides and refits included) and explicit refit, each
    # result must equal a recomputation with the memo cleared, and the memo
    # must hold _kernel_matrix on the current window and hyperparameters
    rng = np.random.default_rng(BASIS_KINDS.index(basis))
    gp = GpWindowModel(dim=3, capacity=6, refit_stride=4, max_fit_evals=10,
                       hyper=GpHyperparams(basis=basis))
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
    gp = GpWindowModel(dim=2, capacity=5, optimize=False)
    gp.observe([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        gp.mean_derivative([0.0, 0.0], 2)


def test_factorization_reconstructs_covariance():
    # L L' = K + tau^2 H H' + (sigma_2^2 + jitter) I to 1e-10 relative
    # Frobenius error, with K rebuilt independently from the public kernel
    # function and H from the basis features
    rng = np.random.default_rng(3)
    gp = filled_model(rng, hyper=GpHyperparams(length_scale=1.4,
                                               signal_variance=0.9,
                                               noise_variance=1e-5))
    X = gp._X
    K = np.array([[kernel(a, b, gp.hyper) for b in X] for a in X])
    H = basis_features(X, gp.hyper.basis)
    target = (K + gp.basis_prior_variance * H @ H.T
              + (gp.hyper.noise_variance + gp.jitter) * np.eye(len(X)))
    L = gp.factor
    err = np.linalg.norm(L @ L.T - target) / np.linalg.norm(target)
    assert err <= 1e-10


# -- hyperparameter fitting ----------------------------------------------------


@pytest.mark.parametrize("fit_noise", [True, False])
@pytest.mark.parametrize("basis", ["none", "constant", "linear", "quadratic"])
def test_likelihood_gradient_matches_finite_differences(basis, fit_noise):
    # the fit's parameters: log l, log sigma_1^2 and, with fit_noise,
    # log sigma_2^2; noise >= 1e-4 keeps the windows well-conditioned and
    # the jitter fixed across the perturbations
    rng = np.random.default_rng(12)
    n_params = 3 if fit_noise else 2
    h = 1e-3  # the basis prior (tau^2 = 1e4) makes smaller steps round off
    for _ in range(25):
        d = int(rng.integers(1, 5))
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-2)), basis=basis)
        gp = GpWindowModel(dim=d, capacity=15, hyper=hyper, optimize=False,
                           fit_noise=fit_noise)
        for _ in range(int(rng.integers(3, 16))):
            gp.observe(rng.standard_normal(d), float(rng.standard_normal()))
        value, grad = gp.log_marginal_likelihood(grad=True)
        assert value == gp.log_marginal_likelihood()
        theta = np.log([hyper.length_scale, hyper.signal_variance,
                        hyper.noise_variance])

        def lml(t):
            return gp.log_marginal_likelihood(replace(
                hyper, length_scale=math.exp(t[0]), signal_variance=math.exp(t[1]),
                noise_variance=math.exp(t[2])))

        fd = [(lml(theta + h * e) - lml(theta - h * e)) / (2 * h)
              for e in np.eye(3)[:n_params]]
        np.testing.assert_allclose(grad[:n_params], fd, rtol=1e-3, atol=1e-3)


def test_fit_budget_stops_early_without_degrading(monkeypatch):
    # max_fit_evals is checked between iterations: a budget of 5 ends the
    # fit after at most one more line search, well before an uncapped fit
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
            gp = GpWindowModel(dim=2, capacity=15, optimize=False,
                               max_fit_evals=budget,
                               hyper=GpHyperparams(length_scale=1.0,
                                                   noise_variance=1e-4,
                                                   basis="none"))
            for _ in range(15):
                xi = rng.uniform(-3, 3, size=2)
                gp.observe(xi, float(np.cos(xi[0]) + 0.3 * xi[1]))
            before = gp.log_marginal_likelihood()
            calls.clear()
            gp.fit_hyperparams()
            evals[budget] = len(calls)
            assert gp.log_marginal_likelihood() >= before - 1e-9
        assert evals[5] < evals[100]
        assert evals[5] <= 5 + 20 + 1  # budget, one line search, the start guard


@pytest.mark.parametrize("basis", BASIS_KINDS)
def test_refit_evaluates_each_point_once(basis, monkeypatch):
    # L-BFGS-B revisits points and the start guard re-checks the start;
    # none of that reaches the likelihood twice, and the factor kept at
    # the accepted point is bit for bit the one a fresh refresh computes
    points = []
    lml = GpWindowModel.log_marginal_likelihood

    def recorded(self, hyper=None, grad=False):
        points.append((hyper.length_scale, hyper.signal_variance,
                       hyper.noise_variance))
        return lml(self, hyper, grad)

    monkeypatch.setattr(GpWindowModel, "log_marginal_likelihood", recorded)
    rng = np.random.default_rng(31)
    for trial in range(10):
        d = int(rng.integers(1, 5))
        gp = GpWindowModel(dim=d, capacity=15, optimize=False,
                           fit_noise=bool(trial % 2),
                           hyper=GpHyperparams(noise_variance=1e-6, basis=basis))
        x = 0.1 * rng.standard_normal(d)
        for _ in range(int(rng.integers(5, 16))):
            x = 0.9 * x + 0.05 * rng.standard_normal(d)
            gp.observe(x, float(np.sin(x).sum()))
        points.clear()
        center = gp._beta  # the prior mean the fit factors with
        gp.fit_hyperparams()
        assert points and len(set(points)) == len(points)
        L, jitter, beta = gp.factor, gp.jitter, gp._beta
        gp._beta = center
        gp._refresh()
        assert L.tobytes() == gp.factor.tobytes()
        assert jitter == gp.jitter
        assert beta.tobytes() == gp._beta.tobytes()


def test_optimizer_never_degrades_likelihood():
    # basis "none" keeps the objective independent of the coefficient
    # centering, so before/after values are directly comparable
    rng = np.random.default_rng(4)
    for trial in range(8):
        gp = GpWindowModel(dim=2, capacity=15, optimize=False, fit_noise=True,
                           hyper=GpHyperparams(length_scale=1.0,
                                               noise_variance=1e-4,
                                               basis="none"))
        for _ in range(12):
            xi = rng.uniform(-3, 3, size=2)
            gp.observe(xi, float(np.cos(xi[0]) + 0.3 * xi[1]))
        before = gp.log_marginal_likelihood()
        gp.fit_hyperparams()
        after = gp.log_marginal_likelihood()
        assert after >= before - 1e-9


def test_length_scale_recovery_from_synthetic_data():
    # data drawn from a known SE prior with l = 2; small-window variance
    # makes this a wide-band check (within a factor of 1.5)
    hyp_true = GpHyperparams(length_scale=2.0, signal_variance=1.0,
                             noise_variance=1e-8, basis="none")
    for seed in (0, 2, 6, 9):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, size=(15, 1))
        K = np.array([[kernel(a, b, hyp_true) for b in X] for a in X])
        y = rng.multivariate_normal(np.zeros(15), K + 1e-10 * np.eye(15))
        gp = GpWindowModel(dim=1, capacity=15, optimize=False, fit_noise=False,
                           hyper=GpHyperparams(length_scale=1.0,
                                               noise_variance=1e-8,
                                               basis="none"))
        for xi, e in zip(X, y):
            gp.observe(xi, float(e))
        gp.fit_hyperparams()
        assert 1.0 <= gp.hyper.length_scale <= 3.0


def test_zero_outputs_drive_signal_variance_to_floor():
    rng = np.random.default_rng(7)
    gp = GpWindowModel(dim=2, capacity=15, optimize=False, fit_noise=False,
                       hyper=GpHyperparams(length_scale=1.0,
                                           noise_variance=1e-6, basis="none"))
    for _ in range(15):
        gp.observe(rng.standard_normal(2), 0.0)
    gp.fit_hyperparams()
    assert gp.hyper.signal_variance <= 1e-6


def test_fixed_hyper_mode_skips_optimization():
    hyper = GpHyperparams(length_scale=20.0, signal_variance=1.0,
                          noise_variance=2e-5)
    gp = GpWindowModel(dim=2, capacity=40, hyper=hyper, optimize=False)
    rng = np.random.default_rng(8)
    for _ in range(40):
        gp.observe(rng.standard_normal(2), float(rng.standard_normal()))
    assert gp.hyper.length_scale == 20.0
    assert gp.hyper.signal_variance == 1.0
    assert gp.hyper.noise_variance == 2e-5


def test_refit_stride_controls_schedule():
    rng = np.random.default_rng(9)
    per_step = GpWindowModel(dim=1, capacity=15, optimize=True, refit_stride=1,
                             min_fit_size=5)
    strided = GpWindowModel(dim=1, capacity=15, optimize=True, refit_stride=50,
                            min_fit_size=5)
    xs = rng.uniform(-2, 2, size=20)
    for x in xs:
        per_step.observe([float(x)], float(np.sin(x)))
        strided.observe([float(x)], float(np.sin(x)))
    # the per-step model has fitted; the strided one is still at its start
    assert strided.hyper.length_scale == 1.0
    assert per_step.hyper.length_scale != 1.0
