"""Acceptance checklist for the packaged benchmark.

Each test evaluates one shipping criterion at its stated tolerance, records
a one-line verdict for the terminal summary, and fails loudly when the
criterion is not met. The criteria pin:

  1. baseline tracking error of the bundled pair (band + runtime),
  2. offline transfer error (band + analytic-inverse cross-check, also
     for the training seeds 1-10 over a 12 s horizon),
  3. online correction error and prediction accuracy,
  4. machine-precision tracking with the exact error oracle,
  5. similarity vector values,
  6. the sufficient boundedness condition against 48 s runs,
  7. the numeric property suites and determinism,
  8. the documented scope of hardware-scale results.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xfertrack import inverse
from xfertrack.bench import build_training_dataset, run_comparison, run_strategy
from xfertrack.control import (EstimatedGain, TransferController,
                               track_trajectory)
from xfertrack.gp import BASIS_PRIOR_VARIANCE, GpCfg, GpHyperparams, GpWindowModel
from xfertrack.inverse import (AnalyticInverse, InverseDataset, TrainingConfig,
                               train_mlp)
from xfertrack.stability import (assemble_budget, fit_prediction_budget,
                                 lemma1_check, similarity)

from conftest import record_criterion
from helpers import (AffineErrorOracle, basis_features, hyper_model, kernel,
                     random_stable_system, reference_trajectory, source_system,
                     target_system)

BASELINE_RMS = 3.97
BASELINE_BAND = 0.10
OFFLINE_BAND = (0.22, 0.88)
ANALYTIC_REL = 0.15
ONLINE_RMS_MAX = 1e-3
PREDICTION_RMS_MAX = 1e-5
IDEAL_ERR_MAX = 1e-10


def test_criterion_1_baseline_band(baseline_timing):
    rms, wall = baseline_timing
    in_band = abs(rms - BASELINE_RMS) <= BASELINE_BAND * BASELINE_RMS
    fast = wall < 5.0
    record_criterion(1, "baseline pass-through RMS", in_band and fast,
                     f"rms={rms:.4f} (want {BASELINE_RMS}±10%), "
                     f"wall={wall:.2f}s (< 5s)")
    assert in_band, f"baseline rms {rms} outside {BASELINE_RMS}±10%"
    assert fast, f"baseline took {wall:.2f}s"


def test_criterion_2_offline_transfer(bench_report, analytic_offline_rms):
    mlp_rms = bench_report.strategies["offline"]["rms_tracking"]
    in_band = OFFLINE_BAND[0] <= mlp_rms <= OFFLINE_BAND[1]
    rel = abs(analytic_offline_rms - mlp_rms) / mlp_rms
    close = rel <= ANALYTIC_REL
    record_criterion(2, "offline transfer RMS", in_band and close,
                     f"mlp={mlp_rms:.4f} (want [{OFFLINE_BAND[0]}, "
                     f"{OFFLINE_BAND[1]}]), analytic={analytic_offline_rms:.4f} "
                     f"(rel diff {rel:.1%}, want <= 15%)")
    assert in_band, f"offline rms {mlp_rms} outside {OFFLINE_BAND}"
    assert close, f"analytic inverse differs by {rel:.1%} > 15%"


@pytest.fixture(scope="module")
def bundled_excitation(bench_config):
    return build_training_dataset(bench_config, source_system())


@pytest.fixture(scope="module")
def twelve_second_offline(bench_config):
    """The bundled config over 12 s of tracking, and the analytic inverse's
    offline RMS over those 12 s."""
    cfg = replace(bench_config,
                  trajectory=replace(bench_config.trajectory, duration_s=12.0))
    res = run_strategy(cfg, "offline", inverse=AnalyticInverse(source_system()))
    return cfg, res.rms_tracking


@pytest.mark.parametrize("seed", range(1, 11))
def test_criterion_2_holds_for_every_training_seed(seed, bundled_excitation,
                                                   twelve_second_offline):
    # criterion 2's analytic cross-check with the bundled mlp section,
    # trained from each seed; a 12 s horizon keeps it cheap
    cfg, analytic_rms = twelve_second_offline
    model = train_mlp(bundled_excitation, cfg.mlp, seed=seed)
    mlp_rms = run_strategy(cfg, "offline", inverse=model).rms_tracking
    rel = abs(analytic_rms - mlp_rms) / mlp_rms
    assert rel <= ANALYTIC_REL, f"seed {seed}: analytic inverse differs by {rel:.1%}"


def test_criterion_3_online_correction(bench_report):
    on = bench_report.strategies["online"]
    rms = on["rms_tracking"]
    pred = on["rms_prediction"]
    ok = rms <= ONLINE_RMS_MAX and pred <= PREDICTION_RMS_MAX
    record_criterion(3, "online correction RMS", ok,
                     f"tracking={rms:.3e} (<= 1e-3), prediction={pred:.3e} "
                     f"(<= 1e-5); past window fill: tracking="
                     f"{on['rms_tracking_warm']:.3e}, prediction="
                     f"{on['rms_prediction_warm']:.3e}")
    assert rms <= ONLINE_RMS_MAX, f"online rms {rms}"
    assert pred <= PREDICTION_RMS_MAX, f"prediction rms {pred}"


def test_criterion_4_exact_oracle_stack():
    target = target_system()
    ctrl = TransferController(AnalyticInverse(source_system()), r=target.r,
                              online=AffineErrorOracle(target),
                              gain=EstimatedGain())
    traj = reference_trajectory()
    trace, log = track_trajectory(target, ctrl, traj)
    yd = traj.values(traj.n_steps + target.r)
    err = float(np.abs(trace.outputs[target.r:]
                       - yd[target.r:traj.n_steps + 1]).max())
    alphas = np.unique(log.column("alpha"))
    ok = err <= IDEAL_ERR_MAX and alphas.tolist() == [1.0]
    record_criterion(4, "exact-oracle tracking", ok,
                     f"max |y - y_d| = {err:.2e} over 48s (<= 1e-10), "
                     f"estimated gain locked at 1/input-gain = 1")
    assert err <= IDEAL_ERR_MAX
    assert alphas.tolist() == [1.0]


def test_criterion_5_similarity_values():
    S = similarity(source_system(), target_system())
    exact = (abs(S.s1) <= 1e-12
             and np.allclose(S.s2, [-0.09, 0.3], rtol=0, atol=1e-12))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s = random_stable_system(rng)
        self_sim = similarity(s, s)
        worst = max(worst, abs(self_sim.s1), self_sim.s2_norm)
    ok = exact and worst <= 1e-12
    record_criterion(5, "similarity vector", ok,
                     f"pair: S1={S.s1:.1e}, S2={S.s2.tolist()} "
                     f"(want (0, [-0.09, 0.3]) to 1e-12); worst self-"
                     f"similarity over 100 random systems {worst:.1e}")
    assert exact
    assert worst <= 1e-12


def test_criterion_6_boundedness_condition(bench_config, bench_report):
    # fit the prediction-error budget from the online run, then check the
    # sufficient condition over a gain grid; every certified gain must
    # yield a bounded 48 s run
    source, target = source_system(), target_system()
    log = bench_report.logs["online"]
    r = target.r
    traj = bench_config.trajectory.build()
    yd = traj.values(traj.n_steps + r)
    k = log.column("k").astype(int)
    keep = k >= r
    lam = (log.column("e_p") - log.column("e_p_star"))[keep]
    a = np.abs(yd[k[keep] + r])
    b = np.linalg.norm(log.states[keep], axis=1)
    betas = fit_prediction_budget(np.column_stack([lam, a, b]))
    valid = bool(np.all(np.abs(lam) <= betas[0] * a + betas[1] * b
                        + betas[2] + 1e-9))
    budget = assemble_budget(source, target, betas=betas)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 40)])
    certified = [float(al) for al in grid
                 if lemma1_check(source, target, budget, al).status
                 == "satisfied"]
    # the pair's gain-ratio scenario fails (beta4 < 0), so the condition
    # certifies no gain and the run-boundedness implication is vacuous;
    # the bundled online runs are bounded regardless (criterion 3)
    unbounded_certified = []
    for al in certified:
        res = run_strategy(bench_config, "online",
                           inverse=AnalyticInverse(source),
                           alpha_override=al)
        if res.aborted:
            unbounded_certified.append(al)
    ok = valid and not unbounded_certified
    beta4 = budget.beta4
    if certified:
        detail = (f"betas=({betas[0]:.3g}, {betas[1]:.3g}, {betas[2]:.3g}), "
                  f"beta4={beta4:.3f}; {len(certified)} certified gains all "
                  f"bounded over 48s")
    else:
        detail = (f"betas=({betas[0]:.3g}, {betas[1]:.3g}, {betas[2]:.3g}), "
                  f"beta4={beta4:.3f} < 0: condition certifies no gain for "
                  f"this pair, implication holds vacuously")
    record_criterion(6, "sufficient boundedness condition", ok, detail)
    assert valid, "fitted budget does not bound its own samples"
    assert not unbounded_certified, unbounded_certified


def test_criterion_7_property_suites(bench_config, monkeypatch):
    checks = []

    src, tgt = source_system(), target_system()
    poles_ok = (np.allclose(sorted(src.poles.real), [0.3, 0.5], atol=1e-9)
                and np.allclose(sorted(tgt.poles.real), [0.4, 0.6], atol=1e-9)
                and max(abs(src.poles.imag).max(),
                        abs(tgt.poles.imag).max()) <= 1e-9)
    zeros_ok = (np.allclose(src.zeros.real, [0.2], atol=1e-9)
                and np.allclose(tgt.zeros.real, [0.1], atol=1e-9))
    checks.append(("poles/zeros", poles_ok and zeros_ok))

    gp = GpWindowModel(1, GpCfg(capacity=15, optimize=False))
    for i in range(40):
        gp.observe([float(i)], float(i))
    checks.append(("window eviction",
                   gp._X[:, 0].tolist() == list(range(25, 40))))

    rng = np.random.default_rng(3)
    gp = hyper_model(3, GpHyperparams(1.4, 0.9, 1e-5), capacity=15, optimize=False)
    for _ in range(15):
        gp.observe(rng.standard_normal(3), float(rng.standard_normal()))
    X = gp._X
    K = np.array([[kernel(p, q, gp.hyper) for q in X] for p in X])
    H = basis_features(X)
    target_mat = (K + BASIS_PRIOR_VARIANCE * H @ H.T
                  + (gp.hyper.noise_variance + gp.jitter) * np.eye(len(X)))
    L = gp._cache.L
    rel = (np.linalg.norm(L @ L.T - target_mat)
           / np.linalg.norm(target_mat))
    checks.append(("cholesky reconstruction", rel <= 1e-10))

    rng = np.random.default_rng(42)
    fd_ok = True
    for _ in range(120):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 16))
        hyper = GpHyperparams(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_variance=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(1e-6, 1e-3)))
        gp = hyper_model(d, hyper, capacity=16, optimize=False)
        for _ in range(n):
            gp.observe(rng.standard_normal(d), float(rng.standard_normal()))
        q = rng.standard_normal(d)
        dim = int(rng.integers(0, d))
        h = 1e-5
        lo, hi = q.copy(), q.copy()
        lo[dim] -= h
        hi[dim] += h
        fd = (gp.predict(hi) - gp.predict(lo)) / (2 * h)
        if abs(gp.mean_derivative(q, dim) - fd) > 1e-4 * max(abs(fd), 1e-8):
            fd_ok = False
            break
    checks.append(("gp derivative vs fd (120 windows)", fd_ok))

    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    monkeypatch.setattr(inverse, "HIDDEN", (3, 2))
    monkeypatch.setattr(inverse, "BATCH_SIZE", 6)
    model = train_mlp(InverseDataset(inputs=X, labels=y), TrainingConfig(epochs=1),
                      seed=0)
    Xn = model.normalize(X)
    yn = (y - model.out_mean) / model.out_std
    _, grad = model.loss_and_grads(Xn, yn)
    dWs, dbs = model.views(grad)
    h = 1e-6
    grad_ok = True
    for params, grads in ((model.weights, dWs), (model.biases, dbs)):
        for li, P in enumerate(params):
            for idx in np.ndindex(*P.shape):
                keep = P[idx]
                P[idx] = keep + h
                lp, _ = model.loss_and_grads(Xn, yn)
                P[idx] = keep - h
                lm, _ = model.loss_and_grads(Xn, yn)
                P[idx] = keep
                fd = (lp - lm) / (2 * h)
                if abs(grads[li][idx] - fd) > 1e-5 * max(abs(fd), 1e-6):
                    grad_ok = False
    checks.append(("mlp gradient vs fd", grad_ok))

    cfg = replace(bench_config, inverse_mode="analytic",
                  trajectory=replace(bench_config.trajectory, duration_s=2.0))
    digest_a = run_comparison(cfg).digest()
    digest_b = run_comparison(cfg).digest()
    checks.append(("report determinism", digest_a == digest_b))

    failed = [name for name, ok in checks if not ok]
    record_criterion(7, "property suites", not failed,
                     "all numeric property checks hold"
                     if not failed else f"failed: {', '.join(failed)}")
    assert not failed, failed


def test_criterion_8_scope_of_hardware_results():
    readme = Path(__file__).parents[1] / "README.md"
    text = readme.read_text() if readme.exists() else ""
    documented = "hardware" in text.lower() and "scope" in text.lower()
    record_criterion(8, "hardware-scale results scope", documented,
                     "README documents that physical-testbed error "
                     "reductions are out of scope for this package"
                     if documented else "README scope note missing")
    assert documented, "README must document the hardware-results scope"
