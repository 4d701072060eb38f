"""Inverse models: dataset extraction, the closed-form reference law,
MLP training, gradients, and persistence."""

from dataclasses import replace

import numpy as np
import pytest

from xfertrack import inverse
from xfertrack.bench import run_strategy
from xfertrack.inverse import (AnalyticInverse, InverseDataset, MlpInverseModel,
                               SingularInverse, TrainingConfig,
                               TrainingDiverged, build_inverse_dataset,
                               train_mlp)
from xfertrack.systems import NonlinearSystem, SimTrace, simulate
from xfertrack.trajectory import SinusoidTrajectory

from helpers import affine_lstsq_inverse, source_system


def toy_trace(T, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return SimTrace(states=rng.standard_normal((T + 1, n)),
                    inputs=rng.standard_normal(T),
                    outputs=rng.standard_normal(T + 1))


# -- dataset extraction --------------------------------------------------------


def test_sample_count_for_relative_degree_one():
    # T = 10 applied inputs, r = 1: pairs are (x(k), y(k+1)) -> u(k) for
    # k = 0..9, so exactly 10 samples
    ds = build_inverse_dataset([toy_trace(10)], r=1)
    assert ds.inputs.shape == (10, 3)
    assert ds.labels.shape == (10,)


def test_pairing_uses_future_output():
    trace = toy_trace(6, seed=1)
    ds = build_inverse_dataset([trace], r=2)
    # sample k stacks the state at k with the output r steps later
    for k in range(ds.inputs.shape[0]):
        np.testing.assert_array_equal(ds.inputs[k, :2], trace.states[k])
        assert ds.inputs[k, 2] == trace.outputs[k + 2]
        assert ds.labels[k] == trace.inputs[k]


def test_short_traces_skipped_with_log_notice(caplog):
    long, short = toy_trace(8), toy_trace(1)
    with caplog.at_level("WARNING"):
        ds = build_inverse_dataset([long, short], r=2)
    assert ds.inputs.shape[0] == 7
    assert any("skipped" in rec.message for rec in caplog.records)


def test_all_traces_too_short_raises():
    with pytest.raises(ValueError, match="long enough"):
        build_inverse_dataset([toy_trace(1)], r=3)


def test_zero_trace_gives_zero_labels():
    trace = SimTrace(states=np.zeros((11, 2)), inputs=np.zeros(10),
                     outputs=np.zeros(11))
    ds = build_inverse_dataset([trace], r=1)
    np.testing.assert_array_equal(ds.labels, 0.0)


def test_subsample_stride():
    ds = build_inverse_dataset([toy_trace(20)], r=1, subsample=5)
    full = build_inverse_dataset([toy_trace(20)], r=1)
    np.testing.assert_array_equal(ds.inputs, full.inputs[::5])
    np.testing.assert_array_equal(ds.labels, full.labels[::5])


# -- analytic inverse ----------------------------------------------------------


def test_reference_law_hand_values():
    # source lifted form: y(k+1) = [-0.15, 0.6] x + u
    inv = AnalyticInverse(source_system())
    assert inv.reference(np.array([0.0, 0.0]), 1.0) == pytest.approx(1.0)
    x = np.array([1.0, 2.0])
    ahead = float(np.array([-0.15, 0.6]) @ x)
    assert inv.reference(x, ahead) == pytest.approx(0.0, abs=1e-15)


def test_reference_tracks_exactly_in_closed_loop():
    sys = source_system()
    inv = AnalyticInverse(sys)
    traj = SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(2 * np.pi / 8,),
                              phases=(0.0,), offset=-1.0, dt=1.5e-3,
                              duration=0.3)
    yd = traj.values(traj.n_steps + sys.r)

    def policy(k, x, yd_ahead):
        return inv.reference(x, yd_ahead)

    trace = simulate(sys, policy, traj)
    err = np.abs(trace.outputs[sys.r:] - yd[sys.r:traj.n_steps + 1])
    assert err.max() <= 1e-10


def test_singular_inverse_raises():
    # input gain x vanishes at the origin
    nl = NonlinearSystem(n=1,
                         f=lambda x: 0.5 * x,
                         g=lambda x: x,
                         h=lambda x: float(x[0]),
                         r=1,
                         F=lambda x: 0.5 * x[0],
                         G=lambda x: x[0])
    inv = AnalyticInverse(nl)
    with pytest.raises(SingularInverse):
        inv.reference(np.array([0.0]), 1.0)


# -- MLP training --------------------------------------------------------------


def small_dataset(seed=0, n=400):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.1
    return InverseDataset(inputs=X, labels=y)


def test_training_is_deterministic(monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (8,))
    cfg = TrainingConfig(epochs=10)
    a = train_mlp(small_dataset(), cfg, seed=3)
    b = train_mlp(small_dataset(), cfg, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.validation_rmse == b.validation_rmse
    c = train_mlp(small_dataset(), cfg, seed=4)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


def test_empty_dataset_rejected():
    empty = InverseDataset(inputs=np.zeros((0, 3)), labels=np.zeros(0))
    with pytest.raises(ValueError):
        train_mlp(empty, TrainingConfig(epochs=1))


def test_nonfinite_labels_abort_immediately(monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    ds = small_dataset()
    ds.labels[5] = np.inf
    with pytest.raises(TrainingDiverged) as info:
        train_mlp(ds, TrainingConfig(epochs=5))
    assert info.value.epoch == 0


def test_validation_error_on_benchmark_dataset(bench_report):
    assert bench_report.mlp_validation_rmse is not None
    assert bench_report.mlp_validation_rmse <= 1e-3


def test_mlp_closed_loop_comparable_to_linear_fit(bench_report, bench_config):
    # the network's open-target tracking error should sit within a factor
    # of two of a plain least-squares affine inverse on the same data
    from xfertrack.bench import build_training_dataset

    cfg = replace(bench_config, inverse_mode="analytic")
    dataset = build_training_dataset(cfg, source_system())
    affine = affine_lstsq_inverse(dataset)
    ref = run_strategy(cfg, "offline", inverse=affine)
    mlp_rms = bench_report.strategies["offline"]["rms_tracking"]
    assert mlp_rms <= 2.0 * ref.rms_tracking



def test_training_returns_best_validation_parameters(monkeypatch):
    # noisy labels and a large step: the validation MSE bottoms out early
    # and the last epoch is no new best, so restoring the best weights
    # (in place, under the weight views) is what this checks
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(60, 3))
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.1 + 0.5 * rng.standard_normal(60)
    ds = InverseDataset(inputs=X, labels=y)
    for name, value in (("HIDDEN", (16,)), ("BATCH_SIZE", 8), ("LEARNING_RATE", 1e-2),
                        ("VAL_FRACTION", 0.25), ("PATIENCE", 20)):
        monkeypatch.setattr(inverse, name, value)
    cfg = TrainingConfig(epochs=20)
    model = train_mlp(ds, cfg, seed=2)
    assert model.epochs_run == cfg.epochs
    one_short = train_mlp(ds, replace(cfg, epochs=cfg.epochs - 1), seed=2)
    assert one_short.validation_rmse == model.validation_rmse

    perm = np.random.default_rng(2).permutation(len(ds))
    val = perm[:max(1, int(round(inverse.VAL_FRACTION * len(ds))))]
    Xn = model.normalize(X[val])
    yn = (y[val] - model.out_mean) / model.out_std
    rmse = float(np.sqrt(float(np.mean((model.forward(Xn) - yn) ** 2))))
    assert rmse == model.validation_rmse

def test_normalization_roundtrip(monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    rng = np.random.default_rng(5)
    model = train_mlp(small_dataset(), TrainingConfig(epochs=2), seed=0)
    X = rng.uniform(-1, 1, size=(20, 3))
    Z = model.normalize(X)
    back = Z * model.in_std + model.in_mean
    np.testing.assert_allclose(back, X, atol=1e-12)


def test_gradients_match_finite_differences(monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (3, 2))
    monkeypatch.setattr(inverse, "BATCH_SIZE", 6)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    model = train_mlp(InverseDataset(inputs=X, labels=y), TrainingConfig(epochs=1),
                      seed=0)
    Xn = model.normalize(X)
    yn = (y - model.out_mean) / model.out_std
    _, grad = model.loss_and_grads(Xn, yn)
    dWs, dbs = model.views(grad)
    h = 1e-6
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
                assert abs(grads[li][idx] - fd) <= 1e-5 * max(abs(fd), 1e-6)


def test_save_load_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    model = train_mlp(small_dataset(), TrainingConfig(epochs=3), seed=1)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = MlpInverseModel.load(path)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 3))
    np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
    for wa, wb in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(wa, wb)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, format="something-else")
    with pytest.raises(ValueError, match="format"):
        MlpInverseModel.load(path)



def test_load_rejects_misshapen_weights(tmp_path, monkeypatch):
    # W0 of a 3-4-1 network transposed: the right number of weights in the
    # wrong shape must not load as scrambled parameters
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    model = train_mlp(small_dataset(), TrainingConfig(epochs=1), seed=1)
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    model.save(good)
    with np.load(good) as data:
        payload = dict(data)
    payload["W0"] = payload["W0"].T
    np.savez(bad, **payload)
    with pytest.raises(ValueError, match="W0"):
        MlpInverseModel.load(bad)


def test_load_rejects_missing_weights(tmp_path, monkeypatch):
    # a 3-4-1 network without its second weight matrix names the key
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    model = train_mlp(small_dataset(), TrainingConfig(epochs=1), seed=1)
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    model.save(good)
    with np.load(good) as data:
        payload = dict(data)
    del payload["W1"]
    np.savez(bad, **payload)
    with pytest.raises(ValueError, match="W1 is missing"):
        MlpInverseModel.load(bad)

def test_affine_lstsq_recovers_exact_coefficients():
    ds = small_dataset()
    inv = affine_lstsq_inverse(ds)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        yd = float(rng.uniform(-1, 1))
        want = np.array([x[0], x[1], yd]) @ np.array([0.5, -1.0, 2.0]) + 0.1
        assert inv.reference(x, yd) == pytest.approx(want, abs=1e-12)
