"""Benchmark harness: config validation, metrics, strategy nesting,
reproducible reports, and the gain sweep."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import xfertrack
from xfertrack import bench
from xfertrack import gp as gp_module
from xfertrack.bench import (BenchConfig, ConfigError, GpCfg, SystemCfg,
                             TrajectoryCfg, alpha_sweep,
                             build_training_dataset, config_digest,
                             default_benchmark_config, metrics,
                             run_comparison, run_strategy)
from xfertrack.cli import EXIT_CONFIG, main
from xfertrack.gp import GpWindowModel
from xfertrack.inverse import AnalyticInverse

from helpers import error_log, reference_trajectory, source_system


def short_config(duration=3.0, **kwargs):
    cfg = default_benchmark_config(inverse_mode="analytic")
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=duration))
    return replace(cfg, **kwargs) if kwargs else cfg


# -- config --------------------------------------------------------------------


def test_yaml_roundtrip(tmp_path):
    cfg = default_benchmark_config()
    path = tmp_path / "bench.yaml"
    cfg.to_yaml(path)
    back = BenchConfig.from_yaml(path)
    assert back == cfg
    assert config_digest(back) == config_digest(cfg)


def test_config_digest_sensitivity():
    a = default_benchmark_config()
    b = default_benchmark_config()
    assert config_digest(a) == config_digest(b)
    c = replace(a, seed=14)
    assert config_digest(c) != config_digest(a)


def test_bundled_config_digests_pinned():
    # every report's config section hashes to these; a renamed, added or
    # dropped config field changes them
    assert config_digest(default_benchmark_config()) == (
        "14b3c2a7c81b89a854e359dd296513ceec0f33f89900346af7b6464099b4f198")
    assert config_digest(default_benchmark_config(inverse_mode="analytic")) == (
        "ebe768a83d56c54fe1f33061a8aa6a52045a973f2ac9c0809d98a69480345454")


def test_all_defaults_config_digest_pinned():
    # the defaults the bundled config overrides (noise_variance0,
    # smoothing, ...) are pinned here
    b = default_benchmark_config()
    assert config_digest(BenchConfig(source=b.source, target=b.target)) == (
        "558b72247d3fed1e800ebf7e199c4f2ebb601963030d539be041e9cdd2412caf")


def test_excitation_dataset_pinned():
    # the MLP's training pairs from the bundled source, shortened to 2 s
    # per excitation sinusoid
    cfg = default_benchmark_config()
    cfg = replace(cfg, mlp=replace(cfg.mlp, train_duration_s=2.0))
    ds = build_training_dataset(cfg, cfg.source.build())
    assert hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest() == (
        "9ea4aa6712dea614288d800e08ff490c0b02a9f6a85e4056cda4c1292d0fca21")


def test_bad_system_matrices():
    cfg = default_benchmark_config()
    with pytest.raises(ConfigError, match="matrices"):
        replace(cfg, source=SystemCfg(a=[[0.0, 1.0]], b=[0.0, 1.0],
                                      c=[-0.2, 1.0]))


def test_misaligned_sinusoid_lists():
    traj = TrajectoryCfg(amplitudes=[1.0, 1.0], periods_s=[8.0],
                         phases=[0.0, 0.0])
    with pytest.raises(ConfigError, match="align"):
        traj.build()


def test_nonpositive_period_rejected():
    with pytest.raises(ConfigError, match="period"):
        TrajectoryCfg(amplitudes=[1.0], periods_s=[0.0], phases=[0.0]).build()


def test_period_with_infinite_frequency_rejected():
    # 2 pi / 1e-320 overflows: the trajectory would be NaN and every
    # strategy would abort
    with pytest.raises(ConfigError, match="periods_s"):
        TrajectoryCfg(amplitudes=[1.0], periods_s=[1e-320], phases=[0.0]).build()


def test_csv_kind_requires_path():
    with pytest.raises(ConfigError, match="csv_path"):
        TrajectoryCfg(kind="csv").build()


def test_unknown_trajectory_kind():
    with pytest.raises(ConfigError, match="kind"):
        TrajectoryCfg(kind="triangle").build()


def test_unknown_inverse_mode_and_strategy():
    raw = default_benchmark_config().to_dict()
    raw["inverse_mode"] = "table"
    with pytest.raises(ConfigError, match="inverse_mode"):
        BenchConfig.from_dict(raw)
    raw = default_benchmark_config().to_dict()
    raw["strategy"] = "turbo"
    with pytest.raises(ConfigError, match="strategy"):
        BenchConfig.from_dict(raw)


def test_unknown_key_rejected():
    raw = default_benchmark_config().to_dict()
    raw["not_a_field"] = 1
    with pytest.raises(ConfigError, match="structure"):
        BenchConfig.from_dict(raw)


def test_yaml_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        BenchConfig.from_yaml(path)


def test_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(ConfigError, match="YAML"):
        BenchConfig.from_yaml(path)


def test_gp_capacity_validated():
    with pytest.raises(ValueError, match="capacity"):
        GpWindowModel(4, GpCfg(capacity=0))


@pytest.mark.parametrize("field, value", [
    ("length_scale0", math.nan), ("signal_variance0", math.inf),
    ("noise_variance0", math.inf)])
def test_gp_nonfinite_settings_rejected(field, value):
    if field != "noise_variance0":  # the starting hyperparameters GpCfg dropped
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            replace(GpCfg(), **{field: value})
        return
    with pytest.raises(ValueError, match="finite"):
        GpWindowModel(4, replace(GpCfg(), **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("dt", math.nan), ("dt", math.inf), ("duration_s", math.nan),
    ("duration_s", math.inf)])
def test_nonfinite_trajectory_timing_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
        replace(TrajectoryCfg(), **{field: value}).build()


def test_default_trajectory_matches_reference_signal():
    built = TrajectoryCfg().build()
    ref = reference_trajectory()
    assert built.n_steps == ref.n_steps
    np.testing.assert_allclose(built.values(100), ref.values(100), atol=1e-15)


# -- metrics -------------------------------------------------------------------


def test_metrics_constant_error():
    log = error_log(np.full(50, 2.0))
    m = metrics(log, 1)
    assert m.rms_tracking == 2.0
    assert m.rms_prediction is None


def test_metrics_perfect_tracking():
    log = error_log(np.zeros(50))
    assert metrics(log, 1).rms_tracking == 0.0


def test_metrics_startup_exclusion_modes():
    # error 5 on k < 15, zero afterwards; the wider exclusion removes it
    log = error_log(np.where(np.arange(60) < 15, 5.0, 0.0))
    narrow = metrics(log, 1)
    wide = metrics(log, 15)
    assert narrow.rms_tracking == pytest.approx(math.sqrt(14 * 25.0 / 59))
    assert wide.rms_tracking == 0.0


def test_metrics_log_too_short():
    log = error_log(np.ones(3))
    with pytest.raises(ValueError, match="short"):
        metrics(log, 5)


def test_reported_rms_recomputable_from_log(bench_report):
    res = bench_report.logs["online"]
    k = res.column("k")
    keep = k >= 1
    y, yd = res.column("y"), res.column("y_d")
    rms = float(np.sqrt(np.mean((yd[keep] - y[keep]) ** 2)))
    reported = bench_report.strategies["online"]["rms_tracking"]
    assert rms == pytest.approx(reported, rel=1e-12)
    e_p, e_star = res.column("e_p"), res.column("e_p_star")
    rms_p = float(np.sqrt(np.mean((e_p[keep] - e_star[keep]) ** 2)))
    assert rms_p == pytest.approx(
        bench_report.strategies["online"]["rms_prediction"], rel=1e-12)


# -- strategy nesting ----------------------------------------------------------


def test_online_with_zero_gain_equals_offline():
    cfg = short_config()
    inv = AnalyticInverse(source_system())
    off = run_strategy(cfg, "offline", inverse=inv)
    on = run_strategy(cfg, "online", inverse=inv, alpha_override=0.0)
    np.testing.assert_array_equal(on.log.column("y"), off.log.column("y"))
    np.testing.assert_array_equal(on.log.column("u"), off.log.column("u"))
    assert on.rms_tracking == off.rms_tracking


def test_bundled_report_digest_pinned(bench_report):
    # the full bundled comparison, MLP training included, is bit-identical
    # to the recorded run; a change that moves it must say so
    assert bench_report.digest() == (
        "fe7b03c59d96f23d75b595023d62e047c0844a372b6b49663d0b9b9679197c3a")


def test_bundled_strategies_digest_pinned(bench_report):
    # the bundled run's numbers alone, apart from its config section: a
    # change to the config schema moves the report digest but not this one
    payload = bench.canonical_json(bench_report.strategies).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "d351ff337eaae89b77b6f3502273406b9e1578e29b4d5751e7a60b968a303579")


def test_online_improves_on_offline(bench_report):
    off = bench_report.strategies["offline"]["rms_tracking"]
    on = bench_report.strategies["online"]["rms_tracking"]
    assert on < off / 100.0


def test_warm_metrics_reported_for_online(bench_report):
    on = bench_report.strategies["online"]
    assert "rms_tracking_warm" in on
    assert on["rms_tracking_warm"] <= on["rms_tracking"] * 10
    assert "rms_tracking_warm" not in bench_report.strategies["offline"]


@pytest.mark.parametrize("duration, warm", [(0.012, False), (0.024, True)])
def test_warm_metrics_need_a_step_past_the_window(duration, warm):
    # 8 steps end before the window fills at k = 15, 16 steps reach it; the
    # comparison reports all three strategies either way
    rep = run_comparison(short_config(duration=duration))
    on = rep.strategies["online"]
    assert not on["aborted"]
    assert ("rms_tracking_warm" in on) is warm
    assert ("rms_prediction_warm" in on) is warm
    for s in rep.strategies.values():
        assert s["rms_tracking"] is not None


# -- comparison runs -----------------------------------------------------------


def test_analytic_comparison_digests_pinned(tmp_path):
    # the regression oracle for changes meant to be bit-identical; a change
    # that moves these values updates them and says so
    rep = run_comparison(short_config(duration=4.0), out_dir=tmp_path)
    assert rep.digest() == (
        "74784b290197e1bb7ac4e2510f76f3bf5ee78ec8d673295ee337caef841379b5")
    csv_sha256 = {
        "baseline": "ba6f3fb88c73f14d896e1ca35636585f6df7cb7fc8604f46031e39456f4a0cd5",
        "offline": "014effe75b410a3f99bf7df3d93ee7d647a84279fff9b9e02946087fa669208f",
        "online": "6ab0990636f711a7260f7de058e9cf72d80bd3bc2453bafe8bfe54656a097372",
    }
    for name, want in csv_sha256.items():
        data = (tmp_path / f"{name}_steps.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, name


def test_results_do_not_depend_on_blas_thread_count(tmp_path):
    # a short analytic comparison, whose online run fits the GP
    # hyperparameters when its window fills, gives the same report and
    # online step log with one OpenBLAS thread as with two: the GP calls no
    # routine whose rounding depends on how the work is split
    code = textwrap.dedent("""
        import sys
        from dataclasses import replace
        from xfertrack.bench import default_benchmark_config, run_comparison
        cfg = default_benchmark_config(inverse_mode="analytic")
        cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=2.0))
        print(run_comparison(cfg, out_dir=sys.argv[1]).digest())
    """)
    src = str(Path(xfertrack.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / threads)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        runs.append((out.stdout, (tmp_path / threads / "online_steps.csv").read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_comparison_report_is_reproducible(tmp_path):
    cfg = short_config()
    a = run_comparison(cfg, out_dir=tmp_path / "a")
    b = run_comparison(cfg, out_dir=tmp_path / "b")
    assert a.digest() == b.digest()
    assert a.wall_time_s != 0.0
    assert (tmp_path / "a" / "report.json").exists()
    assert (tmp_path / "a" / "online_steps.csv").exists()


def test_divergence_isolated_per_strategy():
    # a tiny input guard kills the controlled strategies at the first step
    # but the baseline, which applies no inverse, still completes
    cfg = short_config(u_max=1e-12)
    rep = run_comparison(cfg)
    assert rep.strategies["baseline"]["aborted"] is False
    assert rep.strategies["baseline"]["rms_tracking"] > 0
    for name in ("offline", "online"):
        assert rep.strategies[name]["aborted"] is True
        assert rep.strategies[name]["abort_step"] == 0
        assert rep.strategies[name]["rms_tracking"] is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_aborted_baseline_keeps_its_log():
    # an unstable target overflows under the pass-through input; the abort
    # is recorded with the log up to the failing step
    unstable = SystemCfg(a=[[0.0, 1.0], [-0.24, 3.0]], b=[0.0, 1.0], c=[-0.1, 1.0])
    res = run_strategy(short_config(duration=4.0, target=unstable), "baseline")
    assert res.aborted and res.abort_step == 669
    assert res.log is not None
    assert len(res.log) == res.abort_step
    assert np.isfinite(res.log.states).all()


def test_failed_factorization_is_a_recorded_abort(monkeypatch):
    # at basis prior variance 1e14 the window covariance fails Cholesky even
    # at the largest jitter; the online run ends as an abort with its log
    monkeypatch.setattr(gp_module, "BASIS_PRIOR_VARIANCE", 1e14)
    cfg = short_config(duration=0.2)
    cfg = replace(cfg, gp=replace(cfg.gp, optimize=False))
    res = run_strategy(cfg, "online")
    assert res.aborted and 0 < res.abort_step < res.steps
    assert len(res.log) == res.abort_step


def test_config_made_in_code_is_checked():
    # replace() makes a new config, so it gets the checks a YAML file gets
    with pytest.raises(ConfigError, match="inverse_mode"):
        replace(default_benchmark_config(), inverse_mode="Analytic")


def test_x0_honored():
    cfg = short_config(duration=1.0)
    shifted = replace(cfg, x0=[5.0, -3.0])
    res0 = run_strategy(cfg, "baseline")
    res1 = run_strategy(shifted, "baseline")
    np.testing.assert_array_equal(res1.log.states[0], [5.0, -3.0])
    assert res1.rms_tracking != res0.rms_tracking


def test_array_x0_and_sweep_alphas_are_stored_as_lists(tmp_path):
    # numpy arrays passed the checks, then broke report.json, the config
    # digest and to_yaml, after every strategy had run
    listed = short_config(duration=0.3, x0=[0.01, 0.0], sweep_alphas=[0.0, 0.5])
    cfg = replace(listed, x0=np.array([0.01, 0.0]), sweep_alphas=np.array([0.0, 0.5]))
    assert cfg.x0 == [0.01, 0.0] and cfg.sweep_alphas == [0.0, 0.5]
    assert config_digest(cfg) == config_digest(listed)
    run_comparison(cfg, out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config_digest"] == config_digest(listed)
    cfg.to_yaml(tmp_path / "cfg.yaml")
    back = BenchConfig.from_yaml(tmp_path / "cfg.yaml")
    assert config_digest(back) == config_digest(listed)


def test_alpha_sweep_contains_offline_at_zero(tmp_path):
    cfg = short_config()
    off = run_strategy(cfg, "offline",
                       inverse=AnalyticInverse(source_system()))
    payload = alpha_sweep(cfg, [0.0, 1.0], out_dir=tmp_path)
    assert payload["version"] == "1"
    assert [row["alpha"] for row in payload["sweep"]] == [0.0, 1.0]
    zero = payload["sweep"][0]
    assert zero["bounded"] is True
    assert zero["rms_tracking"] == pytest.approx(off.rms_tracking, rel=1e-12)
    assert (tmp_path / "alpha_sweep.json").exists()


@pytest.mark.parametrize("command", ["compare", "sweep-alpha"],
                         ids=["run_comparison", "alpha_sweep"])
def test_bad_trajectory_fails_before_training(tmp_path, capsys, monkeypatch,
                                              command):
    trained = []
    monkeypatch.setattr(bench, "train_mlp",
                        lambda *args, **kwargs: trained.append(1))
    cfg = default_benchmark_config()
    raw = replace(cfg, mlp=replace(cfg.mlp, epochs=2, train_duration_s=2.0),
                  sweep_alphas=[0.0]).to_dict()
    raw["trajectory"]["duration_s"] = math.inf
    path = tmp_path / "raw.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    assert "duration_s" in capsys.readouterr().err
    assert trained == []


def test_run_strategy_rejects_unknown_name():
    with pytest.raises(ConfigError, match="strategy"):
        run_strategy(short_config(), "hybrid",
                     inverse=AnalyticInverse(source_system()))
