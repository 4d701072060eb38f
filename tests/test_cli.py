"""Command-line interface: exit codes, emitted JSON/CSV, file outputs."""

import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

from xfertrack import bench, inverse
from xfertrack import gp as gp_module
from xfertrack.bench import ConfigError, default_benchmark_config
from xfertrack.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main)
from xfertrack.inverse import MlpInverseModel, TrainingDiverged

from helpers import REMOVED_CONFIG_KEYS

REMOVED_KEYS = {key for _, key, _ in REMOVED_CONFIG_KEYS}


def write_config(tmp_path, name="cfg.yaml", duration=2.5, **kwargs):
    cfg = default_benchmark_config(inverse_mode="analytic")
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=duration),
                  **kwargs)
    path = tmp_path / name
    cfg.to_yaml(path)
    return path


def write_raw_config(tmp_path, cfg, section, **values):
    """cfg as YAML with values set in one section, bypassing the section's
    own checks, as a hand-edited config file would."""
    raw = cfg.to_dict()
    raw[section].update(values)
    path = tmp_path / "raw.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- simulate ------------------------------------------------------------------


def test_simulate_baseline_json(tmp_path, capsys):
    cfg = write_config(tmp_path, strategy="baseline")
    code, out = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["strategy"]["name"] == "baseline"
    assert payload["strategy"]["aborted"] is False
    assert payload["strategy"]["rms_tracking"] > 0


def test_simulate_writes_step_log(tmp_path, capsys):
    cfg = write_config(tmp_path, strategy="offline")
    out_dir = tmp_path / "runs"
    code, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                      "--out-dir", str(out_dir))
    assert code == EXIT_OK
    lines = (out_dir / "offline_steps.csv").read_text().splitlines()
    assert lines[0].startswith("k,x0,x1,y,y_d")
    assert len(lines) > 1000


def test_simulate_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, strategy="offline", u_max=1e-12)
    code, out = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_DIVERGED
    payload = json.loads(out)
    assert payload["strategy"]["aborted"] is True
    assert payload["strategy"]["abort_step"] == 0


def test_missing_config_file_is_io_error(capsys):
    code, _ = run_cli(capsys, "simulate", "--config", "/nonexistent/x.yaml")
    assert code == EXIT_IO


def test_bad_config_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("source: {a: [[0.0]], b: [1.0], c: [1.0]}\n"
                    "target: {a: [[0.0]], b: [1.0], c: [1.0]}\n"
                    "inverse_mode: table\n")
    code, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == EXIT_CONFIG


def test_zero_gp_capacity_is_config_error(tmp_path, capsys):
    cfg = default_benchmark_config(inverse_mode="analytic")
    path = write_raw_config(tmp_path, cfg, "gp", capacity=0)
    code = main(["simulate", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "gp", 5), ("simulate", "trajectory", 3),
    ("similarity", "source", [1]), ("simulate", "mlp", "x"),
    ("simulate", "gain", [1])], ids=lambda v: str(v).replace(" ", ""))
def test_section_that_is_not_a_mapping_is_config_error(tmp_path, capsys,
                                                       command, section, value):
    cfg = default_benchmark_config(inverse_mode="analytic")
    raw = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=0.3)).to_dict()
    raw[section] = value
    path = tmp_path / "raw.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert section in err


TRACKING = ("simulate", "compare", "sweep-alpha")


@pytest.mark.parametrize("command, field, value", [
    *[(c, "u_max", float("nan")) for c in TRACKING],
    *[(c, "x0", [0.0, 0.0, 0.0]) for c in ("simulate", "sweep-alpha")],
    ("compare", "x0", [float("nan"), 0.0]),
    ("simulate", "x0", 5),
    ("simulate", "u_max", "big"),
    *[(c, "seed", 1.5) for c in TRACKING + ("train-inverse",)],
    ("sweep-alpha", "sweep_alphas", [0.0, float("nan")]),
    ("sweep-alpha", "sweep_alphas", 3),
    *[(c, "trajectory", dict(duration_s=0.0015)) for c in TRACKING],
    # a bool is not a number here, although Python counts it as an int
    ("simulate", "seed", True), ("compare", "x0", [True, 0.0]),
    ("simulate", "u_max", True), ("sweep-alpha", "sweep_alphas", [0.0, True])],
    ids=lambda v: str(v).replace(" ", ""))
def test_bad_top_level_field_fails_before_training(tmp_path, capsys, monkeypatch,
                                                   command, field, value):
    trained = []
    monkeypatch.setattr(bench, "train_mlp",
                        lambda *args, **kwargs: trained.append(1))
    raw = default_benchmark_config().to_dict()
    if isinstance(value, dict):
        raw[field].update(value)
    else:
        raw[field] = value
    path = tmp_path / "raw.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert trained == []


# -- compare -------------------------------------------------------------------


def test_compare_writes_report_and_logs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "cmp"
    code, out = run_cli(capsys, "compare", "--config", str(cfg),
                        "--out-dir", str(out_dir))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["strategies"]) == {"baseline", "offline", "online"}
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config_digest"] == payload["config_digest"]
    for name in ("baseline", "offline", "online"):
        assert (out_dir / f"{name}_steps.csv").exists()


def test_compare_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run_cli(capsys, "compare", "--config", str(cfg),
                        "--seed", "5")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 5


def test_compare_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run_cli(capsys, "compare", "--config", str(cfg),
                        "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "strategy,rms_tracking,rms_prediction,aborted"
    assert len(lines) == 4
    assert lines[1].startswith("baseline,")


def test_compare_reports_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, u_max=1e-12)
    code, _ = run_cli(capsys, "compare", "--config", str(cfg))
    assert code == EXIT_DIVERGED


def test_compare_reports_failed_factorization_as_divergence(tmp_path, capsys,
                                                           monkeypatch):
    # the online GP's covariance cannot be factorized at basis prior
    # variance 1e14: the online run aborts, the other two are reported
    monkeypatch.setattr(gp_module, "BASIS_PRIOR_VARIANCE", 1e14)
    gp = replace(default_benchmark_config().gp, optimize=False)
    cfg = write_config(tmp_path, duration=0.2, gp=gp)
    code, out = run_cli(capsys, "compare", "--config", str(cfg))
    assert code == EXIT_DIVERGED
    strategies = json.loads(out)["strategies"]
    assert strategies["online"]["aborted"] is True
    for name in ("baseline", "offline"):
        assert strategies[name]["aborted"] is False
        assert strategies[name]["rms_tracking"] > 0


# -- sweep-alpha ---------------------------------------------------------------


def test_sweep_alpha_uses_configured_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, duration=1.5, sweep_alphas=[0.0, 0.5])
    out_dir = tmp_path / "sweep"
    code, out = run_cli(capsys, "sweep-alpha", "--config", str(cfg),
                        "--out-dir", str(out_dir))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [r["alpha"] for r in payload["sweep"]] == [0.0, 0.5]
    assert all(r["bounded"] for r in payload["sweep"])
    assert (out_dir / "alpha_sweep.json").exists()


# -- similarity ----------------------------------------------------------------


def test_similarity_report(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code, out = run_cli(capsys, "similarity", "--out-dir", str(out_dir))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["similarity"]["s2_norm"] == pytest.approx(
        0.31320919526731644, rel=1e-12)
    assert payload["alpha_max"] == 0.0
    assert (out_dir / "similarity.json").exists()


# -- train-inverse -------------------------------------------------------------


def test_train_inverse_saves_loadable_model(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(inverse, "HIDDEN", (4,))
    cfg = default_benchmark_config()
    cfg = replace(cfg, mlp=replace(cfg.mlp, epochs=2, train_duration_s=2.0,
                                   subsample=50))
    path = tmp_path / "train.yaml"
    cfg.to_yaml(path)
    out_dir = tmp_path / "model"
    code, out = run_cli(capsys, "train-inverse", "--config", str(path),
                        "--out-dir", str(out_dir))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["validation_rmse"] > 0
    assert payload["epochs_run"] == 2
    model = MlpInverseModel.load(payload["model_path"])
    assert np.isfinite(model.reference(np.zeros(2), 0.5))


@pytest.mark.parametrize("command", ["compare", "train-inverse"])
def test_training_divergence_exit_code(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(inverse, "LEARNING_RATE", 1e300)
    cfg = default_benchmark_config()
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=0.3),
                  mlp=replace(cfg.mlp, epochs=2, train_duration_s=0.3))
    path = tmp_path / "diverge.yaml"
    cfg.to_yaml(path)
    code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_DIVERGED
    assert "training loss became non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("cause", ["training", "excitation"])
def test_compare_keeps_baseline_when_inverse_diverges(tmp_path, capsys, monkeypatch,
                                                      cause):
    # a divergence while building the inverse once ended compare with no
    # output directory, although the baseline had already run
    cfg = default_benchmark_config()
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=0.3),
                  mlp=replace(cfg.mlp, epochs=2, train_duration_s=3.0))
    if cause == "training":
        def diverge(*args, **kwargs):
            raise TrainingDiverged(0)
        monkeypatch.setattr(bench, "train_mlp", diverge)
        reason = "training diverged: training loss became non-finite"
    else:  # an unstable source blows up the excitation rollout
        cfg = replace(cfg, source=replace(cfg.source, a=[[0.0, 1.0], [-0.5, 2.0]]))
        reason = "simulation diverged: state became non-finite"
    path = tmp_path / "diverge.yaml"
    cfg.to_yaml(path)
    out_dir = tmp_path / "out"
    code = main(["compare", "--config", str(path), "--out-dir", str(out_dir)])
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert reason in captured.err
    report = json.loads((out_dir / "report.json").read_text())
    assert json.loads(captured.out) == report
    assert report["strategies"]["baseline"]["aborted"] is False
    assert report["strategies"]["baseline"]["rms_tracking"] > 0
    for name in ("offline", "online"):
        assert report["strategies"][name]["aborted"] is True
        assert report["strategies"][name]["abort_step"] is None
    assert report["mlp_validation_rmse"] is None
    assert list(report["log_paths"]) == ["baseline"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["baseline_steps.csv",
                                                         "report.json"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("command", ["compare", "train-inverse"])
def test_excitation_divergence_exit_code(tmp_path, capsys, command):
    # an unstable source blows up the excitation rollout before training
    cfg = default_benchmark_config()
    cfg = replace(cfg, source=replace(cfg.source, a=[[0.0, 1.0], [-0.5, 2.0]]),
                  trajectory=replace(cfg.trajectory, duration_s=0.3),
                  mlp=replace(cfg.mlp, epochs=2, train_duration_s=3.0))
    path = tmp_path / "unstable.yaml"
    cfg.to_yaml(path)
    code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_DIVERGED
    assert "state became non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("dt", float("nan")), ("dt", float("inf")), ("duration_s", float("inf")),
    ("amplitudes", [1.0, "x"]), ("amplitudes", [float("inf"), 1.0]),
    ("periods_s", [float("nan"), 16.0]), ("phases", [0.0, float("inf")]),
    ("offset", float("nan")), ("dt", "x"), ("dt", None), ("dt", True),
    ("duration_s", "48"), ("duration_s", None), ("offset", True)])
def test_nonfinite_trajectory_timing_is_config_error(tmp_path, capsys,
                                                     field, value):
    # a sinusoid component that is not a finite number once ended compare
    # in an uncaught UFuncTypeError (exit 1) or aborted every strategy (exit
    # 3), and a dt or duration_s that is not a number in a "bad config
    # structure" error, or a bare TypeError in code, that did not name it
    cfg = default_benchmark_config(inverse_mode="analytic")
    path = write_raw_config(tmp_path, cfg, "trajectory", **{field: value})
    code = main(["compare", "--config", str(path)])
    assert code == EXIT_CONFIG
    want = {"dt": "positive and finite", "duration_s": "positive and finite",
            "offset": "a finite number"}.get(field, "a list of finite numbers")
    assert f"{field} must be {want}" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=f"{field} must be {want}"):
        replace(cfg, trajectory=replace(cfg.trajectory, **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", 0), ("subsample", 0), ("val_fraction", 1.0),
    ("val_fraction", 0.0), ("learning_rate", 0.0), ("learning_rate", -1e-3),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("hidden", [4, 0]), ("patience", 0), ("patience", -1),
    ("train_duration_s", 0.0), ("train_duration_s", float("nan")),
    ("learning_rate", "1e-3"), ("learning_rate", None), ("val_fraction", "x"),
    ("val_fraction", None), ("train_duration_s", "40"), ("train_duration_s", None),
    ("epochs", True), ("learning_rate", True)])
def test_out_of_range_mlp_section_is_config_error(tmp_path, capsys, field, value):
    cfg = default_benchmark_config()
    cfg = replace(cfg, mlp=replace(cfg.mlp, epochs=2, train_duration_s=2.0,
                                   subsample=50))
    path = write_raw_config(tmp_path, cfg, "mlp", **{field: value})
    code = main(["train-inverse", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    want, error = ((f"unexpected keyword argument '{field}'", TypeError)
                   if field in REMOVED_KEYS else (f"mlp.{field} must be", ValueError))
    assert want in capsys.readouterr().err
    assert not (tmp_path / "inverse_model.npz").exists()
    with pytest.raises(error, match=want):
        replace(cfg.mlp, **{field: value})


@pytest.mark.parametrize("section, values, named", [
    # the gain section is EstimatedGain, which has no mode or alpha; the
    # YAML lists keys sorted, so alpha is the first one named
    ("gain", dict(mode="fixed", alpha=float("nan")), "argument 'alpha'"),
    ("gain", dict(mode="fixed", alpha=float("inf")), "argument 'alpha'"),
    ("gain", dict(floor=float("nan")), "gain floor"),
    ("gain", dict(floor=-1.0), "gain floor"),
    ("gain", dict(floor=None), "gain floor and cap must be finite numbers"),
    ("gain", dict(cap=float("inf")), "gain floor and cap"),
    ("gain", dict(floor=5.0, cap=1.0), "gain floor and cap"),
    ("gain", dict(smoothing=float("nan")), "gain smoothing"),
    ("gain", dict(smoothing=1.0), "gain smoothing"),
    ("gain", dict(smoothing=-0.1), "gain smoothing"),
    ("gain", dict(smoothing=None), "gain smoothing must be a number"),
    # keys the gp section dropped: there is no refit schedule to set
    ("gp", dict(max_fit_evals=0), "unexpected keyword argument 'max_fit_evals'"),
    ("gp", dict(max_fit_evals=-3), "unexpected keyword argument 'max_fit_evals'"),
    ("gp", dict(refit_stride=0), "unexpected keyword argument 'refit_stride'"),
    ("gp", dict(refit_stride=-5), "unexpected keyword argument 'refit_stride'"),
    ("gain", dict(floor=True), "gain floor and cap must be finite numbers"),
    ("gain", dict(smoothing=False), "gain smoothing must be a number")],
    ids=["fixed-alpha-nan", "fixed-alpha-inf", "floor-nan", "floor-negative",
         "floor-null", "cap-inf", "cap-below-floor", "smoothing-nan",
         "smoothing-1", "smoothing-negative", "smoothing-null", "max_fit_evals-0",
         "max_fit_evals-neg", "refit_stride-0", "refit_stride-neg", "floor-true",
         "smoothing-false"])
def test_bad_gain_or_refit_budget_is_config_error(tmp_path, capsys, section,
                                                  values, named):
    cfg = default_benchmark_config(inverse_mode="analytic")
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=0.3))
    path = write_raw_config(tmp_path, cfg, section, **values)
    code = main(["simulate", "--config", str(path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert named in err


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep-alpha"])
@pytest.mark.parametrize("field, value", [
    ("capacity", 0), ("capacity", 2.5), ("basis", "cubic"), ("max_fit_evals", 0),
    ("basis_prior_variance", -1.0), ("length_scale0", -1.0),
    ("noise_variance0", float("nan")), ("signal_variance0", 0.0),
    ("optimize", "false"), ("refit_stride", 25), ("capacity", True),
    ("noise_variance0", False)])
def test_bad_gp_section_fails_before_training(tmp_path, capsys, monkeypatch,
                                              command, field, value):
    trained = []
    monkeypatch.setattr(bench, "train_mlp",
                        lambda *args, **kwargs: trained.append(1))
    path = write_raw_config(tmp_path, default_benchmark_config(), "gp",
                            **{field: value})
    code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    if field in ("basis", "basis_prior_variance", "max_fit_evals", "refit_stride",
                 *REMOVED_KEYS):  # keys the gp section dropped
        assert f"unexpected keyword argument '{field}'" in err
    else:
        assert f"{field} must be" in err
    assert trained == []


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("batch_size", 1.5), ("subsample", 2.5), ("patience", 2.5),
    ("hidden", [20.5]), ("hidden", 20)])
def test_fractional_mlp_count_fails_before_training(tmp_path, capsys, monkeypatch,
                                                    field, value):
    # these once ended compare in a TypeError or IndexError after the
    # baseline had run, trained a truncated layer ([20.5]), or were reported
    # as "bad config structure" without the field's name (20)
    trained = []
    monkeypatch.setattr(bench, "train_mlp",
                        lambda *args, **kwargs: trained.append(1))
    path = write_raw_config(tmp_path, default_benchmark_config(), "mlp",
                            **{field: value})
    code = main(["compare", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    want = (f"unexpected keyword argument '{field}'" if field in REMOVED_KEYS
            else f"mlp.{field} must be")
    assert want in capsys.readouterr().err
    assert trained == []


# -- ingest --------------------------------------------------------------------


def test_ingest_roundtrip(tmp_path, capsys):
    src = tmp_path / "traj.csv"
    src.write_text("t,yd\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
    out_dir = tmp_path / "ingested"
    code, out = run_cli(capsys, "ingest", str(src), "--out-dir", str(out_dir))
    assert code == EXIT_OK
    payload = json.loads(out)
    # the peak sits between grid points, so interpolation shaves a little
    assert payload["max_abs"] == pytest.approx(1.0, abs=2e-3)
    assert payload["dt"] == pytest.approx(1.5e-3)
    lines = (out_dir / "trajectory_resampled.csv").read_text().splitlines()
    assert lines[0] == "t,yd"
    assert len(lines) == payload["samples"] + 1
    # the resampled signal still peaks at the original midpoint value
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(vals) == pytest.approx(1.0, abs=2e-3)


def test_ingest_missing_file(capsys):
    code, _ = run_cli(capsys, "ingest", "/nonexistent/traj.csv")
    assert code == EXIT_IO


@pytest.mark.parametrize("dt", [0.0, -0.001])
def test_ingest_bad_dt_is_config_error(tmp_path, capsys, dt):
    src = tmp_path / "traj.csv"
    src.write_text("t,yd\n0.0,0.0\n1.0,1.0\n")
    path = write_raw_config(tmp_path, default_benchmark_config(), "trajectory",
                            dt=dt)
    code = main(["ingest", str(src), "--config", str(path)])
    assert code == EXIT_CONFIG
    assert "dt must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0.5", "0.5,", "0.5,high"])
def test_ingest_bad_row_is_config_error(tmp_path, capsys, row):
    # a row without a value ("0.5") once escaped float(None) as a TypeError
    src = tmp_path / "rows.csv"
    src.write_text(f"t,yd\n0.0,0.0\n{row}\n1.0,1.0\n")
    code = main(["ingest", str(src)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "line 3 needs a number" in err


def test_ingest_missing_column(tmp_path, capsys):
    src = tmp_path / "cols.csv"
    src.write_text("time,value\n0.0,1.0\n1.0,2.0\n")
    code, _ = run_cli(capsys, "ingest", str(src))
    assert code == EXIT_CONFIG
