"""Names the benchmark and the demos use from the package still exist, and
the values a config file can set are the ones listed here.

Tier-1 runs only this directory, so these checks are what notices when a
deletion under src/ breaks perfbench/ or a demo. They read the other
trees and edit nothing there; the fast demos also run end to end.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import xfertrack
from xfertrack.bench import BenchConfig, default_benchmark_config
from xfertrack.cli import EXIT_CONFIG, main
from xfertrack.gp import GpWindowModel

from helpers import REMOVED_CONFIG_KEYS

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_names(path: Path):
    """(module alias, attribute) for every `alias.attr` in path whose alias
    was imported as `from xfertrack import module`."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "xfertrack"
               for a in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


def _perfbench(*modules):
    """The named perfbench modules, imported with perfbench/ on sys.path
    only while they load."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return [importlib.import_module(name) for name in modules]
    finally:
        sys.path.remove(str(PERFBENCH))


def test_perfbench_patch_targets_exist():
    probes, = _perfbench("probes")
    # patches() looks up every original it wraps, so building them is the check
    for patches in (probes.Tracer(0).patches(), probes.StepLatencyProbe().patches()):
        for owner, attr, _ in patches:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_workload_configs_pass_the_config_checks():
    # BenchConfig checks each config when it is made, so a check that
    # rejected a workload's config would otherwise show only as a failed
    # benchmark run
    workloads, = _perfbench("workloads")
    for name in workloads.NAMES:
        workloads.build(name, workloads.DEFAULT_SEED)
        workloads.setup(name, workloads.DEFAULT_SEED)


def test_benchmark_interface_holds_under_its_patches():
    # what the benchmark reads before its first pass, in one cheap check
    # that runs no pass: both probes' patches install and restore, every
    # workload builds at seed 13 with them in place (sweep-fixed-hyper sets
    # gp.optimize), and the GP methods the tracer wraps keep the signatures
    # its wrappers pass through
    probes, workloads = _perfbench("probes", "workloads")
    fit = GpWindowModel.fit_hyperparams
    for patches in (probes.Tracer(0).patches(), probes.StepLatencyProbe().patches()):
        with probes.patched(patches):
            for name in workloads.NAMES:
                assert workloads.build(name, 13).name == name
    assert GpWindowModel.fit_hyperparams is fit
    assert list(inspect.signature(fit).parameters) == ["self"]
    lml = inspect.signature(GpWindowModel.log_marginal_likelihood).parameters
    assert list(lml) == ["self", "hyper"]


# every value a config file can set; adding one is a decision made here
SETTABLE = [
    "gain.cap", "gain.floor", "gain.smoothing",
    "gp.capacity", "gp.noise_variance0", "gp.optimize",
    "inverse_mode", "mlp.epochs", "mlp.subsample", "mlp.train_duration_s",
    "seed", "source.a", "source.b", "source.c", "strategy", "sweep_alphas",
    "target.a", "target.b", "target.c",
    "trajectory.amplitudes", "trajectory.csv_path", "trajectory.dt",
    "trajectory.duration_s", "trajectory.kind", "trajectory.offset",
    "trajectory.periods_s", "trajectory.phases", "u_max", "x0"]


def _flat_keys(mapping, prefix=""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _flat_keys(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def test_settable_config_surface_is_pinned(tmp_path, capsys):
    bundled = default_benchmark_config(inverse_mode="analytic")
    cfg = BenchConfig(source=bundled.source, target=bundled.target)
    assert sorted(_flat_keys(cfg.to_dict())) == SETTABLE
    assert len(SETTABLE) == 29
    for section, key, value in REMOVED_CONFIG_KEYS:
        raw = bundled.to_dict()
        raw[section][key] = value
        path = tmp_path / f"{key}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG, key
        err = capsys.readouterr().err
        assert "config error" in err and f"unexpected keyword argument '{key}'" in err


def test_workload_attributes_resolve():
    # probes.py reads most of its names only inside a traced pass (for
    # example control.EstimatedGain after each select_gain), so a rename
    # would break `--trace 1` and nothing else
    for script, modules in (("workloads.py", {"bench", "inverse", "stability"}),
                            ("probes.py", {"bench", "control", "gp", "systems"})):
        names = _package_names(PERFBENCH / script)
        assert {mod for mod, _ in names} >= modules, script
        missing = [f"{mod}.{attr}" for mod, attr in names
                   if not hasattr(getattr(xfertrack, mod), attr)]
        assert missing == [], script


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("xfertrack")
                for a in node.names]
    assert imported
    assert [n for n in imported if not hasattr(xfertrack, n)] == []


# 02 and 04 take several seconds each and run as their own CI step, which
# keeps the suite well inside criterion 7's time bound; 03 runs the bundled
# GP, whose hyperparameters are fitted when its window fills
@pytest.mark.parametrize("demo", ["01_exact_tracking.py", "03_online_error_prediction.py",
                                  "05_csv_ingestion.py"])
def test_fast_demo_runs(demo, tmp_path):
    # TMPDIR holds the CSV that demo 05 writes
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
