"""Tests of the benchmark itself: every per-layer metric is exercised where
it should be, tracing does not change results, spans nest, and failures
are counted rather than raised.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probes  # noqa: E402
import workloads  # noqa: E402
from xfertrack import bench, control  # noqa: E402

EVERY = workloads.NAMES
REFITS = ("compare", "online-wide-window")
COMPARE = ("compare",)
SWEEP = ("sweep-fixed-hyper",)

# per-layer metric -> workloads whose traced pass must make it nonzero
EXERCISED = {
    "inverse.dataset_s": COMPARE, "inverse.train_s": COMPARE,
    "inverse.epochs": COMPARE, "inverse.reference_us_p50": EVERY,
    "inverse.reference_calls": EVERY,
    "gp.refit_count": REFITS, "gp.lml_evals": REFITS, "gp.refit_ms_p50": REFITS,
    "gp.refit_ms_p99": REFITS, "gp.refit_s": REFITS,
    "gp.observe_calls": EVERY, "gp.observe_us_p50": EVERY, "gp.observe_us_p99": EVERY,
    "gp.predict_calls": EVERY, "gp.predict_us_p50": EVERY, "gp.predict_us_p99": EVERY,
    "gp.mean_derivative_calls": REFITS, "gp.mean_derivative_us_p50": REFITS,
    "control.online_step_self_us_p50": EVERY, "control.offline_step_us_p50": REFITS,
    "control.select_gain_us_p50": EVERY, "control.gain_floor_hits": REFITS,
    "systems.step_us_p50": EVERY, "systems.simulate_s": COMPARE,
    "systems.plant_steps": EVERY,
    "bench.baseline_s": COMPARE, "bench.offline_s": REFITS, "bench.online_s": EVERY,
    "bench.csv_write_s": COMPARE, "bench.metrics_ms": EVERY,
    "bench.aborted_runs": SWEEP,
    "stability.budget_fit_ms": SWEEP, "stability.report_ms": SWEEP,
}
# counters of faults and clamps: zero is the healthy value on every workload
FAULT_COUNTERS = {"gp.jitter_escalations", "gp.rejected_obs", "control.gain_cap_hits"}


def shrunk(name):
    """The workload at seed 13 cut to 0.75 s (past sweep's abort at step
    343) and, for compare, two MLP epochs on a 1 s excitation set."""
    wl = workloads.build(name, workloads.DEFAULT_SEED)
    cfg = replace(wl.cfg, trajectory=replace(wl.cfg.trajectory, duration_s=0.75))
    if name == "compare":
        cfg = replace(cfg, mlp=replace(cfg.mlp, epochs=2, train_duration_s=1.0))
    wl.cfg = cfg
    return wl


def run_once(wl, probe, out_dir):
    with probes.patched(probe.patches()):
        return wl.run(out_dir)


@pytest.fixture(scope="module", params=workloads.NAMES)
def quick_passes(request, tmp_path_factory):
    """One untraced and one traced pass of a shrunken workload."""
    wl = shrunk(request.param)
    latency = probes.StepLatencyProbe()
    plain = run_once(wl, latency, tmp_path_factory.mktemp("plain"))
    tracer = probes.Tracer(pass_id=1)
    traced = run_once(wl, tracer, tmp_path_factory.mktemp("traced"))
    return wl, latency, plain, tracer, traced


def test_every_layer_metric_is_exercised_where_expected(quick_passes):
    wl, _, _, tracer, _ = quick_passes
    metrics = probes.layer_metrics(tracer.spans(), tracer.counts)
    assert set(EXERCISED) | FAULT_COUNTERS == set(metrics)
    zero = [name for name, names in EXERCISED.items()
            if wl.name in names and not metrics[name] > 0]
    assert not zero, f"{wl.name}: zero {zero}"


def test_tracing_leaves_results_unchanged(quick_passes):
    wl, latency, plain, _, traced = quick_passes
    assert plain["errors"] == traced["errors"] == []
    assert plain["digest"] is not None
    assert plain["digest"] == traced["digest"]
    assert len(latency.samples_ns) > 0


def test_spans_nest_and_close(quick_passes):
    _, _, _, tracer, _ = quick_passes
    table = tracer.spans()
    assert table.starts.size > 0
    assert table.nesting_violations() == 0
    assert np.all(table.self_times >= 0)


def test_patches_are_restored():
    before = (bench.train_mlp, control.step, control.TransferController.control_step)
    with probes.patched(probes.Tracer(0).patches()):
        assert bench.train_mlp is not before[0]
        assert control.step is not before[1]
    with probes.patched(probes.StepLatencyProbe().patches()):
        assert control.TransferController.control_step is not before[2]
    assert (bench.train_mlp, control.step,
            control.TransferController.control_step) == before


def test_self_time_subtracts_children():
    t = probes.Tracer(pass_id=0)
    outer = t.open("outer")
    for _ in range(2):
        t.close(t.open("inner"))
    t.close(outer)
    table = t.spans()
    inner = table.durations[table.mask("inner")].sum()
    assert table.self_times[outer] == table.durations[outer] - inner
    assert table.nesting_violations() == 0


def test_child_outside_parent_is_a_violation():
    table = probes.SpanTable(0, ["a", "b"], [0, 1], starts=[10, 5],
                             ends=[20, 15], parents=[-1, 0])
    assert table.nesting_violations() == 1
    unclosed = probes.SpanTable(0, ["a"], [0], starts=[10], ends=[-1], parents=[-1])
    assert unclosed.nesting_violations() == 1


def test_escaped_exception_is_a_failed_check(monkeypatch, tmp_path):
    wl = shrunk("sweep-fixed-hyper")
    real = bench.run_strategy

    def flaky(cfg, strategy, **kwargs):
        if kwargs.get("alpha_override") == 1.0:
            raise LinAlgError("not positive definite")
        return real(cfg, strategy, **kwargs)

    monkeypatch.setattr(bench, "run_strategy", flaky)
    out = wl.run(tmp_path)
    assert out["digest"] is None
    assert any("LinAlgError" in err for err in out["errors"])
    failed = [name for name, ok in wl.checks(out) if not ok]
    assert "no exception escaped" in failed
    assert "alpha=1.0 bounded" in failed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_cli_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-fixed-hyper",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
