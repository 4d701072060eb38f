"""The benchmark's workloads: configs drawn from a seed, one pass each, and
the correctness checks applied to every pass.

Each workload is a closed loop run by one process, one pass at a time. The
plant is simulated, not paced to real time, so decision latency is compared
with the sample period dt as measured.

- compare: `run_comparison` on the bundled pair, as `xfertrack compare
  --out-dir` runs it, shortened to fit a run (see COMPARE_*). Every layer is
  active; the only workload that trains the MLP and writes step-log CSVs and
  the report.
- sweep-fixed-hyper: fixed-gain online runs with the analytic inverse and no
  hyperparameter refits, over the CLI's default gains plus 4.0, which is past
  the stability edge and aborts. Each bounded run feeds the prediction budget
  fit and the boundedness check, as in demo 04. No training and no refit: the
  per-step window slide, predict, controller and plant step carry the run.
- online-wide-window: the online strategy with the analytic inverse and a GP
  window 8x the bundled 15, where O(N^2) predict and O(N^3) refactorization
  outweigh per-call overhead.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from xfertrack import bench, inverse, stability

DEFAULT_SEED = 13  # the bundled config's training seed

# compare: the bundled config shortened from 48 s of tracking and 38 s of
# MLP training to one pass that fits a benchmark run. 12 s is the shortest
# tracking horizon at which the baseline still lands in acceptance
# criterion 1's band; 30 epochs on an 8 s excitation set (same sample count
# as the bundled 40 s set at stride 10) keep the offline MLP inside
# criterion 2's bands at seed 13.
COMPARE_DURATION_S = 12.0
COMPARE_MLP = dict(train_duration_s=8.0, subsample=2, epochs=30)

SWEEP_GAINS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)  # CLI defaults plus 4.0
SWEEP_UNSTABLE = 4.0
SWEEP_DURATION_S = 4.0

WIDE_CAPACITY = 120
WIDE_DURATION_S = 4.0

X0_SCALE = 0.05  # half-width of the uniform initial-state draw

# acceptance criteria 1-3 (tests/test_acceptance.py)
BASELINE_RMS, BASELINE_BAND = 3.97, 0.10
OFFLINE_BAND = (0.22, 0.88)
ANALYTIC_REL = 0.15
ONLINE_RMS_MAX = 1e-3
PREDICTION_RMS_MAX = 1e-5

NAMES = ("compare", "sweep-fixed-hyper", "online-wide-window")


def digest_of(payload) -> str:
    return hashlib.sha256(bench.canonical_json(payload).encode()).hexdigest()


def _with_duration(cfg, duration_s):
    return replace(cfg, trajectory=replace(cfg.trajectory, duration_s=duration_s))


def _analytic_config(seed: int, duration_s: float):
    cfg = bench.default_benchmark_config(inverse_mode="analytic")
    n = len(cfg.target.b)
    x0 = np.random.default_rng(seed).uniform(-X0_SCALE, X0_SCALE, n)
    return replace(_with_duration(cfg, duration_s), seed=seed, x0=x0.tolist())


def _guarded(errors, label, fn, *args, **kwargs):
    """Run fn; an exception that escapes it is recorded, not raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # a failure of the program under test
        errors.append(f"{label}: {type(err).__name__}: {err}")
        return None


class Compare:
    name = "compare"

    def __init__(self, seed: int):
        cfg = bench.default_benchmark_config()
        self.cfg = replace(_with_duration(cfg, COMPARE_DURATION_S), seed=seed,
                           mlp=replace(cfg.mlp, **COMPARE_MLP))

    def run(self, out_dir: Path) -> dict:
        errors = []
        report = _guarded(errors, "run_comparison", bench.run_comparison,
                          self.cfg, out_dir=out_dir)
        if report is None:
            return {"errors": errors, "digest": None}
        return {"errors": errors, "digest": report.digest(),
                "strategies": report.strategies,
                "written": sorted(p.name for p in Path(out_dir).iterdir())}

    def checks(self, out: dict) -> list:
        checks = [("no exception escaped", not out["errors"])]
        if out["digest"] is None:
            return checks
        s = out["strategies"]
        checks.append(("step logs and report written", out["written"] == sorted(
            ["report.json"] + [f"{k}_steps.csv" for k in s])))
        checks.append(("no strategy aborted", not any(v["aborted"] for v in s.values())))
        if self.cfg.seed != DEFAULT_SEED or any(v["aborted"] for v in s.values()):
            return checks
        base = s["baseline"]["rms_tracking"]
        off = s["offline"]["rms_tracking"]
        on = s["online"]
        checks += [
            ("criterion 1: baseline rms in band",
             abs(base - BASELINE_RMS) <= BASELINE_BAND * BASELINE_RMS),
            ("criterion 2: offline mlp rms in band",
             OFFLINE_BAND[0] <= off <= OFFLINE_BAND[1]),
            ("criterion 2: analytic offline within 15%",
             abs(self.analytic_offline_rms - off) / off <= ANALYTIC_REL),
            ("criterion 3: online tracking rms", on["rms_tracking"] <= ONLINE_RMS_MAX),
            ("criterion 3: prediction rms", on["rms_prediction"] <= PREDICTION_RMS_MAX),
        ]
        return checks

    @functools.cached_property
    def analytic_offline_rms(self) -> float:
        """Offline RMS with the exact source inverse, for criterion 2."""
        cfg = replace(self.cfg, inverse_mode="analytic")
        return bench.run_strategy(cfg, "offline").rms_tracking


def budget_samples(cfg, log, r: int) -> np.ndarray:
    """(residual, |y_d(k+r)|, ||x(k)||) rows of a run, as in demo 04."""
    k = log.column("k").astype(int)
    keep = k >= r
    traj = cfg.trajectory.build()
    yd = traj.values(traj.n_steps + r)
    lam = (log.column("e_p") - log.column("e_p_star"))[keep]
    return np.column_stack([lam, np.abs(yd[k[keep] + r]),
                            np.linalg.norm(log.states[keep], axis=1)])


class SweepFixedHyper:
    name = "sweep-fixed-hyper"

    def __init__(self, seed: int):
        cfg = _analytic_config(seed, SWEEP_DURATION_S)
        self.cfg = replace(cfg, gp=replace(cfg.gp, optimize=False))

    def run(self, out_dir: Path) -> dict:
        errors = []
        source = self.cfg.source.build()
        target = self.cfg.target.build()
        inv = inverse.AnalyticInverse(source)
        rows = []
        for alpha in SWEEP_GAINS:
            res = _guarded(errors, f"alpha={alpha}", bench.run_strategy, self.cfg,
                           "online", inverse=inv, alpha_override=alpha)
            if res is None:
                continue
            row = {"alpha": alpha, "bounded": not res.aborted,
                   "abort_step": res.abort_step, "rms_tracking": res.rms_tracking,
                   "rms_prediction": res.rms_prediction}
            if not res.aborted:
                row.update(_guarded(errors, f"alpha={alpha} budget", self._budget,
                                    source, target, res.log, alpha) or {})
            rows.append(row)
        return {"errors": errors, "rows": rows,
                "digest": digest_of(rows) if not errors else None}

    def _budget(self, source, target, log, alpha) -> dict:
        betas = stability.fit_prediction_budget(
            budget_samples(self.cfg, log, target.r))
        budget = stability.assemble_budget(source, target, betas=betas)
        verdict = stability.lemma1_check(source, target, budget, alpha)
        report = stability.stability_report(source, target, budget, alpha=alpha)
        return {"betas": list(betas), "verdict": verdict.status,
                "margin": report["verdict_at_alpha"]["margin"]}

    def checks(self, out: dict) -> list:
        checks = [("no exception escaped", not out["errors"])]
        got = {row["alpha"]: row for row in out["rows"]}
        for alpha in SWEEP_GAINS:
            row = got.get(alpha)
            want = alpha != SWEEP_UNSTABLE
            checks.append((f"alpha={alpha} {'bounded' if want else 'aborts'}",
                           row is not None and row["bounded"] == want))
        one = got.get(1.0)
        checks.append(("alpha=1 tracking rms", one is not None and one["bounded"]
                       and one["rms_tracking"] <= ONLINE_RMS_MAX))
        return checks


class OnlineWideWindow:
    name = "online-wide-window"

    def __init__(self, seed: int):
        cfg = _analytic_config(seed, WIDE_DURATION_S)
        self.cfg = replace(cfg, gp=replace(cfg.gp, capacity=WIDE_CAPACITY))

    def run(self, out_dir: Path) -> dict:
        errors = []
        inv = inverse.AnalyticInverse(self.cfg.source.build())
        runs = {s: _guarded(errors, s, bench.run_strategy, self.cfg, s, inverse=inv)
                for s in ("online", "offline")}
        summaries = {s: r.summary() for s, r in runs.items() if r is not None}
        return {"errors": errors, "strategies": summaries,
                "digest": digest_of(summaries) if not errors else None}

    def checks(self, out: dict) -> list:
        checks = [("no exception escaped", not out["errors"])]
        on = out["strategies"].get("online")
        off = out["strategies"].get("offline")
        bounded = on is not None and not on["aborted"]
        checks.append(("online run bounded", bounded))
        if bounded:
            checks.append(("post-window-fill prediction rms",
                           on["rms_prediction_warm"] <= PREDICTION_RMS_MAX))
            checks.append(("online tracking below offline",
                           off is not None and not off["aborted"]
                           and on["rms_tracking"] < off["rms_tracking"]))
        return checks


WORKLOADS = {w.name: w for w in (Compare, SweepFixedHyper, OnlineWideWindow)}


def build(name: str, seed: int):
    """The named workload for a seed."""
    return WORKLOADS[name](seed)


def setup(name: str, seed: int):
    """What a fresh process pays before the first step: the config, both
    systems and the sampled trajectory."""
    cfg = build(name, seed).cfg
    source, target = cfg.source.build(), cfg.target.build()
    traj = cfg.trajectory.build()
    return source, target, traj.values(traj.n_steps + target.r)

