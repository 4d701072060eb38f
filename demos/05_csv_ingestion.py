# 05_csv_ingestion.py
#
# Trajectories do not have to be the built-in sinusoids: any t,yd CSV can
# be resampled onto the simulation grid and tracked. This script writes a
# ramp-and-hold profile sampled at a coarse, uneven rate, ingests it, and
# runs the offline strategy on the result.

import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from xfertrack import (AnalyticInverse, LtiSystem, TrajectoryCfg,
                       default_benchmark_config, ingest_csv_trajectory,
                       run_strategy)

# a profile a user might export from some other tool: uneven time stamps
t = np.concatenate([np.linspace(0.0, 2.0, 21),
                    np.linspace(2.1, 4.0, 12),
                    np.linspace(4.05, 8.0, 40)])
yd = np.clip(t, 0.0, 3.0) - 1.5  # ramp up, then hold

workdir = Path(tempfile.mkdtemp(prefix="xfertrack_demo_"))
path = workdir / "profile.csv"
with open(path, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["t", "yd"])
    w.writerows(zip(t, yd))
print(f"wrote {len(t)} unevenly spaced samples to {path}")

traj = ingest_csv_trajectory(path, dt=1.5e-3)
print(f"resampled to {traj.samples.size} steps at dt={traj.dt} s "
      f"({traj.duration:.2f} s total)")

cfg = default_benchmark_config(inverse_mode="analytic")
cfg = replace(cfg, trajectory=TrajectoryCfg(csv_path=str(path), dt=1.5e-3))
source = LtiSystem(cfg.source.a, cfg.source.b, cfg.source.c)

res = run_strategy(cfg, "offline", inverse=AnalyticInverse(source))
print(f"\noffline transfer on the ingested profile: "
      f"rms tracking = {res.rms_tracking:.4f}")

res_on = run_strategy(cfg, "online", inverse=AnalyticInverse(source))
print(f"online correction on the same profile:    "
      f"rms tracking = {res_on.rms_tracking:.3e}")
print("\nthe same file works from the command line:")
print(f"  xfertrack ingest {path} --out-dir runs/ingested")
