# 03_online_error_prediction.py
#
# A closer look at the online module. At every step the controller asks a
# sliding-window GP: "if I apply the inverse input u1 from state x, what
# tracking error will the target show r steps from now?" For a linear
# target that error has a closed form, so the GP's prediction e_p can be
# audited against the exact value e_p_star step by step.

from dataclasses import replace

import numpy as np

from xfertrack import (AnalyticInverse, LtiSystem, default_benchmark_config,
                       run_strategy)

cfg = default_benchmark_config(inverse_mode="analytic")
cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=12.0))

source = LtiSystem(cfg.source.a, cfg.source.b, cfg.source.c)
res = run_strategy(cfg, "online", inverse=AnalyticInverse(source))

k = res.log.column("k")
e_p = res.log.column("e_p")
e_star = res.log.column("e_p_star")
alpha = res.log.column("alpha")

fill = cfg.gp.capacity  # the correction starts once the window is full
print(f"prediction audit at selected steps (window capacity is {fill}):\n")
print(f"{'k':>6} {'e_p (GP)':>13} {'e_p exact':>13} {'|diff|':>10} {'alpha':>7}")
for kk in (1, 5, fill - 1, fill, 30, 100, 1000, len(k) - 1):
    i = int(kk)
    print(f"{i:>6} {e_p[i]:>13.3e} {e_star[i]:>13.3e} "
          f"{abs(e_p[i] - e_star[i]):>10.1e} {alpha[i]:>7.3f}")

early = slice(1, fill)
late = slice(fill, None)
rms = lambda v: float(np.sqrt(np.mean(v ** 2)))
print(f"\nprediction rms while the window fills (k < {fill}): "
      f"{rms(e_p[early] - e_star[early]):.3e}")
print(f"prediction rms afterwards:                 "
      f"{rms(e_p[late] - e_star[late]):.3e}")
print(f"tracking rms (k >= r):                     {res.rms_tracking:.3e}")
print("\nonly the k = 1 prediction (empty window) misses; the GP tracks the")
print("exact error map closely from the first residual on. The correction")
print("itself stays off (alpha = 0) until the window is full: gain")
print("estimates from a part-filled window are untrustworthy. Even the")
print("first live estimates wobble (the window's inputs are nearly")
print("collinear, so the input derivative is poorly identified), but the")
print("smoothed gain climbs within ~100 steps to 1 / input-gain = 1")
