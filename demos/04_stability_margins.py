# 04_stability_margins.py
#
# When is the online correction safe? The similarity vector (S1, S2)
# measures how far the target's r-step-ahead map is from the source's;
# the target's ISS gains (L1, L2) bound how strongly bounded inputs can
# move its state; a budget (beta1..beta3) fitted from logged prediction
# residuals bounds the online module's error. Together they give a
# sufficient condition on the correction gain alpha. Sufficient only:
# when it fails nothing is concluded, and the bundled pair is exactly
# such a case.

from dataclasses import replace

import numpy as np

from xfertrack import (AnalyticInverse, LtiSystem, alpha_sweep,
                       assemble_budget, default_benchmark_config,
                       fit_prediction_budget, iss_gains, lemma1_check,
                       run_strategy, similarity)

cfg = default_benchmark_config(inverse_mode="analytic")
source = LtiSystem(cfg.source.a, cfg.source.b, cfg.source.c)
target = LtiSystem(cfg.target.a, cfg.target.b, cfg.target.c)

S = similarity(source, target)
print(f"similarity: S1={S.s1:.3f}, S2={S.s2}, ||S2||={S.s2_norm:.4f}")
L1, L2 = iss_gains(target)
print(f"target ISS gains: L1={L1:.4f}, L2={L2:.4f}")

# fit the prediction-error budget from a short online run
short = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=12.0))
res = run_strategy(short, "online", inverse=AnalyticInverse(source))
k = res.log.column("k").astype(int)
keep = k >= target.r
traj = short.trajectory.build()
yd = traj.values(traj.n_steps + target.r)
lam = (res.log.column("e_p") - res.log.column("e_p_star"))[keep]
a = np.abs(yd[k[keep] + target.r])
b = np.linalg.norm(res.log.states[keep], axis=1)
betas = fit_prediction_budget(np.column_stack([lam, a, b]))
print(f"fitted budget: beta1={betas[0]:.3g}, beta2={betas[1]:.3g}, "
      f"beta3={betas[2]:.3g}")

budget = assemble_budget(source, target, betas=betas)
print(f"beta4 = 1 - L1 * ||A_l/B_l|| = {budget.beta4:.3f}")
print(f"certified gain bound alpha_max = {budget.alpha_max}\n")

for al in (0.0, 0.5, 1.0):
    v = lemma1_check(source, target, budget, al)
    print(f"  alpha={al:<4} -> {v.status} (lhs={v.lhs:.3f}, rhs={v.rhs:.3f})")
print("\nbeta4 < 0: the scenario check inside the condition already fails")
print("for this pair, so no gain is certified, not even 0. the condition")
print("being sufficient only, the sweep below shows the runs are bounded")
print("and accurate anyway:\n")

sweep = alpha_sweep(replace(short, sweep_alphas=[0.0, 0.5, 1.0, 2.0]))
print(f"{'alpha':>6} {'bounded':>8} {'rms tracking':>14}")
for row in sweep["sweep"]:
    print(f"{row['alpha']:>6} {str(row['bounded']):>8} "
          f"{row['rms_tracking']:>14.3e}")

# a pair where the condition does bite: two stable scalar systems
src1 = LtiSystem([[0.1]], [1.0], [1.0])
tgt1 = LtiSystem([[0.2]], [1.0], [1.0])
bud1 = assemble_budget(src1, tgt1)
print(f"\nscalar pair A=0.1 -> A=0.2: beta4={bud1.beta4:.3f}, "
      f"alpha_max={bud1.alpha_max:.3f}")
for al in (1.0, 6.9, 7.1):
    v = lemma1_check(src1, tgt1, bud1, al)
    print(f"  alpha={al:<4} -> {v.status} (margin {v.margin:+.3f})")
