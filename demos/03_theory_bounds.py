"""The error-bound machinery and its density-evolution cross-check.

For one model and weighting this computes the signal statistics
(delta, sigma2, tau), runs both scalar recursions to their fixed points,
finds the sampling rate sufficient to beat random guessing, and then
verifies with a population-dynamics simulation that the actual error sits
below both bounds.
"""

import numpy as np

from nblw import (
    Gaussian,
    ModelSpec,
    centered_weight,
    check_error_bounds,
    density_evolution,
    optimal_weight,
    sufficient_alpha,
    tau_optimal,
    theory_report,
    weight_stats,
)

p_in, p_out = Gaussian(0.5, 1.0), Gaussian(-0.5, 1.0)
w = centered_weight(p_in, p_out)
alpha, eta, k = 25.0, 0.1, 10

stats = weight_stats(p_in, p_out, w, alpha)
print(f"centered weighting: delta = {stats.delta}, sigma^2 = {stats.sigma2}, "
      f"tau = {stats.tau}")
print(f"sampling rate sufficient to improve the labeling: alpha > "
      f"{sufficient_alpha(eta, stats.delta, stats.sigma2):.2f}")

report = theory_report(stats, eta, k)
limits = report.to_dict()
print(f"\nratio recursion:    r_0 = {report.r_traj[0]:.4f} -> "
      f"r_{k + 1} = {report.r_traj[-1]:.4f}  (limit {limits['r_limit']:.4f})")
print(f"envelope recursion: q_0 = {report.q_traj[0]:.4f} -> "
      f"q_{k + 1} = {report.q_traj[-1]:.4f}  (limit {limits['q_limit']:.4f})")
print(f"Cantelli bound on the error: {report.cantelli_bound:.4f}")
print(f"Chernoff bound on the error: {report.chernoff_bound:.4f} "
      f"(informative: {report.informative})")

spec = ModelSpec(n=10**5, q=2, alpha=alpha, eta=eta, p_in=p_in, p_out=p_out, seed=0)
de = density_evolution(spec, w, k, pop=100_000, rng=np.random.default_rng(0))
print(f"\ndensity-evolution error estimate after k = {k}: "
      f"{de.error:.5f} +- {de.error_se:.5f}")
check = check_error_bounds(report, de.error, de.error_se)
print(f"error <= Cantelli bound: {check.cantelli_ok} "
      f"(margin {check.cantelli_margin:.4f})")
print(f"error <= Chernoff bound: {check.chernoff_ok} "
      f"(margin {check.chernoff_margin:.4f})")

# How much headroom does the model-aware optimal weighting leave?
tau_star = tau_optimal(alpha, p_in, p_out)
print(f"\ntau with simple centering: {stats.tau:.3f}; with the optimal "
      f"density-ratio weighting: {tau_star:.3f}")
ws_star = weight_stats(p_in, p_out, optimal_weight(p_in, p_out), alpha,
                       rng=np.random.default_rng(1))
print(f"(Monte-Carlo check of the optimal weighting: tau = {ws_star.tau:.3f} "
      f"from 1e6 samples)")
