"""Residual diagnostics for a fitted panel.

Fits the generating structure to every period of a synthetic panel, pools
the standardized whitened residuals, and prints QQ extremes, a text
histogram against the standard normal reference, and per-node summaries of
the spillover residuals rho_hat W u_hat.
"""

import numpy as np

from netdisturb import (
    NeighborhoodSpec,
    SemProblem,
    SimSpec,
    fit,
    histogram,
    kde,
    log_flow_vector,
    node_values,
    qq_pairs,
    simulate,
    standardized_residuals,
    tradecorr_residuals,
)
from netdisturb.sem import residuals

spec = SimSpec(
    n_nodes=40,
    n_periods=10,
    density=120.0 / (40 * 39),
    structure=NeighborhoodSpec("full_activity"),
    rho=0.5,
    beta=(1.0, 2.0, -1.0),
    sigma=1.0,
    seed=21,
)
result = simulate(spec)

pooled = []
spillovers = []
for period, snapshot in zip(sorted(result.indices), result.panel):
    index = result.indices[period]
    problem = SemProblem(
        y=log_flow_vector(snapshot, index),
        X=result.designs[period],
        W=result.weights[period],
    )
    fitted = fit(problem)
    # A fit holds its estimates; the residuals are formed from its problem.
    u_hat, eps_hat = residuals(problem, fitted.beta_hat, fitted.rho_hat)
    pooled.append(standardized_residuals(fitted, eps_hat))
    spillovers.append(tradecorr_residuals(fitted, u_hat, result.weights[period], index))

standardized = np.concatenate(pooled)
print(f"pooled {standardized.size} standardized residuals "
      f"(mean {standardized.mean():.3f}, sd {standardized.std():.3f})")

theoretical, empirical = qq_pairs(standardized)
print("\nQQ tail pairs (theoretical vs empirical):")
for k in (0, 1, 2, -3, -2, -1):
    print(f"  {theoretical[k]: .3f}  {empirical[k]: .3f}")

print("\nhistogram vs standard normal reference:")
hist = histogram(standardized)
for k in range(hist.counts.size):
    left, right = hist.bin_edges[k], hist.bin_edges[k + 1]
    print(
        f"  [{left: 6.2f},{right: 6.2f})  {'#' * int(hist.counts[k] / 4):<40} "
        f"{hist.counts[k]:>4} (ref {hist.normal_ref[k]:6.1f})"
    )

by_node = node_values(spillovers)

print("\nspillover residuals by node (top 8 by |mean|):")
ranked = sorted(by_node, key=lambda n: -abs(np.mean(by_node[n])))[:8]
for node in ranked:
    values = by_node[node]
    curve = kde(values)
    peak = curve.grid[np.argmax(curve.density)]
    print(
        f"  {node}: n={values.size:<4} mean {values.mean(): .3f}  "
        f"density peak at {peak: .3f} (bandwidth {curve.bandwidth:.3f})"
    )
