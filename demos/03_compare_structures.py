"""Model selection across dependence structures on a synthetic panel.

Generates a 20-period panel under the full-activity structure, fits four
candidates (three structures plus the independent-errors rho0 baseline) to
every period, and prints the aggregated AIC table and per-period Akaike
weights.  The generating structure should win with aggregated delta 0.
"""

from netdisturb import (
    NeighborhoodSpec,
    SemProblem,
    SimSpec,
    build_weight_matrix,
    fit,
    fit_ols,
    log_flow_vector,
    select,
    simulate,
    smooth_weights,
)

CANDIDATES = [
    NeighborhoodSpec("sender_attached"),
    NeighborhoodSpec("receiver_attached"),
    NeighborhoodSpec("full_activity"),
]

spec = SimSpec(
    n_nodes=60,
    n_periods=20,
    density=150.0 / (60 * 59),
    structure=NeighborhoodSpec("full_activity"),
    rho=0.55,
    beta=(1.0, 2.0, -1.0),
    sigma=1.0,
    seed=11,
)
result = simulate(spec)

fits = {}
for period, snapshot in zip(sorted(result.indices), result.panel):
    index = result.indices[period]
    y = log_flow_vector(snapshot, index)
    design = result.designs[period]
    for candidate in CANDIDATES:
        weight = (
            result.weights[period]
            if candidate.kind == spec.structure.kind
            else build_weight_matrix(candidate, index)
        )
        fits[(period, candidate.structure_id)] = fit(
            SemProblem(y=y, X=design, W=weight)
        )
    fits[(period, "rho0")] = fit_ols(SemProblem(y=y, X=design))

structures = [c.structure_id for c in CANDIDATES] + ["rho0"]
report = select(fits, structures=structures)

print("aggregated AIC (delta vs best):")
for structure, aic, delta in zip(
    report.structures, report.aggregated_aic, report.aggregated_delta
):
    marker = "  <- winner" if structure == report.winner else ""
    print(f"  {structure:<20} {aic:10.1f}  delta {delta:8.1f}{marker}")

print("\nper-period Akaike weights (smoothed, window 5):")
smoothed = smooth_weights(report, window=5)
header = "period " + " ".join(f"{s[:12]:>12}" for s in report.structures)
print(header)
for t, period in enumerate(report.periods):
    row = " ".join(f"{w:12.3f}" for w in smoothed[t])
    print(f"{period:>6} {row}")
