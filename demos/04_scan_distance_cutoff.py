"""Recover a planted spatial scale with the Moran's I cutoff scan.

Builds a panel whose disturbances correlate between flows into node pairs
sitting 620-800 km apart (regions far beyond the grid from each other),
computes per-period OLS residuals of the covariate model, and scans
distance cutoffs: Moran's I should peak at the 800 km plant.
"""

import math

import numpy as np

from netdisturb import (
    DyadicSeries,
    FlowIndex,
    NeighborhoodSpec,
    SemProblem,
    build_weight_matrix,
    draw_disturbances,
    fit_ols,
    scan_cutoffs,
)

RADIUS_KM = 800.0
rng = np.random.default_rng(8)

# Ten two-node regions on a wide ring: partners 620-800 km apart, regions
# thousands of km from each other.
n_regions = 10
ring_radius = n_regions * 3000.0 / (2.0 * math.pi)
nodes, positions = [], {}
for k in range(n_regions):
    angle = 2.0 * math.pi * k / n_regions
    cx, cy = ring_radius * math.cos(angle), ring_radius * math.sin(angle)
    offset = rng.uniform(620.0, RADIUS_KM)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    positions[f"A{k:02d}"] = (cx, cy)
    positions[f"B{k:02d}"] = (cx + offset * math.cos(theta), cy + offset * math.sin(theta))
    nodes += [f"A{k:02d}", f"B{k:02d}"]

distances = DyadicSeries(
    "distance",
    True,
    {
        (nodes[i], nodes[j], 1): math.dist(positions[nodes[i]], positions[nodes[j]])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    },
)

structure = NeighborhoodSpec("distance_import", cutoff_km=RADIUS_KM)
residuals, indices = {}, {}
for period in range(1, 7):
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    keep = rng.uniform(size=len(pairs)) < 0.12
    index = FlowIndex(period=period, dyads=tuple(sorted(p for p, k in zip(pairs, keep) if k)))
    weight = build_weight_matrix(structure, index, distances)
    u = draw_disturbances(weight, 0.7, 1.0, rng)[0]
    X = np.column_stack([np.ones(index.n), rng.standard_normal(index.n)])
    y = X @ np.array([1.0, 1.0]) + u
    residuals[period] = y - X @ fit_ols(SemProblem(y=y, X=X)).beta_hat
    indices[period] = index

scan = scan_cutoffs(
    residuals, indices, distances, direction="import",
    grid=np.arange(100.0, 2001.0, 100.0),
)

print(f"planted radius: {RADIUS_KM:g} km, recovered: {scan.best_cutoff:g} km\n")
print("cutoff_km   morans_i")
for cutoff, value, defined in zip(scan.grid, scan.moran_values, scan.defined):
    if not defined:
        print(f"{cutoff:9.0f}   (undefined)")
        continue
    bar = "#" * max(0, int(value * 120))
    marker = " <- best" if cutoff == scan.best_cutoff else ""
    print(f"{cutoff:9.0f}   {value: .4f} {bar}{marker}")
