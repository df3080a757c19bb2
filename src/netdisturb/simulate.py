"""Synthetic panels drawn from the exact generative model.

Each period realizes a directed Erdos-Renyi graph over the node roster, a
mask over the ordered node pairs that gives the flow index's node codes,
builds the declared dependence structure's weight matrix W over those
flows, draws eps ~ N(0, sigma^2 I), solves

    u = (I - rho W)^{-1} eps,    y = X beta + u,    flows = exp(y)

and packages everything in the same types the ingestion path produces.
The solve goes through W's factors (:meth:`WeightMatrix.solve`), so no
n x n matrix is formed.
Covariate series are standard normal per node and period, alliances are
symmetric Bernoulli indicators, and node positions are uniform on a disk
so capital-style pairwise distances exist for the distance structures.
Everything is reproducible from the seed, and the CSV emitters write the
exact formats the loaders consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._serialize import write_json
from .covariates import (
    CovariateTerm,
    DesignMatrix,
    DyadicSeries,
    NodalSeries,
    build_design,
    write_dyadic_csv,
    write_nodal_csv,
)
from .errors import NetdisturbError
from .panel import (
    FlowIndex,
    NetworkSnapshot,
    NodeRoster,
    RosterEntry,
    write_edge_csv,
    write_roster_csv,
)
from .sem import spectrum
from .weights import DenseWeight, NeighborhoodSpec, WeightMatrix, build_weight_matrix

# Re-draw a period's graph at most this many times when it comes out too
# sparse to fit (fewer flows than parameters plus two).
MAX_GRAPH_RETRIES = 100


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one synthetic panel."""

    n_nodes: int
    n_periods: int
    density: float
    structure: NeighborhoodSpec
    rho: float
    beta: tuple[float, ...]
    sigma: float
    seed: int
    lag: int = 0
    alliance_prob: float = 0.3
    disk_radius_km: float = 3000.0

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise NetdisturbError(f"density must be in (0, 1], got {self.density}")
        if self.n_nodes < 2 or self.n_periods < 1:
            raise NetdisturbError("need at least 2 nodes and 1 period")
        if not self.sigma > 0:
            raise NetdisturbError(f"sigma must be positive, got {self.sigma}")
        if len(self.beta) < 1:
            raise NetdisturbError("beta needs at least the intercept coefficient")
        if self.lag < 0:
            raise NetdisturbError(f"lag must be >= 0, got {self.lag}")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


def synthetic_recipe(n_coefficients: int) -> tuple[CovariateTerm, ...]:
    """Recipe matching a beta of the given length (intercept included).

    Coefficient k > 0 reads the standard normal nodal series ``x{k}`` at
    the flow's sender for odd k and at its receiver for even k.
    """
    terms = []
    for k in range(1, n_coefficients):
        role = "sender" if k % 2 == 1 else "receiver"
        terms.append(CovariateTerm(f"x{k}", role))
    return tuple(terms)


@dataclass(frozen=True, eq=False)
class SimResult:
    """A generated panel plus every intermediate the tests may need."""

    spec: SimSpec
    panel: list[NetworkSnapshot]
    roster: NodeRoster
    nodal: list[NodalSeries]
    dyadic: list[DyadicSeries]
    indices: dict[int, FlowIndex]
    designs: dict[int, DesignMatrix]
    weights: dict[int, WeightMatrix]
    truth: dict = field(default_factory=dict)


def draw_disturbances(
    W: WeightMatrix | DenseWeight, rho: float, sigma: float, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Draw `size` disturbance vectors u = (I - rho W)^{-1} eps.

    Returns a (size, n) array; this is the exact law the estimator assumes,
    with covariance sigma^2 (I - rho W)^{-1} (I - rho W')^{-1}.  W solves
    for all draws at once (:meth:`WeightMatrix.solve` through its factors,
    with no n x n array).
    """
    eps = rng.normal(0.0, sigma, size=(size, W.n))
    return W.solve(rho, eps.T).T


def simulate(spec: SimSpec) -> SimResult:
    """Generate a panel from the disturbance model.

    Raises
    ------
    NetdisturbError
        If |rho| falls outside the spectral interval of some period's
        realized weight matrix; re-run with a smaller |rho|.
    """
    rng = np.random.default_rng(spec.seed)
    nodes = [f"N{k:03d}" for k in range(spec.n_nodes)]
    first_period = 1
    roster = NodeRoster(
        entries=tuple(
            RosterEntry(node_id=node, active_from=first_period - spec.lag,
                        active_to=spec.n_periods)
            for node in nodes
        )
    )
    p = len(spec.beta)
    recipe = synthetic_recipe(p)

    # Index codes are ranks among the sorted names (N1000 sorts before N101).
    n = spec.n_nodes
    names = sorted(nodes)
    code = np.argsort(np.argsort(nodes, kind="stable"))
    # One standard normal per node (in roster order) and period, drawn at once.
    cov_periods = np.arange(first_period - spec.lag, spec.n_periods + 1)
    nodal = [
        NodalSeries.from_arrays(
            f"x{k}", names, np.repeat(code, cov_periods.size), np.tile(cov_periods, n),
            rng.standard_normal(n * cov_periods.size),
        )
        for k in range(1, p)
    ]

    # Node geometry: uniform positions on a disk, Euclidean pairwise
    # distances standing in for capital distances.
    radius = spec.disk_radius_km / 2.0
    angles = rng.uniform(0.0, 2.0 * math.pi, spec.n_nodes)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, spec.n_nodes))
    xy = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    first, second = np.triu_indices(spec.n_nodes, k=1)
    periods = np.full(first.size, first_period)
    distances = np.hypot(*(xy[first] - xy[second]).T)
    allied = rng.uniform(size=first.size) < spec.alliance_prob
    first, second = code[first], code[second]  # each pair's node codes, in place of its positions
    dyadic = [
        DyadicSeries.from_arrays("alliance", True, names, first, second, periods, allied.astype(float)),
        DyadicSeries.from_arrays("distance", True, names, first, second, periods, distances),
    ]
    context = {series.name: series for series in dyadic}.get(spec.structure.dyadic_series)

    # Every ordered pair a != b as a * n + b, in the order the graph draws use.
    pairs = np.flatnonzero(~np.eye(n, dtype=bool))
    min_flows = p + 2

    panel = []
    indices = {}
    designs = {}
    weight_mats = {}
    truth_periods = {}
    for period in range(first_period, spec.n_periods + 1):
        for _ in range(MAX_GRAPH_RETRIES):
            keep = rng.uniform(size=pairs.size) < spec.density
            if np.count_nonzero(keep) >= min_flows:
                break
        else:
            raise NetdisturbError(
                f"period {period}: could not realize at least {min_flows} flows "
                f"at density {spec.density}; increase density or n_nodes"
            )
        drawn = pairs[keep]
        keys = np.sort(code[drawn // n] * n + code[drawn % n])
        index = FlowIndex.from_codes(period, names, keys // n, keys % n)
        flows = NetworkSnapshot(index, np.ones(index.n))  # the flows, before their values
        design = build_design(flows, index, nodal, dyadic, recipe=recipe, lag=spec.lag)
        W = build_weight_matrix(spec.structure, index, context)
        lower, upper = spectrum(W)
        if not lower < spec.rho < upper:
            raise NetdisturbError(
                f"period {period}: rho={spec.rho} outside the spectral interval "
                f"({lower:.6g}, {upper:.6g}) of the realized "
                f"weight matrix; choose a smaller |rho|"
            )
        u = draw_disturbances(W, spec.rho, spec.sigma, rng, size=1)[0]
        y = design.rows @ np.asarray(spec.beta) + u
        # exp(y) must stay a normal positive double, or the flow values
        # would degenerate to 0 or inf.
        if np.abs(y).max() > 700.0:
            raise NetdisturbError(
                f"period {period}: log flows reach |y|={np.abs(y).max():.3g}, "
                f"beyond exp() range; reduce |rho| or sigma"
            )
        panel.append(NetworkSnapshot(index, np.fromiter(map(math.exp, y.tolist()), float, y.size)))
        indices[period] = index
        designs[period] = design
        weight_mats[period] = W
        truth_periods[period] = {
            "n_flows": index.n,
            "rho_bounds": [lower, upper],
        }

    truth = {
        "rho": spec.rho,
        "beta": list(spec.beta),
        "sigma": spec.sigma,
        "structure": spec.structure.structure_id,
        "seed": spec.seed,
        "lag": spec.lag,
        "density": spec.density,
        "n_nodes": spec.n_nodes,
        "column_names": ["intercept"] + [term.column_name for term in recipe],
        "periods": truth_periods,
    }
    return SimResult(
        spec=spec,
        panel=panel,
        roster=roster,
        nodal=nodal,
        dyadic=dyadic,
        indices=indices,
        designs=designs,
        weights=weight_mats,
        truth=truth,
    )


def write_sim_csvs(result: SimResult, outdir) -> dict[str, Path]:
    """Emit the panel and covariates in the loaders' CSV formats.

    Writes ``edges.csv``, ``roster.csv``, one ``<name>.csv`` per covariate
    series, and ``truth.json``; returns the paths keyed by artifact name.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": outdir / "edges.csv",
        "roster": outdir / "roster.csv",
        "truth": outdir / "truth.json",
    }
    write_edge_csv(paths["edges"], result.panel)
    write_roster_csv(paths["roster"], result.roster)
    for series in result.nodal:
        paths[series.name] = outdir / f"{series.name}.csv"
        write_nodal_csv(paths[series.name], series)
    for series in result.dyadic:
        paths[series.name] = outdir / f"{series.name}.csv"
        write_dyadic_csv(paths[series.name], series)
    write_json(paths["truth"], result.truth)
    return paths
