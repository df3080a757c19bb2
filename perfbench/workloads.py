"""The benchmark's workloads: their shapes, and the inputs made from a seed.

Each workload is sized so that one run fits the run budget of
``BENCHMARK.json`` on a 2-core machine.  ``smoke=True`` shrinks every shape
so the self-tests can push each workload through the same code path in a
few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PIPELINE_CANDIDATES_SMALL = (
    "sender_attached, receiver_attached, full_activity, alliance_import, "
    "alliance_export, distance_import:1100, distance_export:300, rho0"
)
PIPELINE_CANDIDATES_LARGE = (
    "sender_attached, receiver_attached, full_activity, distance_import:1100, rho0"
)
# The pipeline stages a user runs after `simulate`, as (metric name, CLI command).
STAGES = (("fit", "fit"), ("select", "select"), ("scan", "scan-cutoff"), ("diagnose", "diagnose"))
TRUE_STRUCTURE = "full_activity"
TRUE_RHO_PANEL = 0.5
TRUE_RHO_STUDY = 0.6
TRUE_BETA = (1.0, 2.0, -1.0)
LAG = 2


@dataclass(frozen=True)
class PanelShape:
    """A CLI pipeline over one simulated panel."""

    n_nodes: int
    n_periods: int
    density: float
    candidates: str
    scan_grid: str | None  # None keeps the CLI's default 201-point grid
    # With one period, the simulation seed is chosen so that the period has
    # exactly this many flows (see `sized_seed`); None takes the seed as is.
    flows: int | None = None


@dataclass(frozen=True)
class StudyShape:
    """A simulation study: `reps` single-period replicates, simulate then fit.

    Each replicate has exactly `flows` flows (see `sized_seed`)."""

    reps: int
    n_nodes: int
    density: float
    flows: int


@dataclass(frozen=True)
class Workload:
    """A named shape; why each was chosen is in BENCHMARK.json and README.md.

    `unit_s` is the nominal time of one unit of work (a pipeline, or a
    study) on the reference machine; a run does ``seconds // unit_s`` units.
    """

    name: str
    shape: PanelShape | StudyShape
    unit_s: float

    @property
    def kind(self) -> str:
        return "panel" if isinstance(self.shape, PanelShape) else "study"


def _workloads(smoke: bool) -> dict[str, Workload]:
    smoke_grid = "0:20000:2000"
    items = [
        Workload(
            "panel-small",
            PanelShape(
                n_nodes=40,
                n_periods=3 if smoke else 20,
                density=0.096,
                candidates=PIPELINE_CANDIDATES_SMALL,
                scan_grid=smoke_grid if smoke else None,
            ),
            unit_s=15.0,
        ),
        Workload(
            "panel-large",
            PanelShape(
                n_nodes=60 if smoke else 200,
                n_periods=1,
                density=0.0375 if not smoke else 0.1,
                candidates=PIPELINE_CANDIDATES_LARGE,
                scan_grid=smoke_grid if smoke else None,
                flows=350 if smoke else 1500,
            ),
            unit_s=30.0,
        ),
        Workload(
            "recovery-mc",
            StudyShape(
                reps=3 if smoke else 10,
                n_nodes=150,
                density=500.0 / (150 * 149),
                flows=500,
            ),
            unit_s=5.0,
        ),
    ]
    return {w.name: w for w in items}


WORKLOAD_NAMES = tuple(_workloads(False))


def get(name: str, smoke: bool = False) -> Workload:
    return _workloads(smoke)[name]


def first_period_flows(n_nodes: int, n_periods: int, lag: int, density: float, seed: int) -> int:
    """Flows that `netdisturb.simulate.simulate` draws for its first period.

    Replays the simulator's random stream up to the first period's edge
    draw: two covariates per node and covariate period, node positions,
    pairwise alliances, then one uniform per ordered pair.
    """
    rng = np.random.default_rng(seed)
    rng.standard_normal((len(TRUE_BETA) - 1) * n_nodes * (n_periods + lag))
    rng.uniform(size=2 * n_nodes)
    rng.uniform(size=n_nodes * (n_nodes - 1) // 2)
    return int(np.count_nonzero(rng.uniform(size=n_nodes * (n_nodes - 1)) < density))


def sized_seed(n_nodes: int, n_periods: int, lag: int, density: float, flows: int, first: int) -> int:
    """The first of the seeds ``first + k`` (k < 1000) whose first period
    has exactly `flows` flows.

    Flow counts drawn at a fixed density vary by a few percent from seed to
    seed, and the O(n^3) work by three times as much; fixing the count makes
    every seed give the same problem size.
    """
    for k in range(1000):
        if first_period_flows(n_nodes, n_periods, lag, density, first + k) == flows:
            return first + k
    raise ValueError(f"no seed from {first} gives {flows} flows")


def simulation_seed(shape: PanelShape, seed: int) -> int:
    """The seed of the `netdisturb simulate` spec for workload seed `seed`."""
    if shape.flows is None:
        return seed
    return sized_seed(shape.n_nodes, shape.n_periods, LAG, shape.density, shape.flows, 1000 * seed)


def replicate_seed(shape: StudyShape, seed: int, rep: int) -> int:
    """Seed of replicate `rep` of a study run with workload seed `seed`
    (the study's `SimSpec`s keep the default lag of 0)."""
    return sized_seed(shape.n_nodes, 1, 0, shape.density, shape.flows, 1000 * (1000 * seed + rep))


def write_panel_inputs(shape: PanelShape, seed: int, workdir: Path) -> tuple[Path, Path]:
    """Write the simulation spec and the run config; returns their paths.

    The run config reads the panel that `netdisturb simulate` writes to
    ``workdir/data``.
    """
    sim_cfg = workdir / "sim.cfg"
    sim_cfg.write_text(
        f"n_nodes = {shape.n_nodes}\n"
        f"n_periods = {shape.n_periods}\n"
        f"density = {shape.density}\n"
        f"structure = {TRUE_STRUCTURE}\n"
        f"rho = {TRUE_RHO_PANEL}\n"
        f"beta = {', '.join(str(b) for b in TRUE_BETA)}\n"
        "sigma = 1\n"
        f"lag = {LAG}\n"
        f"seed = {simulation_seed(shape, seed)}\n",
        encoding="utf-8",
    )
    run_cfg = workdir / "run.cfg"
    lines = [
        "edges = data/edges.csv",
        "roster = data/roster.csv",
        "nodal.x1 = data/x1.csv",
        "nodal.x2 = data/x2.csv",
        "dyadic.alliance = data/alliance.csv",
        "dyadic.alliance.default = 0",
        "dyadic.distance = data/distance.csv",
        "recipe = x1:sender, x2:receiver",
        f"lag = {LAG}",
        f"candidates = {shape.candidates}",
        "rho_interval = unit",
        "scan_direction = import",
        "smooth_window = 5",
        f"diagnose_structure = {TRUE_STRUCTURE}",
        f"seed = {seed}",
    ]
    if shape.scan_grid is not None:
        lines.append(f"scan_grid = {shape.scan_grid}")
    run_cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sim_cfg, run_cfg
