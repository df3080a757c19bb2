"""Moran's I on pooled residuals and the distance-cutoff scan.

Moran's I for a vector z under weights W (after centering z) is

    I = (m / S0) * (z' W z) / (z' z),    S0 = sum of all entries of W

For cutoff selection, per-period distance weight matrices are stacked
block-diagonally over the panel so pooled residuals never correlate across
periods, and I is evaluated on a grid of cutoffs; the chosen cutoff is the
first argmax.  Each period's block is the weight builder's
``distance_<direction>`` W: flows anchored at the receiver (import) or
sender (export), related by d(anchor, partner) < cutoff, with no reverse
flow.  No block is ever built: with pooled centered z, I decomposes into
per-block quadratic forms z_t' W_t z_t and per-block S0 contributions, and
both depend on a flow only through its anchor a.  Let S_a be the sum of
the centered residuals of the flows at a, n_a their number, and, at a
cutoff c, T_a(c) and M_a(c) the sums of S_b and of n_b over the anchors b
with d(a, b) < c.  A flow at a has M_a neighbours, each weighted 1/M_a, so

    z_t' W_t z_t = sum_a S_a T_a / M_a,    S0_t = sum of n_a over M_a > 0.

The scan takes each period's anchor table once (:func:`anchor_table`),
sorts each row of distances once, and reads T_a and M_a at every cutoff as
cumulative sums at one ``searchsorted`` per row (left side, so d < c stays
strict): O(N^2 log N + N G) per period for N anchor nodes and G
cutoffs.  Grid points that give every row the same count
read the same sums, so their values tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._serialize import write_csv, write_json
from .covariates import DyadicSeries
from .panel import FlowIndex
from .weights import anchor_table

DEFAULT_GRID_KM = np.arange(0.0, 20_000.0 + 100.0, 100.0)


def morans_i(z, weight) -> float:
    """Moran's I of ``z`` (centered internally) under ``weight``.

    Raises
    ------
    ValueError
        If the weight matrix has no nonzero entry or z has no variance.
    """
    z = np.asarray(z, dtype=float).ravel()
    weight = np.asarray(weight, dtype=float)
    if weight.shape != (z.size, z.size):
        raise ValueError(f"weight shape {weight.shape} does not match z length {z.size}")
    s0 = weight.sum()
    if s0 == 0.0:
        raise ValueError("weight matrix is all zero; Moran's I undefined")
    zc = z - z.mean()
    denom = zc @ zc
    if denom == 0.0:
        raise ValueError("z has zero variance after centering")
    return float(z.size / s0 * (zc @ (weight @ zc)) / denom)


@dataclass(frozen=True, eq=False)
class CutoffScan:
    """Moran's I along a cutoff grid; NaN marks undefined grid points."""

    grid: np.ndarray
    moran_values: np.ndarray
    defined: np.ndarray
    best_cutoff: float
    best_value: float
    direction: str


def scan_cutoffs(
    residuals: Mapping[int, np.ndarray],
    indices: Mapping[int, FlowIndex],
    distances: DyadicSeries,
    direction: str = "import",
    grid=None,
) -> CutoffScan:
    """Scan distance cutoffs by maximizing Moran's I over the panel.

    Parameters
    ----------
    residuals : mapping period -> residual vector
        Typically the per-period OLS residuals of the covariate model,
        each aligned with the matching entry of ``indices``.
    indices : mapping period -> FlowIndex
    distances : DyadicSeries
        Pairwise distances in km.
    direction : {"import", "export"}
        Anchor the neighbourhoods at receivers or at senders.
    grid : array-like, optional
        Increasing cutoffs in km; defaults to 0..20000 in steps of 100.

    Returns
    -------
    CutoffScan
        Cutoffs where every period's weight block is all-zero are recorded
        as undefined and skipped when locating the maximum; ties pick the
        smallest cutoff.
    """
    if direction not in ("import", "export"):
        raise ValueError(f"direction must be 'import' or 'export', got {direction!r}")
    grid = np.asarray(DEFAULT_GRID_KM if grid is None else grid, dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("cutoff grid must be nonempty, finite and strictly increasing")
    periods = sorted(residuals)
    if not periods:
        raise ValueError("no residual vectors given")
    if sorted(indices) != periods:
        raise ValueError("residuals and indices cover different periods")

    segments = []
    tables = []
    for period in periods:
        z_t = np.asarray(residuals[period], dtype=float).ravel()
        index = indices[period]
        if z_t.size != index.n:
            raise ValueError(
                f"period {period}: residual length {z_t.size} != index n {index.n}"
            )
        segments.append(z_t)
        (anchor,), table = anchor_table(f"distance_{direction}", index, distances)
        tables.append((anchor, table))

    z = np.concatenate(segments)
    zc = z - z.mean()
    denom = zc @ zc
    if denom == 0.0:
        raise ValueError("pooled residuals have zero variance")
    blocks = np.split(zc, np.cumsum([seg.size for seg in segments])[:-1])

    total_quad = np.zeros(grid.size)
    total_s0 = np.zeros(grid.size, dtype=np.int64)
    for (anchor, table), zc_t in zip(tables, blocks):
        sums = np.bincount(anchor, zc_t, minlength=len(table))
        flows = np.bincount(anchor, minlength=len(table))
        order = np.argsort(table, axis=1)
        rows = np.take_along_axis(table, order, axis=1)
        # reach[a, g] counts the anchors b with d(a, b) < grid[g]; they lead row a of order.
        reach = np.array([np.searchsorted(row, grid) for row in rows])
        T = np.take_along_axis(np.cumsum(np.pad(sums[order], ((0, 0), (1, 0))), axis=1), reach, axis=1)
        M = np.take_along_axis(np.cumsum(np.pad(flows[order], ((0, 0), (1, 0))), axis=1), reach, axis=1)
        total_quad += (sums[:, None] * np.divide(T, M, out=np.zeros(T.shape), where=M > 0)).sum(axis=0)
        total_s0 += (flows[:, None] * (M > 0)).sum(axis=0)

    values = np.full(grid.size, np.nan)
    linked = total_s0 > 0
    values[linked] = z.size / total_s0[linked] * total_quad[linked] / denom
    defined = np.isfinite(values)
    if not defined.any():
        raise ValueError("Moran's I undefined at every grid point")
    best = int(np.nanargmax(values))
    return CutoffScan(
        grid=grid,
        moran_values=values,
        defined=defined,
        best_cutoff=float(grid[best]),
        best_value=float(values[best]),
        direction=direction,
    )


def write_scan_csv(path, scan: CutoffScan) -> None:
    """`cutoff_km,morans_i,defined` rows over the grid."""
    columns = (scan.grid, scan.moran_values, scan.defined.astype(int))
    write_csv(path, ("cutoff_km", "morans_i", "defined"), columns)


def write_scan_json(path, scan: CutoffScan) -> None:
    write_json(
        path,
        {
            "direction": scan.direction,
            "best_cutoff_km": scan.best_cutoff,
            "best_morans_i": scan.best_value,
            "grid_points": int(scan.grid.size),
            "defined_points": int(scan.defined.sum()),
        },
    )
