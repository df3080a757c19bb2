"""Residual diagnostics for fitted disturbance models.

Emits plot-ready data only (no rendering): QQ pairs and histogram bins of
standardized whitened residuals against a standard normal reference, and
per-node kernel density estimates of the spillover residuals rho_hat W
u_hat, each flow's value attributed to both of its endpoint nodes.  A fit
holds its estimates only: the residual functions take the fit with the
residuals that :func:`~netdisturb.sem.residuals` forms for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The normal quantiles and masses come from statistics.NormalDist, not
# scipy.special, whose import costs a CLI process more than numpy's does.
# statistics itself (about 7 ms, for fractions and decimal) is imported
# inside the two functions that use it.

from ._serialize import Coded, write_blocks, write_csv
from .errors import EstimationError
from .panel import FlowIndex, write_edge_csv
from .sem import DEGENERATE_SIGMA2, SemFit
from .weights import WeightMatrix


def standardized_residuals(fit: SemFit, eps_hat) -> np.ndarray:
    """The fit's whitened residuals ``eps_hat`` scaled by its estimated sigma."""
    if not fit.converged:
        raise EstimationError("cannot standardize residuals of a non-converged fit")
    if fit.degenerate or fit.sigma2_hat < DEGENERATE_SIGMA2:
        raise EstimationError("sigma^2 is degenerate; standardized residuals undefined")
    return eps_hat / math.sqrt(fit.sigma2_hat)


def qq_pairs(values) -> tuple[np.ndarray, np.ndarray]:
    """(theoretical, empirical) quantile pairs against a standard normal.

    Sorted values are paired with normal quantiles at probabilities
    (k - 0.5) / n for k = 1..n.
    """
    from statistics import NormalDist

    values = np.sort(np.asarray(values, dtype=float).ravel())
    n = values.size
    if n == 0:
        raise ValueError("no values for QQ pairs")
    probs = (np.arange(1, n + 1) - 0.5) / n
    return np.fromiter(map(NormalDist().inv_cdf, probs.tolist()), float, n), values


@dataclass(frozen=True, eq=False)
class HistogramData:
    """Freedman-Diaconis bins with standard-normal reference counts."""

    bin_edges: np.ndarray
    counts: np.ndarray
    normal_ref: np.ndarray


def histogram(values) -> HistogramData:
    """Bin values with the Freedman-Diaconis rule.

    ``normal_ref`` holds the count a standard normal sample of the same
    size would put in each bin (n times the normal mass of the bin).
    """
    from statistics import NormalDist

    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least two values to bin")
    counts, edges = np.histogram(values, bins="fd")
    cdf = np.fromiter(map(NormalDist().cdf, edges.tolist()), float, edges.size)
    mass = cdf[1:] - cdf[:-1]
    return HistogramData(bin_edges=edges, counts=counts, normal_ref=values.size * mass)


@dataclass(frozen=True, eq=False)
class TradecorrResiduals:
    """Per-flow spillover residuals rho_hat * W u_hat for one period."""

    period: int
    values: np.ndarray
    index: FlowIndex


def tradecorr_residuals(
    fit: SemFit, u_hat, weights: WeightMatrix, index: FlowIndex
) -> TradecorrResiduals:
    """Spillover residuals rho_hat W u_hat of one period's flows, in the order of ``index``."""
    if not fit.converged:
        raise EstimationError("cannot compute spillover residuals of a non-converged fit")
    if weights.index is not index and weights.index.dyads != index.dyads:
        raise EstimationError("weight matrix and flow index do not match")
    values = fit.rho_hat * (weights @ u_hat)
    return TradecorrResiduals(period=index.period, values=values, index=index)


def node_values(items) -> dict[str, np.ndarray]:
    """The spillover residuals of ``items`` grouped by node, in sorted node order.

    Each flow's value is attributed to both its sender and its receiver, so
    it appears under two nodes.  A node's values keep the order of
    ``items``, then of the flows, the sender's copy before the receiver's.
    """
    items = list(items)
    if not items:
        return {}
    nodes = np.unique(np.concatenate([np.asarray(item.index.nodes, str) for item in items]))
    codes = np.concatenate([
        np.searchsorted(nodes, np.asarray(item.index.nodes, str))[
            np.column_stack((item.index.sender, item.index.receiver)).ravel()
        ]
        for item in items
    ])
    order = np.argsort(codes, kind="stable")
    present, starts = np.unique(codes[order], return_index=True)
    values = np.concatenate([np.repeat(item.values, 2) for item in items])[order]
    return dict(zip(nodes[present].tolist(), np.split(values, starts[1:])))


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Gaussian KDE evaluated on a regular grid."""

    node_id: str
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def kde(values, n_grid: int = 512, node_id: str = "") -> DensityCurve:
    """Gaussian kernel density with Silverman's rule-of-thumb bandwidth.

    The bandwidth is 0.9 * min(sd, IQR / 1.34) * m^(-1/5) (falling back to
    the sd when the IQR is zero); the grid spans the data range plus three
    bandwidths on each side.

    Raises
    ------
    ValueError
        With fewer than two distinct values.
    """
    values = np.asarray(values, dtype=float).ravel()
    m = values.size
    if m < 2 or np.unique(values).size < 2:
        raise ValueError("need at least two distinct values for a density estimate")
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    bandwidth = 0.9 * scale * m ** (-0.2)
    grid = np.linspace(values.min() - 3 * bandwidth, values.max() + 3 * bandwidth, n_grid)
    density = np.zeros(n_grid)
    # Chunk over the sample so the (grid x m) kernel matrix stays small.
    for start in range(0, m, 4096):
        chunk = values[start : start + 4096]
        z = (grid[:, None] - chunk[None, :]) / bandwidth
        density += (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)).sum(axis=1)  # standard normal pdf
    density /= m * bandwidth
    return DensityCurve(node_id=node_id, grid=grid, density=density, bandwidth=bandwidth)


def write_qq_csv(path, theoretical, empirical) -> None:
    write_csv(path, ("theoretical", "empirical"), (theoretical, empirical))


def write_hist_csv(path, hist: HistogramData) -> None:
    edges = hist.bin_edges
    columns = (edges[:-1], edges[1:], hist.counts, hist.normal_ref)
    write_csv(path, ("bin_left", "bin_right", "count", "normal_ref"), columns)


def write_kde_csv(path, curves) -> None:
    """`node,x,density` rows, curve by curve."""
    write_blocks(path, ("node", "x", "density"), (
        (Coded((curve.node_id,), np.zeros(curve.grid.size, np.intp)), curve.grid, curve.density)
        for curve in curves
    ))


def write_tradecorr_csv(path, items) -> None:
    """`period,sender,receiver,value` rows from TradecorrResiduals objects: the edge CSV format."""
    write_edge_csv(path, items)
