"""Compare candidate dependence structures by AIC.

For every period each candidate's AIC is rescaled by the period minimum
(delta_i = AIC_i - AIC_min) and turned into an Akaike weight

    w_i = exp(-delta_i / 2) / sum_r exp(-delta_r / 2)

interpretable as the probability that candidate i is the best of the set.
Aggregated AICs (summed over periods) are rescaled the same way, with the
overall winner attaining delta 0.  Periods where a candidate is missing,
failed, did not converge or has a degenerate fit (a perfect fit, or a
non-finite AIC) are excluded from both views and reported; a candidate
with no usable fit in any period is dropped instead, and reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._serialize import write_csv, write_json
from .sem import SemFit


def akaike_weights(aics) -> np.ndarray:
    """Akaike weights for one set of AIC values.

    The minimum is subtracted before exponentiating, so arbitrarily large
    deltas cannot overflow.

    >>> akaike_weights([10.0, 10.0]).tolist()
    [0.5, 0.5]
    """
    aics = np.asarray(aics, dtype=float)
    if aics.size == 0:
        raise ValueError("need at least one AIC value")
    if not np.all(np.isfinite(aics)):
        raise ValueError(f"non-finite AIC at positions {np.flatnonzero(~np.isfinite(aics)).tolist()}")
    deltas = aics - aics.min()
    weights = np.exp(-0.5 * deltas)
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Per-period and aggregated AIC comparison across structures.

    ``aic``, ``delta`` and ``weight`` are (periods x structures) arrays in
    the order of ``periods`` and ``structures``; the aggregated arrays have
    one entry per structure.  ``dropped`` lists the (structure, reason) of
    candidates left out for want of a usable fit in any period.
    """

    structures: tuple[str, ...]
    periods: tuple[int, ...]
    aic: np.ndarray
    delta: np.ndarray
    weight: np.ndarray
    aggregated_aic: np.ndarray
    aggregated_delta: np.ndarray
    winner: str
    excluded: tuple[tuple[int, str], ...] = ()
    dropped: tuple[tuple[str, str], ...] = ()


def select(
    fits: Mapping[tuple[int, str], SemFit],
    structures: list[str] | None = None,
    failures: Mapping[tuple[int, str], str] | None = None,
) -> SelectionReport:
    """Build a selection report from per-(period, structure) fits.

    A candidate with no usable fit (converged, not degenerate, with a
    finite AIC) in any period is left out and listed in ``dropped`` with its
    reasons.  A period enters the comparison only if every other candidate
    has such a fit for it; dropped periods are listed in ``excluded`` with a
    reason, which quotes the error that ``failures`` maps a failed
    (period, structure) fit to.  Ties for the aggregated minimum keep
    delta 0 for every tied structure, and the winner is the first one in
    ``structures`` order.

    Raises
    ------
    ValueError
        If the fit map is empty or no period is shared by all candidates.
    """
    if not fits:
        raise ValueError("empty fit map")
    if structures is None:
        structures = sorted({structure for _, structure in fits})
    failures = failures or {}
    all_periods = sorted({period for period, _ in [*fits, *failures]})

    def reason(period, structure):
        if (period, structure) in failures:
            return f"fit failed for {structure}: {failures[period, structure]}"
        result = fits.get((period, structure))
        if result is None:
            return f"missing fit for {structure}"
        if not result.converged:
            return f"non-converged fit for {structure}"
        if result.degenerate or not math.isfinite(result.aic):
            return f"degenerate fit for {structure}"
        return None

    reasons = {(period, s): reason(period, s) for period in all_periods for s in structures}
    dropped = [
        (s, "; ".join(dict.fromkeys(reasons[period, s] for period in all_periods)))
        for s in structures
        if all(reasons[period, s] for period in all_periods)
    ]
    structures = [s for s in structures if s not in dict(dropped)]
    found = {t: [reasons[t, s] for s in structures if reasons[t, s]] for t in all_periods}
    excluded = [(period, "; ".join(why)) for period, why in found.items() if why]
    kept_periods = [period for period, why in found.items() if not why]

    if dropped:
        warnings.warn("; ".join(f"{s} dropped ({why})" for s, why in dropped), stacklevel=2)
    if excluded:
        warnings.warn(
            f"{len(excluded)} period(s) excluded from the comparison: "
            + "; ".join(f"{period} ({reason})" for period, reason in excluded[:3])
            + ("; ..." if len(excluded) > 3 else ""),
            stacklevel=2,
        )
    if not kept_periods or not structures:
        raise ValueError("no period has a converged fit for every candidate structure")
    aic = np.array([[fits[period, s].aic for s in structures] for period in kept_periods])
    delta = aic - aic.min(axis=1, keepdims=True)
    weight = np.vstack([akaike_weights(row) for row in aic])
    aggregated = aic.sum(axis=0)
    aggregated_delta = aggregated - aggregated.min()
    winner = structures[int(np.argmin(aggregated))]
    return SelectionReport(
        structures=tuple(structures),
        periods=tuple(kept_periods),
        aic=aic,
        delta=delta,
        weight=weight,
        aggregated_aic=aggregated,
        aggregated_delta=aggregated_delta,
        winner=winner,
        excluded=tuple(excluded),
        dropped=tuple(dropped),
    )


def smooth_weights(report: SelectionReport, window: int = 5) -> np.ndarray:
    """Centered moving average of the weight series, truncated at the edges.

    A rough smoother for plotting the per-period weights; `window` must be
    odd so the average stays centered.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    half = window // 2
    T = report.weight.shape[0]
    out = np.empty_like(report.weight)
    for t in range(T):
        lo, hi = max(0, t - half), min(T, t + half + 1)
        out[t] = report.weight[lo:hi].mean(axis=0)
    return out


def report_to_dict(report: SelectionReport) -> dict:
    return {
        "structures": list(report.structures),
        "periods": list(report.periods),
        "per_period": {
            str(period): {
                "aic": dict(zip(report.structures, report.aic[t])),
                "delta": dict(zip(report.structures, report.delta[t])),
                "akaike_weight": dict(zip(report.structures, report.weight[t])),
            }
            for t, period in enumerate(report.periods)
        },
        "aggregated": {
            "aic_sum": dict(zip(report.structures, report.aggregated_aic)),
            "delta": dict(zip(report.structures, report.aggregated_delta)),
            "winner": report.winner,
        },
        "excluded_periods": [
            {"period": period, "reason": reason} for period, reason in report.excluded
        ],
        "dropped_structures": [
            {"structure": structure, "reason": reason} for structure, reason in report.dropped
        ],
    }


def write_report_json(path, report: SelectionReport) -> None:
    write_json(path, report_to_dict(report))


def write_aggregated_csv(path, report: SelectionReport) -> None:
    """`structure,aic_sum,delta` rows, one per candidate."""
    columns = (report.structures, report.aggregated_aic, report.aggregated_delta)
    write_csv(path, ("structure", "aic_sum", "delta"), columns)


def write_weights_csv(path, report: SelectionReport, smoothed_window: int | None = None) -> None:
    """`period,structure,weight` rows; optionally smoothed (see smooth_weights)."""
    values = (
        report.weight if smoothed_window is None else smooth_weights(report, smoothed_window)
    )
    write_csv(path, ("period", "structure", "weight"), (
        np.repeat(report.periods, len(report.structures)),
        report.structures * len(report.periods),
        values.ravel(),
    ))
