"""Covariate series and per-period design matrices.

Two kinds of series feed the regression: nodal series (one value per node
and period, e.g. GDP) and dyadic series (one value per node pair and
period, e.g. a formal-alliance indicator or capital-to-capital distance).
A declarative recipe maps series onto design columns via a role --
``sender``, ``receiver``, ``dyadic`` or ``abs_diff`` -- and an optional log
transform, so the same machinery serves any covariate set.

Missing nodal values are filled by :func:`impute_linear`: linear
interpolation for internal gaps, nearest observed value for leading or
trailing gaps.  Lookups beyond a series' observed span fall back to the
nearest endpoint (constant extrapolation) and are reported with a warning;
dyadic lookups at a period with no entry use the dyad's nearest recorded
period, which carries e.g. a last-known alliance status forward.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._serialize import fmt, read_csv
from .errors import CovariateError
from .panel import FlowIndex, NetworkSnapshot

NODAL_HEADER = ("node", "period", "value")
DYADIC_HEADER = ("node_a", "node_b", "period", "value")

ROLES = ("sender", "receiver", "dyadic", "abs_diff")
TRANSFORMS = ("none", "log")


@dataclass(frozen=True)
class NodalSeries:
    """One named per-node time series; NaN entries mark missing values."""

    name: str
    values: dict[tuple[str, int], float]

    def __post_init__(self):
        spans: dict[str, tuple[int, int]] = {}
        for (node, period), value in self.values.items():
            if math.isnan(value):
                continue
            lo, hi = spans.get(node, (period, period))
            spans[node] = (min(lo, period), max(hi, period))
        object.__setattr__(self, "_spans", spans)

    def nodes(self) -> set[str]:
        return set(self._spans)

    def observed(self, node: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (periods, values) pairs with a finite value for `node`."""
        pairs = sorted(
            (period, value)
            for (n, period), value in self.values.items()
            if n == node and not math.isnan(value)
        )
        periods = np.array([p for p, _ in pairs], dtype=float)
        vals = np.array([v for _, v in pairs], dtype=float)
        return periods, vals

    def lookup(self, node: str, period: int) -> tuple[float, bool]:
        """Value at (node, period); second element flags span extrapolation.

        Inside the observed span every period must carry a finite value,
        i.e. the series must have been through :func:`impute_linear`.
        """
        span = self._spans.get(node)
        if span is None:
            raise CovariateError(
                f"series {self.name!r} has no observations for node {node!r}"
            )
        lo, hi = span
        if period < lo:
            return self.values[(node, lo)], True
        if period > hi:
            return self.values[(node, hi)], True
        value = self.values.get((node, period), math.nan)
        if math.isnan(value):
            raise CovariateError(
                f"series {self.name!r} missing value for ({node}, {period}); "
                f"run impute_linear first"
            )
        return value, False


def impute_linear(series: NodalSeries) -> NodalSeries:
    """Fill gaps in every node's series.

    Internal gaps are linearly interpolated between the nearest observed
    neighbours; periods before the first or after the last observation take
    the nearest observed value.  Applying the function twice is a no-op.

    Raises
    ------
    CovariateError
        If some node carries only missing values.
    """
    filled: dict[tuple[str, int], float] = {}
    recorded: dict[str, list[int]] = {}
    for node, period in series.values:
        recorded.setdefault(node, []).append(period)
    for node in sorted(recorded):
        periods, vals = series.observed(node)
        if periods.size == 0:
            raise CovariateError(
                f"series {series.name!r}: node {node!r} has no observed values"
            )
        # Cover every recorded period, observed or missing; np.interp clamps
        # to the end values outside the observed range, which is exactly the
        # nearest-value rule for leading/trailing gaps.
        full = np.arange(min(recorded[node]), max(recorded[node]) + 1)
        interp = np.interp(full, periods, vals)
        for period, value in zip(full, interp):
            filled[(node, int(period))] = float(value)
    return NodalSeries(name=series.name, values=filled)


@dataclass(frozen=True)
class DyadicSeries:
    """One named per-dyad time series (optionally symmetric).

    ``default`` supplies a value for dyads absent from the data (natural
    for sparse indicators such as alliances, where unlisted pairs mean 0);
    leaving it ``None`` makes absent dyads an error.
    """

    name: str
    symmetric: bool
    values: dict[tuple[str, str, int], float]
    default: float | None = None

    def __post_init__(self):
        table: dict[tuple[str, str], dict[int, float]] = {}
        for (a, b, period), value in self.values.items():
            if math.isnan(value):
                continue
            key = self._key(a, b)
            prior = table.setdefault(key, {}).get(period)
            if prior is not None and prior != value:
                raise CovariateError(
                    f"series {self.name!r}: conflicting values for "
                    f"({a}, {b}) at period {period}: {prior} vs {value}"
                )
            table[key][period] = value
        periods = {key: sorted(vals) for key, vals in table.items()}
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_periods", periods)

    def _key(self, a: str, b: str) -> tuple[str, str]:
        if self.symmetric and b < a:
            return (b, a)
        return (a, b)

    def lookup(self, a: str, b: str, period: int) -> float:
        """Value for dyad (a, b) at `period`, nearest recorded period if absent."""
        key = self._key(a, b)
        by_period = self._table.get(key)
        if not by_period:
            if self.default is not None:
                return self.default
            raise CovariateError(
                f"series {self.name!r} has no data for pair ({a}, {b})"
            )
        if period in by_period:
            return by_period[period]
        periods = self._periods[key]
        at = bisect_right(periods, period)
        # Prefer the latest value before `period` (carry forward), fall back
        # to the earliest one after it.
        nearest = periods[at - 1] if at > 0 else periods[0]
        return by_period[nearest]


@dataclass(frozen=True)
class CovariateTerm:
    """One design column: a series, a role, and an optional transform."""

    series: str
    role: str
    transform: str = "none"

    def __post_init__(self):
        if self.role not in ROLES:
            raise CovariateError(f"unknown covariate role {self.role!r}")
        if self.transform not in TRANSFORMS:
            raise CovariateError(f"unknown transform {self.transform!r}")

    @property
    def column_name(self) -> str:
        base = self.series
        if self.role in ("sender", "receiver"):
            base = f"{base}_{self.role}"
        elif self.role == "abs_diff":
            base = f"{base}_absdiff"
        if self.transform == "log":
            base = f"log_{base}"
        return base


# The recipe of the shipped default application: economic size of both
# endpoints, military spending of the receiver, a formal-alliance dummy and
# regime dissimilarity, all read `lag` periods before the flows.
DEFAULT_RECIPE: tuple[CovariateTerm, ...] = (
    CovariateTerm("gdp", "sender", "log"),
    CovariateTerm("gdp", "receiver", "log"),
    CovariateTerm("milex", "receiver", "log"),
    CovariateTerm("alliance", "dyadic"),
    CovariateTerm("polity", "abs_diff"),
)
DEFAULT_LAG = 2


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x p covariate matrix aligned with a FlowIndex."""

    index: FlowIndex
    column_names: tuple[str, ...]
    rows: np.ndarray
    intercept: bool

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape != (self.index.n, len(self.column_names)):
            raise CovariateError(
                f"design shape {rows.shape} does not match index n={self.index.n}"
                f" and {len(self.column_names)} columns"
            )
        if rows.shape[1] < 1:
            raise CovariateError("design matrix needs at least one column")
        if not np.all(np.isfinite(rows)):
            raise CovariateError("design matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]


def _series_map(series_list, kind):
    out = {}
    for series in series_list:
        if series.name in out:
            raise CovariateError(f"duplicate {kind} series name {series.name!r}")
        out[series.name] = series
    return out


def build_design(
    snapshot: NetworkSnapshot,
    index: FlowIndex,
    nodal: list[NodalSeries],
    dyadic: list[DyadicSeries],
    recipe: tuple[CovariateTerm, ...] = DEFAULT_RECIPE,
    lag: int = DEFAULT_LAG,
    intercept: bool = True,
) -> DesignMatrix:
    """Assemble the design matrix for one period.

    Each recipe term produces one column, evaluated at ``period - lag``:
    ``sender``/``receiver`` read a nodal series at the flow's endpoint,
    ``dyadic`` reads a dyadic series at (sender, receiver), and
    ``abs_diff`` takes |value(sender) - value(receiver)| of a nodal series.
    Lookups before a node's first or after its last observation reuse the
    nearest endpoint value; one warning summarises such fallbacks.

    Raises
    ------
    CovariateError
        On an unknown series, a missing value, or a log transform applied
        to a nonpositive value.
    """
    if index.period != snapshot.period:
        raise CovariateError(
            f"index period {index.period} != snapshot period {snapshot.period}"
        )
    nodal_map = _series_map(nodal, "nodal")
    dyadic_map = _series_map(dyadic, "dyadic")
    t = snapshot.period - lag
    extrapolated: set[tuple[str, str]] = set()

    def nodal_value(term, node):
        series = nodal_map.get(term.series)
        if series is None:
            raise CovariateError(f"no nodal series named {term.series!r}")
        value, out_of_span = series.lookup(node, t)
        if out_of_span:
            extrapolated.add((term.series, node))
        return value

    columns = []
    names = []
    if intercept:
        columns.append(np.ones(index.n))
        names.append("intercept")
    for term in recipe:
        col = np.empty(index.n)
        for a, (sender, receiver) in enumerate(index.dyads):
            if term.role == "sender":
                value = nodal_value(term, sender)
            elif term.role == "receiver":
                value = nodal_value(term, receiver)
            elif term.role == "abs_diff":
                value = abs(nodal_value(term, sender) - nodal_value(term, receiver))
            else:
                series = dyadic_map.get(term.series)
                if series is None:
                    raise CovariateError(f"no dyadic series named {term.series!r}")
                value = series.lookup(sender, receiver, t)
            if term.transform == "log":
                if value <= 0:
                    who = f"({sender}, {receiver})" if term.role == "dyadic" else (
                        sender if term.role == "sender" else receiver
                    )
                    raise CovariateError(
                        f"log of nonpositive {term.series!r} value {value} "
                        f"for {who} at period {t}"
                    )
                value = math.log(value)
            col[a] = value
        columns.append(col)
        names.append(term.column_name)

    if extrapolated:
        sample = ", ".join(f"{s}:{n}" for s, n in sorted(extrapolated)[:5])
        warnings.warn(
            f"period {snapshot.period}: {len(extrapolated)} covariate lookups "
            f"fell outside the observed span and used the nearest value "
            f"({sample}{', ...' if len(extrapolated) > 5 else ''})",
            stacklevel=2,
        )
    return DesignMatrix(
        index=index,
        column_names=tuple(names),
        rows=np.column_stack(columns),
        intercept=intercept,
    )


def _parse_value(path, lineno, text):
    if text == "" or text.upper() in ("NA", "NAN"):
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise CovariateError(f"{path}:{lineno}: bad value {text!r}") from None


def load_nodal_csv(path, name: str) -> NodalSeries:
    """Read a nodal series CSV with header ``node,period,value``."""
    path, rows = read_csv(path, NODAL_HEADER, CovariateError)
    values = {}
    for lineno, (node, period, value) in rows:
        try:
            t = int(period)
        except ValueError:
            raise CovariateError(f"{path}:{lineno}: bad period {period!r}") from None
        key = (node, t)
        if key in values:
            raise CovariateError(f"{path}:{lineno}: duplicate entry for {key}")
        values[key] = _parse_value(path, lineno, value)
    return NodalSeries(name=name, values=values)


def load_dyadic_csv(
    path, name: str, symmetric: bool, default: float | None = None
) -> DyadicSeries:
    """Read a dyadic series CSV with header ``node_a,node_b,period,value``."""
    path, rows = read_csv(path, DYADIC_HEADER, CovariateError)
    values = {}
    for lineno, (a, b, period, value) in rows:
        try:
            t = int(period)
        except ValueError:
            raise CovariateError(f"{path}:{lineno}: bad period {period!r}") from None
        key = (a, b, t)
        if key in values:
            raise CovariateError(f"{path}:{lineno}: duplicate entry for {key}")
        values[key] = _parse_value(path, lineno, value)
    return DyadicSeries(name=name, symmetric=symmetric, values=values, default=default)


def write_nodal_csv(path, series: NodalSeries) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(NODAL_HEADER)
        for (node, period), value in sorted(series.values.items()):
            writer.writerow([node, period, fmt(value)])


def write_dyadic_csv(path, series: DyadicSeries) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DYADIC_HEADER)
        for (a, b, period), value in sorted(series.values.items()):
            writer.writerow([a, b, period, fmt(value)])
