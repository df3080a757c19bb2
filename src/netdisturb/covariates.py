"""Covariate series and per-period design matrices.

Two kinds of series feed the regression: nodal series (one value per node
and period, e.g. GDP) and dyadic series (one value per node pair and
period, e.g. a formal-alliance indicator or capital-to-capital distance).
A declarative recipe maps series onto design columns via a role --
``sender``, ``receiver``, ``dyadic`` or ``abs_diff`` -- and an optional log
transform, so the same machinery serves any covariate set.

Missing nodal values are filled where a series is read, once
:func:`impute_linear` has marked it: linear interpolation for internal
gaps, nearest observed value for leading or trailing gaps.  Reads outside
a node's span (its first to last record once imputed) take the nearest
observation and are reported with a warning; dyadic lookups at a period
with no entry use the dyad's nearest recorded period, which carries e.g. a
last-known alliance status forward.

Both kinds of series are held as sorted node names and, per record, node
codes (positions in those names), a period and a value; ``from_arrays``
takes codes into sorted names, as :meth:`FlowIndex.from_codes` does.  A
nodal series is read through one node x period table over the periods it
observes, with each cell's nearest observed columns on either side, so no
record is built for a period the data lack.  A dyadic one is read through
one node x node table per period, which resolves the nearest-period rule
for every dyad at once.  A design term gathers its column from that table
by the flow index's node codes.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._serialize import Coded, parse_column, read_csv, write_csv
from .errors import CovariateError
from .panel import FlowIndex, NetworkSnapshot

NODAL_HEADER = ("node", "period", "value")
DYADIC_HEADER = ("node_a", "node_b", "period", "value")

ROLES = ("sender", "receiver", "dyadic", "abs_diff")
TRANSFORMS = ("none", "log")


def _encode(*columns):
    """The sorted names in the node-name `columns`, and each column as codes into them."""
    nodes = sorted(set().union(*columns))
    pos = {node: k for k, node in enumerate(nodes)}
    return nodes, [np.fromiter(map(pos.__getitem__, col), np.int32, len(col)) for col in columns]


class NodalSeries:
    """One named per-node time series, held as arrays; NaN marks a missing value.

    The series keeps its sorted node names ``nodes`` and, per record in
    input order, ``node`` (codes into ``nodes``), ``period`` and ``value``.
    ``NodalSeries(name, values)`` reads a dict ``{(node, period): value}``
    and :meth:`from_arrays` the arrays; a value of +-inf raises
    CovariateError naming its node and period.  :func:`impute_linear`
    marks the same records as imputed, so that :meth:`at` fills gaps.
    """

    def __init__(self, name: str, values):
        nodes, (node,) = _encode([node for node, _ in values])
        self._setup(name, nodes, node, [t for _, t in values], list(values.values()))

    @classmethod
    def from_arrays(cls, name, nodes, node, period, value) -> NodalSeries:
        """A series from the sorted names ``nodes``, codes into them (as
        :meth:`FlowIndex.from_codes` takes them), periods and values."""
        series = cls.__new__(cls)
        series._setup(name, nodes, node, period, value)
        return series

    def _setup(self, name, nodes, node, period, value, imputed=False) -> None:
        self.name, self.nodes, self._imputed = name, tuple(nodes), imputed
        self._pos = {node: k for k, node in enumerate(self.nodes)}
        self.node, self.period = np.asarray(node, np.int32), np.asarray(period, np.int64)
        self.value = np.asarray(value, float)
        if np.isinf(self.value).any():
            k = int(np.argmax(np.isinf(self.value)))
            raise CovariateError(
                f"series {name!r} has non-finite value {float(self.value[k])!r} for "
                f"({self.nodes[self.node[k]]}, {self.period[k]})"
            )
        # A table of every node's value at each period with a finite one (one
        # more row, for a node the series does not hold, and column, both
        # NaN), and per node and column the last observed column before it
        # and the first at or after it (-1 and P, the NaN column, for none).
        finite = ~np.isnan(self.value)
        periods, rank = np.unique(self.period[finite], return_inverse=True)
        P = periods.size
        self._table = np.full((len(self.nodes) + 1, P + 1), math.nan)
        self._table[self.node[finite], rank] = self.value[finite]
        seen = ~np.isnan(self._table)
        column = np.arange(P + 1)
        self._next = np.minimum.accumulate(np.where(seen, column, P)[:, ::-1], 1)[:, ::-1]
        self._prev = np.full_like(self._next, -1)
        self._prev[:, 1:] = np.maximum.accumulate(np.where(seen, column, -1)[:, :-1], 1)
        self._periods = np.append(periods, math.nan)  # as floats, NaN at -1 and P
        # Each node's first and last observed period (recorded, if imputed).
        spanned = slice(None) if imputed else finite
        self._span = np.full((2, len(self._table)), [[np.iinfo(np.int64).max], [np.iinfo(np.int64).min]])
        np.minimum.at(self._span[0], self.node[spanned], self.period[spanned])
        np.maximum.at(self._span[1], self.node[spanned], self.period[spanned])

    @property
    def values(self) -> dict[tuple[str, int], float]:
        """The records as ``{(node, period): value}``, in input order; :meth:`at` reads a filled gap."""
        names = map(self.nodes.__getitem__, self.node.tolist())
        return dict(zip(zip(names, self.period.tolist()), self.value.tolist()))

    def at(self, period, names) -> tuple[np.ndarray, np.ndarray]:
        """The value at `period` of each node in `names`, and whether `period` is outside its span.

        `period` is one period or one per name.  A node reads its
        observation at `period`, or the nearest one before its first or
        after its last.  Between two, an imputed series reads the linear
        interpolation as ``np.interp`` computes it, and a raw series NaN.
        The span runs from the first to the last observation (record, if
        imputed).  A node without observations reads NaN.
        """
        codes = np.fromiter(map(self._pos.get, names, repeat(-1)), np.intp, len(names))
        column = np.searchsorted(self._periods[:-1], period)
        prev, next_ = self._prev[codes, column], self._next[codes, column]
        (low, high), (p_l, p_r) = self._table[codes, [prev, next_]], self._periods[[prev, next_]]
        # On an observation, or before the first, read it; after the last, the
        # last; in a gap (p_r > period, False for p_r NaN) np.interp's expression.
        value = np.where((prev < 0) | (p_r == period), high, low)
        fill = (high - low) / (p_r - p_l) * (period - p_l) + low if self._imputed else math.nan
        first, last = self._span[:, codes]
        return np.where((prev >= 0) & (p_r > period), fill, value), (period < first) | (period > last)

    def lookup(self, node: str, period: int) -> tuple[float, bool]:
        """Value at (node, period); second element flags a period outside the node's span.

        A raw series has no value between two observations: it must have
        been through :func:`impute_linear` to be read there.
        """
        (value,), (out_of_span,) = self.at(period, [node])
        if not math.isnan(value):
            return float(value), bool(out_of_span)
        if np.isnan(self._table[self._pos.get(node, -1)]).all():
            raise CovariateError(f"series {self.name!r} has no observations for node {node!r}")
        raise CovariateError(
            f"series {self.name!r} missing value for ({node}, {period}); run impute_linear first"
        )


def impute_linear(series: NodalSeries) -> NodalSeries:
    """The same records, marked so that gaps read filled.

    A marked series reads an internal gap as the linear interpolation
    between the nearest observed neighbours and a period before the first or
    after the last observation as the nearest observed value; a node's span
    reaches its first and last record.  Applying the function twice is a no-op.

    Raises
    ------
    CovariateError
        If some node carries only missing values (the first in sorted order).
    """
    filled = NodalSeries.__new__(NodalSeries)
    filled._setup(series.name, series.nodes, series.node, series.period, series.value, imputed=True)
    first, last = filled._span  # over all records, so a node without observations has one
    empty = np.flatnonzero((first <= last) & np.isnan(filled._table).all(1))
    if empty.size:
        raise CovariateError(
            f"series {series.name!r}: node {series.nodes[empty[0]]!r} has no observed values"
        )
    return filled


class DyadicSeries:
    """One named per-dyad time series (optionally symmetric), held as arrays.

    The series keeps its sorted node names ``nodes`` and one entry per
    record in four aligned arrays: ``node_a`` and ``node_b`` (codes, i.e.
    positions in ``nodes``), ``period`` and ``value``.  Records with a NaN
    value are kept, so :attr:`values` and :func:`write_dyadic_csv` return
    them, but no reader ever sees them.

    Readers go through :meth:`table`: for one period it holds every dyad's
    value by the nearest-period rule (the latest recorded period at or
    before it, otherwise the earliest after it), and it is built once and
    cached.  A symmetric series reads (a, b) and (b, a) as one dyad and
    rejects two records of it that disagree in one period.  ``default``
    supplies a value for dyads absent from the data (natural for sparse
    indicators such as alliances, where unlisted pairs mean 0, or ``inf``
    for a distance); leaving it ``None`` makes absent dyads an error, and a
    NaN default raises CovariateError.

    ``DyadicSeries(name, symmetric, values)`` reads a dict
    ``{(node_a, node_b, period): value}`` once into the arrays;
    :meth:`from_arrays` takes the arrays directly.
    """

    def __init__(self, name: str, symmetric: bool, values, default: float | None = None):
        nodes, (a, b) = _encode([a for a, _, _ in values], [b for _, b, _ in values])
        self._setup(name, symmetric, default, nodes, a, b, [t for *_, t in values], list(values.values()))

    @classmethod
    def from_arrays(
        cls, name, symmetric, nodes, node_a, node_b, period, value, default=None
    ) -> DyadicSeries:
        """A series from the sorted names ``nodes`` and aligned record arrays.

        ``node_a`` and ``node_b`` hold codes into ``nodes``, as :meth:`FlowIndex.from_codes`
        takes them; records keep the given order for error messages.
        """
        series = cls.__new__(cls)
        series._setup(name, symmetric, default, nodes, node_a, node_b, period, value)
        return series

    def _setup(self, name, symmetric, default, nodes, a, b, period, value) -> None:
        """Store the records sorted by dyad, then period; reject conflicts."""
        if default is not None and math.isnan(default):
            raise CovariateError(f"series {name!r}: a default must be a number, not NaN")
        self.name, self.symmetric, self.default = name, symmetric, default
        a, b = np.asarray(a, np.int32), np.asarray(b, np.int32)
        period, value = np.asarray(period, np.int64), np.asarray(value, float)
        self.nodes = tuple(nodes)
        self._pos = {node: k for k, node in enumerate(self.nodes)}
        self._tables: dict[int, np.ndarray] = {}
        missing = np.isnan(value)
        lo, hi = self._dyads(a, b)
        # NaN records go last; np.lexsort is stable, so records of one dyad
        # and period keep their input order.
        order = np.lexsort((period, hi, lo, missing))
        self.node_a, self.node_b, self.period, self.value = a[order], b[order], period[order], value[order]
        f = self._finite = int(value.size - missing.sum())
        lo, hi, period, value = lo[order][:f], hi[order][:f], self.period[:f], self.value[:f]
        clash = 1 + np.flatnonzero(
            (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            & (period[1:] == period[:-1]) & (value[1:] != value[:-1])
        )
        if clash.size:
            # The first clash in input order, against the record before it.
            k = clash[np.argmin(order[clash])]
            raise CovariateError(
                f"series {name!r}: conflicting values for "
                f"({self.nodes[self.node_a[k]]}, {self.nodes[self.node_b[k]]}) at period "
                f"{int(period[k])}: {float(value[k - 1])} vs {float(value[k])}"
            )

    def _dyads(self, a, b):
        """Each record's dyad: (a, b), or for a symmetric series its sorted pair."""
        return (np.minimum(a, b), np.maximum(a, b)) if self.symmetric else (a, b)

    @property
    def values(self) -> dict[tuple[str, str, int], float]:
        """The records as ``{(node_a, node_b, period): value}``, NaN ones included."""
        name = self.nodes.__getitem__
        keys = zip(map(name, self.node_a.tolist()), map(name, self.node_b.tolist()), self.period.tolist())
        return dict(zip(keys, self.value.tolist()))

    @functools.cached_property
    def _index(self):
        """What :meth:`table` searches, built on its first call.

        The sorted recorded periods; per finite record the key
        dyad * P + rank of its period (P periods), ascending; and per dyad
        its first record and its (a, b) codes.
        """
        f = self._finite
        lo, hi = self._dyads(self.node_a[:f], self.node_b[:f])
        first = np.ones(f, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        periods, rank = np.unique(self.period[:f], return_inverse=True)
        keys = (np.cumsum(first) - 1) * periods.size + rank
        starts = np.flatnonzero(first)
        return periods.tolist(), keys, starts, lo[starts], hi[starts]

    def table(self, period: int) -> np.ndarray:
        """Every dyad's value at `period`, as a read-only node x node array.

        Entry [x, y] holds dyad (nodes[x], nodes[y]).  The array has one
        more row and column than ``nodes``, the fill for a node the series
        does not hold (code -1 from :meth:`codes`).  A dyad without records
        reads ``default``, or NaN when there is none.  Periods between the
        same two recorded periods share one cached table.
        """
        periods, keys, starts, lo, hi = self._index
        k = max(bisect_right(periods, period) - 1, 0)
        table = self._tables.get(k)
        if table is None:
            # Each dyad's last record at or before periods[k], else its first.
            last = np.searchsorted(keys, np.arange(starts.size) * len(periods) + k, side="right") - 1
            picked = self.value[np.maximum(last, starts)]
            fill = math.nan if self.default is None else self.default
            table = np.full((len(self.nodes) + 1,) * 2, fill, dtype=float)
            table[lo, hi] = picked
            if self.symmetric:
                table[hi, lo] = picked
            table.flags.writeable = False
            self._tables[k] = table
        return table

    def codes(self, names) -> np.ndarray:
        """Each node's row and column in :meth:`table`; -1 (the fill) if absent."""
        return np.fromiter(map(self._pos.get, names, repeat(-1)), np.intp, len(names))

    def _no_data(self, a, b) -> CovariateError:
        return CovariateError(f"series {self.name!r} has no data for pair ({a}, {b})")

    def check(self, values: np.ndarray, pair_at) -> np.ndarray:
        """`values` read from :meth:`table`, or an error for a dyad without data.

        Without a default, the first NaN entry in C order raises
        CovariateError naming its dyad, ``pair_at(index tuple)``.
        """
        if self.default is None:
            missing = np.isnan(values)
            if missing.any():
                raise self._no_data(*pair_at(np.unravel_index(np.argmax(missing), values.shape)))
        return values

    def lookup(self, a: str, b: str, period: int) -> float:
        """Value for dyad (a, b) at `period`, nearest recorded period if absent."""
        value = float(self.table(period)[self._pos.get(a, -1), self._pos.get(b, -1)])
        if math.isnan(value) and self.default is None:
            raise self._no_data(a, b)
        return value


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

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape != (self.index.n, len(self.column_names)):
            raise CovariateError(
                f"design shape {rows.shape} does not match index n={self.index.n}"
                f" and {len(self.column_names)} columns"
            )
        if not np.all(np.isfinite(rows)):
            raise CovariateError("design matrix contains non-finite entries")


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
) -> DesignMatrix:
    """Assemble the design matrix for one period.

    The first column is the intercept.  Each recipe term produces one more
    column, evaluated at ``period - lag``: ``sender``/``receiver`` read a
    nodal series at the flow's endpoint (:meth:`NodalSeries.at`),
    ``dyadic`` reads a dyadic series at (sender, receiver), and
    ``abs_diff`` takes |value(sender) - value(receiver)| of a nodal series.
    One warning summarises the nodal reads outside a node's span.

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

    def log_error(term, value, who):
        return CovariateError(
            f"log of nonpositive {term.series!r} value {value} for {who} at period {t}"
        )

    def log(col):
        return np.fromiter(map(math.log, col.tolist()), float, col.size)

    def nodal_column(term):
        series = nodal_map.get(term.series)
        if series is None:
            raise CovariateError(f"no nodal series named {term.series!r}")
        ends = [index.sender, index.receiver] if term.role == "abs_diff" else [getattr(index, term.role)]
        # Every node's value at t.  A node that fails reads NaN, and its
        # lookup raises the error at the first flow that needs it.
        value, out_of_span = series.at(t, index.nodes)
        used = np.unique(np.concatenate(ends))
        extrapolated.update((term.series, index.nodes[code]) for code in used[out_of_span[used]].tolist())
        col = np.abs(value[ends[0]] - value[ends[1]]) if len(ends) == 2 else value[ends[0]]
        bad = np.isnan(col) | ((col <= 0) & (term.transform == "log"))
        if bad.any():
            a = int(np.argmax(bad))
            for end in ends:
                series.lookup(index.nodes[end[a]], t)
            raise log_error(term, float(col[a]), index.nodes[ends[-1][a]])
        return log(col) if term.transform == "log" else col

    def dyadic_column(term):
        series = dyadic_map.get(term.series)
        if series is None:
            raise CovariateError(f"no dyadic series named {term.series!r}")
        codes = series.codes(index.nodes)
        col = series.table(t)[codes[index.sender], codes[index.receiver]]
        if term.transform != "log":
            return series.check(col, lambda k: index.dyads[k[0]])
        # A missing pair before the first nonpositive value is reported first.
        bad = np.flatnonzero(col <= 0)
        series.check(col[: bad[0] if bad.size else None], lambda k: index.dyads[k[0]])
        if bad.size:
            raise log_error(term, float(col[bad[0]]), "({}, {})".format(*index.dyads[bad[0]]))
        return log(col)

    columns = [dyadic_column(term) if term.role == "dyadic" else nodal_column(term) for term in recipe]
    if extrapolated:
        sample = ", ".join(f"{s}:{n}" for s, n in sorted(extrapolated)[:5])
        warnings.warn(
            f"period {snapshot.period}: {len(extrapolated)} covariate lookups "
            f"fell outside the observed span and used the nearest value "
            f"({sample}{', ...' if len(extrapolated) > 5 else ''})",
            stacklevel=2,
        )
    names = ("intercept", *(term.column_name for term in recipe))
    return DesignMatrix(index=index, column_names=names, rows=np.column_stack([np.ones(index.n), *columns]))


def _value(text: str) -> float:
    """A value cell: empty, ``NA`` or ``NaN`` (any case) mark a missing value."""
    if text == "" or text.upper() in ("NA", "NAN"):
        return math.nan
    return float(text)


def _finite_value(text: str) -> float:
    """A nodal value cell: a missing marker or a finite number."""
    if math.isinf(value := _value(text)):
        raise ValueError(text)
    return value


def _read_records(path, header, parse_value):
    """A covariate CSV's sorted node names, and its node codes, periods and values.

    ``header`` ends with ``period,value``; each column before those holds
    node names and is returned as one array of positions in the sorted
    names.  The columns are parsed whole.  Errors name the first bad row,
    and on one row a bad period before a repeat of an earlier row's nodes
    and period before a bad value (``parse_value`` fails).
    """
    path, linenos, (*names, col_period, col_value) = read_csv(path, header, CovariateError)
    n = len(linenos)
    nodes, codes = _encode(*names)
    period, bad_period = parse_column(col_period, int, np.int64)
    values, bad_value = parse_column(col_value, parse_value, float)
    # The first repeat of an entry among rows with a period.
    order = np.lexsort((period, *(c[:bad_period] for c in reversed(codes))))
    key = np.column_stack([c[order] for c in codes] + [period[order]])
    repeats = order[1:][(key[1:] == key[:-1]).all(axis=1)]
    duplicate = int(repeats.min()) if repeats.size else n
    first = min(bad_period, duplicate, bad_value)
    if first < n:
        lineno = linenos[first]
        if first == bad_period:
            raise CovariateError(f"{path}:{lineno}: bad period {col_period[first]!r}")
        if first == duplicate:
            key = (*(col[first] for col in names), int(period[first]))
            raise CovariateError(f"{path}:{lineno}: duplicate entry for {key}")
        raise CovariateError(f"{path}:{lineno}: bad value {col_value[first]!r}")
    return nodes, codes, period, values


def load_nodal_csv(path, name: str) -> NodalSeries:
    """Read a nodal series CSV with header ``node,period,value``.

    Rows are checked as :func:`load_dyadic_csv` checks them, except that a
    value must be finite or missing: ``inf`` is a bad value.
    """
    nodes, (node,), period, value = _read_records(path, NODAL_HEADER, _finite_value)
    return NodalSeries.from_arrays(name, nodes, node, period, value)


def load_dyadic_csv(
    path, name: str, symmetric: bool, default: float | None = None
) -> DyadicSeries:
    """Read a dyadic series CSV with header ``node_a,node_b,period,value``.

    The columns are parsed whole.  Errors name the first bad row, and on
    one row a bad period before a repeated (node_a, node_b, period) entry
    before a bad value.  A value may be ``±inf``, or missing (empty, ``NA``
    or ``NaN``).
    """
    nodes, (a, b), period, value = _read_records(path, DYADIC_HEADER, _value)
    return DyadicSeries.from_arrays(name, symmetric, nodes, a, b, period, value, default)


def write_nodal_csv(path, series: NodalSeries) -> None:
    """Write the records sorted by (node, period), NaN ones included (an imputed series' too)."""
    order = np.lexsort((series.period, series.node))
    write_csv(path, NODAL_HEADER, (
        Coded(series.nodes, series.node[order]), series.period[order], series.value[order],
    ))


def write_dyadic_csv(path, series: DyadicSeries) -> None:
    """Write the records sorted by (node_a, node_b, period), NaN ones included."""
    order = np.lexsort((series.period, series.node_b, series.node_a))
    write_csv(path, DYADIC_HEADER, (
        Coded(series.nodes, series.node_a[order]),
        Coded(series.nodes, series.node_b[order]),
        series.period[order],
        series.value[order],
    ))
