"""The array-backed DyadicSeries against the dict-based series it replaced.

``OracleDyadicSeries`` is the earlier dict implementation, kept verbatim as
the reference: one dict per dyad, a bisect for the nearest period, and
alliance/distance tables filled by one lookup per node pair.
"""

import gc
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netdisturb import CovariateError, DyadicSeries, FlowIndex, NeighborhoodSpec, WeightError
from netdisturb import build_weight_matrix, load_dyadic_csv
from netdisturb._serialize import fmt
from netdisturb.covariates import write_dyadic_csv
from netdisturb.weights import anchor_table


class OracleDyadicSeries:
    def __init__(self, name, symmetric, values, default=None):
        self.name, self.symmetric, self.values, self.default = name, symmetric, values, default
        table = {}
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
        self._table = table
        self._periods = {key: sorted(vals) for key, vals in table.items()}

    def _key(self, a, b):
        if self.symmetric and b < a:
            return (b, a)
        return (a, b)

    def lookup(self, a, b, period):
        key = self._key(a, b)
        by_period = self._table.get(key)
        if not by_period:
            if self.default is not None:
                return self.default
            raise CovariateError(f"series {self.name!r} has no data for pair ({a}, {b})")
        if period in by_period:
            return by_period[period]
        periods = self._periods[key]
        at = bisect_right(periods, period)
        nearest = periods[at - 1] if at > 0 else periods[0]
        return by_period[nearest]


def oracle_table(kind, index, series):
    """The N x N relation table as the per-pair loop filled it."""
    end = 1 if kind.endswith("import") else 0
    nodes = sorted({dyad[end] for dyad in index.dyads})
    table = np.full((len(nodes), len(nodes)), np.inf if kind.startswith("distance") else 0.0)
    for x, anchor in enumerate(nodes):
        for y, partner in enumerate(nodes):
            if x != y:
                table[x, y] = series.lookup(anchor, partner, index.period)
    return table


def outcome(call, *args):
    """A call's value, or the text of the CovariateError it raises."""
    try:
        return call(*args)
    except CovariateError as exc:
        return ("error", str(exc))


def same(one, other):
    if isinstance(one, float) and isinstance(other, float) and math.isnan(one):
        return math.isnan(other)
    return one == other


NODES = ["A", "B", "C", "D", "E"]
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 250.0, math.nan, math.inf]),
    st.floats(-1e4, 1e4, allow_nan=False),
)
RECORDS = st.dictionaries(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.integers(1, 6)),
    VALUES,
    max_size=30,
)
DEFAULTS = st.sampled_from([None, 0.0, 7.5])


@settings(max_examples=150, deadline=None)
@given(records=RECORDS, symmetric=st.booleans(), default=DEFAULTS)
def test_lookup_matches_dict_series(records, symmetric, default):
    oracle = outcome(OracleDyadicSeries, "d", symmetric, records, default)
    series = outcome(DyadicSeries, "d", symmetric, records, default)
    if isinstance(oracle, tuple):
        assert series == oracle
        return
    for a in [*NODES, "Z"]:
        for b in [*NODES, "Z"]:
            for t in range(-1, 9):
                assert same(outcome(series.lookup, a, b, t), outcome(oracle.lookup, a, b, t)), (a, b, t)


@settings(max_examples=150, deadline=None)
@given(
    records=RECORDS,
    symmetric=st.booleans(),
    default=DEFAULTS,
    flows=st.lists(st.tuples(st.sampled_from([*NODES, "Z"]), st.sampled_from([*NODES, "Z"])), min_size=1),
    period=st.integers(0, 8),
    kind=st.sampled_from(["alliance_import", "alliance_export", "distance_import", "distance_export"]),
)
def test_relation_table_matches_pair_loop(records, symmetric, default, flows, period, kind):
    dyads = tuple(sorted({(a, b) for a, b in flows if a != b}))
    if not dyads:
        return
    try:
        oracle = OracleDyadicSeries("d", symmetric, records, default)
    except CovariateError:
        return
    index = FlowIndex(period=period, dyads=dyads)
    series = DyadicSeries("d", symmetric, records, default)
    try:
        expected = oracle_table(kind, index, oracle)
    except CovariateError as exc:
        with pytest.raises(WeightError) as info:
            anchor_table(kind, index, series)
        assert str(info.value) == str(exc)
        return
    np.testing.assert_array_equal(anchor_table(kind, index, series)[1], expected)


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, symmetric=st.booleans())
def test_csv_round_trip_matches_dict_writer(tmp_path_factory, records, symmetric):
    try:
        series = DyadicSeries("d", symmetric, records)
    except CovariateError:
        return
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_dyadic_csv(path, series)
    lines = ["node_a,node_b,period,value"] + [
        f"{a},{b},{t},{fmt(v)}" for (a, b, t), v in sorted(records.items())
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    loaded = load_dyadic_csv(path, "d", symmetric)
    assert loaded.values.keys() == records.keys()
    assert all(same(loaded.values[key], value) for key, value in records.items())


def distance_csv(path, n_nodes=200):
    """A symmetric 17-digit distance series over every pair: 19,900 rows at 200 nodes."""
    rng = np.random.default_rng(5)
    nodes = [f"N{k:03d}" for k in range(n_nodes)]
    first, second = np.triu_indices(n_nodes, k=1)
    lines = ["node_a,node_b,period,value"] + [
        f"{nodes[a]},{nodes[b]},1,{fmt(d)}"
        for a, b, d in zip(first, second, rng.uniform(1.0, 20000.0, first.size).tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return first.size


def test_dyadic_load_memory(tmp_path):
    path = tmp_path / "distance.csv"
    assert distance_csv(path) == 19_900
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = load_dyadic_csv(path, "distance", True)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series.values) == 19_900
    mib = 2**20
    assert (retained - before) / mib < 1.0
    assert (peak - before) / mib < 8.0


def test_weights_read_the_table_not_lookup(monkeypatch):
    rng = np.random.default_rng(11)
    nodes = [f"N{k:02d}" for k in range(12)]
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    alliance = DyadicSeries("alliance", True, {(a, b, 1): float(rng.uniform() < 0.4) for a, b in pairs})
    distance = DyadicSeries("distance", True, {(a, b, 1): float(rng.uniform(1, 5000)) for a, b in pairs})
    index = FlowIndex(period=3, dyads=tuple((a, b) for a in nodes for b in nodes if a != b)[::3])

    def refuse(*args):
        raise AssertionError("per-pair lookup")

    monkeypatch.setattr(DyadicSeries, "lookup", refuse)
    for kind, series in [
        ("alliance_import", alliance), ("alliance_export", alliance),
        ("distance_import", distance), ("distance_export", distance),
    ]:
        cutoff = 2500.0 if kind.startswith("distance") else None
        W = build_weight_matrix(NeighborhoodSpec(kind, cutoff_km=cutoff), index, series)
        assert W.counts.sum() > 0
