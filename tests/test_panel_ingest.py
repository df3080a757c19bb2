"""The edge-list and roster loaders: every error message, the order of the
checks, and agreement with a plain row-by-row reference loader."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netdisturb import PanelError, load_panel, load_roster

ROSTER = "node,active_from,active_to\nUSA,1950,2016\nGBR,1950,2016\nSUN,1950,1991\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def panel_error(tmp_path, rows, roster=ROSTER):
    """The message load_panel raises for these edge rows."""
    edges = write(tmp_path / "edges.csv", "period,sender,receiver,value\n" + "".join(rows))
    roster_file = write(tmp_path / "roster.csv", roster)
    with pytest.raises(PanelError) as info:
        load_panel(edges, roster_file)
    return str(info.value).replace(str(edges), "edges.csv")


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1952x,USA,GBR,1\n"], "edges.csv:2: bad integer period '1952x'"),
        (["1952,USA,GBR,abc\n"], "edges.csv:2: bad number value 'abc'"),
        (["1952,USA,GBR,0\n"], "edges.csv:2: nonpositive value 0 for USA -> GBR in period 1952"),
        (["1952,USA,GBR,-2.5\n"], "edges.csv:2: nonpositive value -2.5 for USA -> GBR in period 1952"),
        (["1952,USA,GBR,nan\n"], "edges.csv:2: nonpositive value nan for USA -> GBR in period 1952"),
        (["1952,USA,GBR,inf\n"], "edges.csv:2: non-finite value inf for USA -> GBR in period 1952"),
        (["1952,USA,GBR,1e400\n"], "edges.csv:2: non-finite value 1e400 for USA -> GBR in period 1952"),
        (["1952,USA,USA,1\n"], "edges.csv:2: self-flow USA -> USA"),
        (
            ["1952,USA,GBR,1\n", "1953,USA,GBR,1\n", "1952,USA,GBR,2\n"],
            "edges.csv:4: duplicate dyad USA -> GBR in period 1952",
        ),
        (["1995,SUN,USA,1\n"], "edges.csv:2: node 'SUN' not active in period 1995"),
        (["1995,USA,SUN,1\n"], "edges.csv:2: node 'SUN' not active in period 1995"),
        (["1952,USA,XXX,1\n"], "edges.csv:2: node 'XXX' not active in period 1952"),
    ],
    ids=[
        "period", "value", "zero", "negative", "nan", "inf", "overflow", "self-flow",
        "duplicate", "inactive-sender", "inactive-receiver", "unknown-receiver",
    ],
)
def test_load_panel_messages(tmp_path, rows, message):
    assert panel_error(tmp_path, rows) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        # One row breaking every check: each fix reveals the next check.
        (["1995x,SUN,SUN,abc\n"], "edges.csv:2: bad integer period '1995x'"),
        (["1995,SUN,SUN,abc\n"], "edges.csv:2: bad number value 'abc'"),
        (["1995,SUN,SUN,-1\n"], "edges.csv:2: nonpositive value -1 for SUN -> SUN in period 1995"),
        (["1995,SUN,SUN,inf\n"], "edges.csv:2: non-finite value inf for SUN -> SUN in period 1995"),
        (["1995,SUN,SUN,1\n"], "edges.csv:2: self-flow SUN -> SUN"),
        (["1995,SUN,XXX,1\n"], "edges.csv:2: node 'SUN' not active in period 1995"),
        # The first bad row wins, whatever its check.
        (["1995,USA,SUN,1\n", "x,USA,GBR,1\n"], "edges.csv:2: node 'SUN' not active in period 1995"),
        (
            ["1952,USA,GBR,1\n", "1952,USA,GBR,1\n", "1952,USA,GBR,abc\n"],
            "edges.csv:3: duplicate dyad USA -> GBR in period 1952",
        ),
        (["1952,USA,GBR,1\n", "1952,GBR,GBR,1\n", "1952,USA,GBR,1\n"], "edges.csv:3: self-flow GBR -> GBR"),
    ],
    ids=[
        "period", "value", "nonpositive", "non-finite", "self-flow", "sender-first",
        "row-before-parse", "duplicate-before-parse", "self-before-duplicate",
    ],
)
def test_load_panel_check_order(tmp_path, rows, message):
    assert panel_error(tmp_path, rows) == message


def test_error_line_counts_blank_lines(tmp_path):
    assert panel_error(tmp_path, ["1952,USA,GBR,1\n", "\n", "1952,USA,GBR,1\n"]) == (
        "edges.csv:4: duplicate dyad USA -> GBR in period 1952"
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        (["USA,1950,2016\n", "GBR,x,2016\n"], "roster.csv:3: bad integer active_from 'x'"),
        (["USA,1950,2016\n", "GBR,1950,y\n"], "roster.csv:3: bad integer active_to 'y'"),
        (["USA,1950,y\n", "GBR,x,2016\n"], "roster.csv:2: bad integer active_to 'y'"),
        (["USA,x,y\n"], "roster.csv:2: bad integer active_from 'x'"),
        (["USA,2016,1950\n", "GBR,x,2016\n"], "roster entry USA: active_from 2016 > active_to 1950"),
        (["USA,1950,2016\n", "USA,1950,2016\n"], "duplicate roster node 'USA'"),
        (["USA,1950,2016\n", "USA,1950,2016\n", "GBR,x,1\n"], "roster.csv:4: bad integer active_from 'x'"),
    ],
    ids=["active_from", "active_to", "row-order", "from-first", "span-before-parse",
         "duplicate", "parse-before-duplicate"],
)
def test_load_roster_messages(tmp_path, rows, message):
    roster = write(tmp_path / "roster.csv", "node,active_from,active_to\n" + "".join(rows))
    with pytest.raises(PanelError) as info:
        load_roster(roster)
    assert str(info.value).replace(str(roster), "roster.csv") == message


def row_loop(edge_path, roster_path):
    """The reference loader: each row checked in turn, in file order.

    Returns {period: [(sender, receiver, value), ...]} in file order.
    """
    import csv

    spans = {}
    with open(roster_path, newline="", encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh)][1:]
    for lineno, (node, frm, to) in enumerate(rows, start=2):
        try:
            frm = int(frm)
        except ValueError:
            raise PanelError(f"{roster_path}:{lineno}: bad integer active_from {frm!r}") from None
        try:
            to = int(to)
        except ValueError:
            raise PanelError(f"{roster_path}:{lineno}: bad integer active_to {to!r}") from None
        spans[node] = (frm, to)
    by_period = {}
    seen = set()
    with open(edge_path, newline="", encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh)][1:]
    for lineno, (period_t, sender, receiver, value_t) in enumerate(rows, start=2):
        try:
            period = int(period_t)
        except ValueError:
            raise PanelError(f"{edge_path}:{lineno}: bad integer period {period_t!r}") from None
        try:
            value = float(value_t)
        except ValueError:
            raise PanelError(f"{edge_path}:{lineno}: bad number value {value_t!r}") from None
        if value <= 0:
            raise PanelError(
                f"{edge_path}:{lineno}: nonpositive value {value_t} for "
                f"{sender} -> {receiver} in period {period}"
            )
        if sender == receiver:
            raise PanelError(f"{edge_path}:{lineno}: self-flow {sender} -> {receiver}")
        key = (period, sender, receiver)
        if key in seen:
            raise PanelError(
                f"{edge_path}:{lineno}: duplicate dyad {sender} -> {receiver} "
                f"in period {period}"
            )
        seen.add(key)
        for node in (sender, receiver):
            span = spans.get(node)
            if span is None or not span[0] <= period <= span[1]:
                raise PanelError(
                    f"{edge_path}:{lineno}: node {node!r} not active in period {period}"
                )
        by_period.setdefault(period, []).append((sender, receiver, value))
    return by_period


def outcome(load, edge_path, roster_path):
    """Per period its sorted dyads and their values, or the error text."""
    try:
        loaded = load(edge_path, roster_path)
    except PanelError as exc:
        return str(exc)
    if isinstance(loaded, dict):
        return [
            (period, tuple((s, r) for s, r, _ in sorted(loaded[period])), [v for *_, v in sorted(loaded[period])])
            for period in sorted(loaded)
        ]
    return [(snapshot.period, snapshot.index.dyads, snapshot.values.tolist()) for snapshot in loaded]


NODES = ("A", "B", "C", "D")
VALUE = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False).map(repr)
ROW = st.tuples(st.integers(1, 4), st.sampled_from(NODES), st.sampled_from(NODES), VALUE).filter(
    lambda row: row[1] != row[2]
)
FAULT = st.one_of(
    st.none(),
    st.tuples(st.just("period"), st.sampled_from(["x", "1.5", "", "2e3"])),
    st.tuples(st.just("value"), st.sampled_from(["abc", "", "1x"])),
    st.tuples(st.just("value"), st.sampled_from(["0", "-0.0", "-3.25"])),
    st.tuples(st.just("self"), st.sampled_from(NODES)),
    st.tuples(st.just("duplicate"), st.integers(0, 20)),
    st.tuples(st.just("sender"), st.sampled_from(["Z", "D"])),
    st.tuples(st.just("receiver"), st.sampled_from(["Z", "D"])),
    st.tuples(st.just("period"), st.sampled_from(["0", "9"])),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spans=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=4, max_size=4),
    rows=st.lists(ROW, max_size=12, unique_by=lambda row: row[:3]),
    fault=FAULT,
    where=st.integers(0, 12),
)
def test_load_panel_matches_row_loop(spans, rows, fault, where):
    rows = [list(row) for row in rows]
    if fault is not None and rows:
        kind, arg = fault
        row = list(rows[where % len(rows)])
        if kind == "period":
            row[0] = arg
        elif kind == "value":
            row[3] = arg
        elif kind == "self":
            row[1] = row[2] = arg
        elif kind == "duplicate":
            row = list(rows[arg % len(rows)])
        elif kind == "sender":
            row[1] = arg if arg != row[2] else "Z"
        else:
            row[2] = arg if arg != row[1] else "Z"
        rows.insert(where % (len(rows) + 1), row)
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "edges.csv"
        roster = Path(tmp) / "roster.csv"
        write(edges, "period,sender,receiver,value\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
        write(roster, "node,active_from,active_to\n" + "".join(
            f"{node},{start},{start + length}\n" for node, (start, length) in zip(NODES, spans)
        ))
        assert outcome(load_panel, edges, roster) == outcome(row_loop, edges, roster)
