"""Panels of directed, positively weighted networks.

One observation period is a :class:`NetworkSnapshot`: a :class:`FlowIndex`
over the period's directed flows and one value per flow.  Nodes are named
by opaque, case-sensitive tokens and exist over a roster's period range.
A flow index holds each flow's sender and receiver as node codes, their
positions in the sorted node names, and orders the flows by (sender code,
receiver code), i.e. by name.  It is the coordinate system shared by every
vector and matrix built downstream (design matrices, weight matrices,
residuals), and those layers read the codes, not the names.

Zero-valued flows do not exist by construction; a flow is present only
when something was traded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._serialize import Coded, parse_column, read_csv, write_blocks, write_csv
from .errors import PanelError

EDGE_HEADER = ("period", "sender", "receiver", "value")
ROSTER_HEADER = ("node", "active_from", "active_to")


@dataclass(frozen=True)
class RosterEntry:
    node_id: str
    active_from: int
    active_to: int

    def __post_init__(self):
        if self.active_from > self.active_to:
            raise PanelError(
                f"roster entry {self.node_id}: active_from {self.active_from} "
                f"> active_to {self.active_to}"
            )


@dataclass(frozen=True)
class NodeRoster:
    """Which nodes exist, and for which period range."""

    entries: tuple[RosterEntry, ...]

    def __post_init__(self):
        spans = {}
        for entry in self.entries:
            if entry.node_id in spans:
                raise PanelError(f"duplicate roster node {entry.node_id!r}")
            spans[entry.node_id] = (entry.active_from, entry.active_to)
        object.__setattr__(self, "_spans", spans)


class FlowIndex:
    """The flows of one period in a fixed order: the coordinates of its vectors.

    ``nodes`` holds sorted names covering every endpoint, and ``sender`` and
    ``receiver`` each flow's endpoint codes, positions in ``nodes``.
    ``FlowIndex(period, dyads)`` keeps the order of the (sender, receiver)
    name pairs given; :meth:`from_codes` takes codes.  Indexes with equal
    periods and ``dyads`` are equal.  A dyad may appear only once.
    """

    def __init__(self, period: int, dyads):
        nodes, ends = np.unique(np.array(dyads, str).reshape(-1, 2), return_inverse=True)
        ends = ends.reshape(-1, 2)
        self._setup(period, tuple(nodes.tolist()), ends[:, 0], ends[:, 1])

    @classmethod
    def from_codes(cls, period: int, nodes, sender, receiver) -> FlowIndex:
        """An index over the sorted names ``nodes`` from aligned code arrays."""
        index = cls.__new__(cls)
        index._setup(period, tuple(nodes), np.asarray(sender, np.intp), np.asarray(receiver, np.intp))
        return index

    def _setup(self, period, nodes, sender, receiver) -> None:
        self.period, self.nodes, self.sender, self.receiver = period, nodes, sender, receiver
        self.n = sender.size
        # The sorted keys sender * N + receiver; _order sorts them, None if they are.
        keys = sender * len(nodes) + receiver
        self._order = None if np.all(keys[1:] > keys[:-1]) else np.argsort(keys, kind="stable")
        self._keys = keys if self._order is None else keys[self._order]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise PanelError(f"duplicate dyad in flow index, period {period}")

    @functools.cached_property
    def dyads(self) -> tuple[tuple[str, str], ...]:
        name = self.nodes.__getitem__
        return tuple(zip(map(name, self.sender.tolist()), map(name, self.receiver.tolist())))

    def __eq__(self, other) -> bool:
        return isinstance(other, FlowIndex) and (self.period, self.dyads) == (other.period, other.dyads)

    def locate(self, sender, receiver) -> np.ndarray:
        """Position of each flow sender -> receiver, given as codes; -1 where there is none."""
        query = np.asarray(sender) * len(self.nodes) + np.asarray(receiver)
        k = np.searchsorted(self._keys, query).clip(0, max(self.n - 1, 0))
        found = self._keys[k] == query if self.n else np.zeros(query.shape, bool)
        return np.where(found, k if self._order is None else self._order[k], -1)


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """All flows observed in one period: a flow index and each flow's value.

    The flows are held in :func:`index_flows` order; an index in another
    order is sorted together with the values.  A self-flow or a value that
    is not > 0 is rejected.
    """

    index: FlowIndex
    values: np.ndarray

    def __post_init__(self):
        index, values = self.index, np.asarray(self.values, dtype=float)
        if values.shape != (index.n,):
            raise PanelError(f"{values.size} values for {index.n} flows in period {index.period}")
        bad = (index.sender == index.receiver) | ~(values > 0)
        if bad.any():
            a = int(np.argmax(bad))
            sender, receiver = index.dyads[a]
            if sender == receiver:
                raise PanelError(f"self-flow {sender!r} -> {receiver!r}")
            raise PanelError(f"flow {sender!r} -> {receiver!r} has nonpositive value {float(values[a])!r}")
        order = index._order
        if order is not None:
            index = FlowIndex.from_codes(index.period, index.nodes, index.sender[order], index.receiver[order])
            object.__setattr__(self, "index", index)
            values = values[order]
        object.__setattr__(self, "values", values)

    @property
    def period(self) -> int:
        return self.index.period

    @property
    def n_flows(self) -> int:
        return self.index.n


def index_flows(snapshot: NetworkSnapshot) -> FlowIndex:
    """Deterministic flow ordering for one snapshot: the snapshot's own index.

    Flows are sorted lexicographically by (sender, receiver) code, so the
    index depends only on the flow *set*, never on input file order.

    Raises
    ------
    PanelError
        If the snapshot has no flows (nothing to index or fit).
    """
    if snapshot.n_flows == 0:
        raise PanelError(f"period {snapshot.period} has no flows to index")
    return snapshot.index


def log_flow_vector(snapshot: NetworkSnapshot, index: FlowIndex) -> np.ndarray:
    """Log flow values in index order (the response vector of the model)."""
    if index.period != snapshot.period:
        raise PanelError(f"index period {index.period} does not match snapshot period {snapshot.period}")
    if index is not snapshot.index and index != snapshot.index:
        raise PanelError(f"index does not hold the flows of period {snapshot.period}")
    return np.log(snapshot.values)


def load_roster(path) -> NodeRoster:
    """Read a roster CSV with header ``node,active_from,active_to``.

    Errors name the first bad row: a bad ``active_from``, a bad
    ``active_to`` or an inverted span, in this order; a repeated node is
    reported once every row has parsed.
    """
    path, linenos, (nodes, col_from, col_to) = read_csv(path, ROSTER_HEADER, PanelError)
    active_from, bad_from = parse_column(col_from, int, np.int64)
    active_to, bad_to = parse_column(col_to, int, np.int64)
    m = min(bad_from, bad_to)
    entries = tuple(map(RosterEntry, nodes[:m], active_from[:m].tolist(), active_to[:m].tolist()))
    if m < len(nodes):
        field, text = ("active_from", col_from[m]) if m == bad_from else ("active_to", col_to[m])
        raise PanelError(f"{path}:{linenos[m]}: bad integer {field} {text!r}")
    return NodeRoster(entries=entries)


def load_panel(edge_path, roster_path) -> list[NetworkSnapshot]:
    """Load an edge list into validated snapshots, one per period, sorted by period.

    ``edge_path`` is a CSV with header ``period,sender,receiver,value`` and
    one row per flow (users must pre-aggregate multiple deliveries within a
    period); ``roster_path`` one with header ``node,active_from,active_to``.
    The snapshots' indexes share one tuple of node names: every endpoint in
    the file.  The columns are parsed and checked whole.

    Raises
    ------
    PanelError
        Naming the file and line of the first bad row.  A row is checked in
        this order: its period is an integer; its value is a number, > 0 (so
        not NaN) and finite; its sender is not its receiver; it does not
        repeat an earlier (period, sender, receiver) row; its sender, then
        its receiver, is active in its period.
    """
    roster = load_roster(roster_path)
    path, linenos, columns = read_csv(edge_path, EDGE_HEADER, PanelError)
    col_period, col_sender, col_receiver, col_value = columns
    period, bad_period = parse_column(col_period, int, np.int64)
    value, bad_value = parse_column(col_value, float, float)
    m = min(bad_period, bad_value)  # the rows before m parse
    nodes = tuple(sorted(set(col_sender).union(col_receiver)))
    code = {node: k for k, node in enumerate(nodes)}
    sender = np.fromiter(map(code.__getitem__, col_sender[:m]), np.intp, m)
    receiver = np.fromiter(map(code.__getitem__, col_receiver[:m]), np.intp, m)
    period, value = period[:m], value[:m]

    # One stable sort by (period, sender, receiver): a repeated row follows
    # its first occurrence, and each period's flows come out in index order.
    order = np.lexsort((receiver, sender, period))
    repeat = np.zeros(m, bool)
    repeat[order[1:][np.all(np.diff(np.stack([period, sender, receiver])[:, order]) == 0, axis=0)]] = True
    # Each node's active span; a node the roster lacks is never active.
    spans = np.array([roster._spans.get(node, (1, 0)) for node in nodes], np.int64).reshape(-1, 2)
    checks = {  # in the order a row is checked, after its period and value parse
        "nonpositive value {v} for {s} -> {r} in period {t}": ~(value > 0),
        "non-finite value {v} for {s} -> {r} in period {t}": ~np.isfinite(value),
        "self-flow {s} -> {r}": sender == receiver,
        "duplicate dyad {s} -> {r} in period {t}": repeat,
        "node {s!r} not active in period {t}": (period < spans[sender, 0]) | (period > spans[sender, 1]),
        "node {r!r} not active in period {t}": (period < spans[receiver, 0]) | (period > spans[receiver, 1]),
    }
    first = int(np.argmax(np.append(np.logical_or.reduce(list(checks.values())), True)))
    if first < len(linenos):
        fields = {"t": col_period[first], "s": col_sender[first], "r": col_receiver[first], "v": col_value[first]}
        if first == m:
            message = "bad integer period {t!r}" if m == bad_period else "bad number value {v!r}"
        else:
            fields["t"] = int(period[first])
            message = next(text for text, rows in checks.items() if rows[first])
        raise PanelError(f"{path}:{linenos[first]}: " + message.format(**fields))

    periods, starts = np.unique(period[order], return_index=True)
    snapshots = []
    for t, lo, hi in zip(periods.tolist(), starts.tolist(), starts[1:].tolist() + [m]):
        rows = order[lo:hi]
        index = FlowIndex.from_codes(t, nodes, sender[rows], receiver[rows])
        snapshots.append(NetworkSnapshot(index, value[rows]))
    return snapshots


def write_edge_csv(path, snapshots) -> None:
    """Write snapshots back to the edge CSV format (exact round-trip), one at a time.

    Any item with a ``period``, an ``index`` and per-flow ``values`` will do.
    """
    write_blocks(path, EDGE_HEADER, (
        (
            np.full(s.index.n, s.period),
            Coded(s.index.nodes, s.index.sender),
            Coded(s.index.nodes, s.index.receiver),
            s.values,
        )
        for s in snapshots
    ))


def write_roster_csv(path, roster: NodeRoster) -> None:
    entries = roster.entries
    write_csv(path, ROSTER_HEADER, (
        [e.node_id for e in entries],
        [e.active_from for e in entries],
        [e.active_to for e in entries],
    ))
