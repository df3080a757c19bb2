"""Panels of directed, positively weighted networks.

One observation period is a :class:`NetworkSnapshot`: a set of directed
flows (sender, receiver, value) over a roster of nodes whose existence may
be limited to a sub-range of periods.  The :class:`FlowIndex` fixes a
deterministic ordering of a snapshot's flows (lexicographic by sender code,
then receiver code) and is the coordinate system shared by every vector and
matrix built downstream: design matrices, weight matrices, residuals.

Node codes are opaque, case-sensitive tokens.  Zero-valued flows do not
exist by construction; a flow is present only when something was traded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import csv_writer, fmt, read_csv
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

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._spans

    def active(self, node_id: str, period: int) -> bool:
        span = self._spans.get(node_id)
        return span is not None and span[0] <= period <= span[1]


@dataclass(frozen=True)
class Flow:
    """One directed flow; zero-valued and self-directed flows are invalid."""

    sender: str
    receiver: str
    value: float

    def __post_init__(self):
        if self.sender == self.receiver:
            raise PanelError(f"self-flow {self.sender!r} -> {self.receiver!r}")
        if not self.value > 0:
            raise PanelError(
                f"flow {self.sender!r} -> {self.receiver!r} has nonpositive "
                f"value {self.value!r}"
            )


@dataclass(frozen=True)
class NetworkSnapshot:
    """All flows observed in one period."""

    period: int
    flows: tuple[Flow, ...]

    def __post_init__(self):
        values = {}
        for flow in self.flows:
            dyad = (flow.sender, flow.receiver)
            if dyad in values:
                raise PanelError(
                    f"duplicate dyad {dyad[0]} -> {dyad[1]} in period {self.period}"
                )
            values[dyad] = flow.value
        object.__setattr__(self, "_values", values)

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def value(self, sender: str, receiver: str) -> float:
        try:
            return self._values[(sender, receiver)]
        except KeyError:
            raise PanelError(
                f"no flow {sender} -> {receiver} in period {self.period}"
            ) from None


@dataclass(frozen=True)
class FlowIndex:
    """Ordered dyad list fixing the coordinate system for one period."""

    period: int
    dyads: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_pos", {dyad: a for a, dyad in enumerate(self.dyads)}
        )
        if len(self._pos) != len(self.dyads):
            raise PanelError(f"duplicate dyad in flow index, period {self.period}")

    @property
    def n(self) -> int:
        return len(self.dyads)

    def position(self, dyad: tuple[str, str]) -> int:
        try:
            return self._pos[dyad]
        except KeyError:
            raise PanelError(
                f"dyad {dyad[0]} -> {dyad[1]} not in index for period {self.period}"
            ) from None

    def __contains__(self, dyad) -> bool:
        return dyad in self._pos

    @property
    def senders(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.dyads)

    @property
    def receivers(self) -> tuple[str, ...]:
        return tuple(r for _, r in self.dyads)


def index_flows(snapshot: NetworkSnapshot) -> FlowIndex:
    """Deterministic flow ordering for one snapshot.

    Flows are sorted lexicographically by (sender, receiver) code, so the
    index depends only on the flow *set*, never on input file order.

    Raises
    ------
    PanelError
        If the snapshot has no flows (nothing to index or fit).
    """
    if not snapshot.flows:
        raise PanelError(f"period {snapshot.period} has no flows to index")
    dyads = sorted((f.sender, f.receiver) for f in snapshot.flows)
    return FlowIndex(period=snapshot.period, dyads=tuple(dyads))


def log_flow_vector(snapshot: NetworkSnapshot, index: FlowIndex) -> np.ndarray:
    """Log flow values in index order (the response vector of the model)."""
    if index.period != snapshot.period:
        raise PanelError(
            f"index period {index.period} does not match snapshot period "
            f"{snapshot.period}"
        )
    return np.log([snapshot.value(s, r) for s, r in index.dyads])


def _parse_int(path, lineno, field, text):
    try:
        return int(text)
    except ValueError:
        raise PanelError(f"{path}:{lineno}: bad integer {field} {text!r}") from None


def _parse_float(path, lineno, field, text):
    try:
        return float(text)
    except ValueError:
        raise PanelError(f"{path}:{lineno}: bad number {field} {text!r}") from None


def load_roster(path) -> NodeRoster:
    """Read a roster CSV with header ``node,active_from,active_to``."""
    path, linenos, columns = read_csv(path, ROSTER_HEADER, PanelError)
    entries = []
    for lineno, node, frm, to in zip(linenos, *columns):
        entries.append(
            RosterEntry(
                node_id=node,
                active_from=_parse_int(path, lineno, "active_from", frm),
                active_to=_parse_int(path, lineno, "active_to", to),
            )
        )
    return NodeRoster(entries=tuple(entries))


def load_panel(edge_path, roster_path) -> list[NetworkSnapshot]:
    """Load an edge list into validated per-period snapshots.

    Parameters
    ----------
    edge_path : path-like
        CSV with header ``period,sender,receiver,value``, one row per flow.
        Duplicate (period, sender, receiver) rows are rejected; users must
        pre-aggregate multiple deliveries within a period.
    roster_path : path-like
        CSV with header ``node,active_from,active_to``.  Every endpoint of
        every flow must be active in its flow's period.

    Returns
    -------
    list of NetworkSnapshot
        One snapshot per distinct period, sorted by period.
    """
    roster = load_roster(roster_path)
    path, linenos, columns = read_csv(edge_path, EDGE_HEADER, PanelError)
    by_period: dict[int, list[Flow]] = {}
    seen: set[tuple[int, str, str]] = set()
    for lineno, period_t, sender, receiver, value_t in zip(linenos, *columns):
        period = _parse_int(path, lineno, "period", period_t)
        value = _parse_float(path, lineno, "value", value_t)
        if value <= 0:
            raise PanelError(
                f"{path}:{lineno}: nonpositive value {value_t} for "
                f"{sender} -> {receiver} in period {period}"
            )
        if sender == receiver:
            raise PanelError(f"{path}:{lineno}: self-flow {sender} -> {receiver}")
        key = (period, sender, receiver)
        if key in seen:
            raise PanelError(
                f"{path}:{lineno}: duplicate dyad {sender} -> {receiver} "
                f"in period {period}"
            )
        seen.add(key)
        for node in (sender, receiver):
            if not roster.active(node, period):
                raise PanelError(
                    f"{path}:{lineno}: node {node!r} not active in period {period}"
                )
        by_period.setdefault(period, []).append(
            Flow(sender=sender, receiver=receiver, value=value)
        )
    return [
        NetworkSnapshot(period=period, flows=tuple(by_period[period]))
        for period in sorted(by_period)
    ]


def write_edge_csv(path, snapshots) -> None:
    """Write snapshots back to the edge CSV format (exact round-trip)."""
    with csv_writer(path, EDGE_HEADER) as writer:
        for snapshot in snapshots:
            for flow in snapshot.flows:
                writer.writerow(
                    [snapshot.period, flow.sender, flow.receiver, fmt(flow.value)]
                )


def write_roster_csv(path, roster: NodeRoster) -> None:
    with csv_writer(path, ROSTER_HEADER) as writer:
        for entry in roster.entries:
            writer.writerow([entry.node_id, entry.active_from, entry.active_to])
