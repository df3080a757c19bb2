"""Dependence structures over flows and their row-normalized weight matrices.

A flow's neighbourhood is the set of other flows its disturbance is allowed
to correlate with.  Seven structures are supported; for a flow (i, j) the
member predicate over another flow (p, q) is

    sender_attached     p = i, or (p, q) = (j, i)
    receiver_attached   q = j, or (p, q) = (j, i)
    full_activity       p in {i, j}, or q in {i, j}
    alliance_import     receiver q is a formal ally of j
    alliance_export     sender p is a formal ally of i
    distance_import     q != j and d(j, q) < cutoff
    distance_export     p != i and d(i, p) < cutoff

Each structure is one :class:`AnchorRelation` over a period's flows: the
roles that anchor a flow (its sender s, its receiver r, or both), a node
relation C over the anchor nodes, and, for the attached kinds, the reverse
flow (j, i).  C is the identity for the activity kinds, lookup(anchor,
partner) != 0 for the alliance kinds and lookup(anchor, partner) < cutoff
for the distance kinds; the last two are false on the diagonal, as no node
is its own ally or close neighbour.  Flow b neighbours flow a when
C[x(a), y(b)] holds for some roles x and y, or when b is a's reverse flow.
A flow is never its own neighbour (a nonzero diagonal would break the
disturbance model).  Weights are uniform within a neighbourhood:
W[a, b] = 1/|N(a)| for neighbours, 0 otherwise, so each row sums to 1, or
to 0 when the neighbourhood is empty (such flows receive no spillover).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._serialize import write_csv
from .covariates import DyadicSeries
from .errors import CovariateError, WeightError
from .panel import FlowIndex

# kind -> (anchor roles, node relation, adds the reverse flow)
_LAYOUT = {
    "sender_attached": ("s", "identity", True),
    "receiver_attached": ("r", "identity", True),
    "full_activity": ("sr", "identity", False),
    "alliance_import": ("r", "alliance", False),
    "alliance_export": ("s", "alliance", False),
    "distance_import": ("r", "distance", False),
    "distance_export": ("s", "distance", False),
}
KINDS = tuple(_LAYOUT)
ALLIANCE_KINDS = frozenset({"alliance_import", "alliance_export"})
DISTANCE_KINDS = frozenset({"distance_import", "distance_export"})


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Selects one dependence structure; distance kinds carry a cutoff."""

    kind: str
    cutoff_km: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise WeightError(f"unknown neighbourhood kind {self.kind!r}")
        if self.kind in DISTANCE_KINDS:
            if self.cutoff_km is None or not self.cutoff_km > 0:
                raise WeightError(
                    f"{self.kind} needs a positive cutoff_km, got {self.cutoff_km!r}"
                )
        elif self.cutoff_km is not None:
            raise WeightError(f"{self.kind} takes no cutoff_km")

    @property
    def structure_id(self) -> str:
        if self.kind in DISTANCE_KINDS:
            return f"{self.kind}@{self.cutoff_km:g}"
        return self.kind


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Row-normalized n x n dependence matrix over a flow index."""

    index: FlowIndex
    entries: np.ndarray
    spec: NeighborhoodSpec

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        n = self.index.n
        if entries.shape != (n, n):
            raise WeightError(f"weight matrix shape {entries.shape}, expected ({n}, {n})")

    @property
    def n(self) -> int:
        return self.index.n


class AnchorRelation:
    """One period's flows grouped by anchor node, related through the nodes.

    ``anchors`` holds, per role, each flow's anchor as a position in the
    period's sorted anchor nodes.  ``table`` is N x N over those nodes: the
    identity, or the dyadic lookups at (anchor, partner) with a diagonal of
    0 for alliances and infinity for distances, so no node relates to
    itself.  The table is read once and thresholded per cutoff, so the
    Moran scan reuses one relation along its grid.  ``reverse`` pairs each
    flow with its reverse flow in the attached kinds and is empty otherwise.
    Building it raises WeightError when dyadic data misses a needed pair.
    """

    def __init__(self, kind: str, index: FlowIndex, dyadic: DyadicSeries | None = None):
        roles, relation, attached = _LAYOUT[kind]
        ends = {"s": index.senders, "r": index.receivers}
        nodes = sorted({node for role in roles for node in ends[role]})
        pos = {node: k for k, node in enumerate(nodes)}
        self.anchors = [np.array([pos[node] for node in ends[role]]) for role in roles]
        if relation == "identity":
            self.table = np.eye(len(nodes))
        elif dyadic is None:
            raise WeightError(f"{relation} data required but no dyadic series given")
        else:
            diagonal = np.inf if relation == "distance" else 0.0
            self.table = np.full((len(nodes), len(nodes)), diagonal)
            try:
                for x, anchor in enumerate(nodes):
                    for y, partner in enumerate(nodes):
                        if x != y:
                            self.table[x, y] = dyadic.lookup(anchor, partner, index.period)
            except CovariateError as exc:
                raise WeightError(str(exc)) from None
        rows = [a for a, (i, j) in enumerate(index.dyads) if attached and (j, i) in index]
        cols = [index.position(index.dyads[a][::-1]) for a in rows]
        self.reverse = (np.array(rows, dtype=int), np.array(cols, dtype=int))

    def adjacency(self, cutoff: float | None = None) -> np.ndarray:
        """Boolean n x n flow adjacency; a ``cutoff`` thresholds distances."""
        related = self.table != 0 if cutoff is None else self.table < cutoff
        adjacency = functools.reduce(
            np.logical_or,
            (related[np.ix_(x, y)] for x in self.anchors for y in self.anchors),
        )
        adjacency[self.reverse] = True
        np.fill_diagonal(adjacency, False)
        return adjacency


def neighborhood(
    spec: NeighborhoodSpec,
    index: FlowIndex,
    dyadic: DyadicSeries | None = None,
) -> dict[tuple[str, str], frozenset]:
    """Neighbour sets for every flow in the index.

    Parameters
    ----------
    spec : NeighborhoodSpec
        Which structure to build.
    index : FlowIndex
        The period's flow ordering.
    dyadic : DyadicSeries, optional
        Alliance indicator (nonzero = allied) for the alliance kinds, or
        pairwise distances in km for the distance kinds, read at the
        index's period.  Ignored by the three activity-based kinds.

    Returns
    -------
    dict
        Maps each dyad to a frozenset of neighbouring dyads.

    Raises
    ------
    WeightError
        When alliance or distance data is missing for a required pair.
    """
    adjacency = AnchorRelation(spec.kind, index, dyadic).adjacency(spec.cutoff_km)
    dyads = index.dyads
    return {
        dyad: frozenset(dyads[b] for b in np.flatnonzero(row))
        for dyad, row in zip(dyads, adjacency)
    }


def build_weight_matrix(
    spec: NeighborhoodSpec,
    index: FlowIndex,
    dyadic: DyadicSeries | None = None,
) -> WeightMatrix:
    """Materialize the row-normalized weight matrix for one structure.

    Row a holds 1/|N(v_a)| at the columns of v_a's neighbours and 0
    elsewhere; a flow with an empty neighbourhood keeps an all-zero row.
    """
    adjacency = AnchorRelation(spec.kind, index, dyadic).adjacency(spec.cutoff_km)
    counts = adjacency.sum(axis=1, keepdims=True)
    entries = np.zeros(adjacency.shape)
    np.divide(adjacency, counts, out=entries, where=counts > 0)
    return WeightMatrix(index=index, entries=entries, spec=spec)


def write_weight_csv(path, matrix: WeightMatrix) -> None:
    """Dump nonzero entries as ``row_dyad,col_dyad,weight`` for inspection."""
    names = [f"{sender}->{receiver}" for sender, receiver in matrix.index.dyads]
    rows = [
        (names[a], names[b], matrix.entries[a, b])
        for a, b in zip(*np.nonzero(matrix.entries))
    ]
    write_csv(path, ("row_dyad", "col_dyad", "weight"), rows)
