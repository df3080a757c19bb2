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

The same relation factors W exactly.  With U the n x N sum over the roles
of each flow's one-hot anchor position, C the thresholded node relation,
R the reverse-flow pairing (R[a, b] = 1 when b is a's reverse flow) and
D = diag((U C U' + E) 1) the neighbourhood sizes,

    W = D+ (U C U' + E),   D+ the pseudo-inverse (0 for an empty row),

where E corrects what U C U' counts wrongly:

    alliance and distance kinds   E = 0        (C has no diagonal)
    sender/receiver_attached      E = R - I    (drop self, add the reverse)
    full_activity                 E = -2I - R  (two roles count self and
                                               the reverse flow twice)

:class:`WeightFactors` holds these factors and evaluates
log|det(I - rho W)| from them in O(n + N^3), with no n x n work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._serialize import write_csv
from .covariates import DyadicSeries
from .errors import CovariateError, WeightError
from .panel import FlowIndex

# kind -> (anchor roles, node relation, E = self * I + reverse * R)
_LAYOUT = {
    "sender_attached": ("s", "identity", -1, 1),
    "receiver_attached": ("r", "identity", -1, 1),
    "full_activity": ("sr", "identity", -2, -1),
    "alliance_import": ("r", "alliance", 0, 0),
    "alliance_export": ("s", "alliance", 0, 0),
    "distance_import": ("r", "distance", 0, 0),
    "distance_export": ("s", "distance", 0, 0),
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
    """Row-normalized n x n dependence matrix over a flow index.

    ``factors`` is W's factorization when :func:`build_weight_matrix` made
    it, and None for a matrix given as plain entries.
    """

    index: FlowIndex
    entries: np.ndarray
    spec: NeighborhoodSpec
    factors: WeightFactors | None = field(default=None, repr=False)

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
    flow with its reverse flow in the kinds whose E holds R (the attached
    kinds and full_activity) and is empty otherwise; ``correction`` is E's
    (self, reverse) coefficients.  Building it raises WeightError when
    dyadic data misses a needed pair.
    """

    def __init__(self, kind: str, index: FlowIndex, dyadic: DyadicSeries | None = None):
        roles, relation, *self.correction = _LAYOUT[kind]
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
        has_reverse = self.correction[1] != 0
        rows = [a for a, (i, j) in enumerate(index.dyads) if has_reverse and (j, i) in index]
        cols = [index.position(index.dyads[a][::-1]) for a in rows]
        self.reverse = (np.array(rows, dtype=int), np.array(cols, dtype=int))

    def related(self, cutoff: float | None = None) -> np.ndarray:
        """Boolean N x N node relation C; a ``cutoff`` thresholds distances."""
        return self.table != 0 if cutoff is None else self.table < cutoff

    def adjacency(self, cutoff: float | None = None) -> np.ndarray:
        """Boolean n x n flow adjacency; a ``cutoff`` thresholds distances."""
        related = self.related(cutoff)
        adjacency = functools.reduce(
            np.logical_or,
            (related[np.ix_(x, y)] for x in self.anchors for y in self.anchors),
        )
        adjacency[self.reverse] = True
        np.fill_diagonal(adjacency, False)
        return adjacency

    def factors(self, cutoff: float | None = None) -> WeightFactors:
        """The factors of W = D+ (U C U' + E) at this relation."""
        return WeightFactors(self.anchors, self.related(cutoff), *self.correction, self.reverse)


# A flow block of B(rho) = I - rho D+ E whose determinant falls below this
# on [-1, 1], so vanishes inside (-1, 1), is not inverted but joins the
# core.  A block whose determinant reaches 0 only at rho = -1 or 1 (e.g.
# an attached flow with one neighbour, det = 1 + rho) stays: on the open
# interval B^-1 stays finite, and the rounding it adds grows only as
# eps / (1 - |rho|).
_BLOCK_DET_FLOOR = -1e-9


class WeightFactors:
    """W = D+ (U C U' + E) for one built matrix, and log|det(I - rho W)|.

    ``counts`` is D's diagonal, (U C U' + E) 1.  B(rho) = I - rho D+ E is
    block diagonal: a 1 x 1 block per flow, or a 2 x 2 block per pair of
    reverse flows.  By the matrix determinant lemma

        log|det(I - rho W)| = log|det B| + log|det(I_N - rho C U' B^-1 D+ U)|

    where U' B^-1 D+ U is one bincount over the flows' anchor cells, so an
    evaluation costs O(n + N^3) and forms no n x n matrix.  A block whose
    determinant vanishes inside (-1, 1) (a flow with one or two neighbours)
    keeps identity rows in B; its part of E joins the core as extra rows
    and columns, one per flow, whose entries do not depend on rho.  With
    E = 0 the whole core is fixed and is built once.
    """

    def __init__(self, anchors, related, self_term, reverse_term, reverse):
        n, size = anchors[0].size, related.shape[0]
        relation = related.astype(float)
        partner = np.arange(n)
        partner[reverse[0]] = reverse[1]
        paired = partner != np.arange(n)
        reach = relation @ sum(np.bincount(x, minlength=size) for x in anchors)
        self.counts = sum(reach[x] for x in anchors) + self_term + reverse_term * paired
        own = np.zeros(n)
        np.divide(1.0, self.counts, out=own, where=self.counts > 0)
        other = np.where(paired, own[partner], 0.0)

        # det B_a(rho) = 1 + b rho + c rho^2, the same for both flows of a pair.
        b = -self_term * (own + other)
        c = (self_term**2 - reverse_term**2) * own * other
        vertex = np.clip(np.divide(-b, 2.0 * c, out=np.zeros(n), where=c != 0), -1.0, 1.0)
        lowest = np.minimum.reduce([1.0 - b + c, 1.0 + b + c, 1.0 + vertex * (b + vertex * c)])
        in_core = lowest < _BLOCK_DET_FLOOR
        e_self = np.where(in_core, 0.0, float(self_term))
        e_reverse = np.where(in_core | ~paired, 0.0, float(reverse_term))
        self._own = own
        self._self_own = e_self * own
        self._self_other = e_self * other
        self._reverse = e_reverse * own * other
        self._reverse_sq = e_reverse * self._reverse
        # Both flows of a pair carry the pair's determinant.
        self._halves = np.where(paired, 0.5, 1.0)
        self._roles = len(anchors) ** 2
        self._cells = np.concatenate(
            [np.concatenate([x * size + y, x * size + y[partner]]) for x in anchors for y in anchors]
        )
        self._size = size
        self._relation = None if np.array_equal(related, np.eye(size, dtype=bool)) else relation

        core = np.flatnonzero(in_core)
        slot = np.full(n, -1)
        slot[core] = np.arange(core.size)
        spread = np.zeros((size, core.size))
        for x in anchors:
            spread[x[core], slot[core]] += own[core]
        e_core = self_term * np.eye(core.size)
        mates = core[paired[core]]
        e_core[slot[mates], slot[partner[mates]]] = reverse_term
        self._border = np.zeros((size + core.size, size + core.size))
        self._border[:size, size:] = relation @ spread
        self._border[size:, :size] = e_core @ spread.T
        self._border[size:, size:] = e_core * own[core]
        self._fixed = None
        if not (e_self.any() or e_reverse.any()):
            self._fixed = self._core(own, np.zeros(n))

    def _core(self, diag, off) -> np.ndarray:
        """C~ U~' B^-1 D+ U~, from B^-1 D+'s per-flow diagonal and reverse entries."""
        size = self._size
        weights = np.tile(np.concatenate([diag, off]), self._roles)
        gram = np.bincount(self._cells, weights, minlength=size * size).reshape(size, size)
        core = self._border.copy()
        core[:size, :size] = gram if self._relation is None else self._relation @ gram
        return core

    def log_det(self, rho: float) -> float:
        """log|det(I - rho W)| for -1 < rho < 1; -inf where it is singular."""
        if self._fixed is not None:
            core, outer = self._fixed, 0.0
        else:
            det = (1.0 - rho * self._self_own) * (1.0 - rho * self._self_other)
            det -= rho * rho * self._reverse_sq
            core = self._core(
                (1.0 - rho * self._self_other) * self._own / det, rho * self._reverse / det
            )
            outer = float(self._halves @ np.log(np.abs(det)))
        matrix = -rho * core
        matrix.flat[:: len(matrix) + 1] += 1.0
        _, inner = np.linalg.slogdet(matrix)
        return outer + float(inner)


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
    relation = AnchorRelation(spec.kind, index, dyadic)
    factors = relation.factors(spec.cutoff_km)
    counts = factors.counts[:, None]
    entries = np.zeros((index.n, index.n))
    np.divide(relation.adjacency(spec.cutoff_km), counts, out=entries, where=counts > 0)
    return WeightMatrix(index=index, entries=entries, spec=spec, factors=factors)


def write_weight_csv(path, matrix: WeightMatrix) -> None:
    """Dump nonzero entries as ``row_dyad,col_dyad,weight`` for inspection."""
    names = [f"{sender}->{receiver}" for sender, receiver in matrix.index.dyads]
    rows = [
        (names[a], names[b], matrix.entries[a, b])
        for a, b in zip(*np.nonzero(matrix.entries))
    ]
    write_csv(path, ("row_dyad", "col_dyad", "weight"), rows)
