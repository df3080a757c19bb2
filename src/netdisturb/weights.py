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

Each structure relates a period's flows through their anchor nodes, read
from the flow index's node codes (:func:`anchor_table`): the roles that
anchor a flow (its sender s, its receiver r, or both), a node relation C
over the anchor nodes, and, for the attached kinds, the reverse flow
(j, i).  With d the period's table of the dyadic series the kind reads
(:attr:`NeighborhoodSpec.dyadic_series`: ``alliance`` or ``distance``), C
is the identity for the activity kinds, d(anchor, partner) != 0 for the
alliance kinds and d(anchor, partner) < cutoff for the distance kinds; the
last two are false on the diagonal, as no node is its own ally or close
neighbour.  Flow b neighbours flow a when
C[x(a), y(b)] holds for some roles x and y, or when b is a's reverse flow.
A flow is never its own neighbour (a nonzero diagonal would break the
disturbance model).  Weights are uniform within a neighbourhood: W[a, b] =
1/|N(a)| for neighbours, 0 otherwise, so each row sums to 1, or to 0 when
the neighbourhood is empty (such flows receive no spillover).

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

A :class:`WeightMatrix` holds these factors and is the one operator for a
built W: it evaluates W v in O(n + N^2) per column, and log|det(I - rho W)|
and (I - rho W)^-1 v in O(n + N^3), with no n x n work.  With E = 0 the
log-det's N x N core is fixed, and its eigenvalues are taken once, by
``eigvalsh`` where C is symmetric.  The inspection views read W off the
same product: the dense ``entries`` are W times the identity, and the
neighbour sets are the nonzeros of W's columns, taken 64 at a time, in
O(n^2) time and O(64 n + nnz) memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .covariates import DyadicSeries
from .errors import CovariateError, EstimationError, WeightError
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
DISTANCE_KINDS = frozenset({"distance_import", "distance_export"})

# Columns of W formed at once by the inspection views: each block costs
# O(64 n) memory, so reading every neighbour set never holds n x n floats.
_COLUMN_BLOCK = 64


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

    @property
    def dyadic_series(self) -> str | None:
        """The dyadic series this structure reads: "alliance", "distance" or None."""
        relation = _LAYOUT[self.kind][1]
        return None if relation == "identity" else relation


def anchor_table(kind: str, index: FlowIndex, dyadic: DyadicSeries | None = None):
    """One period's flows grouped by anchor node: ``(anchors, table)``.

    ``anchors`` holds, per role of ``kind``, each flow's anchor as a
    position in the period's sorted anchor nodes (the index's codes,
    renumbered): U's nonzero columns.  ``table`` is N x N over those nodes:
    the identity, or the dyadic series' table for the period
    (:meth:`DyadicSeries.table`) taken at (anchor, partner), with a
    diagonal of 0 for alliances and infinity for distances, so no node
    relates to itself.  Raises WeightError when dyadic data misses a needed
    pair.
    """
    roles, relation = _LAYOUT[kind][:2]
    ends = {"s": index.sender, "r": index.receiver}
    # Codes follow sorted names, so the anchor nodes come out sorted.
    codes, anchors = np.unique(np.concatenate([ends[role] for role in roles]), return_inverse=True)
    nodes = [index.nodes[code] for code in codes.tolist()]
    if relation == "identity":
        table = np.eye(len(nodes))
    elif dyadic is None:
        raise WeightError(f"{relation} data required but no dyadic series given")
    else:
        pos = dyadic.codes(nodes)
        table = dyadic.table(index.period)[np.ix_(pos, pos)]
        np.fill_diagonal(table, np.inf if relation == "distance" else 0.0)
        try:
            dyadic.check(table, lambda xy: (nodes[xy[0]], nodes[xy[1]]))
        except CovariateError as exc:
            raise WeightError(str(exc)) from None
    return anchors.reshape(len(roles), -1), table


# A flow block of B(rho) = I - rho D+ E whose determinant falls below this
# on [-1, 1], so vanishes inside (-1, 1), is not inverted but joins the
# core.  A block whose determinant reaches 0 only at rho = -1 or 1 (e.g.
# an attached flow with one neighbour, det = 1 + rho) stays: on the open
# interval B^-1 stays finite, and the rounding it adds grows only as
# eps / (1 - |rho|).
_BLOCK_DET_FLOOR = -1e-9


def eigenvalue_log_det(rho, eigenvalues) -> np.ndarray:
    """log|det(I - rho W)| = sum_k log|1 - rho lambda_k| from W's eigenvalues, at a float or an array of rho.

    The nonzero eigenvalues suffice.  Those of an asymmetric W may be
    complex; they come in conjugate pairs, so the sum is real.  It is -inf
    on a pole.
    """
    factors = 1.0 - np.multiply.outer(rho, eigenvalues)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(factors)).sum(axis=-1)


class WeightMatrix:
    """Row-normalized n x n dependence matrix over a flow index, held as W = D+ (U C U' + E).

    Built by :func:`build_weight_matrix`.  ``anchors`` are U's columns per
    role and C is the node table thresholded (:func:`anchor_table`).
    ``partner`` maps each flow to its reverse flow (:meth:`FlowIndex.locate`)
    where E holds R (the attached kinds and full_activity), else to itself;
    ``paired`` marks the flows that have one, and ``correction`` is E's
    (self, reverse) coefficients.  ``counts``
    is D's diagonal, (U C U' + E) 1.  ``W @ v``, for v of shape (n,) or
    (n, k), is D+ (U (C (U' v)) + E v) in O(n k + N^2 k), as U' sums v over
    each anchor node's flows.  ``entries`` is W times the identity, formed
    64 columns at a time on first access and then cached, for tests and
    inspection.  :class:`DenseWeight` answers the same calls from a W's
    dense entries, as the oracle of tests.  Row normalized and
    non-negative, such a W has every eigenvalue of modulus at most 1, so
    its ``rho_bounds`` are (-1, 1).

    B(rho) = I - rho D+ E is block diagonal: a 1 x 1 block per flow, or a
    2 x 2 block per pair of reverse flows.  By the matrix determinant lemma

        log|det(I - rho W)| = log|det B| + log|det(I_N - rho C U' B^-1 D+ U)|

    where U' B^-1 D+ U is one bincount over the flows' anchor cells, so an
    evaluation costs O(n + N^3) and forms no n x n matrix.  A block whose
    determinant vanishes inside (-1, 1) (a flow with one or two neighbours)
    keeps identity rows in B; its part of E joins the core as extra rows
    and columns, one per flow, whose entries do not depend on rho.  With
    E = 0 the whole core is fixed: it is built once and its eigenvalues
    taken once (:meth:`log_det` names the factorization each core allows).

    :meth:`solve` gives (I - rho W)^-1 v from the same B(rho) and core by
    the Woodbury identity.  Let U~ be U with one more column per core flow
    (its indicator), C~ be C bordered by E's rows and columns over the core
    flows, and core = C~ U~' B^-1 D+ U~, the matrix :meth:`log_det` takes
    the determinant of.  Then

        (I - rho W)^-1 v = B^-1 v + rho B^-1 D+ U~ (I - rho core)^-1 C~ U~' B^-1 v,

    and B^-1 = I + rho B^-1 D+ E (E without the core flows' rows) needs only
    the per-flow entries of B^-1 D+.  A solve for k columns costs
    O(n k + N^2 k) plus one dense solve with the core, and forms no n x n
    matrix.  All this is prepared on the first :meth:`log_det` or
    :meth:`solve` call: a W only multiplied never pays for it.
    """

    rho_bounds = (-1.0, 1.0)

    def __init__(self, spec: NeighborhoodSpec, index: FlowIndex, dyadic: DyadicSeries | None = None):
        self.index, self.spec = index, spec
        self.anchors, table = anchor_table(spec.kind, index, dyadic)
        self.correction = _LAYOUT[spec.kind][2:]
        reverse = index.locate(index.receiver, index.sender) if self.correction[1] else np.full(index.n, -1)
        self.partner = np.where(reverse >= 0, reverse, np.arange(index.n))
        self.paired = self.partner != np.arange(index.n)
        self._C = (table != 0 if spec.cutoff_km is None else table < spec.cutoff_km).astype(float)
        self.counts = self._spread(np.ones((index.n, 1)))[:, 0]
        self._own = np.divide(1.0, self.counts, out=np.zeros_like(self.counts), where=self.counts > 0)
        self._path = None
        self._log_dets = {}

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = np.empty((self.n, self.n))
        for start, block in self._column_blocks():
            entries[:, start : start + block.shape[1]] = block
        return entries

    @property
    def n(self) -> int:
        return self.index.n

    def _gather(self, v) -> np.ndarray:
        """U' v for v of shape (n, k): v summed over each anchor node's flows."""
        size, k = self._C.shape[0], v.shape[1]
        cells = [(x[:, None] * k + np.arange(k)).ravel() for x in self.anchors]
        return sum(np.bincount(c, v.ravel(), minlength=size * k) for c in cells).reshape(size, k)

    def _mates(self, v) -> np.ndarray:
        """R v for v of shape (n, k): each flow's reverse-flow row, 0 where it has none."""
        return np.where(self.paired[:, None], v[self.partner], 0.0)

    def _spread(self, v) -> np.ndarray:
        """(U C U' + E) v for v of shape (n, k)."""
        reach = self._C @ self._gather(v)
        return sum(reach[x] for x in self.anchors) + self.correction[0] * v + self.correction[1] * self._mates(v)

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return (self._own[:, None] * self._spread(v.reshape(len(v), -1))).reshape(v.shape)

    def _column_blocks(self):
        """W's columns, _COLUMN_BLOCK at a time: (first column, W @ those identity columns)."""
        for start in range(0, self.n, _COLUMN_BLOCK):
            yield start, self @ np.eye(self.n, min(_COLUMN_BLOCK, self.n - start), -start)

    def _prepare(self) -> None:
        """The log-det's fixed core and eigenvalues (E = 0), or its block terms, anchor cells and border."""
        anchors, partner, own, paired = self.anchors, self.partner, self._own, self.paired
        self_term, reverse_term = self.correction
        n, size = own.size, self._C.shape[0]
        if not (self_term or reverse_term):
            # E = 0 (the one-role alliance and distance kinds): B = I, and the core C U' D+ U = C diag(s),
            # s the anchors' sums of own, is fixed, with the spectrum of diag(sqrt s) C diag(sqrt s).
            self._e_self = self._e_reverse = self._reverse = np.zeros(n)
            self._core_flows = np.zeros(0, int)
            sums = np.bincount(anchors[0], own, minlength=size)
            self._fixed, self._path = self._C * sums, "eigenvalues"
            if (self._C == self._C.T).all():
                root = np.sqrt(sums)
                self._eigenvalues = np.linalg.eigvalsh(root[:, None] * self._C * root)
            else:
                self._eigenvalues = np.linalg.eigvals(self._fixed)
            return
        other = np.where(paired, own[partner], 0.0)

        # det B_a(rho) = 1 + b rho + c rho^2, the same for both flows of a pair.
        b = -self_term * (own + other)
        c = (self_term**2 - reverse_term**2) * own * other
        vertex = np.clip(np.divide(-b, 2.0 * c, out=np.zeros(n), where=c != 0), -1.0, 1.0)
        lowest = np.minimum.reduce([1.0 - b + c, 1.0 + b + c, 1.0 + vertex * (b + vertex * c)])
        in_core = lowest < _BLOCK_DET_FLOOR
        e_self = np.where(in_core, 0.0, float(self_term))
        e_reverse = np.where(in_core | ~paired, 0.0, float(reverse_term))
        self._e_self, self._e_reverse = e_self, e_reverse
        self._self_own = e_self * own
        self._self_other = e_self * other
        self._reverse = e_reverse * own * other
        self._reverse_sq = e_reverse * self._reverse
        # Both flows of a pair carry the pair's determinant.
        self._halves = np.where(paired, 0.5, 1.0)
        self._cells = np.concatenate(
            [np.concatenate([x * size + y, x * size + y[partner]]) for x in anchors for y in anchors]
        )

        # E != 0 only for the activity kinds, where C is the identity.
        core = self._core_flows = np.flatnonzero(in_core)
        if core.size:
            slot = np.full(n, -1)
            slot[core] = np.arange(core.size)
            spread = np.zeros((size, core.size))
            for x in anchors:
                spread[x[core], slot[core]] += own[core]
            e_core = self_term * np.eye(core.size)
            mates = core[paired[core]]
            e_core[slot[mates], slot[partner[mates]]] = reverse_term
            self._border = np.zeros((size + core.size, size + core.size))
            self._border[:size, size:] = spread
            self._border[size:, :size] = e_core @ spread.T
            self._border[size:, size:] = e_core * own[core]
        self._fixed = None
        if not (e_self.any() or e_reverse.any()):
            # Every flow with E != 0 sits in the core, which is then fixed.
            self._fixed = self._core(own, np.zeros(n))
            self._path, self._eigenvalues = "eigenvalues", np.linalg.eigvals(self._fixed)
        else:
            self._path = "lu" if core.size else "cholesky"

    def _core(self, diag, off) -> np.ndarray:
        """C~ U~' B^-1 D+ U~, from B^-1 D+'s per-flow diagonal and reverse entries (C = I here)."""
        size = self._C.shape[0]
        weights = np.concatenate([diag, off] * len(self.anchors) ** 2)
        gram = np.bincount(self._cells, weights, minlength=size * size).reshape(size, size)
        if not self._core_flows.size:
            return gram
        core = self._border.copy()
        core[:size, :size] = gram
        return core

    def _blocks(self, rho: float):
        """log|det B(rho)|, B^-1 D+'s diagonal and reverse entries per flow, and I - rho core."""
        if self._path is None:
            self._prepare()
        if self._fixed is None:
            first = 1.0 - rho * self._self_other
            det = (1.0 - rho * self._self_own) * first - rho * rho * self._reverse_sq
            diag, off = first * self._own / det, rho * self._reverse / det
            matrix, outer = self._core(diag, off), float(self._halves @ np.log(np.abs(det)))
            matrix *= -rho
        else:
            # E = 0 outside the core: B = I, and self._reverse is all zero.
            diag, off, matrix, outer = self._own, self._reverse, -rho * self._fixed, 0.0
        matrix.reshape(-1)[:: len(matrix) + 1] += 1.0  # a view: matrix is C-contiguous
        return outer, diag, off, matrix

    @property
    def log_det_path(self) -> str:
        """How :meth:`log_det` factors the core: "eigenvalues", "cholesky" or "lu"."""
        if self._path is None:
            self._prepare()
        return self._path

    def log_det(self, rho):
        """log|det(I - rho W)| at a float or at each -1 < rho < 1 of an array; -inf where it is singular.

        A float gives a float, to the bit the value an array holding it
        gives.  :attr:`log_det_path` names the cheapest exact factorization
        the core allows.  A fixed core ("eigenvalues") has its eigenvalues
        taken once, by ``eigvalsh`` where C is symmetric (they are then
        real) and by ``eigvals`` otherwise; they are W's nonzero ones, so
        log|det(I - rho W)| = sum log|1 - rho lambda| (:func:`eigenvalue_log_det`).
        A core that moves with rho is factored one rho at a time: by
        Cholesky ("cholesky") when no flow sits in it, else by LU
        (``slogdet``, "lu").  Each distinct rho is factored once; its value
        is kept, so a search that comes back to a rho (the optimum, the
        middle point of the curvature) reads it back.

        The Cholesky case holds because, with K = D - rho E and no flow in
        the core, the core is M(rho) = I - rho U' K^-1 U, symmetric positive
        definite on (-1, 1).  K is block diagonal; no block's determinant
        vanishes inside (-1, 1) (else its flows would sit in the core), and
        K(0) = D > 0, so K > 0 there.  A = U U' + E is symmetric and
        non-negative, with a zero diagonal and row sums D, so D - rho A = K
        - rho U U' > 0 for |rho| < 1 (diagonal dominance).  For rho >= 0, M
        is the Schur complement of K in [[K, sqrt(rho) U], [sqrt(rho) U',
        I]], whose other complement is K - rho U U' > 0; for rho < 0, M = I
        + |rho| U' K^-1 U.  Flows with D = 0 carry zero weight and drop out.
        Then log det M = 2 sum log diag(chol M).
        """
        if not isinstance(rho, float):  # one rho at a time, unless the eigenvalues take them all
            rhos = np.asarray(rho, dtype=float)
            if self.log_det_path == "eigenvalues" and ((-1.0 < rhos) & (rhos < 1.0)).all():
                return eigenvalue_log_det(rhos, self._eigenvalues)
            return np.array([self.log_det(r) for r in rhos.ravel().tolist()]).reshape(rhos.shape)
        if not -1.0 < rho < 1.0:
            raise EstimationError(f"rho={rho} outside (-1, 1), where the factored log-det holds")
        if self.log_det_path == "eigenvalues":
            return float(eigenvalue_log_det(rho, self._eigenvalues))
        if rho not in self._log_dets:
            outer, _, _, matrix = self._blocks(rho)
            if self._path == "lu":
                inner = np.linalg.slogdet(matrix)[1]
            else:
                try:
                    inner = 2.0 * np.log(np.linalg.cholesky(matrix).diagonal()).sum()
                except np.linalg.LinAlgError:  # numerically singular
                    inner = -np.inf
            self._log_dets[rho] = float(outer + inner)
        return self._log_dets[rho]

    def solve(self, rho: float, v) -> np.ndarray:
        """(I - rho W)^-1 v for -1 < rho < 1 and v of shape (n,) or (n, k)."""
        _, diag, off, matrix = self._blocks(rho)
        size = self._C.shape[0]
        columns = np.asarray(v, dtype=float).reshape(len(v), -1)

        def scaled(w):  # B^-1 D+ w
            return diag[:, None] * w + off[:, None] * w[self.partner]

        corrected = self._e_self[:, None] * columns + self._e_reverse[:, None] * columns[self.partner]
        blocked = columns + rho * scaled(corrected)
        core = self._core_flows
        right = np.vstack([
            self._C @ self._gather(blocked),
            (self.correction[0] * blocked + self.correction[1] * self._mates(blocked))[core],
        ])
        inner = np.linalg.solve(matrix, right)
        spread = sum(inner[x] for x in self.anchors)
        spread[core] += inner[size:]
        return (columns + rho * scaled(corrected + spread)).reshape(np.shape(v))


class DenseWeight:
    """The dense oracle of a :class:`WeightMatrix`: a W given by its n x n ``entries``.

    It answers a built W's calls from the entries: ``W @ v``, ``counts``
    (nonzeros per row), :meth:`log_det`, :meth:`solve` (a dense solve) and
    ``rho_bounds``.  The log-det takes W's eigenvalues once
    (:func:`eigenvalue_log_det`; complex ones of an asymmetric W pair up, so
    the sum is real), and ``rho_bounds`` narrows (-1, 1) to the reciprocals
    of W's extreme nonzero real eigenvalues where they fall inside it.  The
    entries must be square and finite; they need not be row normalized.
    """

    log_det_path = "eigenvalues"

    def __init__(self, entries):
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.ndim != 2 or len(self.entries) != self.entries.shape[1]:
            raise EstimationError(f"W shape {self.entries.shape} is not square")
        if not np.isfinite(self.entries).all():
            raise EstimationError("W must be finite")
        self.n = len(self.entries)
        self.counts = np.count_nonzero(self.entries, axis=1)

    def __matmul__(self, v) -> np.ndarray:
        return self.entries @ np.asarray(v, dtype=float)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        try:
            return np.linalg.eigvals(self.entries)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"eigenvalue computation failed: {exc}") from None

    @functools.cached_property
    def rho_bounds(self) -> tuple[float, float]:
        eigenvalues = self.eigenvalues
        scale = max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))
        real_mask = np.abs(eigenvalues.imag) <= 1e-9 * scale
        real_parts = eigenvalues.real[real_mask]
        tiny = 1e-12 * scale
        positive = real_parts[real_parts > tiny]
        negative = real_parts[real_parts < -tiny]
        upper = min(1.0 / positive.max(), 1.0) if positive.size else 1.0
        lower = max(1.0 / negative.min(), -1.0) if negative.size else -1.0
        return lower, upper

    def log_det(self, rho) -> np.ndarray:
        """log|det(I - rho W)| at a float or at each rho of an array; -inf on a pole."""
        return eigenvalue_log_det(rho, self.eigenvalues)

    def solve(self, rho: float, v) -> np.ndarray:
        """(I - rho W)^-1 v for v of shape (n,) or (n, k)."""
        return np.linalg.solve(np.eye(self.n) - rho * self.entries, v)


def neighborhood(
    spec: NeighborhoodSpec,
    index: FlowIndex,
    dyadic: DyadicSeries | None = None,
) -> dict[tuple[str, str], frozenset]:
    """Neighbour sets for every flow in the index.

    They are the nonzeros of W's columns, formed 64 at a time: O(n^2) time
    and O(64 n + nnz) memory, with no n x n array.

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
    W = build_weight_matrix(spec, index, dyadic)
    nonzeros = (np.argwhere(block) + [0, start] for start, block in W._column_blocks())
    pairs = np.concatenate([np.empty((0, 2), int), *nonzeros])  # (row, column)
    rows, columns = pairs[np.lexsort(pairs.T[::-1])].T
    groups = np.split(columns, np.searchsorted(rows, np.arange(1, index.n)))
    dyads = index.dyads
    return {dyad: frozenset(map(dyads.__getitem__, c.tolist())) for dyad, c in zip(dyads, groups)}


def build_weight_matrix(
    spec: NeighborhoodSpec,
    index: FlowIndex,
    dyadic: DyadicSeries | None = None,
) -> WeightMatrix:
    """The row-normalized weight matrix of one structure, held as its factors.

    Row a holds 1/|N(v_a)| at the columns of v_a's neighbours and 0
    elsewhere; a flow with an empty neighbourhood keeps an all-zero row.
    """
    return WeightMatrix(spec, index, dyadic)
