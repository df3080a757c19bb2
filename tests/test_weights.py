import tracemalloc

import numpy as np
import pytest

from netdisturb import (
    DyadicSeries,
    FlowIndex,
    NeighborhoodSpec,
    WeightError,
    build_weight_matrix,
    neighborhood,
)

from conftest import complete_alliance, complete_distances, random_flow_index


def brute_force_neighborhoods(spec, index, dyadic=None):
    """Naive oracle: evaluate the member predicate over all ordered flow pairs."""
    period = index.period

    def da(x, y):
        return 0.0 if x == y else dyadic.lookup(x, y, period)

    def dist(x, y):
        return dyadic.lookup(x, y, period)

    out = {}
    for i, j in index.dyads:
        members = set()
        for p, q in index.dyads:
            if (p, q) == (i, j):
                continue
            if spec.kind == "sender_attached":
                keep = p == i or (p, q) == (j, i)
            elif spec.kind == "receiver_attached":
                keep = (p, q) == (j, i) or q == j
            elif spec.kind == "full_activity":
                keep = p in (i, j) or q in (i, j)
            elif spec.kind == "alliance_import":
                keep = da(j, q) != 0
            elif spec.kind == "alliance_export":
                keep = da(i, p) != 0
            elif spec.kind == "distance_import":
                keep = j != q and dist(j, q) < spec.cutoff_km
            else:
                keep = i != p and dist(i, p) < spec.cutoff_km
            if keep:
                members.add((p, q))
        out[(i, j)] = frozenset(members)
    return out


SPEC_EXAMPLE_INDEX = FlowIndex(
    period=1, dyads=(("A", "B"), ("A", "C"), ("B", "A"), ("D", "C"))
)


class TestHandExamples:
    def test_sender_attached(self):
        nbrs = neighborhood(NeighborhoodSpec("sender_attached"), SPEC_EXAMPLE_INDEX)
        assert nbrs[("A", "B")] == {("A", "C"), ("B", "A")}

    def test_receiver_attached(self):
        nbrs = neighborhood(NeighborhoodSpec("receiver_attached"), SPEC_EXAMPLE_INDEX)
        assert nbrs[("A", "B")] == {("B", "A")}

    def test_full_activity(self):
        nbrs = neighborhood(NeighborhoodSpec("full_activity"), SPEC_EXAMPLE_INDEX)
        assert nbrs[("A", "B")] == {("B", "A"), ("A", "C")}

    def test_alliance_import(self):
        alliance = DyadicSeries(
            "alliance", True, {("B", "C", 1): 1.0}, default=0.0
        )
        nbrs = neighborhood(
            NeighborhoodSpec("alliance_import"), SPEC_EXAMPLE_INDEX, alliance
        )
        assert nbrs[("A", "B")] == {("A", "C"), ("D", "C")}

    def test_distance_import(self):
        distance = DyadicSeries(
            "distance",
            True,
            {("A", "B", 1): 500.0, ("B", "C", 1): 2000.0, ("A", "C", 1): 7000.0},
        )
        nbrs = neighborhood(
            NeighborhoodSpec("distance_import", cutoff_km=1100.0),
            SPEC_EXAMPLE_INDEX,
            distance,
        )
        assert nbrs[("A", "B")] == {("B", "A")}

    def test_weight_row_values(self):
        matrix = build_weight_matrix(
            NeighborhoodSpec("sender_attached"), SPEC_EXAMPLE_INDEX
        )
        index = SPEC_EXAMPLE_INDEX
        row = matrix.entries[index.dyads.index(("A", "B"))]
        expected = np.zeros(4)
        expected[index.dyads.index(("A", "C"))] = 0.5
        expected[index.dyads.index(("B", "A"))] = 0.5
        np.testing.assert_array_equal(row, expected)

    def test_empty_neighborhood_zero_row(self):
        index = FlowIndex(period=1, dyads=(("A", "B"), ("C", "D")))
        matrix = build_weight_matrix(NeighborhoodSpec("sender_attached"), index)
        np.testing.assert_array_equal(matrix.entries[0], [0.0, 0.0])

    def test_reciprocal_pair_full_activity(self):
        index = FlowIndex(period=1, dyads=(("A", "B"), ("B", "A")))
        matrix = build_weight_matrix(NeighborhoodSpec("full_activity"), index)
        np.testing.assert_array_equal(matrix.entries, [[0.0, 1.0], [1.0, 0.0]])


def all_specs(rng):
    return [
        NeighborhoodSpec("sender_attached"),
        NeighborhoodSpec("receiver_attached"),
        NeighborhoodSpec("full_activity"),
        NeighborhoodSpec("alliance_import"),
        NeighborhoodSpec("alliance_export"),
        NeighborhoodSpec("distance_import", cutoff_km=float(rng.uniform(500, 4000))),
        NeighborhoodSpec("distance_export", cutoff_km=float(rng.uniform(500, 4000))),
    ]


def context_for(spec, index, rng, symmetric=True):
    nodes = {n for dyad in index.dyads for n in dyad}
    if spec.kind.startswith("alliance"):
        return complete_alliance(rng, nodes, symmetric=symmetric)
    if spec.kind.startswith("distance"):
        return complete_distances(rng, nodes, symmetric=symmetric)
    return None


class TestOracleAgreement:
    def test_all_builders_match_brute_force(self):
        # Asymmetric alliance and distance series pin the lookup orientation:
        # the anchor's row, lookup(anchor, partner), decides membership.
        rng = np.random.default_rng(42)
        for _ in range(60):
            index = random_flow_index(rng)
            for spec in all_specs(rng):
                for symmetric in (True, False):
                    dyadic = context_for(spec, index, rng, symmetric)
                    fast = neighborhood(spec, index, dyadic)
                    slow = brute_force_neighborhoods(spec, index, dyadic)
                    assert fast == slow, (
                        f"{spec.structure_id} (symmetric={symmetric}) disagrees with oracle"
                    )

    def test_matrix_matches_neighbourhoods(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            index = random_flow_index(rng)
            for spec in all_specs(rng):
                dyadic = context_for(spec, index, rng)
                nbrs = neighborhood(spec, index, dyadic)
                matrix = build_weight_matrix(spec, index, dyadic)
                for a, dyad in enumerate(index.dyads):
                    members = nbrs[dyad]
                    if members:
                        for b, other in enumerate(index.dyads):
                            expected = 1.0 / len(members) if other in members else 0.0
                            assert matrix.entries[a, b] == expected
                    else:
                        assert not matrix.entries[a].any()


class TestColumnBlocks:
    """The inspection views read W's columns in blocks of 64; these cross the seams."""

    def test_views_match_brute_force_across_blocks(self):
        # 150-181 flows: two full blocks and a partial third.
        rng = np.random.default_rng(48)
        nodes = [f"N{k:02d}" for k in range(14)]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for _ in range(2):
            rng.shuffle(pairs)
            index = FlowIndex(period=1, dyads=tuple(sorted(pairs[: rng.integers(150, 182)])))
            for spec in all_specs(rng):
                for symmetric in (True, False):
                    dyadic = context_for(spec, index, rng, symmetric)
                    slow = brute_force_neighborhoods(spec, index, dyadic)
                    assert neighborhood(spec, index, dyadic) == slow, spec.structure_id
                    expected = np.zeros((index.n, index.n))
                    for a, dyad in enumerate(index.dyads):
                        for other in slow[dyad]:
                            expected[a, index.dyads.index(other)] = 1.0 / len(slow[dyad])
                    entries = build_weight_matrix(spec, index, dyadic).entries
                    assert np.array_equal(entries, expected), spec.structure_id

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_flow_index(self, n):
        index = FlowIndex(period=1, dyads=(("A", "B"),)[:n])
        rng = np.random.default_rng(49)
        for spec in all_specs(rng):
            dyadic = context_for(spec, FlowIndex(period=1, dyads=(("A", "B"),)), rng)
            assert neighborhood(spec, index, dyadic) == {dyad: frozenset() for dyad in index.dyads}
            entries = build_weight_matrix(spec, index, dyadic).entries
            assert entries.shape == (n, n) and not entries.any()


class TestInvariants:
    def test_row_sums_zero_or_one(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            index = random_flow_index(rng)
            for spec in all_specs(rng):
                matrix = build_weight_matrix(spec, index, context_for(spec, index, rng))
                sums = matrix.entries.sum(axis=1)
                assert np.all(
                    (np.abs(sums) <= 1e-15) | (np.abs(sums - 1.0) <= 1e-15)
                ), f"row sums off for {spec.structure_id}: {sums}"

    def test_zero_diagonal(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            index = random_flow_index(rng)
            for spec in all_specs(rng):
                matrix = build_weight_matrix(spec, index, context_for(spec, index, rng))
                assert not np.diag(matrix.entries).any()

    def test_full_activity_contains_sender_and_receiver_sets(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            index = random_flow_index(rng)
            n1 = neighborhood(NeighborhoodSpec("sender_attached"), index)
            n2 = neighborhood(NeighborhoodSpec("receiver_attached"), index)
            n3 = neighborhood(NeighborhoodSpec("full_activity"), index)
            for dyad in index.dyads:
                assert n3[dyad] >= (n1[dyad] | n2[dyad])

    def test_sender_receiver_duality_under_reversal(self):
        # receiver_attached on a network equals sender_attached on the
        # edge-reversed network, after relabelling flows.
        rng = np.random.default_rng(47)
        for _ in range(30):
            index = random_flow_index(rng)
            reversed_index = FlowIndex(
                period=index.period,
                dyads=tuple(sorted((r, s) for s, r in index.dyads)),
            )
            n2 = neighborhood(NeighborhoodSpec("receiver_attached"), index)
            n1_reversed = neighborhood(NeighborhoodSpec("sender_attached"), reversed_index)
            for s, r in index.dyads:
                relabeled = frozenset((q, p) for p, q in n1_reversed[(r, s)])
                assert n2[(s, r)] == relabeled


class TestErrors:
    def test_cutoff_required_for_distance(self):
        with pytest.raises(WeightError, match="cutoff_km"):
            NeighborhoodSpec("distance_import")

    def test_cutoff_rejected_elsewhere(self):
        with pytest.raises(WeightError, match="takes no cutoff"):
            NeighborhoodSpec("full_activity", cutoff_km=100.0)

    def test_unknown_kind(self):
        with pytest.raises(WeightError, match="unknown neighbourhood kind"):
            NeighborhoodSpec("nearest")

    def test_missing_alliance_pair_named(self):
        index = FlowIndex(period=1, dyads=(("A", "B"), ("C", "B"), ("A", "C")))
        alliance = DyadicSeries("alliance", True, {("A", "B", 1): 1.0})
        with pytest.raises(WeightError, match=r"\(B, C\)|\(C, B\)"):
            neighborhood(NeighborhoodSpec("alliance_import"), index, alliance)

    def test_missing_context_entirely(self):
        index = FlowIndex(period=1, dyads=(("A", "B"), ("B", "A")))
        with pytest.raises(WeightError, match="no dyadic series"):
            neighborhood(NeighborhoodSpec("distance_import", cutoff_km=100.0), index)


def test_structure_ids():
    assert NeighborhoodSpec("full_activity").structure_id == "full_activity"
    assert (
        NeighborhoodSpec("distance_import", cutoff_km=1100.0).structure_id
        == "distance_import@1100"
    )


def test_neighbourhoods_never_form_entries():
    # About 3000 flows over 200 nodes, the paper's node count: one n x n
    # float64 is 72 MB.  The neighbour sets hold O(nnz) items, about 180k here.
    rng = np.random.default_rng(11)
    nodes = [f"N{k:03d}" for k in range(200)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = rng.choice(len(pairs), size=3000, replace=False)
    index = FlowIndex(period=1, dyads=tuple(sorted(pairs[k] for k in chosen)))
    spec = NeighborhoodSpec("full_activity")
    tracemalloc.start()
    try:
        neighborhood(spec, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < index.n**2 * 8 / 4
