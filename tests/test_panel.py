import numpy as np
import pytest

from netdisturb import (
    FlowIndex,
    NetworkSnapshot,
    NodeRoster,
    PanelError,
    RosterEntry,
    index_flows,
    load_panel,
    load_roster,
    log_flow_vector,
)
from netdisturb.panel import write_edge_csv, write_roster_csv

from conftest import snapshot_of


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def roster_file(tmp_path):
    return write(
        tmp_path / "roster.csv",
        "node,active_from,active_to\nUSA,1950,2016\nGBR,1950,2016\nSUN,1950,1991\n",
    )


class TestLoadPanel:
    def test_single_row(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv", "period,sender,receiver,value\n1952,USA,GBR,10.5\n"
        )
        panel = load_panel(edges, roster_file)
        assert len(panel) == 1
        assert panel[0].period == 1952
        assert panel[0].n_flows == 1
        assert panel[0].index.dyads == (("USA", "GBR"),)
        assert panel[0].values.tolist() == [10.5]

    def test_duplicate_dyad_rejected(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv",
            "period,sender,receiver,value\n1952,USA,GBR,10.5\n1952,USA,GBR,10.5\n",
        )
        with pytest.raises(PanelError, match="duplicate dyad USA -> GBR"):
            load_panel(edges, roster_file)

    def test_periods_sorted(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv",
            "period,sender,receiver,value\n1953,USA,GBR,3.0\n1952,USA,GBR,10.5\n",
        )
        panel = load_panel(edges, roster_file)
        assert [s.period for s in panel] == [1952, 1953]

    def test_nonpositive_value_rejected(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv", "period,sender,receiver,value\n1952,USA,GBR,0\n"
        )
        with pytest.raises(PanelError, match="nonpositive value"):
            load_panel(edges, roster_file)

    def test_self_flow_rejected(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv", "period,sender,receiver,value\n1952,USA,USA,1.0\n"
        )
        with pytest.raises(PanelError, match="self-flow"):
            load_panel(edges, roster_file)

    def test_inactive_node_rejected(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv", "period,sender,receiver,value\n1995,USA,SUN,1.0\n"
        )
        with pytest.raises(PanelError, match="SUN.*not active in period 1995"):
            load_panel(edges, roster_file)

    def test_unknown_node_rejected(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv", "period,sender,receiver,value\n1952,USA,XXX,1.0\n"
        )
        with pytest.raises(PanelError, match="XXX"):
            load_panel(edges, roster_file)

    def test_bad_header(self, tmp_path, roster_file):
        edges = write(tmp_path / "edges.csv", "period,from,to,value\n")
        with pytest.raises(PanelError, match="expected header"):
            load_panel(edges, roster_file)

    def test_missing_file(self, tmp_path, roster_file):
        with pytest.raises(PanelError, match="cannot open"):
            load_panel(tmp_path / "nope.csv", roster_file)

    def test_error_names_line(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv",
            "period,sender,receiver,value\n1952,USA,GBR,1.0\n1952,GBR,USA,-2\n",
        )
        with pytest.raises(PanelError, match="edges.csv:3"):
            load_panel(edges, roster_file)


class TestRoster:
    def test_duplicate_node(self):
        with pytest.raises(PanelError, match="duplicate roster node"):
            NodeRoster(
                entries=(
                    RosterEntry("USA", 1950, 2016),
                    RosterEntry("USA", 1950, 2016),
                )
            )

    def test_inverted_span(self):
        with pytest.raises(PanelError, match="active_from"):
            RosterEntry("USA", 2016, 1950)


class TestIndexFlows:
    def test_lexicographic_order(self):
        snapshot = snapshot_of(1, [("B", "A", 1.0), ("A", "B", 2.0), ("A", "C", 3.0)])
        assert index_flows(snapshot).dyads == (("A", "B"), ("A", "C"), ("B", "A"))

    def test_singleton(self):
        snapshot = snapshot_of(1, [("A", "B", 1.0)])
        index = index_flows(snapshot)
        assert index.dyads == (("A", "B"),)
        assert index.n == 1

    def test_permutation_invariance(self):
        flows = [("A", "B", 1.0), ("C", "A", 2.0), ("B", "C", 3.0)]
        a = index_flows(snapshot_of(1, flows))
        b = index_flows(snapshot_of(1, flows[::-1]))
        assert a == b

    def test_empty_snapshot_rejected(self):
        # A flow-less period is representable, but cannot be indexed/fitted.
        snapshot = snapshot_of(7, [])
        assert snapshot.n_flows == 0
        with pytest.raises(PanelError, match="no flows"):
            index_flows(snapshot)

    def test_index_length_matches_flows(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            nodes = [f"N{k}" for k in range(int(rng.integers(2, 7)))]
            pairs = [(a, b) for a in nodes for b in nodes if a != b]
            rng.shuffle(pairs)
            take = pairs[: int(rng.integers(1, len(pairs) + 1))]
            snapshot = snapshot_of(1, [(a, b, 1.0) for a, b in take])
            assert index_flows(snapshot).n == snapshot.n_flows


class TestCodes:
    def test_from_codes(self):
        index = FlowIndex.from_codes(3, ("A", "B", "C"), [0, 1, 2], [1, 0, 0])
        assert index.dyads == (("A", "B"), ("B", "A"), ("C", "A"))
        assert index.n == 3
        assert index.locate(index.receiver, index.sender).tolist() == [1, 0, -1]
        assert index == FlowIndex(period=3, dyads=(("A", "B"), ("B", "A"), ("C", "A")))
        assert index != FlowIndex(period=4, dyads=index.dyads)

    def test_given_order_kept_and_located(self):
        index = FlowIndex(period=1, dyads=(("B", "A"), ("A", "C"), ("A", "B")))
        assert index.nodes == ("A", "B", "C")
        assert index.dyads == (("B", "A"), ("A", "C"), ("A", "B"))
        assert index.locate([0, 1, 2, 0], [1, 0, 0, 2]).tolist() == [2, 0, -1, 1]

    def test_empty_index_locates_nothing(self):
        index = FlowIndex(period=1, dyads=())
        assert index.n == 0
        assert index.locate(np.array([0]), np.array([0])).tolist() == [-1]

    def test_duplicate_dyad_rejected(self):
        with pytest.raises(PanelError, match="duplicate dyad in flow index, period 2"):
            FlowIndex(period=2, dyads=(("A", "B"), ("B", "A"), ("A", "B")))

    def test_snapshot_keeps_a_sorted_index(self):
        index = FlowIndex(period=1, dyads=(("A", "B"), ("B", "A")))
        snapshot = NetworkSnapshot(index, np.array([1.0, 2.0]))
        assert snapshot.index is index
        assert index_flows(snapshot) is index

    def test_snapshot_sorts_values_with_its_index(self):
        snapshot = snapshot_of(5, [("C", "A", 3.0), ("A", "C", 1.0), ("B", "A", 2.0)])
        assert snapshot.period == 5
        assert snapshot.index.dyads == (("A", "C"), ("B", "A"), ("C", "A"))
        assert snapshot.values.tolist() == [1.0, 2.0, 3.0]

    def test_snapshot_value_count_checked(self):
        with pytest.raises(PanelError, match="1 values for 2 flows in period 1"):
            NetworkSnapshot(FlowIndex(period=1, dyads=(("A", "B"), ("B", "A"))), np.array([1.0]))

    def test_snapshot_messages(self):
        with pytest.raises(PanelError) as info:
            snapshot_of(1, [("A", "B", 2.0), ("B", "A", float("nan")), ("C", "C", 1.0)])
        assert str(info.value) == "flow 'B' -> 'A' has nonpositive value nan"
        with pytest.raises(PanelError) as info:
            snapshot_of(1, [("A", "B", 2.0), ("C", "C", -1.0)])
        assert str(info.value) == "self-flow 'C' -> 'C'"

    def test_loaded_periods_share_node_names(self, tmp_path, roster_file):
        edges = write(
            tmp_path / "edges.csv",
            "period,sender,receiver,value\n1953,GBR,USA,3\n1952,USA,GBR,1\n1952,GBR,USA,2\n",
        )
        one, two = load_panel(edges, roster_file)
        assert one.index.nodes is two.index.nodes
        assert one.index.nodes == ("GBR", "USA")
        assert one.index.dyads == (("GBR", "USA"), ("USA", "GBR"))
        assert one.values.tolist() == [2.0, 1.0]
        assert two.index.dyads == (("GBR", "USA"),)

    def test_log_flow_vector_needs_the_snapshots_flows(self):
        snapshot = snapshot_of(1, [("A", "B", 1.0), ("B", "A", 2.0)])
        np.testing.assert_array_equal(
            log_flow_vector(snapshot, FlowIndex(period=1, dyads=(("A", "B"), ("B", "A")))), np.log([1.0, 2.0])
        )
        with pytest.raises(PanelError, match="index does not hold the flows of period 1"):
            log_flow_vector(snapshot, FlowIndex(period=1, dyads=(("B", "A"), ("A", "B"))))


def test_log_flow_vector():
    snapshot = snapshot_of(1, [("B", "A", np.e), ("A", "B", 1.0)])
    index = index_flows(snapshot)
    np.testing.assert_allclose(log_flow_vector(snapshot, index), [0.0, 1.0])


def test_log_flow_vector_period_mismatch():
    snapshot = snapshot_of(1, [("A", "B", 1.0)])
    index = FlowIndex(period=2, dyads=(("A", "B"),))
    with pytest.raises(PanelError, match="period"):
        log_flow_vector(snapshot, index)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    nodes = [f"N{k:02d}" for k in range(6)]
    roster = NodeRoster(
        entries=tuple(RosterEntry(node, 1, 10) for node in nodes)
    )
    snapshots = []
    for period in (1, 2, 5):
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(pairs)
        flows = [(a, b, float(rng.lognormal())) for a, b in pairs[:8]]
        snapshots.append(snapshot_of(period, flows))
    edge_path = tmp_path / "edges.csv"
    roster_path = tmp_path / "roster.csv"
    write_edge_csv(edge_path, snapshots)
    write_roster_csv(roster_path, roster)
    reloaded = load_panel(edge_path, roster_path)
    assert len(reloaded) == len(snapshots)
    for original, loaded in zip(snapshots, reloaded):
        assert loaded.period == original.period
        assert loaded.index == original.index
        assert loaded.values.tolist() == original.values.tolist()


def test_flow_validation():
    with pytest.raises(PanelError, match="self-flow"):
        snapshot_of(1, [("A", "A", 1.0)])
    with pytest.raises(PanelError, match="nonpositive"):
        snapshot_of(1, [("A", "B", -1.0)])
