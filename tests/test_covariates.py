import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdisturb import (
    CovariateError,
    CovariateTerm,
    DyadicSeries,
    FlowIndex,
    NetworkSnapshot,
    NodalSeries,
    build_design,
    impute_linear,
    index_flows,
    load_dyadic_csv,
    load_nodal_csv,
)
from netdisturb._serialize import read_csv
from netdisturb.covariates import NODAL_HEADER, _value, write_dyadic_csv, write_nodal_csv

from conftest import snapshot_of


class TestImputeLinear:
    def test_internal_gap(self):
        series = NodalSeries(
            "gdp", {("A", 1): 2.0, ("A", 2): math.nan, ("A", 3): 4.0}
        )
        filled = impute_linear(series)
        assert filled.at(2, ["A"])[0].tolist() == [3.0]

    def test_leading_gap_nearest_value(self):
        series = NodalSeries("gdp", {("A", 1): math.nan, ("A", 2): 5.0})
        filled = impute_linear(series)
        assert filled.at(1, ["A"])[0].tolist() == [5.0]

    def test_complete_series_unchanged(self):
        values = {("A", 1): 1.0, ("A", 2): 2.5, ("A", 3): -4.0}
        filled = impute_linear(NodalSeries("gdp", values))
        assert filled.values == values
        assert filled.at(np.arange(1, 4), ["A"] * 3)[0].tolist() == [1.0, 2.5, -4.0]

    def test_idempotent(self):
        series = NodalSeries(
            "gdp",
            {("A", 1): 2.0, ("A", 2): math.nan, ("A", 4): 8.0, ("B", 3): 1.0},
        )
        once = impute_linear(series)
        twice = impute_linear(once)
        for period in range(6):
            reads = once.at(period, ["A", "B"]), twice.at(period, ["A", "B"])
            assert [r.tolist() for r in reads[0]] == [r.tolist() for r in reads[1]]

    def test_node_without_observations(self):
        series = NodalSeries("gdp", {("A", 1): math.nan})
        with pytest.raises(CovariateError, match="'A' has no observed values"):
            impute_linear(series)

    def test_contiguous_after_imputation(self):
        # The records stay as they are; every period between them reads filled.
        series = NodalSeries("gdp", {("A", 1): 1.0, ("A", 5): 9.0})
        filled = impute_linear(series)
        assert filled.values == series.values
        assert filled.at(np.arange(1, 6), ["A"] * 5)[0].tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_nodal_series_rejects_an_infinite_value(value):
    values = {("A", 1): 1.0, ("A", 2): math.nan, ("B", 3): value}
    with pytest.raises(CovariateError) as info:
        NodalSeries("gdp", values)
    assert str(info.value) == f"series 'gdp' has non-finite value {value!r} for (B, 3)"


class TestNodalLookup:
    def test_out_of_span_extrapolates(self):
        series = impute_linear(NodalSeries("gdp", {("A", 2): 5.0, ("A", 3): 7.0}))
        assert series.lookup("A", 1) == (5.0, True)
        assert series.lookup("A", 9) == (7.0, True)
        assert series.lookup("A", 2) == (5.0, False)

    def test_unknown_node(self):
        series = NodalSeries("gdp", {("A", 1): 1.0})
        with pytest.raises(CovariateError, match="no observations for node 'B'"):
            series.lookup("B", 1)

    def test_uninputed_gap_is_an_error(self):
        series = NodalSeries("gdp", {("A", 1): 1.0, ("A", 3): 3.0})
        with pytest.raises(CovariateError, match="impute_linear"):
            series.lookup("A", 2)


class TestDyadicSeries:
    def test_symmetric_lookup_both_orders(self):
        series = DyadicSeries("alliance", True, {("A", "B", 1): 1.0})
        assert series.lookup("A", "B", 1) == 1.0
        assert series.lookup("B", "A", 1) == 1.0

    def test_symmetric_conflict_rejected(self):
        with pytest.raises(CovariateError, match="conflicting values"):
            DyadicSeries("alliance", True, {("A", "B", 1): 1.0, ("B", "A", 1): 0.0})

    def test_carry_forward(self):
        series = DyadicSeries("alliance", True, {("A", "B", 1): 1.0, ("A", "B", 4): 0.0})
        assert series.lookup("A", "B", 3) == 1.0
        assert series.lookup("A", "B", 9) == 0.0

    def test_backward_fallback(self):
        series = DyadicSeries("distance", True, {("A", "B", 5): 100.0})
        assert series.lookup("A", "B", 1) == 100.0

    def test_default_for_absent_dyad(self):
        series = DyadicSeries("alliance", True, {("A", "B", 1): 1.0}, default=0.0)
        assert series.lookup("A", "C", 1) == 0.0

    def test_nan_default_rejected(self, tmp_path):
        with pytest.raises(CovariateError) as info:
            DyadicSeries("alliance", True, {("A", "B", 1): 1.0}, default=math.nan)
        assert str(info.value) == "series 'alliance': a default must be a number, not NaN"
        path = tmp_path / "alliance.csv"
        path.write_text("node_a,node_b,period,value\nA,B,1,1\n", encoding="utf-8")
        with pytest.raises(CovariateError, match="not NaN"):
            load_dyadic_csv(path, "alliance", True, math.nan)

    def test_infinite_default_for_absent_dyad(self):
        series = DyadicSeries("distance", True, {("A", "B", 1): 100.0}, default=math.inf)
        assert series.lookup("A", "C", 1) == math.inf

    def test_absent_dyad_without_default(self):
        series = DyadicSeries("distance", True, {("A", "B", 1): 100.0})
        with pytest.raises(CovariateError, match=r"no data for pair \(A, C\)"):
            series.lookup("A", "C", 1)

    def test_asymmetric_keeps_directions_apart(self):
        series = DyadicSeries("x", False, {("A", "B", 1): 1.0, ("B", "A", 1): 2.0})
        assert series.lookup("A", "B", 1) == 1.0
        assert series.lookup("B", "A", 1) == 2.0


def recipe_fixture():
    return (
        CovariateTerm("gdp", "sender", "log"),
        CovariateTerm("gdp", "receiver", "log"),
        CovariateTerm("milex", "receiver", "log"),
        CovariateTerm("alliance", "dyadic"),
        CovariateTerm("polity", "abs_diff"),
    )


class TestBuildDesign:
    def test_hand_computed_row(self):
        snapshot = snapshot_of(10, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        t = 8  # period 10, lag 2
        nodal = [
            NodalSeries("gdp", {("A", t): math.e**2, ("B", t): math.e**3}),
            NodalSeries("milex", {("B", t): math.e, ("A", t): 1.0}),
            NodalSeries("polity", {("A", t): 10.0, ("B", t): -10.0}),
        ]
        dyadic = [DyadicSeries("alliance", True, {("A", "B", t): 1.0})]
        design = build_design(snapshot, index, nodal, dyadic, recipe_fixture(), lag=2)
        np.testing.assert_allclose(design.rows[0], [1.0, 2.0, 3.0, 1.0, 1.0, 20.0])
        assert design.column_names == (
            "intercept",
            "log_gdp_sender",
            "log_gdp_receiver",
            "log_milex_receiver",
            "alliance",
            "polity_absdiff",
        )

    def test_lag_zero_is_direct_lookup(self):
        snapshot = snapshot_of(3, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        nodal = [NodalSeries("gdp", {("A", 3): 7.0, ("B", 3): 9.0})]
        design = build_design(
            snapshot, index, nodal, [], (CovariateTerm("gdp", "sender"),), lag=0
        )
        assert design.rows[0, 1] == 7.0

    def test_alliance_carried_forward_past_series_end(self):
        snapshot = snapshot_of(20, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        dyadic = [DyadicSeries("alliance", True, {("A", "B", 12): 1.0})]
        design = build_design(
            snapshot, index, [], dyadic, (CovariateTerm("alliance", "dyadic"),), lag=2
        )
        assert design.rows[0, 1] == 1.0

    def test_log_of_nonpositive_rejected(self):
        snapshot = snapshot_of(2, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        nodal = [NodalSeries("gdp", {("A", 2): -1.0, ("B", 2): 1.0})]
        with pytest.raises(CovariateError, match="log of nonpositive 'gdp'.*A"):
            build_design(
                snapshot, index, nodal, [], (CovariateTerm("gdp", "sender", "log"),),
                lag=0,
            )

    def test_unknown_series_rejected(self):
        snapshot = snapshot_of(2, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        with pytest.raises(CovariateError, match="no nodal series named 'gdp'"):
            build_design(
                snapshot, index, [], [], (CovariateTerm("gdp", "sender"),), lag=0
            )

    def test_symmetric_dyadic_same_both_directions(self):
        snapshot = snapshot_of(1, [("A", "B", 1.0), ("B", "A", 2.0)])
        index = index_flows(snapshot)
        dyadic = [DyadicSeries("distance", True, {("A", "B", 1): 750.0})]
        design = build_design(
            snapshot, index, [], dyadic, (CovariateTerm("distance", "dyadic"),), lag=0
        )
        assert design.rows[0, 1] == design.rows[1, 1] == 750.0

    def test_rows_follow_index_not_input_order(self):
        flows = [("B", "A", 1.0), ("A", "B", 2.0)]
        nodal = [NodalSeries("gdp", {("A", 1): 1.0, ("B", 1): 2.0})]
        recipe = (CovariateTerm("gdp", "sender"),)
        one = build_design(
            snapshot_of(1, flows),
            index_flows(snapshot_of(1, flows)),
            nodal, [], recipe, lag=0,
        )
        other = build_design(
            snapshot_of(1, flows[::-1]),
            index_flows(snapshot_of(1, flows[::-1])),
            nodal, [], recipe, lag=0,
        )
        np.testing.assert_array_equal(one.rows, other.rows)
        assert one.index.dyads == other.index.dyads

    def test_extrapolation_warns(self):
        snapshot = snapshot_of(9, [("A", "B", 5.0)])
        index = index_flows(snapshot)
        nodal = [NodalSeries("gdp", {("A", 1): 1.0, ("B", 1): 1.0})]
        with pytest.warns(UserWarning, match="outside the observed span"):
            build_design(
                snapshot, index, nodal, [], (CovariateTerm("gdp", "sender"),), lag=0
            )

    def test_abs_diff_names_the_sender_first(self):
        snapshot = snapshot_of(1, [("A", "B", 1.0)])
        nodal = [NodalSeries("g", {("C", 1): 1.0})]
        message = error_text(
            build_design, snapshot, index_flows(snapshot), nodal, [], (CovariateTerm("g", "abs_diff"),), lag=0
        )
        assert message == "series 'g' has no observations for node 'A'"

    def test_first_failing_flow_wins(self):
        snapshot = snapshot_of(1, [("A", "B", 1.0), ("C", "A", 1.0)])
        recipe = (CovariateTerm("g", "sender", "log"),)
        # A log error at flow (A, B) comes before a missing node at (C, A) ...
        nodal = [NodalSeries("g", {("A", 1): -1.0})]
        message = error_text(build_design, snapshot, index_flows(snapshot), nodal, [], recipe, lag=0)
        assert message == "log of nonpositive 'g' value -1.0 for A at period 1"
        # ... and a missing node at (A, B) before a log error at (C, A).
        nodal = [NodalSeries("g", {("C", 1): -1.0})]
        message = error_text(build_design, snapshot, index_flows(snapshot), nodal, [], recipe, lag=0)
        assert message == "series 'g' has no observations for node 'A'"


def test_covariate_term_validation():
    with pytest.raises(CovariateError, match="unknown covariate role"):
        CovariateTerm("gdp", "both")
    with pytest.raises(CovariateError, match="unknown transform"):
        CovariateTerm("gdp", "sender", "sqrt")


class TestCsvIO:
    def test_nodal_round_trip(self, tmp_path):
        series = NodalSeries("gdp", {("A", 1): 1.5, ("B", 2): -0.25})
        path = tmp_path / "gdp.csv"
        write_nodal_csv(path, series)
        loaded = load_nodal_csv(path, "gdp")
        assert loaded.values == series.values

    def test_imputed_series_writes_its_records(self, tmp_path):
        series = NodalSeries("gdp", {("A", 3): 3.0, ("A", 1): 1.0, ("B", 2): 2.0})
        path = tmp_path / "gdp.csv"
        write_nodal_csv(path, impute_linear(series))
        assert path.read_text() == "node,period,value\nA,1,1\nA,3,3\nB,2,2\n"

    def test_dyadic_round_trip(self, tmp_path):
        series = DyadicSeries("alliance", True, {("A", "B", 1): 1.0, ("A", "C", 1): 0.0})
        path = tmp_path / "alliance.csv"
        write_dyadic_csv(path, series)
        loaded = load_dyadic_csv(path, "alliance", symmetric=True)
        assert loaded.values == series.values

    def test_nodal_missing_markers(self, tmp_path):
        path = tmp_path / "gdp.csv"
        path.write_text("node,period,value\nA,1,2.0\nA,2,NA\nA,3,\n", encoding="utf-8")
        loaded = load_nodal_csv(path, "gdp")
        assert loaded.values[("A", 1)] == 2.0
        assert math.isnan(loaded.values[("A", 2)])
        assert math.isnan(loaded.values[("A", 3)])

    def test_nodal_bad_value(self, tmp_path):
        path = tmp_path / "gdp.csv"
        path.write_text("node,period,value\nA,1,abc\n", encoding="utf-8")
        with pytest.raises(CovariateError, match="gdp.csv:2"):
            load_nodal_csv(path, "gdp")

    def test_dyadic_bad_header(self, tmp_path):
        path = tmp_path / "alliance.csv"
        path.write_text("a,b,t,v\n", encoding="utf-8")
        with pytest.raises(CovariateError, match="expected header"):
            load_dyadic_csv(path, "alliance", symmetric=True)


DYADIC_CSV_HEADER = "node_a,node_b,period,value\n"


def dyadic_file(tmp_path, body, name="alliance.csv"):
    path = tmp_path / name
    path.write_text(DYADIC_CSV_HEADER + body, encoding="utf-8")
    return path


def nodal_file(tmp_path, body):
    path = tmp_path / "gdp.csv"
    path.write_text("node,period,value\n" + body, encoding="utf-8")
    return path


def error_text(call, *args, **kwargs):
    with pytest.raises(CovariateError) as info:
        call(*args, **kwargs)
    return str(info.value)


def nodal_row_loop(path):
    """`load_nodal_csv`'s values as its former loop over rows read them."""
    path, linenos, columns = read_csv(path, NODAL_HEADER, CovariateError)
    values = {}
    for lineno, node, period, value in zip(linenos, *columns):
        try:
            t = int(period)
        except ValueError:
            raise CovariateError(f"{path}:{lineno}: bad period {period!r}") from None
        key = (node, t)
        if key in values:
            raise CovariateError(f"{path}:{lineno}: duplicate entry for {key}")
        try:
            values[key] = _value(value)
        except ValueError:
            raise CovariateError(f"{path}:{lineno}: bad value {value!r}") from None
    return values


NODAL_ROW = st.tuples(
    st.sampled_from(["A", "B", " C", "a,b"]),
    st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5", "", "+2", "0_1"])),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["NA", "", "nan", "NaN", "x", "1..5", "2e3", " 7 "]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NODAL_ROW, max_size=10))
def test_nodal_loader_matches_row_loop(tmp_path_factory, rows):
    # Finite values only: the row loop accepted inf, which is now a bad value.
    path = tmp_path_factory.mktemp("nodal") / "g.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([NODAL_HEADER, *rows])

    def outcome(load):
        """The error text, or the values in file order with NaN as None."""
        try:
            values = load(path)
        except CovariateError as exc:
            return str(exc)
        return [(key, None if math.isnan(v) else v) for key, v in values.items()]

    assert outcome(lambda p: load_nodal_csv(p, "g").values) == outcome(nodal_row_loop)


class TestLoaderMessages:
    """The exact text of every loader error, and the row that names it."""

    def test_duplicate_dyadic_entry(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,B,1,1\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: duplicate entry for ('A', 'B', 1)"

    def test_duplicate_after_blank_line_keeps_file_line_number(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\n\n , \nA,B,1,0\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=False)
        assert message == f"{path}:5: duplicate entry for ('A', 'B', 1)"

    def test_bad_period(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,C,1.0,1\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: bad period '1.0'"

    def test_bad_nodal_period(self, tmp_path):
        path = tmp_path / "gdp.csv"
        path.write_text("node,period,value\nA,x,1\n", encoding="utf-8")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:2: bad period 'x'"

    def test_bad_value(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,C,1,abc\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: bad value 'abc'"

    def test_bad_nodal_value(self, tmp_path):
        path = tmp_path / "gdp.csv"
        path.write_text("node,period,value\nA,1,1\nA,2,1..5\n", encoding="utf-8")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: bad value '1..5'"

    def test_duplicate_nodal_entry(self, tmp_path):
        path = nodal_file(tmp_path, "A,1,1\nB,1,2\n A ,1,3\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:4: duplicate entry for ('A', 1)"

    def test_nodal_checks_on_one_row(self, tmp_path):
        # A bad period before a duplicate before a bad value.
        path = nodal_file(tmp_path, "A,1,1\nA,y,x\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: bad period 'y'"
        path = nodal_file(tmp_path, "A,1,1\nA,1,x\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: duplicate entry for ('A', 1)"

    def test_nodal_first_bad_row_wins(self, tmp_path):
        # Row 3 has a bad value, row 4 a bad period and row 5 repeats row 2.
        path = nodal_file(tmp_path, "A,1,1\nB,1,x\nC,y,1\nA,1,1\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: bad value 'x'"
        path = nodal_file(tmp_path, "A,1,1\nC,y,1\nB,1,x\nA,1,1\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: bad period 'y'"
        path = nodal_file(tmp_path, "A,1,1\nA,1,1\nC,y,1\nB,1,x\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: duplicate entry for ('A', 1)"

    @pytest.mark.parametrize("text", ["inf", "-inf", "+Infinity", "1e400", "-1e999"])
    def test_nodal_value_must_be_finite(self, tmp_path, text):
        path = nodal_file(tmp_path, f"A,2,NA\nA,3,{text}\nA,4,1\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: bad value {text!r}"

    def test_nonfinite_nodal_value_keeps_first_bad_row_precedence(self, tmp_path):
        path = nodal_file(tmp_path, "A,1,inf\nA,x,1\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:2: bad value 'inf'"
        path = nodal_file(tmp_path, "A,x,1\nA,1,inf\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:2: bad period 'x'"
        path = nodal_file(tmp_path, "A,1,1\nA,1,inf\n")
        assert error_text(load_nodal_csv, path, "gdp") == f"{path}:3: duplicate entry for ('A', 1)"

    def test_nodal_markers_and_syntax(self, tmp_path):
        path = nodal_file(tmp_path, "A,1,NA\nA,2,\nA,3,nan\n B , +4 , 1_0.5 \nB,0_5,-2e3\n")
        values = load_nodal_csv(path, "gdp").values
        assert list(values)[:3] == [("A", 1), ("A", 2), ("A", 3)]
        assert all(math.isnan(values[("A", t)]) for t in (1, 2, 3))
        assert values[("B", 4)] == 10.5
        assert values[("B", 5)] == -2000.0

    def test_first_bad_row_wins(self, tmp_path):
        # Row 3 has a bad value, row 4 a bad period and row 5 repeats row 2.
        path = dyadic_file(tmp_path, "A,B,1,1\nA,C,1,x\nA,D,y,1\nA,B,1,1\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: bad value 'x'"

    def test_period_checked_before_value_on_one_row(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,C,y,x\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: bad period 'y'"

    def test_duplicate_checked_before_value_on_one_row(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,B,1,x\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: duplicate entry for ('A', 'B', 1)"

    def test_wrong_field_count(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nA,C,1\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: expected 4 fields, got 3"

    def test_field_count_checked_before_any_parse(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,x,1\nA,C,1,1,1\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == f"{path}:3: expected 4 fields, got 5"

    def test_missing_markers_and_int_float_syntax(self, tmp_path):
        path = dyadic_file(
            tmp_path,
            "A,B,1,NA\nA,B,2,\nA,B,3,nan\nA,B,4,NaN\n A , B , +5 , 1_0.5 \nA,C,0_7,-inf\n",
        )
        series = load_dyadic_csv(path, "x", symmetric=False)
        values = series.values
        assert all(math.isnan(values[("A", "B", t)]) for t in (1, 2, 3, 4))
        assert values[("A", "B", 5)] == 10.5
        assert values[("A", "C", 7)] == -math.inf
        # NaN records are kept but never looked up: every period reads period 5.
        assert [series.lookup("A", "B", t) for t in (0, 3, 5, 9)] == [10.5] * 4

    def test_symmetric_conflict_from_csv(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nC,A,1,2.5\nB,A,2,1\nB,A,1,0\nA,C,1,3\n")
        message = error_text(load_dyadic_csv, path, "alliance", symmetric=True)
        assert message == "series 'alliance': conflicting values for (B, A) at period 1: 1.0 vs 0.0"

    def test_symmetric_pair_may_repeat_an_equal_or_missing_value(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\nB,A,1,1\nA,C,1,NA\nC,A,1,4\n")
        series = load_dyadic_csv(path, "alliance", symmetric=True)
        assert series.lookup("B", "A", 1) == 1.0
        assert series.lookup("A", "C", 1) == 4.0

    def test_absent_node_without_default(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,100\n", name="distance.csv")
        series = load_dyadic_csv(path, "distance", symmetric=True)
        assert error_text(series.lookup, "A", "Z", 1) == "series 'distance' has no data for pair (A, Z)"
        assert error_text(series.lookup, "Z", "Y", 1) == "series 'distance' has no data for pair (Z, Y)"
        snapshot = snapshot_of(1, [("A", "B", 1.0), ("Z", "A", 1.0)])
        message = error_text(
            build_design, snapshot, index_flows(snapshot), [], [series],
            (CovariateTerm("distance", "dyadic"),), lag=0,
        )
        assert message == "series 'distance' has no data for pair (Z, A)"

    def test_absent_node_with_default(self, tmp_path):
        path = dyadic_file(tmp_path, "A,B,1,1\n")
        series = load_dyadic_csv(path, "alliance", symmetric=True, default=0.0)
        assert series.lookup("A", "Z", 1) == 0.0
        assert series.lookup("Z", "Y", 7) == 0.0
        snapshot = snapshot_of(3, [("A", "B", 1.0), ("Z", "A", 1.0)])
        design = build_design(
            snapshot, index_flows(snapshot), [], [series], (CovariateTerm("alliance", "dyadic"),), lag=0
        )
        np.testing.assert_array_equal(design.rows[:, 1], [1.0, 0.0])

    def test_log_error_before_later_missing_pair(self):
        series = DyadicSeries("trade", False, {("A", "B", 1): -2.0})
        snapshot = snapshot_of(1, [("A", "B", 1.0), ("B", "A", 1.0)])
        message = error_text(
            build_design, snapshot, index_flows(snapshot), [], [series],
            (CovariateTerm("trade", "dyadic", "log"),), lag=0,
        )
        assert message == "log of nonpositive 'trade' value -2.0 for (A, B) at period 1"


def span_lookup(series, node, t):
    """(value, out of span) at (node, t) by the span rule, read off ``series.values``.

    The reference for NodalSeries.lookup and its table.
    """
    observed = {p: v for (n, p), v in series.values.items() if n == node and not math.isnan(v)}
    if not observed:
        raise CovariateError(f"series {series.name!r} has no observations for node {node!r}")
    lo, hi = min(observed), max(observed)
    if not lo <= t <= hi:
        return observed[lo if t < lo else hi], True
    if t not in observed:
        raise CovariateError(
            f"series {series.name!r} missing value for ({node}, {t}); run impute_linear first"
        )
    return observed[t], False


def loop_design(index, nodal, recipe, t):
    """The nodal columns as the per-flow loop built them: (columns, warning) or error text.

    The reference for build_design's gather by node code.
    """
    nodal_map = {series.name: series for series in nodal}
    extrapolated = set()

    def nodal_value(term, node):
        series = nodal_map.get(term.series)
        if series is None:
            raise CovariateError(f"no nodal series named {term.series!r}")
        value, out_of_span = span_lookup(series, node, t)
        if out_of_span:
            extrapolated.add((term.series, node))
        return value

    columns = []
    try:
        for term in recipe:
            col = np.empty(index.n)
            for a, (sender, receiver) in enumerate(index.dyads):
                if term.role == "sender":
                    value = nodal_value(term, sender)
                elif term.role == "receiver":
                    value = nodal_value(term, receiver)
                else:
                    value = abs(nodal_value(term, sender) - nodal_value(term, receiver))
                if term.transform == "log":
                    if value <= 0:
                        who = sender if term.role == "sender" else receiver
                        raise CovariateError(
                            f"log of nonpositive {term.series!r} value {value} for {who} at period {t}"
                        )
                    value = math.log(value)
                col[a] = value
            columns.append(col)
    except CovariateError as exc:
        return str(exc)
    warning = None
    if extrapolated:
        sample = ", ".join(f"{s}:{n}" for s, n in sorted(extrapolated)[:5])
        warning = (
            f"period {t}: {len(extrapolated)} covariate lookups fell outside the observed "
            f"span and used the nearest value ({sample}{', ...' if len(extrapolated) > 5 else ''})"
        )
    return columns, warning


NODES = ("A", "B", "C", "D", "E", "F", "G")


@st.composite
def nodal_cases(draw):
    """A flow index, two nodal series (a node may lack one), a nodal recipe and a period."""
    pairs = [(a, b) for a in NODES for b in NODES if a != b]
    dyads = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=15, unique=True))
    nodal = []
    for name in ("g", "h"):
        values = {}
        for node in draw(st.lists(st.sampled_from(NODES), min_size=len(NODES) - 2, unique=True)):
            first = draw(st.integers(1, 4))
            for period in range(first, draw(st.integers(first, 4)) + 1):
                values[(node, period)] = draw(
                    st.sampled_from([-2.0, 0.0, 0.5, 1.5, 2.5, 3.0, 4.0, 6.0, 8.0, math.nan] + [7.0] * 10)
                )
        nodal.append(NodalSeries(name, values))
    recipe = draw(st.lists(st.builds(
        CovariateTerm,
        st.sampled_from(["g", "h"] * 6 + ["zz"]),
        st.sampled_from(["sender", "receiver", "abs_diff"]),
        st.sampled_from(["none", "log"]),
    ), min_size=1, max_size=3))
    return FlowIndex(period=draw(st.integers(0, 5)), dyads=dyads), nodal, tuple(recipe)


@settings(max_examples=300, deadline=None)
@given(nodal_cases())
def test_build_design_matches_flow_loop(case):
    index, nodal, recipe = case
    expected = loop_design(index, nodal, recipe, index.period)
    snapshot = NetworkSnapshot(index, np.ones(index.n))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            design = build_design(snapshot, index, nodal, [], recipe, lag=0)
        except CovariateError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    columns, warning = expected
    np.testing.assert_array_equal(design.rows[:, 0], 1.0)
    np.testing.assert_array_equal(design.rows[:, 1:], np.column_stack(columns))
    assert [str(w.message) for w in caught] == ([warning] if warning else [])


def outcome_of(call, *args):
    """The call's result, or the text of the CovariateError it raised."""
    try:
        return call(*args)
    except CovariateError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(nodal_cases())
def test_nodal_lookup_matches_span_rule(case):
    index, nodal, _ = case
    for series in nodal:
        for node in NODES + ("Z",):
            assert outcome_of(series.lookup, node, index.period) == outcome_of(
                span_lookup, series, node, index.period
            )


def impute_loop(series):
    """The filled value at each period of each node's span, as a loop over the dict built them, or the error text."""
    by_node: dict[str, list[tuple[int, float]]] = {}
    for (node, period), value in series.values.items():
        by_node.setdefault(node, []).append((period, value))
    filled: dict[tuple[str, int], float] = {}
    for node in sorted(by_node):
        records = by_node[node]
        observed = sorted((p, v) for p, v in records if not math.isnan(v))
        if not observed:
            return f"series {series.name!r}: node {node!r} has no observed values"
        periods, vals = np.array(observed, dtype=float).T
        recorded = [p for p, _ in records]
        full = np.arange(min(recorded), max(recorded) + 1)
        interp = np.interp(full, periods, vals)
        for period, value in zip(full, interp):
            filled[(node, int(period))] = float(value)
    return filled


NODAL_RECORDS = st.dictionaries(
    st.tuples(
        st.sampled_from(["A", "B", "a,b", " C", "N1000", "N101"]),
        st.sampled_from([-3, 0, 1, 2, 5, 9, 40]),
    ),
    st.one_of(st.just(math.nan), st.floats(-1e300, 1e300)),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(NODAL_RECORDS)
def test_impute_linear_matches_dict_loop(values):
    series = NodalSeries("g", values)
    expected = impute_loop(series)
    try:
        filled = impute_linear(series)
    except CovariateError as exc:
        assert str(exc) == expected
        return
    # The loop's value at every period of each node's span, bit for bit, from
    # the series and from the series imputed twice; the records stay as given.
    names, periods = [node for node, _ in expected], np.array([t for _, t in expected], np.int64)
    expected_bits = np.array(list(expected.values()), float).tobytes()
    for series_read in (filled, impute_linear(filled)):
        assert series_read.at(periods, names)[0].tobytes() == expected_bits
    assert list(filled.values) == list(series.values)


def test_nodal_table_is_bounded_by_distinct_periods(tmp_path):
    # One node is observed at period 0 and the other at 10**8.  A table over
    # every period between them would hold 3 x 10**8 floats (2.4 GB).
    path = nodal_file(tmp_path, f"A,0,1.5\nB,{10**8},2.5\n")
    snapshot = snapshot_of(10**8, [("A", "B", 1.0), ("B", "A", 1.0)])
    recipe = (CovariateTerm("g", "sender"), CovariateTerm("g", "abs_diff"))
    tracemalloc.start()
    try:
        series = impute_linear(load_nodal_csv(path, "g"))
        with pytest.warns(UserWarning, match="1 covariate lookups fell outside"):
            design = build_design(snapshot, index_flows(snapshot), [series], [], recipe, lag=0)
        lookups = [series.lookup(node, t) for node in "AB" for t in (0, 10**8)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert series.values == {("A", 0): 1.5, ("B", 10**8): 2.5}
    np.testing.assert_array_equal(design.rows, [[1.0, 1.5, 1.0], [1.0, 2.5, 1.0]])
    assert lookups == [(1.5, False), (1.5, True), (2.5, True), (2.5, False)]


def dated(year):
    """A period coded as a date, as yearly data often are: 19900101, 19910101, ..."""
    return 19900101 + 10000 * year


DATED_RECORDS = st.dictionaries(
    st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 40).map(dated)),
    st.one_of(st.just(math.nan), st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300)),
    max_size=21,
)


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(DATED_RECORDS)
def test_nodal_reads_match_np_interp(values):
    # A node without observations fails impute_linear; drop its records.
    observed = {node for (node, _), v in values.items() if not math.isnan(v)}
    values = {key: v for key, v in values.items() if key[0] in observed}
    raw = NodalSeries("g", values)
    filled = impute_linear(raw)
    names = sorted(observed) + ["Z"]
    # On each record, one period either side, mid-year, and far outside.
    reads = sorted({t + d for _, t in values for d in (-1, 0, 1, 5000)} | {dated(-3), dated(45)})
    for t in reads:
        value, out_of_span = filled.at(t, names)
        raw_value, raw_out_of_span = raw.at(t, names)
        for k, node in enumerate(names[:-1]):
            recorded = [p for n, p in values if n == node]
            xp, fp = np.array(sorted((p, v) for (n, p), v in values.items() if n == node and v == v)).T
            expected = np.interp(t, xp, fp)
            assert bits([value[k], filled.lookup(node, t)[0]]) == bits([expected] * 2)
            assert out_of_span[k] == filled.lookup(node, t)[1] == (not min(recorded) <= t <= max(recorded))
            # A raw series reads NaN between two observations, and its span is its observations.
            if xp[0] < t < xp[-1] and t not in xp:
                assert math.isnan(raw_value[k])
            else:
                assert bits([raw_value[k]]) == bits([expected])
            assert raw_out_of_span[k] == (not xp[0] <= t <= xp[-1])
        assert math.isnan(value[-1]) and math.isnan(raw_value[-1])


def test_dated_series_memory_is_bounded_by_records(tmp_path):
    # 5 nodes x 30 years coded as dates, 10 % missing.  A record per integer
    # period between a node's first and last year would be 1.45 M records.
    missing = {(k, y) for k in range(5) for y in range(30) if (k + 3 * y) % 10 == 0}
    rows = [
        f"N{k},{dated(y)},{'NA' if (k, y) in missing else 100.0 + 7 * k + y}\n"
        for k in range(5) for y in range(30)
    ]
    path = nodal_file(tmp_path, "".join(rows))
    snapshot = snapshot_of(dated(29), [(f"N{a}", f"N{b}", 1.0) for a in range(5) for b in range(5) if a != b])
    index = index_flows(snapshot)
    recipe = (CovariateTerm("g", "sender"), CovariateTerm("g", "abs_diff"))
    tracemalloc.start()
    try:
        series = impute_linear(load_nodal_csv(path, "g"))
        # An on-record lag (five years) and an off-record one (five and a half).
        designs = [build_design(snapshot, index, [series], [], recipe, lag=lag) for lag in (50000, 55000)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    for design, t in zip(designs, (dated(24), dated(24) - 5000)):
        years = [[y for y in range(30) if (k, y) not in missing] for k in range(5)]
        expected = [np.interp(t, dated(np.array(y)), 100.0 + 7 * k + np.array(y)) for k, y in enumerate(years)]
        np.testing.assert_array_equal(design.rows[:, 1], np.take(expected, index.sender))


def test_header_only_nodal_csv_has_no_observations(tmp_path):
    series = impute_linear(load_nodal_csv(nodal_file(tmp_path, ""), "g"))
    assert series.values == {}
    snapshot = snapshot_of(1, [("A", "B", 1.0)])
    message = error_text(
        build_design, snapshot, index_flows(snapshot), [series], [], (CovariateTerm("g", "sender"),), lag=0
    )
    assert message == "series 'g' has no observations for node 'A'"
