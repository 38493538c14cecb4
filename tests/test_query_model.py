"""Unit tests for windows, continuous queries, workloads, the parser and the
window-distribution generators."""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError, ParseError, QueryError
from repro.query.parser import parse_query, parse_workload_text
from repro.query.predicates import (
    EquiJoinCondition,
    TruePredicate,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload, workload_from_windows
from repro.query.windows import WindowSlice
from repro.query.workload import (
    THREE_QUERY_DISTRIBUTIONS,
    TWELVE_QUERY_DISTRIBUTIONS,
    build_workload,
    multi_query_workload,
    scale_distribution,
    three_query_workload,
    window_distribution,
)
from repro.streams.tuples import make_tuple


class TestWindows:
    def test_window_slice_validation(self):
        with pytest.raises(QueryError):
            WindowSlice(-1, 2)
        with pytest.raises(QueryError):
            WindowSlice(2, 2)
        slice_ = WindowSlice(1.0, 3.0)
        assert slice_.length == 2.0
        assert slice_.contains_offset(1.0)
        assert slice_.contains_offset(2.9)
        assert not slice_.contains_offset(3.0)
        assert not slice_.contains_offset(0.5)


class TestContinuousQuery:
    def test_window_must_be_positive(self):
        with pytest.raises(QueryError):
            ContinuousQuery("Q", window=0, join_condition=selectivity_join(0.5))

    def test_has_selection(self):
        condition = selectivity_join(0.5)
        plain = ContinuousQuery("Q", window=1.0, join_condition=condition)
        filtered = ContinuousQuery(
            "Q", window=1.0, join_condition=condition, left_filter=selectivity_filter(0.3)
        )
        assert not plain.has_selection
        assert filtered.has_selection

    def test_describe_mentions_filters(self):
        query = ContinuousQuery(
            "Q2",
            window=60.0,
            join_condition=EquiJoinCondition("LocationId", "LocationId"),
            left_filter=selectivity_filter(0.01),
            left_stream="Temperature",
            right_stream="Humidity",
        )
        text = query.describe()
        assert "Q2" in text and "Temperature" in text and "value" in text

    def test_with_window(self):
        query = ContinuousQuery("Q", window=1.0, join_condition=selectivity_join(0.5))
        assert query.with_window(9.0).window == 9.0


class TestQueryWorkload:
    def test_queries_sorted_by_window(self):
        condition = selectivity_join(0.5)
        workload = QueryWorkload(
            [
                ContinuousQuery("Qbig", window=5.0, join_condition=condition),
                ContinuousQuery("Qsmall", window=1.0, join_condition=condition),
            ]
        )
        assert workload.names() == ["Qsmall", "Qbig"]
        assert workload.window_sizes() == [1.0, 5.0]
        assert workload.max_window == 5.0

    def test_duplicate_names_rejected(self):
        condition = selectivity_join(0.5)
        with pytest.raises(QueryError):
            QueryWorkload(
                [
                    ContinuousQuery("Q", window=1.0, join_condition=condition),
                    ContinuousQuery("Q", window=2.0, join_condition=condition),
                ]
            )

    def test_mismatched_streams_rejected(self):
        condition = selectivity_join(0.5)
        with pytest.raises(QueryError):
            QueryWorkload(
                [
                    ContinuousQuery("Q1", window=1.0, join_condition=condition),
                    ContinuousQuery(
                        "Q2", window=2.0, join_condition=condition, left_stream="X"
                    ),
                ]
            )

    def test_mismatched_join_condition_rejected(self):
        with pytest.raises(QueryError):
            QueryWorkload(
                [
                    ContinuousQuery("Q1", window=1.0, join_condition=selectivity_join(0.5)),
                    ContinuousQuery("Q2", window=2.0, join_condition=selectivity_join(0.25)),
                ]
            )

    def test_empty_workload_rejected(self):
        with pytest.raises(QueryError):
            QueryWorkload([])

    def test_query_lookup(self, two_query_workload):
        assert two_query_workload.query("Q1").name == "Q1"
        with pytest.raises(QueryError):
            two_query_workload.query("missing")

    def test_slice_filter_is_disjunction_of_downstream_queries(self, two_query_workload):
        # Below the first slice every query is relevant and Q1 has no filter,
        # so the pushed predicate is trivially true.
        assert isinstance(two_query_workload.slice_filter(0.0, side="left"), TruePredicate)
        # Beyond Q1's window only Q2 remains, so its filter is pushed down.
        pushed = two_query_workload.slice_filter(1.0, side="left")
        assert pushed.describe() == two_query_workload.query("Q2").left_filter.describe()
        assert isinstance(two_query_workload.slice_filter(1.0, side="right"), TruePredicate)

    def test_slice_filter_side_validation(self, two_query_workload):
        with pytest.raises(QueryError):
            two_query_workload.slice_filter(0.0, side="middle")

    def test_workload_from_windows(self):
        condition = selectivity_join(0.5)
        workload = workload_from_windows([2.0, 1.0], condition)
        assert workload.names() == ["Q2", "Q1"]
        with pytest.raises(QueryError):
            workload_from_windows([1.0], condition, left_filters=[])

    def test_has_selections(self, two_query_workload, three_query_workload_fixture):
        assert two_query_workload.has_selections()
        assert three_query_workload_fixture.has_selections()
        no_filters = workload_from_windows([1.0, 2.0], selectivity_join(0.5))
        assert not no_filters.has_selections()


class TestParser:
    EXAMPLE = """
        SELECT A.* FROM Temperature A, Humidity B
        WHERE A.LocationId = B.LocationId AND A.Value > 10
        WINDOW 60 min
    """

    def test_parses_the_paper_example(self):
        query = parse_query(self.EXAMPLE, name="Q2", filter_selectivity=0.01)
        assert query.window == pytest.approx(3600.0)
        assert query.left_stream == "Temperature"
        assert query.right_stream == "Humidity"
        assert isinstance(query.join_condition, EquiJoinCondition)
        assert query.left_filter.describe() == "Value > 10.0"
        assert query.left_filter.selectivity == pytest.approx(0.01)
        assert isinstance(query.right_filter, TruePredicate)

    def test_filter_predicate_evaluates(self):
        query = parse_query(self.EXAMPLE)
        assert query.left_filter.matches(make_tuple("Temperature", 0.0, Value=20.0))
        assert not query.left_filter.matches(make_tuple("Temperature", 0.0, Value=5.0))

    def test_window_units(self):
        base = "SELECT A.* FROM S A, T B WHERE A.k = B.k WINDOW {}"
        assert parse_query(base.format("90 sec")).window == pytest.approx(90.0)
        assert parse_query(base.format("2 hours")).window == pytest.approx(7200.0)
        assert parse_query(base.format("30")).window == pytest.approx(30.0)

    def test_right_side_filters(self):
        text = (
            "SELECT A.* FROM S A, T B WHERE A.k = B.k AND B.v <= 3 WINDOW 10 sec"
        )
        query = parse_query(text)
        assert isinstance(query.left_filter, TruePredicate)
        assert query.right_filter.describe() == "v <= 3.0"

    def test_missing_join_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT A.* FROM S A, T B WHERE A.v > 1 WINDOW 10 sec")

    def test_malformed_queries_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM S WINDOW 10 sec")
        with pytest.raises(ParseError):
            parse_query("SELECT A.* FROM S A, T B, U C WHERE A.k = B.k WINDOW 10")
        with pytest.raises(ParseError):
            parse_query("SELECT A.* FROM S A, T B WHERE A.k = B.k WINDOW ten minutes")
        with pytest.raises(ParseError):
            parse_query("SELECT A.* FROM S A, T B WHERE A.k = B.k WINDOW 10 fortnights")
        with pytest.raises(ParseError):
            parse_query("SELECT A.* FROM S A, T B WHERE C.v > 1 AND A.k = B.k WINDOW 10")

    def test_parse_workload_text(self):
        text = """
            SELECT A.* FROM S A, T B WHERE A.k = B.k WINDOW 1 min;
            SELECT A.* FROM S A, T B WHERE A.k = B.k AND A.v > 5 WINDOW 60 min
        """
        queries = parse_workload_text(text)
        assert [q.name for q in queries] == ["Q1", "Q2"]
        assert queries[0].window == pytest.approx(60.0)
        assert queries[1].window == pytest.approx(3600.0)
        workload = QueryWorkload(queries)
        assert workload.window_sizes() == [60.0, 3600.0]

    def test_parse_workload_text_empty(self):
        with pytest.raises(ParseError):
            parse_workload_text("   ")


class TestWindowDistributions:
    def test_table_3_distributions(self):
        assert THREE_QUERY_DISTRIBUTIONS["uniform"].windows == (10.0, 20.0, 30.0)
        assert THREE_QUERY_DISTRIBUTIONS["mostly-small"].windows == (5.0, 10.0, 30.0)
        assert THREE_QUERY_DISTRIBUTIONS["mostly-large"].windows == (20.0, 25.0, 30.0)

    def test_table_4_distributions(self):
        assert len(TWELVE_QUERY_DISTRIBUTIONS["uniform"].windows) == 12
        assert TWELVE_QUERY_DISTRIBUTIONS["small-large"].windows[:6] == (
            1.0,
            2.0,
            3.0,
            4.0,
            5.0,
            6.0,
        )

    def test_lookup_and_scaling(self):
        assert window_distribution("uniform", 3).windows == (10.0, 20.0, 30.0)
        scaled = window_distribution("uniform", 24)
        assert scaled.count == 24
        assert scaled.max_window == pytest.approx(30.0)
        with pytest.raises(ConfigurationError):
            window_distribution("bogus", 3)
        with pytest.raises(ConfigurationError):
            window_distribution("bogus", 12)

    def test_scale_distribution_validation(self):
        base = TWELVE_QUERY_DISTRIBUTIONS["uniform"]
        with pytest.raises(ConfigurationError):
            scale_distribution(base, 13)
        assert scale_distribution(base, 12) is base

    def test_build_workload_selectivity_validation(self):
        with pytest.raises(ConfigurationError):
            build_workload([1.0, 2.0], filter_selectivities=[0.5])

    def test_three_query_workload_shape(self):
        workload = three_query_workload("uniform", join_selectivity=0.1, filter_selectivity=0.5)
        assert len(workload) == 3
        assert not workload[0].has_selection
        assert workload[1].has_selection and workload[2].has_selection

    def test_multi_query_workload_shape(self):
        workload = multi_query_workload("small-large", query_count=12)
        assert len(workload) == 12
        assert not workload.has_selections()
