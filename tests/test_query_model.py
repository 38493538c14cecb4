"""Unit tests for windows, continuous queries, workloads and the
window-distribution generators."""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError, QueryError
from repro.query.predicates import (
    EquiJoinCondition,
    ThetaJoinCondition,
    TruePredicate,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload
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


class TestWindows:
    def test_window_slice_validation(self):
        with pytest.raises(QueryError):
            WindowSlice(-1, 2)
        with pytest.raises(QueryError):
            WindowSlice(2, 2)
        slice_ = WindowSlice(1.0, 3.0)
        assert slice_.length == 2.0


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

    def test_conditions_that_print_alike_are_not_one_condition(self):
        """Queries share a join condition when the conditions are equal
        (``==``), not when they describe alike: two theta joins over
        different callables both print ``theta``."""
        below = ThetaJoinCondition(lambda a, b: a["k"] < b["k"])
        above = ThetaJoinCondition(lambda a, b: a["k"] > b["k"])
        assert below.describe() == above.describe()
        with pytest.raises(QueryError, match="share the join condition"):
            QueryWorkload(
                [
                    ContinuousQuery("Q1", window=1.0, join_condition=below),
                    ContinuousQuery("Q2", window=2.0, join_condition=above),
                ]
            )
        # Equal conditions built twice are one condition.
        for first, second in ((selectivity_join(0.5), selectivity_join(0.5)),
                              (below, ThetaJoinCondition(below.function))):
            workload = QueryWorkload(
                [
                    ContinuousQuery("Q1", window=1.0, join_condition=first),
                    ContinuousQuery("Q2", window=2.0, join_condition=second),
                ]
            )
            assert workload.join_condition == second

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

    def test_build_workload_names_queries_in_input_order(self):
        workload = build_workload([2.0, 1.0], join_selectivity=0.5)
        assert workload.names() == ["Q2", "Q1"]
        assert workload.window_sizes() == [1.0, 2.0]
        assert not any(query.has_selection for query in workload)


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
        assert not any(query.has_selection for query in workload)
