"""Tests for the executable shared plans: the state-slice plan builder, the
selection push-down helpers, and the three baseline strategies."""

from __future__ import annotations

import pytest

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.baselines.unshared import build_unshared_plan
from repro.core.cpu_opt import build_cpu_opt_chain
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.merge_graph import ChainCostParameters
from repro.core.plan_builder import build_state_slice_plan
from repro.core.pushdown import pushed_filters, residual_filters
from repro.engine.errors import ConfigurationError
from repro.engine.executor import execute_plan
from repro.operators.router import Router
from repro.operators.selection import StreamFilter
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.operators.union import OrderedUnion
from repro.query.predicates import selectivity_filter, selectivity_join
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.query.workload import build_workload
from tests.conftest import joined_keys, regular_join_reference


def per_query_reference(workload, tuples):
    """Reference per-query answers computed by brute force."""
    return {
        query.name: regular_join_reference(
            tuples,
            window=query.window,
            condition=query.join_condition,
            left_filter=query.left_filter,
            right_filter=query.right_filter,
        )
        for query in workload
    }


def assert_plan_matches_reference(plan, workload, tuples):
    report = execute_plan(plan, tuples)
    reference = per_query_reference(workload, tuples)
    for query in workload:
        assert joined_keys(report.results[query.name]) == reference[query.name], query.name
    return report


class TestPushdownHelpers:
    def test_pushed_filters_disjunction(self, two_query_workload):
        chain = build_mem_opt_chain(two_query_workload)
        first = pushed_filters(two_query_workload, chain.slices[0])
        second = pushed_filters(two_query_workload, chain.slices[1])
        assert first.is_trivial
        assert not second.is_trivial
        assert second.left.describe() == two_query_workload.query("Q2").left_filter.describe()

    def test_residual_filters(self, two_query_workload):
        chain = build_mem_opt_chain(two_query_workload)
        q2 = two_query_workload.query("Q2")
        on_first_slice = residual_filters(two_query_workload, chain, q2, 0)
        on_second_slice = residual_filters(two_query_workload, chain, q2, 1)
        assert on_first_slice.left.describe() == q2.left_filter.describe()
        assert on_second_slice.is_trivial
        q1 = two_query_workload.query("Q1")
        assert residual_filters(two_query_workload, chain, q1, 0).is_trivial


class TestStateSlicePlanStructure:
    def test_two_query_plan_matches_figure_10(self, two_query_workload):
        plan = build_state_slice_plan(two_query_workload)
        operators = plan.operators
        joins = [op for op in operators.values() if isinstance(op, SlicedBinaryJoin)]
        filters = [op for op in operators.values() if isinstance(op, StreamFilter)]
        routers = [op for op in operators.values() if isinstance(op, Router)]
        unions = [op for op in operators.values() if isinstance(op, OrderedUnion)]
        assert len(joins) == 2
        assert len(filters) == 1          # σA pushed between the two slices
        assert len(routers) == 1          # σ'A applied to slice-1 results for Q2
        assert len(unions) == 1           # Q2 unions both slices; Q1 taps slice 1
        assert set(plan.output_names()) == {"Q1", "Q2"}

    def test_slice_windows_follow_the_chain(self, two_query_workload):
        plan = build_state_slice_plan(two_query_workload)
        joins = sorted(
            (op for op in plan.operators.values() if isinstance(op, SlicedBinaryJoin)),
            key=lambda op: op.slice.start,
        )
        assert (joins[0].slice.start, joins[0].slice.end) == (0.0, 1.0)
        assert (joins[1].slice.start, joins[1].slice.end) == (1.0, 3.0)

    def test_no_selection_workload_has_no_filters_or_routers(self):
        workload = build_workload([1.0, 2.0, 3.0], 0.2)
        plan = build_state_slice_plan(workload)
        assert not any(isinstance(op, StreamFilter) for op in plan.operators.values())
        assert not any(isinstance(op, Router) for op in plan.operators.values())

    def test_cpu_opt_chain_plan_contains_router_for_merged_slice(self):
        workload = build_workload([1.0, 1.2, 5.0], 0.2)
        params = ChainCostParameters(
            arrival_rate_left=50, arrival_rate_right=50, system_overhead=2.0
        )
        chain = build_cpu_opt_chain(workload, params)
        if len(chain) == len(workload.window_sizes()):
            pytest.skip("cost parameters did not trigger a merge")
        plan = build_state_slice_plan(workload, chain=chain)
        assert any(isinstance(op, Router) for op in plan.operators.values())


class TestStateSlicePlanCorrectness:
    def test_two_query_results(self, two_query_workload, small_stream_data):
        plan = build_state_slice_plan(two_query_workload)
        assert_plan_matches_reference(plan, two_query_workload, small_stream_data.tuples)

    def test_three_query_results(self, three_query_workload_fixture, small_stream_data):
        plan = build_state_slice_plan(three_query_workload_fixture)
        assert_plan_matches_reference(
            plan, three_query_workload_fixture, small_stream_data.tuples
        )

    def test_results_without_selection_pushdown(self, three_query_workload_fixture, small_stream_data):
        plan = build_state_slice_plan(three_query_workload_fixture, push_selections=False)
        assert_plan_matches_reference(
            plan, three_query_workload_fixture, small_stream_data.tuples
        )

    def test_cpu_opt_chain_results(self, small_stream_data):
        workload = build_workload([0.5, 0.7, 2.0], 0.3)
        params = ChainCostParameters(
            arrival_rate_left=30, arrival_rate_right=30, system_overhead=2.0
        )
        chain = build_cpu_opt_chain(workload, params)
        plan = build_state_slice_plan(workload, chain=chain)
        assert_plan_matches_reference(plan, workload, small_stream_data.tuples)

    def test_filters_on_both_streams(self, small_stream_data):
        condition = selectivity_join(0.4)
        workload = QueryWorkload(
            [
                ContinuousQuery("Q1", window=0.8, join_condition=condition,
                                right_filter=selectivity_filter(0.6)),
                ContinuousQuery("Q2", window=2.0, join_condition=condition,
                                left_filter=selectivity_filter(0.5)),
            ]
        )
        plan = build_state_slice_plan(workload)
        assert_plan_matches_reference(plan, workload, small_stream_data.tuples)

    def test_every_query_filtered_installs_entry_filter(self, small_stream_data):
        condition = selectivity_join(0.4)
        shared = selectivity_filter(0.5)
        workload = QueryWorkload(
            [
                ContinuousQuery("Q1", window=0.8, join_condition=condition, left_filter=shared),
                ContinuousQuery("Q2", window=2.0, join_condition=condition, left_filter=shared),
            ]
        )
        plan = build_state_slice_plan(workload)
        assert "entry_filter_left" in plan.operators
        assert_plan_matches_reference(plan, workload, small_stream_data.tuples)

    def test_single_query_degenerates_to_one_slice(self, small_stream_data):
        workload = build_workload([1.5], 0.3)
        plan = build_state_slice_plan(workload)
        joins = [op for op in plan.operators.values() if isinstance(op, SlicedBinaryJoin)]
        assert len(joins) == 1
        assert_plan_matches_reference(plan, workload, small_stream_data.tuples)


class TestBaselines:
    def test_pullup_results(self, three_query_workload_fixture, small_stream_data):
        plan = build_pullup_plan(three_query_workload_fixture)
        assert_plan_matches_reference(
            plan, three_query_workload_fixture, small_stream_data.tuples
        )

    def test_pullup_uses_a_single_join_with_the_largest_window(self, three_query_workload_fixture):
        plan = build_pullup_plan(three_query_workload_fixture)
        join = plan.operator("shared_join")
        assert join.window_left == three_query_workload_fixture.max_window

    def test_pushdown_results(self, three_query_workload_fixture, small_stream_data):
        plan = build_pushdown_plan(three_query_workload_fixture)
        assert_plan_matches_reference(
            plan, three_query_workload_fixture, small_stream_data.tuples
        )

    def test_pushdown_without_selections_falls_back_to_pullup_shape(self):
        workload = build_workload([1.0, 2.0], 0.2)
        plan = build_pushdown_plan(workload)
        assert "shared_join" in plan.operators

    def test_pushdown_rejects_right_stream_filters(self):
        condition = selectivity_join(0.2)
        workload = QueryWorkload(
            [
                ContinuousQuery("Q1", window=1.0, join_condition=condition,
                                right_filter=selectivity_filter(0.5)),
                ContinuousQuery("Q2", window=2.0, join_condition=condition),
            ]
        )
        with pytest.raises(ConfigurationError):
            build_pushdown_plan(workload)

    def test_pushdown_rejects_multiple_distinct_predicates(self):
        condition = selectivity_join(0.2)
        workload = QueryWorkload(
            [
                ContinuousQuery("Q1", window=1.0, join_condition=condition,
                                left_filter=selectivity_filter(0.3)),
                ContinuousQuery("Q2", window=2.0, join_condition=condition,
                                left_filter=selectivity_filter(0.7)),
            ]
        )
        with pytest.raises(ConfigurationError):
            build_pushdown_plan(workload)

    def test_unshared_results(self, three_query_workload_fixture, small_stream_data):
        plan = build_unshared_plan(three_query_workload_fixture)
        assert_plan_matches_reference(
            plan, three_query_workload_fixture, small_stream_data.tuples
        )

    def test_unshared_plan_has_one_join_per_query(self, three_query_workload_fixture):
        plan = build_unshared_plan(three_query_workload_fixture)
        join_names = [name for name in plan.operators if name.startswith("join_")]
        assert len(join_names) == len(three_query_workload_fixture)

    def test_hash_algorithm_variants_agree(self, small_stream_data):
        condition = selectivity_join(1.0)  # cross product cannot use hash
        workload = build_workload([1.0, 2.0], 0.2)
        # Only meaningful for equi-joins; here just confirm the nested-loop
        # and unshared plans agree on the same data.
        shared = execute_plan(build_pullup_plan(workload), small_stream_data.tuples)
        unshared = execute_plan(build_unshared_plan(workload), small_stream_data.tuples)
        for name in workload.names():
            assert joined_keys(shared.results[name]) == joined_keys(unshared.results[name])
        assert condition is not None
