"""Unit tests for the query plan DAG and the executor."""

from __future__ import annotations

import pytest

from repro.engine.errors import ExecutionError, PlanError
from repro.core.plan_builder import build_state_slice_plan
from repro.engine.executor import ImmediateExecutor, execute_plan
from repro.engine.operator import PassThrough
from repro.engine.plan import QueryPlan
from repro.operators.count_join import CountWindowJoin
from repro.operators.join import SlidingWindowJoin
from repro.operators.selection import Selection
from repro.query.predicates import CrossProductCondition, EquiJoinCondition, attribute_gt
from repro.query.workload import build_workload
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import make_tuple
from tests.conftest import joined_keys, regular_join_reference


def simple_plan() -> QueryPlan:
    """A -> selection -> join <- B, output 'Q'."""
    plan = QueryPlan("simple")
    selection = Selection(attribute_gt("value", 0.25, 0.75), name="sel")
    join = SlidingWindowJoin(2.0, 2.0, CrossProductCondition(), name="join")
    plan.add_operators([selection, join])
    plan.add_entry("A", selection, "in")
    plan.add_entry("B", join, "right")
    plan.connect(selection, "out", join, "left")
    plan.add_output("Q", join, "output")
    return plan


class TestQueryPlan:
    def test_duplicate_operator_name_rejected(self):
        plan = QueryPlan()
        plan.add_operator(PassThrough(name="x"))
        with pytest.raises(PlanError):
            plan.add_operator(PassThrough(name="x"))

    def test_connect_validates_ports(self):
        plan = QueryPlan()
        a = plan.add_operator(PassThrough(name="a"))
        b = plan.add_operator(PassThrough(name="b"))
        with pytest.raises(PlanError):
            plan.connect(a, "bogus", b, "in")
        with pytest.raises(PlanError):
            plan.connect(a, "out", b, "bogus")
        plan.connect(a, "out", b, "in")
        assert len(plan.edges) == 1

    def test_unknown_operator_lookup(self):
        plan = QueryPlan("p")
        with pytest.raises(PlanError):
            plan.operator("missing")

    def test_duplicate_output_name_rejected(self):
        plan = QueryPlan()
        a = plan.add_operator(PassThrough(name="a"))
        plan.add_output("Q", a, "out")
        with pytest.raises(PlanError):
            plan.add_output("Q", a, "out")

    def test_validate_requires_entries_and_outputs(self):
        plan = QueryPlan()
        a = plan.add_operator(PassThrough(name="a"))
        with pytest.raises(PlanError):
            plan.validate()
        plan.add_entry("A", a, "in")
        with pytest.raises(PlanError):
            plan.validate()
        plan.add_output("Q", a, "out")
        plan.validate()

    def test_validate_detects_cycles(self):
        plan = QueryPlan()
        a = plan.add_operator(PassThrough(name="a"))
        b = plan.add_operator(PassThrough(name="b"))
        plan.connect(a, "out", b, "in")
        plan.connect(b, "out", a, "in")
        plan.add_entry("A", a, "in")
        plan.add_output("Q", b, "out")
        with pytest.raises(PlanError):
            plan.validate()

    def test_validate_detects_disconnected_operators(self):
        plan = QueryPlan()
        a = plan.add_operator(PassThrough(name="a"))
        plan.add_operator(PassThrough(name="orphan"))
        plan.add_entry("A", a, "in")
        plan.add_output("Q", a, "out")
        with pytest.raises(PlanError):
            plan.validate()

    def test_topological_order(self):
        plan = simple_plan()
        order = [op.name for op in plan.topological_order()]
        assert order.index("sel") < order.index("join")

    def test_describe_mentions_every_operator(self):
        plan = simple_plan()
        text = plan.describe()
        assert "sel" in text and "join" in text and "Q" in text

    def test_downstream_upstream_and_outputs_at(self):
        plan = simple_plan()
        assert len(plan.downstream("sel", "out")) == 1
        assert len(plan.upstream("join", "left")) == 1
        assert plan.outputs_at("join", "output")[0].name == "Q"

    def test_total_state_size_counts_join_states(self):
        plan = simple_plan()
        executor = ImmediateExecutor(plan)
        executor.process_arrival(make_tuple("A", 0.0, value=0.9))
        executor.process_arrival(make_tuple("B", 0.5, value=0.9))
        assert plan.total_state_size() == 2


class TestImmediateExecutor:
    def test_unknown_stream_raises(self):
        executor = ImmediateExecutor(simple_plan())
        with pytest.raises(ExecutionError):
            executor.process_arrival(make_tuple("C", 0.0, value=1.0))

    def test_selection_filters_left_inputs(self):
        plan = simple_plan()
        tuples = [
            make_tuple("A", 0.0, value=0.1),   # filtered out
            make_tuple("A", 0.5, value=0.9),   # kept
            make_tuple("B", 1.0, value=0.5),   # joins with the kept tuple only
        ]
        report = execute_plan(plan, tuples)
        assert len(report.results["Q"]) == 1

    def test_results_match_reference_join(self, small_stream_data):
        plan = simple_plan()
        report = execute_plan(plan, small_stream_data.tuples)
        reference = regular_join_reference(
            small_stream_data.tuples,
            window=2.0,
            condition=CrossProductCondition(),
            left_filter=attribute_gt("value", 0.25),
        )
        assert joined_keys(report.results["Q"]) == reference

    def test_retain_results_false_only_counts(self, small_stream_data):
        plan = simple_plan()
        report = execute_plan(plan, small_stream_data.tuples, retain_results=False)
        assert report.results["Q"] == []
        assert report.metrics.emitted["Q"] > 0

    def test_memory_sampling_interval(self, small_stream_data):
        plan = simple_plan()
        dense = execute_plan(plan, small_stream_data.tuples, memory_sample_interval=1)
        sparse = execute_plan(simple_plan(), small_stream_data.tuples, memory_sample_interval=10)
        assert len(dense.metrics.memory_samples) > len(sparse.metrics.memory_samples)

    def test_duration_is_last_timestamp(self):
        plan = simple_plan()
        tuples = [make_tuple("A", 0.5, value=0.9), make_tuple("B", 2.25, value=0.9)]
        report = execute_plan(plan, tuples)
        assert report.duration == pytest.approx(2.25)

    def test_out_of_order_arrival_is_refused(self):
        """A lower timestamp than the last accepted one raises, as a session
        does (it used to be clamped and silently mis-purged); equal
        timestamps stay legal."""
        executor = ImmediateExecutor(simple_plan())
        executor.process_arrival(make_tuple("A", 5.0, value=0.9))
        executor.process_arrival(make_tuple("B", 5.0, value=0.9))
        with pytest.raises(ExecutionError, match="out-of-order arrival"):
            executor.process_arrival(make_tuple("A", 0.5, value=0.9))
        assert len(executor.results["Q"]) == 1
        assert executor.metrics.tuples_ingested == 2


def test_union_output_is_sorted_under_synchronous_execution():
    # Strict output ordering holds because inputs reach the unions in global
    # timestamp order under the immediate executor.
    workload = build_workload(
        [0.5, 1.0, 2.0], join_selectivity=0.2, filter_selectivities=[1.0, 0.5, 0.5]
    )
    data = generate_join_workload(rate_a=20, rate_b=20, duration=6.0, seed=71)
    report = execute_plan(build_state_slice_plan(workload), data.tuples)
    for name, items in report.results.items():
        stamps = [item.timestamp for item in items]
        assert stamps == sorted(stamps), name


def test_count_window_join_runs_inside_a_query_plan():
    data = generate_join_workload(rate_a=20, rate_b=20, duration=6.0, seed=71)
    condition = EquiJoinCondition("join_key", "join_key", key_domain=25)
    plan = QueryPlan("count-plan")
    join = CountWindowJoin(10, 10, condition, name="count_join")
    plan.add_operator(join)
    plan.add_entry("A", join, "left")
    plan.add_entry("B", join, "right")
    plan.add_output("Q", join, "output")
    report = execute_plan(plan, data.tuples)
    assert report.results["Q"]
    assert join.state_size() == 20
