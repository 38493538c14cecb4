"""Unit tests for the regular sliding-window join operators (Figure 1)."""

from __future__ import annotations

import pytest

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory, MetricsCollector
from repro.operators.join import OneWayWindowJoin, SlidingWindowJoin
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    selectivity_join,
)
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import Punctuation, make_tuple
from tests.conftest import joined_keys, regular_join_reference


def run_binary_join(join: SlidingWindowJoin, tuples) -> list:
    results = []
    for tup in tuples:
        port = "left" if tup.stream == "A" else "right"
        results.extend(item for _, item in join.process(tup, port))
    return results


class TestOneWayWindowJoin:
    def test_joins_within_window_only(self):
        join = OneWayWindowJoin(window=2.0, condition=CrossProductCondition(), name="j")
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("A", 1.5, k=2), "left")
        out = join.process(make_tuple("B", 2.5, k=1), "right")
        # The tuple at t=0 has age 2.5 >= 2 and is purged before probing.
        assert len(out) == 1
        assert out[0][1].left.timestamp == 1.5

    def test_right_tuples_are_not_stored(self):
        join = OneWayWindowJoin(window=5.0, condition=CrossProductCondition(), name="j")
        join.process(make_tuple("B", 0.0, k=1), "right")
        assert join.state_size() == 0
        join.process(make_tuple("A", 1.0, k=1), "left")
        assert join.state_size() == 1

    def test_join_condition_is_applied(self):
        join = OneWayWindowJoin(window=5.0, condition=EquiJoinCondition("k", "k"), name="j")
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("A", 0.5, k=2), "left")
        out = join.process(make_tuple("B", 1.0, k=2), "right")
        assert len(out) == 1
        assert out[0][1].left["k"] == 2

    def test_window_must_be_positive(self):
        with pytest.raises(PlanError):
            OneWayWindowJoin(window=0, condition=CrossProductCondition())

    def test_punctuations_are_ignored(self):
        join = OneWayWindowJoin(window=1.0, condition=CrossProductCondition(), name="j")
        assert join.process(Punctuation(1.0), "left") == []


class TestSlidingWindowJoin:
    def test_matches_reference_implementation(self):
        data = generate_join_workload(rate_a=20, rate_b=20, duration=5.0, seed=3)
        condition = selectivity_join(0.3)
        join = SlidingWindowJoin(1.5, 1.5, condition, name="j")
        results = run_binary_join(join, data.tuples)
        reference = regular_join_reference(data.tuples, window=1.5, condition=condition)
        assert joined_keys(results) == reference

    def test_asymmetric_windows(self):
        condition = CrossProductCondition()
        join = SlidingWindowJoin(window_left=1.0, window_right=3.0, condition=condition)
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("B", 0.0, k=1), "right")
        # A tuple arriving at t=2: the B window (3s) still holds the old B
        # tuple; the A window (1s) no longer admits the old A tuple when a B
        # tuple arrives at t=2.
        out_a = join.process(make_tuple("A", 2.0, k=1), "left")
        assert len(out_a) == 1
        out_b = join.process(make_tuple("B", 2.0, k=1), "right")
        assert {item.left.timestamp for _, item in out_b} == {2.0}

    def test_hash_and_nested_loop_agree(self):
        data = generate_join_workload(rate_a=25, rate_b=25, duration=4.0, seed=8)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=50)
        nested = SlidingWindowJoin(2.0, 2.0, condition, algorithm="nested_loop")
        hashed = SlidingWindowJoin(2.0, 2.0, condition, algorithm="hash")
        assert joined_keys(run_binary_join(nested, data.tuples)) == joined_keys(
            run_binary_join(hashed, data.tuples)
        )

    def test_hash_probing_is_cheaper(self):
        data = generate_join_workload(rate_a=25, rate_b=25, duration=4.0, seed=8)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=50)
        nested_metrics, hashed_metrics = MetricsCollector(), MetricsCollector()
        nested = SlidingWindowJoin(2.0, 2.0, condition, algorithm="nested_loop")
        nested.bind_metrics(nested_metrics)
        hashed = SlidingWindowJoin(2.0, 2.0, condition, algorithm="hash")
        hashed.bind_metrics(hashed_metrics)
        run_binary_join(nested, data.tuples)
        run_binary_join(hashed, data.tuples)
        assert (
            hashed_metrics.comparisons[CostCategory.PROBE]
            < nested_metrics.comparisons[CostCategory.PROBE]
        )

    def test_hash_requires_equi_join(self):
        with pytest.raises(PlanError):
            SlidingWindowJoin(1.0, 1.0, CrossProductCondition(), algorithm="hash")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(PlanError):
            SlidingWindowJoin(1.0, 1.0, CrossProductCondition(), algorithm="sort-merge")

    def test_state_size_counts_both_sides(self):
        join = SlidingWindowJoin(10.0, 10.0, CrossProductCondition())
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("B", 1.0, k=1), "right")
        join.process(make_tuple("B", 2.0, k=1), "right")
        assert join.state_size() == 3
        assert (len(join._left_state), len(join._right_state)) == (1, 2)

    def test_cross_purge_removes_expired_tuples(self):
        join = SlidingWindowJoin(1.0, 1.0, CrossProductCondition())
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("B", 5.0, k=1), "right")
        assert len(join._left_state) == 0

    def test_probe_cost_counted_per_candidate(self):
        metrics = MetricsCollector()
        join = SlidingWindowJoin(10.0, 10.0, CrossProductCondition())
        join.bind_metrics(metrics)
        for i in range(3):
            join.process(make_tuple("A", float(i), k=i), "left")
        join.process(make_tuple("B", 3.0, k=0), "right")
        assert metrics.comparisons[CostCategory.PROBE] == 3

    def test_unexpected_port_rejected(self):
        join = SlidingWindowJoin(1.0, 1.0, CrossProductCondition())
        with pytest.raises(PlanError):
            join.process(make_tuple("A", 0.0, k=1), "middle")
