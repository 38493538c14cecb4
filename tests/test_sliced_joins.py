"""Unit tests for the sliced window join operators (Section 4, Definitions 1-3)."""

from __future__ import annotations

import pytest

from repro.core.chain import SlicedJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory, MetricsCollector
from repro.operators.count_join import CountSlicedBinaryJoin
from repro.operators.join import OneWayWindowJoin
from repro.operators.sliced_join import SlicedBinaryJoin, SlicedOneWayJoin
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    selectivity_join,
)
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import FEMALE, MALE, Punctuation, RefTuple, make_tuple
from tests.conftest import joined_keys


class TestSlicedOneWayJoin:
    def test_generalises_regular_one_way_join(self):
        """A[0, W] s⋉ B must behave exactly like A[W] ⋉ B."""
        data = generate_join_workload(rate_a=20, rate_b=20, duration=4.0, seed=5)
        condition = CrossProductCondition()
        sliced = SlicedOneWayJoin(0.0, 1.5, condition)
        regular = OneWayWindowJoin(1.5, condition)
        sliced_results, regular_results = [], []
        for tup in data.tuples:
            port = "left" if tup.stream == "A" else "right"
            sliced_results.extend(
                item for out, item in sliced.process(tup, port) if out == "output"
            )
            regular_results.extend(
                item for out, item in regular.process(tup, port) if out == "output"
            )
        assert joined_keys(sliced_results) == joined_keys(regular_results)

    def test_purged_tuples_are_emitted_not_discarded(self):
        join = SlicedOneWayJoin(0.0, 1.0, CrossProductCondition())
        join.process(make_tuple("A", 0.0, k=1), "left")
        out = join.process(make_tuple("B", 2.0, k=1), "right")
        purged = [item for port, item in out if port == "purged"]
        assert len(purged) == 1
        assert purged[0].timestamp == 0.0

    def test_probe_tuple_is_propagated_with_punctuation(self):
        join = SlicedOneWayJoin(0.0, 1.0, CrossProductCondition())
        b = make_tuple("B", 2.0, k=1)
        out = join.process(b, "right")
        ports = [port for port, _ in out]
        assert "propagated" in ports
        assert "punct" in ports
        propagated = [item for port, item in out if port == "propagated"]
        assert propagated == [b]

    def test_emission_order_purge_before_results_before_propagate(self):
        join = SlicedOneWayJoin(0.0, 1.0, CrossProductCondition())
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("A", 1.5, k=2), "left")
        out = join.process(make_tuple("B", 2.0, k=3), "right")
        ports = [port for port, _ in out]
        assert ports.index("purged") < ports.index("output") < ports.index("propagated")

    def test_punctuations_forwarded(self):
        join = SlicedOneWayJoin(0.0, 1.0, CrossProductCondition())
        punct = Punctuation(1.0)
        assert join.process(punct, "left") == [("punct", punct)]

    def test_invalid_port(self):
        join = SlicedOneWayJoin(0.0, 1.0, CrossProductCondition())
        with pytest.raises(PlanError):
            join.process(make_tuple("B", 0.0, k=1), "middle")


class TestSlicedBinaryJoin:
    def test_head_join_equivalent_to_regular_join_for_single_slice(self):
        """A[0, W] s⋈ B[0, W] fed raw arrivals equals A[W] ⋈ B[W]."""
        from repro.operators.join import SlidingWindowJoin

        data = generate_join_workload(rate_a=20, rate_b=20, duration=4.0, seed=6)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=20)
        sliced = SlicedBinaryJoin(0.0, 1.5, condition)
        regular = SlidingWindowJoin(1.5, 1.5, condition)
        sliced_results, regular_results = [], []
        for tup in data.tuples:
            port = "left" if tup.stream == "A" else "right"
            sliced_results.extend(
                item for out, item in sliced.process(tup, port) if out == "output"
            )
            regular_results.extend(
                item for out, item in regular.process(tup, port) if out == "output"
            )
        assert joined_keys(sliced_results) == joined_keys(regular_results)

    def test_only_female_copies_occupy_state(self):
        join = SlicedBinaryJoin(0.0, 5.0, CrossProductCondition())
        base = make_tuple("A", 0.0, k=1)
        join.process(RefTuple(base, MALE), "chain")
        assert join.state_size() == 0
        join.process(RefTuple(base, FEMALE), "chain")
        assert join.state_size() == 1

    def test_male_purges_probes_and_propagates(self):
        join = SlicedBinaryJoin(0.0, 2.0, CrossProductCondition())
        old_b = make_tuple("B", 0.0, k=1)
        join.process(RefTuple(old_b, FEMALE), "chain")
        male_a = RefTuple(make_tuple("A", 3.0, k=2), MALE)
        out = join.process(male_a, "chain")
        ports = [port for port, _ in out]
        # The old B female is purged (forwarded on "next"), no result is
        # produced, the male is propagated and a punctuation emitted.
        next_items = [item for port, item in out if port == "next"]
        assert len(next_items) == 2
        assert isinstance(next_items[0], RefTuple) and not next_items[0].is_male()
        assert next_items[1] is male_a
        assert "punct" in ports
        assert all(port != "output" for port, _ in out)

    def test_result_orientation_left_stream_first(self):
        join = SlicedBinaryJoin(0.0, 5.0, CrossProductCondition(), left_stream="A", right_stream="B")
        join.process(make_tuple("A", 0.0, k=1), "left")
        out = join.process(make_tuple("B", 1.0, k=2), "right")
        results = [item for port, item in out if port == "output"]
        assert len(results) == 1
        assert results[0].left.stream == "A"
        assert results[0].right.stream == "B"

    def test_raw_arrival_of_unknown_stream_rejected(self):
        join = SlicedBinaryJoin(0.0, 1.0, CrossProductCondition())
        with pytest.raises(PlanError):
            join.process(make_tuple("C", 0.0, k=1), "left")

    def test_chain_port_requires_reference_tuples(self):
        join = SlicedBinaryJoin(0.0, 1.0, CrossProductCondition())
        with pytest.raises(PlanError):
            join.process(make_tuple("A", 0.0, k=1), "chain")

    def test_purge_cost_is_amortised(self):
        metrics = MetricsCollector()
        join = SlicedBinaryJoin(0.0, 1.0, CrossProductCondition())
        join.bind_metrics(metrics)
        join.process(make_tuple("A", 0.0, k=1), "left")
        join.process(make_tuple("B", 0.5, k=1), "right")
        # One purge check for the surviving head on the male probe.
        assert metrics.comparisons[CostCategory.PURGE] >= 1

    def test_punctuations_forwarded(self):
        join = SlicedBinaryJoin(0.0, 1.0, CrossProductCondition())
        punct = Punctuation(2.0)
        assert join.process(punct, "chain") == [("punct", punct)]

    def test_a_theta_join_takes_no_probe(self):
        """A slice probes by nested loop whatever its condition: a theta join
        is offered no hash probe, nor any other."""
        with pytest.raises(TypeError, match="probe"):
            SlicedBinaryJoin(0.0, 2.0, selectivity_join(0.5), probe="hash")
        SlicedBinaryJoin(0.0, 2.0, selectivity_join(0.5))

    def test_no_probe_kind_is_accepted(self):
        """``probe=`` is no argument of a sliced join or a cursor chain, so
        an unknown kind is refused like a known one."""
        condition = EquiJoinCondition("key", "key", key_domain=4)
        for build in (
            lambda: SlicedBinaryJoin(0.0, 2.0, condition, probe="btree"),
            lambda: CountSlicedBinaryJoin(0, 2, condition, probe="btree"),
            lambda: SlicedJoinChain([0.0, 1.0, 2.0], condition, probe="btree"),
            lambda: CountSlicedJoinChain([0, 2, 4], condition, probe="btree"),
        ):
            with pytest.raises(TypeError, match="probe"):
                build()
