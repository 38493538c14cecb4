"""Tests for the runtime sliced-join chain: the equivalence theorems and the
online migration primitives (Sections 4, 5.1 and 5.3)."""

from __future__ import annotations

import pytest

from repro.core.chain import SlicedJoinChain
from repro.engine.errors import ChainError, MigrationError
from repro.engine.metrics import MetricsCollector
from repro.operators.join import SlidingWindowJoin
from repro.query.predicates import CrossProductCondition, EquiJoinCondition, selectivity_join
from repro.streams.generators import generate_join_workload
from tests.conftest import joined_keys, prefix_results, regular_join_reference


def chain_results(chain: SlicedJoinChain, tuples):
    return [joined for _, joined in chain.process_all(tuples)]


def reference(tuples, window, condition):
    return regular_join_reference(tuples, window=window, condition=condition)


class TestChainConstruction:
    def test_boundaries_must_start_at_zero(self):
        with pytest.raises(ChainError):
            SlicedJoinChain([1.0, 2.0], CrossProductCondition())

    def test_boundaries_must_increase(self):
        with pytest.raises(ChainError):
            SlicedJoinChain([0.0, 2.0, 2.0], CrossProductCondition())

    def test_needs_at_least_one_slice(self):
        with pytest.raises(ChainError):
            SlicedJoinChain([0.0], CrossProductCondition())

    def test_describe_lists_every_slice(self):
        chain = SlicedJoinChain([0.0, 1.0, 2.5], CrossProductCondition())
        assert chain.slice_count() == 2
        assert "[0, 1)" in chain.describe()
        assert chain.boundaries == [0.0, 1.0, 2.5]


class TestTheorem2Equivalence:
    """The union of a chain's slice outputs equals the regular window join."""

    @pytest.mark.parametrize(
        "boundaries",
        [
            [0.0, 2.0],
            [0.0, 1.0, 2.0],
            [0.0, 0.5, 1.0, 1.5, 2.0],
            [0.0, 0.3, 2.0],
        ],
    )
    def test_equivalence_for_various_slicings(self, boundaries):
        data = generate_join_workload(rate_a=18, rate_b=18, duration=5.0, seed=13)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=15)
        chain = SlicedJoinChain(boundaries, condition)
        results = chain_results(chain, data.tuples)
        assert joined_keys(results) == reference(data.tuples, boundaries[-1], condition)

    def test_no_duplicate_results_across_slices(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=5.0, seed=21)
        chain = SlicedJoinChain([0.0, 0.7, 1.4, 2.1], CrossProductCondition())
        keys = joined_keys(chain_results(chain, data.tuples))
        assert len(keys) == len(set(keys))

    def test_states_are_disjoint_throughout_execution(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=4.0, seed=2)
        chain = SlicedJoinChain([0.0, 0.5, 1.5, 3.0], CrossProductCondition())
        for tup in data.tuples:
            chain.process(tup)
            assert chain.states_are_disjoint()

    def test_chain_results_tagged_with_producing_slice(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=4.0, seed=2)
        chain = SlicedJoinChain([0.0, 1.0, 2.0], CrossProductCondition())
        for index, joined in chain.process_all(data.tuples):
            gap = abs(joined.left.timestamp - joined.right.timestamp)
            start, end = chain.boundaries[index : index + 2]
            assert start <= gap < end


class TestTheorem3Memory:
    """Total chain state equals the state of the single largest-window join."""

    def test_total_state_matches_single_join(self):
        data = generate_join_workload(rate_a=20, rate_b=20, duration=5.0, seed=17)
        condition = CrossProductCondition()
        chain = SlicedJoinChain([0.0, 0.5, 1.0, 2.0], condition)
        single = SlidingWindowJoin(2.0, 2.0, condition)
        for tup in data.tuples:
            chain.process(tup)
            port = "left" if tup.stream == "A" else "right"
            single.process(tup, port)
            assert chain.state_size() == single.state_size()

    def test_per_query_answers_from_prefixes(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=5.0, seed=19)
        condition = selectivity_join(0.5)
        chain = SlicedJoinChain([0.0, 0.8, 1.6], condition)
        results = chain.process_all(data.tuples)
        for window in (0.8, 1.6):
            answer = prefix_results(chain, results, window)
            assert joined_keys(answer) == reference(data.tuples, window, condition)


class TestOnlineMigration:
    def test_split_requires_interior_boundary(self):
        chain = SlicedJoinChain([0.0, 2.0], CrossProductCondition())
        with pytest.raises(MigrationError):
            chain.split_slice(0, 2.5)
        with pytest.raises(MigrationError):
            chain.split_slice(5, 1.0)

    def test_merge_requires_a_successor(self):
        chain = SlicedJoinChain([0.0, 1.0, 2.0], CrossProductCondition())
        with pytest.raises(MigrationError):
            chain.merge_slices(1)

    def test_split_mid_stream_preserves_results(self):
        data = generate_join_workload(rate_a=18, rate_b=18, duration=5.0, seed=23)
        condition = CrossProductCondition()
        chain = SlicedJoinChain([0.0, 2.0], condition)
        results = []
        for index, tup in enumerate(data.tuples):
            if index == len(data.tuples) // 2:
                chain.split_slice(0, 1.0)
                assert chain.boundaries == [0.0, 1.0, 2.0]
            results.extend(joined for _, joined in chain.process(tup))
        assert joined_keys(results) == reference(data.tuples, 2.0, condition)

    def test_merge_mid_stream_preserves_results(self):
        data = generate_join_workload(rate_a=18, rate_b=18, duration=5.0, seed=29)
        condition = CrossProductCondition()
        chain = SlicedJoinChain([0.0, 0.7, 2.0], condition)
        results = []
        for index, tup in enumerate(data.tuples):
            if index == len(data.tuples) // 3:
                chain.merge_slices(0)
                assert chain.boundaries == [0.0, 2.0]
            results.extend(joined for _, joined in chain.process(tup))
        assert joined_keys(results) == reference(data.tuples, 2.0, condition)

    def test_split_then_merge_roundtrip(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=6.0, seed=31)
        condition = CrossProductCondition()
        chain = SlicedJoinChain([0.0, 1.5], condition)
        results = []
        third = len(data.tuples) // 3
        for index, tup in enumerate(data.tuples):
            if index == third:
                chain.split_slice(0, 0.5)
            if index == 2 * third:
                chain.merge_slices(0)
            results.extend(joined for _, joined in chain.process(tup))
        assert joined_keys(results) == reference(data.tuples, 1.5, condition)
        assert chain.states_are_disjoint()

    def test_metrics_are_shared_across_slices(self):
        metrics = MetricsCollector()
        chain = SlicedJoinChain([0.0, 1.0, 2.0], CrossProductCondition(), metrics=metrics)
        data = generate_join_workload(rate_a=10, rate_b=10, duration=3.0, seed=37)
        chain.process_all(data.tuples)
        assert metrics.total_comparisons > 0
