"""Tests for count-based window joins and count-based sliced-join chains
(the paper's Section 2 extension to count-based window constraints)."""

from __future__ import annotations

import pytest

from repro.core.count_chain import CountSlicedJoinChain
from repro.engine.errors import ChainError, PlanError
from repro.operators.count_join import CountSlicedBinaryJoin, CountWindowJoin
from repro.query.predicates import CrossProductCondition, EquiJoinCondition
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import FEMALE, Punctuation, make_tuple
from tests.conftest import joined_keys, prefix_results


def reference_count_join(tuples, count, condition, left_stream="A", right_stream="B"):
    """Brute-force reference: an arriving tuple joins the most recent
    ``count`` tuples of the opposite stream."""
    pairs = []
    seen = {left_stream: [], right_stream: []}
    for tup in tuples:
        other = right_stream if tup.stream == left_stream else left_stream
        for candidate in seen[other][-count:]:
            left, right = (
                (tup, candidate) if tup.stream == left_stream else (candidate, tup)
            )
            if condition.matches(left, right):
                pairs.append((left.seqno, right.seqno))
        seen[tup.stream].append(tup)
    return sorted(pairs)


def drive(join, tuples):
    results = []
    for tup in tuples:
        port = "left" if tup.stream == "A" else "right"
        results.extend(item for out, item in join.process(tup, port) if out == "output")
    return results


class TestCountWindowJoin:
    def test_matches_reference(self):
        data = generate_join_workload(rate_a=20, rate_b=20, duration=4.0, seed=55)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=10)
        join = CountWindowJoin(7, 7, condition)
        assert joined_keys(drive(join, data.tuples)) == reference_count_join(
            data.tuples, 7, condition
        )

    def test_state_never_exceeds_counts(self):
        join = CountWindowJoin(3, 2, CrossProductCondition())
        for i in range(10):
            join.process(make_tuple("A", float(i), k=i), "left")
            join.process(make_tuple("B", float(i) + 0.5, k=i), "right")
        assert len(join._left_state) == 3
        assert len(join._right_state) == 2

    def test_validation_and_punctuation(self):
        with pytest.raises(PlanError):
            CountWindowJoin(0, 3, CrossProductCondition())
        join = CountWindowJoin(2, 2, CrossProductCondition())
        assert join.process(Punctuation(1.0), "left") == []
        with pytest.raises(PlanError):
            join.process(make_tuple("A", 0.0, k=1), "middle")


class TestCountSlicedBinaryJoin:
    def test_single_slice_equals_regular_count_join(self):
        data = generate_join_workload(rate_a=15, rate_b=15, duration=4.0, seed=56)
        condition = CrossProductCondition()
        sliced = CountSlicedBinaryJoin(0, 5, condition)
        regular = CountWindowJoin(5, 5, condition)
        assert joined_keys(drive(sliced, data.tuples)) == joined_keys(
            drive(regular, data.tuples)
        )

    def test_overflow_is_forwarded_not_dropped(self):
        join = CountSlicedBinaryJoin(0, 2, CrossProductCondition())
        emitted = []
        for i in range(4):
            emitted.extend(join.process(make_tuple("A", float(i), k=i), "left"))
        forwarded_females = [
            item
            for port, item in emitted
            if port == "next" and getattr(item, "gender", None) == FEMALE
        ]
        assert len(forwarded_females) == 2
        assert join.state_tuples("A")[0].timestamp == 2.0

    def test_validation(self):
        with pytest.raises(PlanError):
            CountSlicedBinaryJoin(3, 3, CrossProductCondition())
        join = CountSlicedBinaryJoin(0, 2, CrossProductCondition())
        with pytest.raises(PlanError):
            join.process(make_tuple("C", 0.0, k=1), "left")
        with pytest.raises(PlanError):
            join.process(make_tuple("A", 0.0, k=1), "chain")


class TestCountSlicedJoinChain:
    @pytest.mark.parametrize("boundaries", [[0, 8], [0, 3, 8], [0, 2, 5, 8]])
    def test_chain_union_equals_regular_count_join(self, boundaries):
        data = generate_join_workload(rate_a=20, rate_b=20, duration=5.0, seed=57)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=8)
        chain = CountSlicedJoinChain(boundaries, condition)
        results = [joined for _, joined in chain.process_all(data.tuples)]
        assert joined_keys(results) == reference_count_join(
            data.tuples, boundaries[-1], condition
        )

    def test_prefix_answers_match_smaller_count_windows(self):
        data = generate_join_workload(rate_a=20, rate_b=20, duration=5.0, seed=58)
        condition = CrossProductCondition()
        chain = CountSlicedJoinChain([0, 4, 10], condition)
        results = chain.process_all(data.tuples)
        for count in (4, 10):
            answer = prefix_results(chain, results, count)
            assert joined_keys(answer) == reference_count_join(
                data.tuples, count, condition
            )

    def test_states_disjoint_and_bounded(self):
        data = generate_join_workload(rate_a=25, rate_b=25, duration=4.0, seed=59)
        chain = CountSlicedJoinChain([0, 3, 9], CrossProductCondition())
        for tup in data.tuples:
            chain.process(tup)
            assert chain.states_are_disjoint()
            assert chain.state_size() <= 2 * 9

    def test_chain_validation(self):
        with pytest.raises(ChainError):
            CountSlicedJoinChain([1, 5], CrossProductCondition())
        with pytest.raises(ChainError):
            CountSlicedJoinChain([0], CrossProductCondition())
        with pytest.raises(ChainError):
            CountSlicedJoinChain([0, 5, 5], CrossProductCondition())

    def test_describe_and_boundaries(self):
        chain = CountSlicedJoinChain([0, 3, 9], CrossProductCondition())
        assert chain.boundaries == [0, 3, 9]
        assert "[0,3)" in chain.describe()
