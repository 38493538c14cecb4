"""Unit tests for the stateless operators: selection, split, router and union."""

from __future__ import annotations

import pytest

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory, MetricsCollector
from repro.operators.router import Route, Router
from repro.operators.selection import Selection, StreamFilter
from repro.operators.split import Split
from repro.operators.union import BagUnion, OrderedUnion
from repro.query.predicates import attribute_gt
from repro.streams.tuples import FEMALE, MALE, JoinedTuple, Punctuation, RefTuple, make_tuple


def joined(ts_left: float, ts_right: float, **values) -> JoinedTuple:
    left = make_tuple("A", ts_left, **(values or {"value": 0.5}))
    right = make_tuple("B", ts_right, **(values or {"value": 0.5}))
    return JoinedTuple(left, right)


class TestSelection:
    def test_filters_by_predicate(self):
        selection = Selection(attribute_gt("value", 0.5), name="s")
        assert selection.process(make_tuple("A", 0.0, value=0.9), "in")
        assert selection.process(make_tuple("A", 0.0, value=0.1), "in") == []

    def test_counts_one_comparison_per_tuple(self):
        metrics = MetricsCollector()
        selection = Selection(attribute_gt("value", 0.5), name="s")
        selection.bind_metrics(metrics)
        for value in (0.1, 0.9, 0.4):
            selection.process(make_tuple("A", 0.0, value=value), "in")
        assert metrics.comparisons[CostCategory.SELECT] == 3

    def test_punctuations_pass_through(self):
        selection = Selection(attribute_gt("value", 0.5), name="s")
        punct = Punctuation(1.0)
        assert selection.process(punct, "in") == [("out", punct)]


class TestStreamFilter:
    def test_filters_only_the_configured_stream(self):
        chain_filter = StreamFilter(attribute_gt("value", 0.5), stream="A", name="f")
        low_a = RefTuple(make_tuple("A", 0.0, value=0.1), MALE)
        high_a = RefTuple(make_tuple("A", 0.0, value=0.9), FEMALE)
        any_b = RefTuple(make_tuple("B", 0.0, value=0.1), MALE)
        assert chain_filter.process(low_a, "in") == []
        assert chain_filter.process(high_a, "in") == [("out", high_a)]
        assert chain_filter.process(any_b, "in") == [("out", any_b)]

    def test_charges_only_male_references(self):
        metrics = MetricsCollector()
        chain_filter = StreamFilter(attribute_gt("value", 0.5), stream="A", name="f")
        chain_filter.bind_metrics(metrics)
        base = make_tuple("A", 0.0, value=0.9)
        chain_filter.process(RefTuple(base, MALE), "in")
        chain_filter.process(RefTuple(base, FEMALE), "in")
        assert metrics.comparisons[CostCategory.SELECT] == 1

    def test_plain_stream_tuples_are_filtered_too(self):
        chain_filter = StreamFilter(attribute_gt("value", 0.5), stream="A", name="f")
        assert chain_filter.process(make_tuple("A", 0.0, value=0.2), "in") == []
        kept = make_tuple("B", 0.0, value=0.2)
        assert chain_filter.process(kept, "in") == [("out", kept)]


class TestSplit:
    def test_partitions_by_predicate(self):
        split = Split(attribute_gt("value", 0.5), name="split")
        assert split.process(make_tuple("A", 0.0, value=0.9), "in")[0][0] == "match"
        assert split.process(make_tuple("A", 0.0, value=0.1), "in")[0][0] == "rest"

    def test_broadcasts_punctuations(self):
        split = Split(attribute_gt("value", 0.5), name="split")
        out = split.process(Punctuation(1.0), "in")
        assert {port for port, _ in out} == {"match", "rest"}


class TestRouter:
    def test_routes_by_window_constraint(self):
        router = Router(
            [Route("Q1", window=1.0), Route("Q2", window=None)], name="router"
        )
        near = joined(0.0, 0.5)
        far = joined(0.0, 5.0)
        assert {port for port, _ in router.process(near, "in")} == {"Q1", "Q2"}
        assert {port for port, _ in router.process(far, "in")} == {"Q2"}

    def test_residual_filters_apply_per_side(self):
        router = Router(
            [Route("Q", window=None, left_filter=attribute_gt("value", 0.5))],
            name="router",
        )
        passing = JoinedTuple(
            make_tuple("A", 0.0, value=0.9), make_tuple("B", 0.0, value=0.1)
        )
        failing = JoinedTuple(
            make_tuple("A", 0.0, value=0.1), make_tuple("B", 0.0, value=0.9)
        )
        assert router.process(passing, "in")
        assert router.process(failing, "in") == []

    def test_counts_route_and_select_comparisons(self):
        metrics = MetricsCollector()
        router = Router(
            [
                Route("Q1", window=1.0),
                Route("Q2", window=None, left_filter=attribute_gt("value", 0.5)),
            ],
            name="router",
        )
        router.bind_metrics(metrics)
        router.process(joined(0.0, 0.5, value=0.9), "in")
        assert metrics.comparisons[CostCategory.ROUTE] == 1
        assert metrics.comparisons[CostCategory.SELECT] == 1

    def test_rejects_non_joined_items(self):
        router = Router([Route("Q", window=None)], name="router")
        with pytest.raises(PlanError):
            router.process(make_tuple("A", 0.0, value=1.0), "in")

    def test_route_validation(self):
        with pytest.raises(PlanError):
            Router([])
        with pytest.raises(PlanError):
            Router([Route("Q"), Route("Q")])

    def test_broadcasts_punctuations(self):
        router = Router([Route("Q1"), Route("Q2")], name="router")
        out = router.process(Punctuation(1.0), "in")
        assert {port for port, _ in out} == {"Q1", "Q2"}


class TestUnions:
    def test_ordered_union_releases_on_punctuation(self):
        union = OrderedUnion(name="u")
        late = joined(0.0, 3.0)
        early = joined(0.0, 1.0)
        assert union.process(late, "in") == []
        assert union.process(early, "in") == []
        released = union.process(Punctuation(2.0), "in")
        assert [item for _, item in released] == [early]
        assert union.pending() == 1

    def test_ordered_union_flush_releases_rest_sorted(self):
        union = OrderedUnion(name="u")
        items = [joined(0.0, ts) for ts in (3.0, 1.0, 2.0)]
        for item in items:
            union.process(item, "in")
        flushed = [item.timestamp for _, item in union.flush()]
        assert flushed == sorted(flushed)
        assert union.pending() == 0

    def test_ordered_union_output_is_globally_sorted(self):
        union = OrderedUnion(name="u")
        out = []
        for ts in (1.0, 0.5, 2.0, 1.5):
            union.process(joined(0.0, ts), "in")
            out.extend(item for _, item in union.process(Punctuation(ts), "in"))
        out.extend(item for _, item in union.flush())
        stamps = [item.timestamp for item in out]
        assert stamps == sorted(stamps)

    def test_bag_union_forwards_immediately_and_drops_punctuations(self):
        union = BagUnion(name="u")
        item = joined(0.0, 1.0)
        assert union.process(item, "in") == [("out", item)]
        assert union.process(Punctuation(5.0), "in") == []
