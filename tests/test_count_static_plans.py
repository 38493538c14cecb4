"""The static count-window plan: ``build_state_slice_plan(window_kind="count")``.

It is the per-item reference of a count session's chain, so its per-query
answers must equal a live ``window_kind="count"`` :class:`StreamEngine`
session over the same arrivals.  The static baselines are time-window only:
``window_kind=`` is not one of their arguments.
"""

from __future__ import annotations

import pytest

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.baselines.unshared import build_unshared_plan
from repro.core.plan_builder import build_state_slice_plan
from repro.core.slices import ChainSpec, SliceSpec
from repro.engine.errors import ChainError, ConfigurationError, QueryError
from repro.engine.executor import execute_plan
from repro.operators.count_join import CountSlicedBinaryJoin
from repro.query.predicates import selectivity_filter, selectivity_join
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import StreamEngine
from repro.streams.generators import generate_join_workload
from tests.conftest import joined_keys


def count_workload(with_selections: bool = True) -> QueryWorkload:
    condition = selectivity_join(0.2)
    sigma = selectivity_filter(0.5) if with_selections else None
    queries = [
        ContinuousQuery("Q1", window=4, join_condition=condition),
        ContinuousQuery(
            "Q2",
            window=9,
            join_condition=condition,
            **({"left_filter": sigma} if sigma else {}),
        ),
        ContinuousQuery(
            "Q3",
            window=15,
            join_condition=condition,
            **({"left_filter": sigma} if sigma else {}),
        ),
    ]
    return QueryWorkload(queries)


@pytest.fixture(scope="module")
def stream_data():
    return generate_join_workload(rate_a=18, rate_b=18, duration=7.0, seed=23)


class TestCountDifferential:
    def test_static_plan_matches_runtime_count_engine(self, stream_data):
        workload = count_workload()
        report = execute_plan(
            build_state_slice_plan(workload, window_kind="count"), stream_data.tuples
        )
        engine = StreamEngine(workload.join_condition, window_kind="count")
        for query in workload:
            engine.add_query(
                query.name,
                query.window,
                left_filter=query.left_filter,
                right_filter=query.right_filter,
            )
        engine.process_many(stream_data.tuples)
        engine.flush()
        for query in workload:
            assert joined_keys(engine.results(query.name)) == joined_keys(
                report.results[query.name]
            ), query.name

    def test_count_plan_state_obeys_theorem_3(self, stream_data):
        """Theorem 3's memory claim carries over to rank slices: the chain
        holds each stream's max-count suffix exactly once, so at most
        ``2 × largest count`` tuples."""
        workload = count_workload()
        plan = build_state_slice_plan(workload, window_kind="count")
        report = execute_plan(plan, stream_data.tuples)
        assert all(
            isinstance(operator, CountSlicedBinaryJoin)
            for name, operator in plan.operators.items()
            if name.startswith("slice_")
        )
        assert 0 < report.max_state_memory <= 2 * workload.max_window


class TestCountPlanValidation:
    def test_non_integer_window_rejected(self):
        condition = selectivity_join(0.2)
        workload = QueryWorkload(
            [ContinuousQuery("Q1", window=2.5, join_condition=condition)]
        )
        with pytest.raises(QueryError):
            build_state_slice_plan(workload, window_kind="count")

    def test_merged_chain_rejected_for_count_windows(self):
        workload = count_workload(with_selections=False)
        merged = ChainSpec(
            workload,
            [
                SliceSpec(start=0, end=9, covered_windows=(4, 9)),
                SliceSpec(start=9, end=15, covered_windows=(15,)),
            ],
        )
        with pytest.raises(ChainError):
            build_state_slice_plan(workload, chain=merged, window_kind="count")

    def test_unknown_window_kind_rejected(self):
        workload = count_workload(with_selections=False)
        with pytest.raises(ConfigurationError):
            build_state_slice_plan(workload, window_kind="sideways")
        for builder in (build_unshared_plan, build_pullup_plan, build_pushdown_plan):
            for kind in ("count", "time", "sideways"):
                with pytest.raises(TypeError, match="window_kind"):
                    builder(workload, window_kind=kind)
