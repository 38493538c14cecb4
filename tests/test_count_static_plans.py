"""Differential checks for count-window plans in the static layers.

The runtime layer has supported count windows since PR 2; this suite covers
the static builders added by the statistics-plane PR: ``plan_builder`` and
all three baselines must build count-window plans whose per-query answers
are identical to each other, to the per-query unshared reference, and to a
live :class:`CountStreamEngine` session over the same arrivals.
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
from repro.query.predicates import (
    EquiJoinCondition,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import CountStreamEngine
from repro.streams.generators import SelectivityValueGenerator, generate_join_workload
from tests.conftest import joined_keys, result_keys

BUILDERS = {
    "unshared": build_unshared_plan,
    "selection-pullup": build_pullup_plan,
    "selection-pushdown": build_pushdown_plan,
}


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
    @pytest.mark.parametrize("with_selections", [True, False])
    def test_all_strategies_agree_with_unshared(self, stream_data, with_selections):
        workload = count_workload(with_selections)
        reference = execute_plan(
            build_unshared_plan(workload, window_kind="count"), stream_data.tuples
        )
        expected = result_keys(reference.results)
        assert all(len(keys) > 0 for keys in expected.values())
        for name, builder in BUILDERS.items():
            report = execute_plan(
                builder(workload, window_kind="count"), stream_data.tuples
            )
            assert result_keys(report.results) == expected, name
        sliced = execute_plan(
            build_state_slice_plan(workload, window_kind="count"), stream_data.tuples
        )
        assert result_keys(sliced.results) == expected

    def test_static_plan_matches_runtime_count_engine(self, stream_data):
        workload = count_workload()
        report = execute_plan(
            build_state_slice_plan(workload, window_kind="count"), stream_data.tuples
        )
        engine = CountStreamEngine(workload.join_condition, batch_size=8)
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

    def test_hash_probe_count_chain_agrees_with_nested_loop(self):
        condition = EquiJoinCondition("join_key", "join_key", key_domain=6)
        workload = QueryWorkload(
            [
                ContinuousQuery("Q1", window=5, join_condition=condition),
                ContinuousQuery("Q2", window=12, join_condition=condition),
            ]
        )
        data = generate_join_workload(
            rate_a=15,
            rate_b=15,
            duration=6.0,
            seed=31,
            value_generator=lambda: SelectivityValueGenerator(key_domain=6),
        )
        nested = execute_plan(
            build_state_slice_plan(workload, window_kind="count", probe="nested_loop"),
            data.tuples,
        )
        hashed = execute_plan(
            build_state_slice_plan(workload, window_kind="count", probe="hash"),
            data.tuples,
        )
        assert result_keys(hashed.results) == result_keys(nested.results)
        assert all(len(keys) > 0 for keys in result_keys(hashed.results).values())

    def test_state_slice_count_plan_uses_less_state_than_pullup(self, stream_data):
        """Theorem 3's memory claim carries over to rank slices: the chain
        holds each stream's max-count suffix exactly once."""
        workload = count_workload()
        sliced = execute_plan(
            build_state_slice_plan(workload, window_kind="count"), stream_data.tuples
        )
        unshared = execute_plan(
            build_unshared_plan(workload, window_kind="count"), stream_data.tuples
        )
        assert sliced.steady_state_memory < unshared.steady_state_memory


class TestCountPlanValidation:
    def test_non_integer_window_rejected(self):
        condition = selectivity_join(0.2)
        workload = QueryWorkload(
            [ContinuousQuery("Q1", window=2.5, join_condition=condition)]
        )
        with pytest.raises(QueryError):
            build_unshared_plan(workload, window_kind="count")
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

    def test_hash_algorithm_rejected_for_count_baselines(self):
        workload = count_workload(with_selections=False)
        for builder in (build_unshared_plan, build_pullup_plan):
            with pytest.raises(ConfigurationError):
                builder(workload, algorithm="hash", window_kind="count")

    def test_unknown_window_kind_rejected(self):
        workload = count_workload(with_selections=False)
        for builder in (
            build_unshared_plan,
            build_pullup_plan,
            build_pushdown_plan,
            build_state_slice_plan,
        ):
            with pytest.raises(ConfigurationError):
                builder(workload, window_kind="sideways")
