"""No-sharing baseline: one independent plan per query.

Each query gets its own selection (pushed below its own join, the best
single-query plan) and its own sliding-window join.  Nothing is shared, so
both state memory and probing cost grow linearly with the number of
queries — the baseline every sharing strategy is compared against in the
paper's Figure 2.

With ``window_kind="count"`` each query gets its own
:class:`~repro.operators.count_join.CountWindowJoin` instead.  Count
windows range over the *raw* arrivals of each stream (filtering the input
would redefine which tuples occupy the most recent N ranks), so selections
are applied to each query's joined results — the same semantics a runtime
session with ``window_kind="count"`` defines (:mod:`repro.runtime.engine`).
"""

from __future__ import annotations

from repro.engine.errors import ConfigurationError
from repro.engine.plan import QueryPlan
from repro.operators.count_join import CountWindowJoin
from repro.operators.join import SlidingWindowJoin
from repro.operators.selection import JoinedFilter, Selection
from repro.query.predicates import TruePredicate
from repro.query.query import QueryWorkload
from repro.query.windows import as_count

__all__ = ["build_unshared_plan"]


def _build_count_unshared_plan(
    workload: QueryWorkload, algorithm: str, plan_name: str
) -> QueryPlan:
    if algorithm != "nested_loop":
        raise ConfigurationError(
            f"count-window baselines support nested-loop probing only, got {algorithm!r}"
        )
    plan = QueryPlan(plan_name)
    for query in workload:
        count = as_count(query.window, context=f"window of query {query.name!r}")
        join = CountWindowJoin(
            count_left=count,
            count_right=count,
            condition=query.join_condition,
            name=f"join_{query.name}",
        )
        plan.add_operator(join)
        plan.add_entry(query.left_stream, join, "left")
        plan.add_entry(query.right_stream, join, "right")
        if query.has_selection:
            residual = JoinedFilter(
                query.left_filter, query.right_filter, name=f"select_{query.name}"
            )
            plan.add_operator(residual)
            plan.connect(join, "output", residual, "in")
            plan.add_output(query.name, residual, "out")
        else:
            plan.add_output(query.name, join, "output")
    plan.validate()
    return plan


def build_unshared_plan(
    workload: QueryWorkload,
    algorithm: str = "nested_loop",
    plan_name: str = "unshared",
    window_kind: str = "time",
) -> QueryPlan:
    """Build one plan containing an independent operator pipeline per query."""
    if window_kind == "count":
        return _build_count_unshared_plan(workload, algorithm, plan_name)
    if window_kind != "time":
        raise ConfigurationError(
            f"window_kind must be 'time' or 'count', got {window_kind!r}"
        )
    plan = QueryPlan(plan_name)
    for query in workload:
        join = SlidingWindowJoin(
            window_left=query.window,
            window_right=query.window,
            condition=query.join_condition,
            algorithm=algorithm,
            name=f"join_{query.name}",
        )
        plan.add_operator(join)

        if isinstance(query.left_filter, TruePredicate):
            plan.add_entry(query.left_stream, join, "left")
        else:
            selection = Selection(query.left_filter, name=f"select_left_{query.name}")
            plan.add_operator(selection)
            plan.add_entry(query.left_stream, selection, "in")
            plan.connect(selection, "out", join, "left")

        if isinstance(query.right_filter, TruePredicate):
            plan.add_entry(query.right_stream, join, "right")
        else:
            selection = Selection(query.right_filter, name=f"select_right_{query.name}")
            plan.add_operator(selection)
            plan.add_entry(query.right_stream, selection, "in")
            plan.connect(selection, "out", join, "right")

        plan.add_output(query.name, join, "output")
    plan.validate()
    return plan
