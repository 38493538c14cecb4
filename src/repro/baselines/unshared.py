"""No-sharing baseline: one independent plan per query.

Each query gets its own selection (pushed below its own join, the best
single-query plan) and its own sliding-window join.  Nothing is shared, so
both state memory and probing cost grow linearly with the number of
queries — the baseline every sharing strategy is compared against in the
paper's Figure 2.  Windows are time windows, as in every static baseline.
"""

from __future__ import annotations

from repro.engine.plan import QueryPlan
from repro.operators.join import SlidingWindowJoin
from repro.operators.selection import Selection
from repro.query.predicates import TruePredicate
from repro.query.query import QueryWorkload

__all__ = ["build_unshared_plan"]


def build_unshared_plan(
    workload: QueryWorkload,
    algorithm: str = "nested_loop",
    plan_name: str = "unshared",
) -> QueryPlan:
    """Build one plan containing an independent operator pipeline per query."""
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
