"""Naive sharing with selection pull-up (Section 3.1, Figure 3).

All queries share one sliding-window join whose window is the largest among
the group; every selection is pulled above the join.  A router dispatches
each joined result to the queries whose window constraint (and residual
filter) it satisfies.

The per-result routing cost and the unfiltered large-window state are the
two inefficiencies the paper quantifies in Equation 1.  Windows are time
windows, as in every static baseline.
"""

from __future__ import annotations

from repro.engine.plan import QueryPlan
from repro.operators.join import SlidingWindowJoin
from repro.operators.router import Route, Router
from repro.query.query import QueryWorkload

__all__ = ["build_pullup_plan"]

_EPSILON = 1e-9


def build_pullup_plan(
    workload: QueryWorkload,
    algorithm: str = "nested_loop",
    plan_name: str = "selection-pullup",
) -> QueryPlan:
    """Build the selection pull-up shared plan for a workload.

    The router applies each query's own selection to the joined results
    ("Filtered PullUp" in [10]): the join itself runs without any filtering,
    exactly as the naive strategy prescribes.
    """
    plan = QueryPlan(plan_name)
    max_window = workload.max_window
    join = SlidingWindowJoin(
        window_left=max_window,
        window_right=max_window,
        condition=workload.join_condition,
        algorithm=algorithm,
        name="shared_join",
    )
    plan.add_operator(join)
    plan.add_entry(workload.left_stream, join, "left")
    plan.add_entry(workload.right_stream, join, "right")

    routes = []
    for query in workload:
        needs_window_check = query.window < max_window - _EPSILON
        routes.append(
            Route(
                port=query.name,
                window=query.window if needs_window_check else None,
                left_filter=query.left_filter,
                right_filter=query.right_filter,
            )
        )
    router = Router(routes, name="router")
    plan.add_operator(router)
    plan.connect(join, "output", router, "in")
    for query in workload:
        plan.add_output(query.name, router, query.name)
    plan.validate()
    return plan
