"""Stream partition with selection push-down (Section 3.2, Figure 4).

The input stream carrying selections is split by the selection predicate so
that each partial join only processes the tuples it needs:

* tuples failing the predicate can only contribute to the queries without a
  selection, so they feed a join whose window is the largest *unfiltered*
  window;
* tuples passing the predicate are needed by every query, so they feed a
  join whose window is the overall largest window.

The partial joins' results are routed and merged (order-preserving union)
into the per-query answers.  This avoids the unnecessary probings of the
pull-up strategy but pays an extra state-memory price because the partial
joins' windows move asynchronously, and it keeps the per-result routing
cost (Equation 2).

The builder supports the workload shape used throughout the paper's
analysis and experiments: selections on the left stream only, and a single
distinct selection predicate across the filtered queries.  Other shapes
raise :class:`~repro.engine.errors.ConfigurationError` (the paper notes the
strategy needs ``m·n`` joins in general, which it never evaluates).  Windows
are time windows, as in every static baseline.
"""

from __future__ import annotations

from repro.engine.errors import ConfigurationError
from repro.engine.plan import QueryPlan
from repro.operators.join import SlidingWindowJoin
from repro.operators.router import Route, Router
from repro.operators.split import Split
from repro.operators.union import BagUnion
from repro.query.predicates import TruePredicate
from repro.query.query import ContinuousQuery, QueryWorkload

__all__ = ["build_pushdown_plan"]

_EPSILON = 1e-9


def _classify_queries(
    workload: QueryWorkload,
) -> tuple[list[ContinuousQuery], list[ContinuousQuery]]:
    """Split the workload into unfiltered and filtered queries, validating shape."""
    unfiltered: list[ContinuousQuery] = []
    filtered: list[ContinuousQuery] = []
    predicate = None
    for query in workload:
        if not isinstance(query.right_filter, TruePredicate):
            raise ConfigurationError(
                "the stream-partition baseline supports selections on the left "
                f"stream only; query {query.name!r} filters the right stream"
            )
        if isinstance(query.left_filter, TruePredicate):
            unfiltered.append(query)
            continue
        if predicate is None:
            predicate = query.left_filter
        elif query.left_filter != predicate:
            raise ConfigurationError(
                "the stream-partition baseline supports a single distinct selection "
                f"predicate; found both {predicate.describe()!r} and {query.left_filter.describe()!r}"
            )
        filtered.append(query)
    return unfiltered, filtered


def build_pushdown_plan(
    workload: QueryWorkload,
    algorithm: str = "nested_loop",
    plan_name: str = "selection-pushdown",
) -> QueryPlan:
    """Build the stream-partition (selection push-down) shared plan."""
    unfiltered, filtered = _classify_queries(workload)
    plan = QueryPlan(plan_name)

    if not filtered:
        # No selections anywhere: stream partitioning degenerates to the
        # single shared join with a router, identical to selection pull-up.
        from repro.baselines.pullup import build_pullup_plan

        return build_pullup_plan(workload, algorithm=algorithm, plan_name=plan_name)

    predicate = filtered[0].left_filter
    split = Split(predicate, name="split")
    plan.add_operator(split)
    plan.add_entry(workload.left_stream, split, "in")

    max_window = workload.max_window
    # Join fed by the tuples passing the selection: needed by every query.
    join_match = SlidingWindowJoin(
        window_left=max_window,
        window_right=max_window,
        condition=workload.join_condition,
        algorithm=algorithm,
        name="join_match",
    )
    plan.add_operator(join_match)
    plan.connect(split, "match", join_match, "left")
    plan.add_entry(workload.right_stream, join_match, "right")

    join_rest = None
    if unfiltered:
        # Join fed by the tuples failing the selection: only the unfiltered
        # queries need them, so its window is the largest unfiltered window.
        rest_window = max(query.window for query in unfiltered)
        join_rest = SlidingWindowJoin(
            window_left=rest_window,
            window_right=rest_window,
            condition=workload.join_condition,
            algorithm=algorithm,
            name="join_rest",
        )
        plan.add_operator(join_rest)
        plan.connect(split, "rest", join_rest, "left")
        plan.add_entry(workload.right_stream, join_rest, "right")

    # Route the match-join results to every query (filtered and unfiltered).
    match_routes = []
    for query in workload:
        needs_window_check = query.window < max_window - _EPSILON
        match_routes.append(
            Route(
                port=query.name,
                window=query.window if needs_window_check else None,
            )
        )
    match_router = Router(match_routes, name="router_match")
    plan.add_operator(match_router)
    plan.connect(join_match, "output", match_router, "in")

    rest_router = None
    if join_rest is not None and unfiltered:
        rest_window = max(query.window for query in unfiltered)
        rest_routes = []
        for query in unfiltered:
            needs_window_check = query.window < rest_window - _EPSILON
            rest_routes.append(
                Route(
                    port=query.name,
                    window=query.window if needs_window_check else None,
                )
            )
        rest_router = Router(rest_routes, name="router_rest")
        plan.add_operator(rest_router)
        plan.connect(join_rest, "output", rest_router, "in")

    for query in workload:
        if query in unfiltered and rest_router is not None:
            # The paper uses an order-preserving union here; a bag union is
            # used instead because the partial joins emit no punctuations, and
            # only the result multiset and per-item merge cost matter for the
            # reproduced measurements.
            union = BagUnion(name=f"union_{query.name}")
            plan.add_operator(union)
            plan.connect(match_router, query.name, union, "in")
            plan.connect(rest_router, query.name, union, "in")
            plan.add_output(query.name, union, "out")
        else:
            plan.add_output(query.name, match_router, query.name)
    plan.validate()
    return plan
