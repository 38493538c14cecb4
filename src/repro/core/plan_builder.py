"""Build executable shared plans from chain specifications.

:func:`build_state_slice_plan` assembles the full state-slice shared query
plan of Figures 10, 12 and 15: the chain of sliced binary joins, the
selections pushed onto the chain queues, per-slice routers where a merged
slice serves several windows, and one order-preserving union per query that
taps more than one slice.

With ``window_kind="count"`` the same plan shape is built over
:class:`~repro.operators.count_join.CountSlicedBinaryJoin` slices — the one
place those operators run, and, executed one tuple at a time, the per-item
reference a count session's cursor chain
(:class:`~repro.core.count_chain.CountSlicedJoinChain`) is held to — under
the two structural restrictions of rank-based windows (the same ones the
runtime layer documents for ``window_kind="count"``, :mod:`repro.runtime.engine`):
the chain must be Mem-Opt — a merged slice's results cannot be re-split by
rank at routing time — and selections are applied to each query's results
only, never pushed into the chain (a pushed filter would redefine which
tuples occupy the most recent N ranks).

The resulting :class:`~repro.engine.plan.QueryPlan` has one named output per
query of the workload (:func:`repro.engine.executor.execute_plan` runs it).
"""

from __future__ import annotations

from repro.core.mem_opt import build_mem_opt_chain
from repro.core.pushdown import pushed_filters, residual_filters
from repro.core.slices import ChainSpec
from repro.engine.errors import ChainError, ConfigurationError
from repro.engine.plan import QueryPlan
from repro.operators.count_join import CountSlicedBinaryJoin
from repro.operators.router import Route, Router
from repro.operators.selection import Selection, StreamFilter
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.operators.union import OrderedUnion
from repro.query.predicates import TruePredicate
from repro.query.query import QueryWorkload
from repro.query.windows import as_count

__all__ = ["build_state_slice_plan"]

_EPSILON = 1e-9


def build_state_slice_plan(
    workload: QueryWorkload,
    chain: ChainSpec | None = None,
    push_selections: bool = True,
    plan_name: str = "state-slice",
    window_kind: str = "time",
) -> QueryPlan:
    """Build the shared state-slice plan for a workload.

    Parameters
    ----------
    workload:
        The continuous queries to share.
    chain:
        Chain specification; defaults to the Mem-Opt chain (one slice per
        distinct window).  Pass a CPU-Opt chain to build the merged variant
        (time windows only; count chains keep the Mem-Opt shape).
    push_selections:
        When True (the default), the per-slice disjunction filters σ' are
        installed on the chain (Section 6.1).  When False the selections are
        applied only to each query's results, which reproduces the behaviour
        of a chain without selection push-down for ablation studies.
        Ignored for count windows (selections are always residual there).
    window_kind:
        ``"time"`` (default) or ``"count"`` — the interpretation of every
        query window (seconds vs most-recent-N tuple ranks).
    """
    if window_kind == "count":
        return _build_count_state_slice_plan(workload, chain, plan_name)
    if window_kind != "time":
        raise ConfigurationError(
            f"window_kind must be 'time' or 'count', got {window_kind!r}"
        )
    chain = chain or build_mem_opt_chain(workload)
    plan = QueryPlan(plan_name)

    joins = _add_chain_joins(plan, workload, chain)
    _wire_chain(plan, workload, chain, joins, push_selections)
    _wire_entries(plan, workload, chain, joins, push_selections)
    _wire_outputs(plan, workload, chain, joins, push_selections)
    plan.validate()
    return plan


def _add_chain_joins(
    plan: QueryPlan, workload: QueryWorkload, chain: ChainSpec
) -> list[SlicedBinaryJoin]:
    joins = []
    for index, slice_spec in enumerate(chain.slices):
        join = SlicedBinaryJoin(
            window_start=slice_spec.start,
            window_end=slice_spec.end,
            condition=workload.join_condition,
            left_stream=workload.left_stream,
            right_stream=workload.right_stream,
            name=f"slice_{index + 1}",
        )
        plan.add_operator(join)
        joins.append(join)
    return joins


def _build_count_state_slice_plan(
    workload: QueryWorkload,
    chain: ChainSpec | None,
    plan_name: str,
) -> QueryPlan:
    """The count-window variant: a Mem-Opt chain of count-sliced joins."""
    chain = chain or build_mem_opt_chain(workload)
    if not chain.is_memory_optimal:
        raise ChainError(
            "count-window chains must be Mem-Opt (one slice per registered "
            "count): a merged slice's results cannot be re-split by rank at "
            "routing time"
        )
    boundaries = [
        as_count(boundary, context="chain boundary") for boundary in chain.boundaries()[1:]
    ]
    plan = QueryPlan(plan_name)
    joins: list[CountSlicedBinaryJoin] = []
    previous = 0
    for index, end in enumerate(boundaries):
        join = CountSlicedBinaryJoin(
            rank_start=previous,
            rank_end=end,
            condition=workload.join_condition,
            left_stream=workload.left_stream,
            right_stream=workload.right_stream,
            name=f"slice_{index + 1}",
        )
        plan.add_operator(join)
        joins.append(join)
        previous = end
    plan.add_entry(workload.left_stream, joins[0], "left")
    plan.add_entry(workload.right_stream, joins[0], "right")
    for index in range(len(joins) - 1):
        plan.connect(joins[index], "next", joins[index + 1], "chain")

    # Per-slice result routing: a query taps every slice inside its count.
    # The Mem-Opt invariant makes rank checks unnecessary; only residual
    # selections (always the query's own — nothing is pushed) need a router.
    union_inputs: dict[str, list[tuple[str, str]]] = {q.name: [] for q in workload}
    for index, join in enumerate(joins):
        routes: list[Route] = []
        direct: list[str] = []
        for query in workload:
            if query.window < join.rank_end - _EPSILON:
                continue  # The slice is beyond this query's count.
            if query.has_selection:
                routes.append(
                    Route(
                        port=query.name,
                        left_filter=query.left_filter,
                        right_filter=query.right_filter,
                    )
                )
            else:
                direct.append(query.name)
        if routes:
            router = Router(routes, name=f"router_{index + 1}")
            plan.add_operator(router)
            plan.connect(join, "output", router, "in")
            for route in routes:
                union_inputs[route.port].append((router.name, route.port))
        for query_name in direct:
            union_inputs[query_name].append((join.name, "output"))

    for query in workload:
        completing_index = boundaries.index(as_count(query.window))
        sources = union_inputs[query.name]
        if len(sources) == 1:
            source_name, source_port = sources[0]
            plan.add_output(query.name, source_name, source_port)
            continue
        union = OrderedUnion(name=f"union_{query.name}")
        plan.add_operator(union)
        for source_name, source_port in sources:
            plan.connect(source_name, source_port, union, "in")
        # The propagated male of the query's last slice acts as the
        # punctuation that lets the union release sorted results.
        plan.connect(joins[completing_index], "punct", union, "in")
        plan.add_output(query.name, union, "out")
    plan.validate()
    return plan


def _wire_entries(
    plan: QueryPlan,
    workload: QueryWorkload,
    chain: ChainSpec,
    joins: list[SlicedBinaryJoin],
    push_selections: bool,
) -> None:
    """Connect the raw stream arrivals to the head of the chain.

    When the head slice itself has a non-trivial pushed-down filter (every
    query filters the stream), a plain selection is installed on the raw
    input before the first join, as in Figure 15 (σ'_1).
    """
    head = joins[0]
    filters = pushed_filters(workload, chain.slices[0])
    if push_selections and not isinstance(filters.left, TruePredicate):
        selection = Selection(filters.left, name="entry_filter_left")
        plan.add_operator(selection)
        plan.add_entry(workload.left_stream, selection, "in")
        plan.connect(selection, "out", head, "left")
    else:
        plan.add_entry(workload.left_stream, head, "left")
    if push_selections and not isinstance(filters.right, TruePredicate):
        selection = Selection(filters.right, name="entry_filter_right")
        plan.add_operator(selection)
        plan.add_entry(workload.right_stream, selection, "in")
        plan.connect(selection, "out", head, "right")
    else:
        plan.add_entry(workload.right_stream, head, "right")


def _wire_chain(
    plan: QueryPlan,
    workload: QueryWorkload,
    chain: ChainSpec,
    joins: list[SlicedBinaryJoin],
    push_selections: bool,
) -> None:
    """Connect slice i's ``next`` queue to slice i+1, inserting σ' filters."""
    for index in range(len(joins) - 1):
        upstream = joins[index]
        downstream = joins[index + 1]
        source_op, source_port = upstream, "next"
        if push_selections:
            filters = pushed_filters(workload, chain.slices[index + 1])
            if not isinstance(filters.left, TruePredicate):
                chain_filter = StreamFilter(
                    filters.left,
                    stream=workload.left_stream,
                    name=f"chain_filter_left_{index + 2}",
                )
                plan.add_operator(chain_filter)
                plan.connect(source_op, source_port, chain_filter, "in")
                source_op, source_port = chain_filter, "out"
            if not isinstance(filters.right, TruePredicate):
                chain_filter = StreamFilter(
                    filters.right,
                    stream=workload.right_stream,
                    name=f"chain_filter_right_{index + 2}",
                )
                plan.add_operator(chain_filter)
                plan.connect(source_op, source_port, chain_filter, "in")
                source_op, source_port = chain_filter, "out"
        plan.connect(source_op, source_port, downstream, "chain")


def _wire_outputs(
    plan: QueryPlan,
    workload: QueryWorkload,
    chain: ChainSpec,
    joins: list[SlicedBinaryJoin],
    push_selections: bool,
) -> None:
    """Route slice results to per-query unions and register the query outputs."""
    # Per query: which slices feed it, and through which (router) port.
    union_inputs: dict[str, list[tuple[str, str]]] = {q.name: [] for q in workload}
    for index, slice_spec in enumerate(chain.slices):
        join = joins[index]
        tapping = chain.queries_tapping(index)
        routes: list[Route] = []
        direct: list[str] = []
        for query in tapping:
            needs_window_check = query.window < slice_spec.end - _EPSILON
            residual = residual_filters(workload, chain, query, index)
            if push_selections and residual.is_trivial and not needs_window_check:
                direct.append(query.name)
                continue
            if not push_selections:
                # Without push-down every query applies its own filter to the
                # results it receives.
                left_filter = query.left_filter
                right_filter = query.right_filter
            else:
                left_filter = residual.left
                right_filter = residual.right
            if (
                not needs_window_check
                and isinstance(left_filter, TruePredicate)
                and isinstance(right_filter, TruePredicate)
            ):
                direct.append(query.name)
                continue
            routes.append(
                Route(
                    port=query.name,
                    window=query.window if needs_window_check else None,
                    left_filter=left_filter,
                    right_filter=right_filter,
                )
            )
        if routes:
            router = Router(routes, name=f"router_{index + 1}")
            plan.add_operator(router)
            plan.connect(join, "output", router, "in")
            for route in routes:
                union_inputs[route.port].append((router.name, route.port))
        for query_name in direct:
            union_inputs[query_name].append((join.name, "output"))

    for query in workload:
        completing_index = chain.slice_for_window(query.window)
        sources = union_inputs[query.name]
        if len(sources) == 1:
            source_name, source_port = sources[0]
            plan.add_output(query.name, source_name, source_port)
            continue
        union = OrderedUnion(name=f"union_{query.name}")
        plan.add_operator(union)
        for source_name, source_port in sources:
            plan.connect(source_name, source_port, union, "in")
        # The propagated male of the query's last slice acts as the
        # punctuation that lets the union release sorted results.
        plan.connect(joins[completing_index], "punct", union, "in")
        plan.add_output(query.name, union, "out")
