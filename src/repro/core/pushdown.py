"""Selection push-down into the chain (Section 6).

Two kinds of predicates appear in a shared state-slice plan with selections:

* the **pushed-down filter** ``σ'_i`` installed on the chain queue in front
  of slice ``i``: the disjunction of the selection predicates of every
  query whose window reaches that slice.  A tuple failing it can never
  contribute to any downstream answer, so it is dropped from the chain —
  this is what keeps the Mem-Opt chain memory-minimal (Theorem 4);

* the **residual filter** applied to the joined results a particular query
  taps from a particular slice: the query's own predicate, needed whenever
  it is stronger than the filter already pushed below that slice (for
  example Q2's σ'A over the results of the first slice in Figure 10).

Both are derived here from the workload and a chain specification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.slices import ChainSpec, SliceSpec
from repro.query.predicates import Predicate, TruePredicate
from repro.query.query import ContinuousQuery, QueryWorkload

__all__ = [
    "pushed_filters",
    "residual_filters",
    "residual_predicate",
    "SliceFilters",
    "ResidualFilters",
]

_TRUE = TruePredicate()


@dataclass(frozen=True)
class SliceFilters:
    """Predicates pushed below one slice, per input side."""

    left: Predicate
    right: Predicate

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.left, TruePredicate) and isinstance(
            self.right, TruePredicate
        )


@dataclass(frozen=True)
class ResidualFilters:
    """Residual predicates one query applies to one slice's results."""

    left: Predicate
    right: Predicate

    @property
    def is_trivial(self) -> bool:
        return isinstance(self.left, TruePredicate) and isinstance(
            self.right, TruePredicate
        )


def pushed_filters(workload: QueryWorkload, slice_spec: SliceSpec) -> SliceFilters:
    """The σ' predicates that may sit in front of ``slice_spec``.

    A tuple needs to enter the slice only if at least one query whose window
    exceeds the slice start would accept it, so the pushed filter is the
    disjunction of those queries' predicates (Section 6.1).
    """
    return SliceFilters(
        left=workload.slice_filter(slice_spec.start, side="left"),
        right=workload.slice_filter(slice_spec.start, side="right"),
    )


def residual_predicate(query_filter: Predicate, pushed: Predicate) -> Predicate:
    """The filter a query must still apply given what was already pushed down.

    When the pushed predicate equals the query's own predicate (``==``, as
    :func:`~repro.query.predicates.disjunction` dedupes) the residual is
    trivially true (no re-evaluation needed); otherwise the query's
    predicate is re-applied.  Shared by the static plan builder and the
    runtime engine's per-slice result routing.
    """
    if isinstance(query_filter, TruePredicate) or query_filter == pushed:
        return _TRUE
    return query_filter


def residual_filters(
    workload: QueryWorkload,
    chain: ChainSpec,
    query: ContinuousQuery,
    slice_index: int,
) -> ResidualFilters:
    """Residual predicates ``query`` applies to results of slice ``slice_index``."""
    slice_spec = chain.slices[slice_index]
    pushed = pushed_filters(workload, slice_spec)
    return ResidualFilters(
        left=residual_predicate(query.left_filter, pushed.left),
        right=residual_predicate(query.right_filter, pushed.right),
    )
