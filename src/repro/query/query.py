"""Continuous query model.

A :class:`ContinuousQuery` is the unit registered with the multi-query
optimizer: a sliding-window join between two streams with optional
selections on either input, mirroring the paper's running example

.. code-block:: sql

    SELECT A.* FROM Temperature A, Humidity B
    WHERE A.LocationId = B.LocationId AND A.Value > Threshold
    WINDOW 60 min

A :class:`QueryWorkload` is a set of such queries over the *same* pair of
streams with the *same* join condition — the precondition for state-slice
sharing.  The workload knows the distinct window sizes, per-slice predicate
disjunctions and everything else the chain builders need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from repro.engine.errors import QueryError
from repro.query.predicates import (
    JoinCondition,
    Predicate,
    TruePredicate,
    disjunction,
)

__all__ = ["ContinuousQuery", "QueryWorkload"]


@dataclass(frozen=True)
class ContinuousQuery:
    """A window-join continuous query.

    Parameters
    ----------
    name:
        Unique query identifier (for example ``"Q1"``).
    window:
        Sliding-window size in seconds, applied to both inputs as in the
        paper's ``WINDOW`` clause.
    join_condition:
        The pairwise join condition shared by all queries in a workload.
    left_filter / right_filter:
        Selections applied to the left / right input stream before the join
        (``TruePredicate`` when the query has no selection).
    left_stream / right_stream:
        Names of the input streams.
    """

    name: str
    window: float
    join_condition: JoinCondition
    left_filter: Predicate = field(default_factory=TruePredicate)
    right_filter: Predicate = field(default_factory=TruePredicate)
    left_stream: str = "A"
    right_stream: str = "B"

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise QueryError(
                f"query {self.name!r} has non-positive window {self.window}"
            )

    @property
    def has_selection(self) -> bool:
        return not isinstance(self.left_filter, TruePredicate) or not isinstance(
            self.right_filter, TruePredicate
        )

    def with_window(self, window: float) -> "ContinuousQuery":
        return replace(self, window=window)

    def describe(self) -> str:
        parts = [
            f"{self.name}: {self.left_stream}[{self.window:g}s] JOIN "
            f"{self.right_stream}[{self.window:g}s] ON {self.join_condition.describe()}"
        ]
        if not isinstance(self.left_filter, TruePredicate):
            parts.append(f"WHERE {self.left_stream}.{self.left_filter.describe()}")
        if not isinstance(self.right_filter, TruePredicate):
            parts.append(f"WHERE {self.right_stream}.{self.right_filter.describe()}")
        return " ".join(parts)


class QueryWorkload:
    """An ordered collection of shareable continuous queries.

    The workload validates the sharing preconditions: all queries must join
    the same pair of streams with the same join condition (the paper's
    setting throughout Sections 4-6).  Queries are kept sorted by window
    size ascending, which is the order in which the chain builders consume
    them.
    """

    def __init__(self, queries: Iterable[ContinuousQuery]) -> None:
        query_list = list(queries)
        if not query_list:
            raise QueryError("a workload requires at least one query")
        names = [query.name for query in query_list]
        if len(names) != len(set(names)):
            raise QueryError(f"duplicate query names in workload: {names}")
        reference = query_list[0]
        for query in query_list[1:]:
            if (query.left_stream, query.right_stream) != (
                reference.left_stream,
                reference.right_stream,
            ):
                raise QueryError(
                    "all queries in a workload must join the same streams; "
                    f"{query.name!r} joins {query.left_stream}/{query.right_stream} "
                    f"but {reference.name!r} joins "
                    f"{reference.left_stream}/{reference.right_stream}"
                )
            if query.join_condition.describe() != reference.join_condition.describe():
                raise QueryError(
                    "all queries in a workload must share the join condition; "
                    f"{query.name!r} uses {query.join_condition.describe()!r} but "
                    f"{reference.name!r} uses {reference.join_condition.describe()!r}"
                )
        self.queries = sorted(query_list, key=lambda q: (q.window, q.name))

    # -- container protocol -----------------------------------------------------
    def __iter__(self) -> Iterator[ContinuousQuery]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, index: int) -> ContinuousQuery:
        return self.queries[index]

    def query(self, name: str) -> ContinuousQuery:
        for query in self.queries:
            if query.name == name:
                return query
        raise QueryError(f"workload has no query named {name!r}")

    # -- shared properties --------------------------------------------------------
    @property
    def left_stream(self) -> str:
        return self.queries[0].left_stream

    @property
    def right_stream(self) -> str:
        return self.queries[0].right_stream

    @property
    def join_condition(self) -> JoinCondition:
        return self.queries[0].join_condition

    @property
    def max_window(self) -> float:
        return max(query.window for query in self.queries)

    def window_sizes(self) -> list[float]:
        """Distinct window sizes, ascending."""
        return sorted(set(query.window for query in self.queries))

    def names(self) -> list[str]:
        return [query.name for query in self.queries]

    def has_selections(self) -> bool:
        return any(query.has_selection for query in self.queries)

    def queries_with_window_at_least(self, window: float) -> list[ContinuousQuery]:
        """Queries whose window is >= ``window`` (they consume that slice)."""
        return [query for query in self.queries if query.window >= window]

    def slice_filter(self, slice_start: float, side: str = "left") -> Predicate:
        """Disjunction of the filters of all queries needing slices >= ``slice_start``.

        This is the predicate ``σ'_i = cond_i OR ... OR cond_N`` installed in
        front of slice ``i`` by the selection push-down of Section 6.1: a
        tuple only needs to enter slice ``i`` if at least one query with a
        window large enough to reach that slice would accept it.
        """
        relevant = self.queries_with_window_at_least(slice_start + 1e-12)
        if not relevant:
            relevant = [self.queries[-1]]
        if side == "left":
            predicates = [query.left_filter for query in relevant]
        elif side == "right":
            predicates = [query.right_filter for query in relevant]
        else:
            raise QueryError(f"side must be 'left' or 'right', got {side!r}")
        return disjunction(predicates)

    def describe(self) -> str:
        return "\n".join(query.describe() for query in self.queries)


def workload_from_windows(
    windows: Sequence[float],
    join_condition: JoinCondition,
    left_filters: Sequence[Predicate] | None = None,
    right_filters: Sequence[Predicate] | None = None,
    left_stream: str = "A",
    right_stream: str = "B",
    name_prefix: str = "Q",
) -> QueryWorkload:
    """Build a workload from parallel lists of windows and filters."""
    count = len(windows)
    lefts = list(left_filters) if left_filters is not None else [TruePredicate()] * count
    rights = list(right_filters) if right_filters is not None else [TruePredicate()] * count
    if len(lefts) != count or len(rights) != count:
        raise QueryError(
            "left_filters and right_filters must have the same length as windows"
        )
    queries = [
        ContinuousQuery(
            name=f"{name_prefix}{i + 1}",
            window=float(windows[i]),
            join_condition=join_condition,
            left_filter=lefts[i],
            right_filter=rights[i],
            left_stream=left_stream,
            right_stream=right_stream,
        )
        for i in range(count)
    ]
    return QueryWorkload(queries)


__all__.append("workload_from_windows")
