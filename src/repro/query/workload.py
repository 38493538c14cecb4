"""Workload generation for the paper's performance study.

Section 7 of the paper evaluates the sharing strategies on query sets whose
window sizes follow a handful of named distributions:

* Table 3 (three queries): ``Mostly-Small`` (5, 10, 30 s), ``Uniform``
  (10, 20, 30 s) and ``Mostly-Large`` (20, 25, 30 s);
* Table 4 (twelve queries): ``Uniform`` (2.5 .. 30 s step 2.5),
  ``Mostly-Small`` (1..10, 20, 30 s) and ``Small-Large`` (1..6, 25..30 s).

This module encodes those distributions, scales them to other query counts
(the paper runs 12, 24 and 36 queries with the "window distributions for
other numbers of queries set accordingly") and builds
:class:`~repro.query.query.QueryWorkload` objects with the requested join
and filter selectivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.errors import ConfigurationError
from repro.query.predicates import (
    Predicate,
    TruePredicate,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload

__all__ = [
    "WindowDistribution",
    "THREE_QUERY_DISTRIBUTIONS",
    "TWELVE_QUERY_DISTRIBUTIONS",
    "window_distribution",
    "scale_distribution",
    "build_workload",
    "three_query_workload",
    "multi_query_workload",
]


@dataclass(frozen=True)
class WindowDistribution:
    """A named list of window sizes (seconds)."""

    name: str
    windows: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ConfigurationError(f"distribution {self.name!r} has no windows")
        if any(w <= 0 for w in self.windows):
            raise ConfigurationError(
                f"distribution {self.name!r} contains non-positive windows"
            )

    @property
    def count(self) -> int:
        return len(self.windows)

    @property
    def max_window(self) -> float:
        return max(self.windows)


#: Table 3 of the paper — window distributions for the three-query study.
THREE_QUERY_DISTRIBUTIONS: dict[str, WindowDistribution] = {
    "mostly-small": WindowDistribution("mostly-small", (5.0, 10.0, 30.0)),
    "uniform": WindowDistribution("uniform", (10.0, 20.0, 30.0)),
    "mostly-large": WindowDistribution("mostly-large", (20.0, 25.0, 30.0)),
}

#: Table 4 of the paper — window distributions for the twelve-query study.
TWELVE_QUERY_DISTRIBUTIONS: dict[str, WindowDistribution] = {
    "uniform": WindowDistribution(
        "uniform",
        (2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 27.5, 30.0),
    ),
    "mostly-small": WindowDistribution(
        "mostly-small",
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 20.0, 30.0),
    ),
    "small-large": WindowDistribution(
        "small-large",
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 25.0, 26.0, 27.0, 28.0, 29.0, 30.0),
    ),
}


def window_distribution(name: str, query_count: int = 3) -> WindowDistribution:
    """Look up a named distribution for the given query count.

    Three-query names come from Table 3; 12-or-more-query names from
    Table 4, scaled with :func:`scale_distribution` when ``query_count``
    differs from 12 (the paper's 24- and 36-query settings).
    """
    key = name.lower()
    if query_count <= 3:
        table = THREE_QUERY_DISTRIBUTIONS
        if key not in table:
            raise ConfigurationError(
                f"unknown 3-query distribution {name!r}; expected one of {sorted(table)}"
            )
        return table[key]
    table = TWELVE_QUERY_DISTRIBUTIONS
    if key not in table:
        raise ConfigurationError(
            f"unknown multi-query distribution {name!r}; expected one of {sorted(table)}"
        )
    base = table[key]
    if query_count == base.count:
        return base
    return scale_distribution(base, query_count)


def scale_distribution(base: WindowDistribution, query_count: int) -> WindowDistribution:
    """Scale a base distribution to a different number of queries.

    The paper sets window distributions for 24 and 36 queries "accordingly";
    we interpret this as subdividing each base window interval evenly while
    preserving the overall range and shape.  For a multiple ``k`` of the
    base count, every base window ``w_i`` is replaced by ``k`` windows
    interpolated between ``w_{i-1}`` and ``w_i``.
    """
    if query_count <= 0:
        raise ConfigurationError(f"query_count must be positive, got {query_count}")
    if query_count % base.count != 0:
        raise ConfigurationError(
            f"query_count {query_count} must be a multiple of the base distribution "
            f"size {base.count}"
        )
    factor = query_count // base.count
    if factor == 1:
        return base
    windows: list[float] = []
    previous = 0.0
    for upper in base.windows:
        step = (upper - previous) / factor
        for i in range(1, factor + 1):
            windows.append(round(previous + step * i, 6))
        previous = upper
    return WindowDistribution(f"{base.name}-x{factor}", tuple(windows))


def build_workload(
    windows: Sequence[float],
    join_selectivity: float = 0.1,
    filter_selectivities: Sequence[float] | None = None,
    filter_on_left: bool = True,
    left_stream: str = "A",
    right_stream: str = "B",
    name_prefix: str = "Q",
) -> QueryWorkload:
    """Build a workload with the given windows and selectivities.

    ``filter_selectivities`` gives the selectivity Sσ of the selection on the
    left stream for each query; ``None`` or a value of 1.0 means the query
    has no selection.  Filters are placed on the left stream only, matching
    the paper's experiments (σ(A) ⋈ B).  Every query joins on the
    modular-match condition of ``join_selectivity``.
    """
    join_condition = selectivity_join(join_selectivity)
    count = len(windows)
    if filter_selectivities is None:
        filter_selectivities = [1.0] * count
    if len(filter_selectivities) != count:
        raise ConfigurationError(
            "filter_selectivities must be as long as windows "
            f"({len(filter_selectivities)} != {count})"
        )
    queries = []
    for index, window in enumerate(windows):
        selectivity = filter_selectivities[index]
        predicate: Predicate = (
            selectivity_filter(selectivity) if selectivity < 1.0 else TruePredicate()
        )
        left_filter = predicate if filter_on_left else TruePredicate()
        right_filter = TruePredicate() if filter_on_left else predicate
        queries.append(
            ContinuousQuery(
                name=f"{name_prefix}{index + 1}",
                window=float(window),
                join_condition=join_condition,
                left_filter=left_filter,
                right_filter=right_filter,
                left_stream=left_stream,
                right_stream=right_stream,
            )
        )
    return QueryWorkload(queries)


def three_query_workload(
    distribution: str = "uniform",
    join_selectivity: float = 0.1,
    filter_selectivity: float = 0.5,
) -> QueryWorkload:
    """The three-query workload of Section 7.2.

    Q1 has no selection; Q2 and Q3 carry a selection σ(A) with selectivity
    ``filter_selectivity`` — exactly the paper's Q1 (A ⋈ B), Q2 (σ(A) ⋈ B),
    Q3 (σ(A) ⋈ B) with windows from the chosen Table 3 distribution.
    """
    dist = window_distribution(distribution, query_count=3)
    selectivities = [1.0, filter_selectivity, filter_selectivity]
    return build_workload(
        dist.windows,
        join_selectivity=join_selectivity,
        filter_selectivities=selectivities,
    )


def multi_query_workload(
    distribution: str = "uniform",
    query_count: int = 12,
    join_selectivity: float = 0.025,
) -> QueryWorkload:
    """The N-query workload of Section 7.3 (no selections)."""
    dist = window_distribution(distribution, query_count=query_count)
    return build_workload(dist.windows, join_selectivity=join_selectivity)
