"""Analytical per-slice costs and the merge graph (Sections 5.2 and 6.2).

Merging adjacent slices of a Mem-Opt chain trades routing cost (the merged
slice must re-split its results by window) against purge cost and per-
operator system overhead (fewer operators).  With selections, merging also
pulls a selection up, inflating state memory and probe cost.

All possible merges form a directed acyclic graph: node ``i`` stands for
window boundary ``w_i`` (``w_0 = 0``), and edge ``i → j`` (i < j) stands for
one merged slice ``[w_i, w_j)`` serving queries ``i+1 .. j``.  Every path
from node 0 to node N is a valid chain; the CPU-Opt chain is the shortest
path under the per-edge CPU cost computed here (Lemma 2 makes the edge
costs independent, so the principle of optimality applies).

The costs are the paper's *simulated* ones (comparisons plus ``Csys`` per
operator invocation) and every input is declared: nothing here reads a
running session, and no session re-slices itself from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.errors import ChainError
from repro.core.slices import ChainSpec, SliceSpec
from repro.query.predicates import TruePredicate
from repro.query.query import QueryWorkload

__all__ = [
    "ChainCostParameters",
    "SliceCostBreakdown",
    "slice_cpu_cost",
    "slice_memory_cost",
    "chain_cpu_cost",
    "chain_memory_cost",
    "MergeGraph",
]

@dataclass(frozen=True)
class ChainCostParameters:
    """Workload constants needed to evaluate the analytical chain costs.

    Parameters
    ----------
    arrival_rate_left / arrival_rate_right:
        λA and λB in tuples per second.
    system_overhead:
        The paper's ``Csys`` factor: CPU cost charged per operator per input
        tuple (moving tuples through queues, scheduling context switches).
    tuple_size:
        Tuple size in KB (scales memory only).

    A session's memory budget is not a parameter: what it moves to disk is a
    row offset of each stream's column, the same for every slicing, and a
    cold row costs a read per *reported* match — a term no boundary moves.
    """

    arrival_rate_left: float = 50.0
    arrival_rate_right: float = 50.0
    system_overhead: float = 0.5
    tuple_size: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_rate_left <= 0 or self.arrival_rate_right <= 0:
            raise ChainError("arrival rates must be positive")
        if self.system_overhead < 0:
            raise ChainError("system_overhead must be non-negative")


@dataclass(frozen=True)
class SliceCostBreakdown:
    """Per-component CPU cost of one (possibly merged) slice, per second."""

    probe: float
    purge: float
    filter: float
    route: float
    union: float
    overhead: float

    @property
    def total(self) -> float:
        return self.probe + self.purge + self.filter + self.route + self.union + self.overhead


def _slice_selectivities(
    workload: QueryWorkload, slice_spec: SliceSpec
) -> tuple[float, float]:
    """Selectivity of the predicates pushed below the slice (left, right).

    The selection that can sit below slice ``[start, end)`` is the
    disjunction of the filters of every query whose window exceeds ``start``
    (Section 6.1); its selectivity determines the effective input rate of
    the slice.
    """
    left = workload.slice_filter(slice_spec.start, side="left")
    right = workload.slice_filter(slice_spec.start, side="right")
    return left.selectivity, right.selectivity


def slice_memory_cost(
    workload: QueryWorkload,
    slice_spec: SliceSpec,
    params: ChainCostParameters,
) -> float:
    """Expected state memory (KB) of one slice.

    The slice holds, on each side, the tuples that entered it (after the
    pushed-down selection) during the last ``slice length`` seconds.
    """
    s_left, s_right = _slice_selectivities(workload, slice_spec)
    left_tuples = params.arrival_rate_left * s_left * slice_spec.length
    right_tuples = params.arrival_rate_right * s_right * slice_spec.length
    return (left_tuples + right_tuples) * params.tuple_size


def slice_cpu_cost(
    workload: QueryWorkload,
    slice_spec: SliceSpec,
    params: ChainCostParameters,
) -> SliceCostBreakdown:
    """Expected CPU cost (comparisons per second) of one slice.

    Components follow the decomposition of Equations 1-3 generalised to an
    arbitrary slice:

    * probe — each arriving (filtered) tuple probes the opposite sliced
      state with nested loops;
    * purge — one timestamp comparison per arriving tuple per slice;
    * filter — one predicate evaluation per left-stream tuple when a
      selection is pushed below the slice;
    * route — one window comparison per joined result per query window
      ending strictly inside the slice (merged slices only);
    * union — one comparison per input tuple reaching the slice, standing
      for the punctuation-driven merge work attributable to this slice;
    * overhead — ``Csys`` per tuple passing through the slice's operators.
    """
    s_left, s_right = _slice_selectivities(workload, slice_spec)
    join_selectivity = workload.join_condition.selectivity
    rate_left = params.arrival_rate_left * s_left
    rate_right = params.arrival_rate_right * s_right
    length = slice_spec.length

    # Probing: left males probe the right state and vice versa, each
    # examining the whole opposite state (nested loops).
    probe = rate_left * rate_right * length + rate_right * rate_left * length
    # Cross-purging: one comparison per male per slice.
    purge = rate_left + rate_right
    # Pushed-down selections: one evaluation per original tuple that reaches
    # the slice boundary (charged only when the filter is non-trivial).
    left_filter = workload.slice_filter(slice_spec.start, side="left")
    right_filter = workload.slice_filter(slice_spec.start, side="right")
    filter_cost = 0.0
    if not isinstance(left_filter, TruePredicate):
        filter_cost += params.arrival_rate_left
    if not isinstance(right_filter, TruePredicate):
        filter_cost += params.arrival_rate_right
    # Routing: joined results of a merged slice are checked against every
    # window that ends strictly inside the slice.
    result_rate = 2 * rate_left * rate_right * length * join_selectivity
    route = result_rate * len(slice_spec.inner_windows())
    # Union: punctuation-driven merging charged per tuple reaching the slice.
    union = rate_left + rate_right
    # System overhead: Csys per tuple passing through the sliced join.  The
    # paper's merge analysis (Section 5.2) credits the overhead of the joins
    # that merging removes and treats the added router as negligible in
    # comparison, so only the join operator is charged here.
    overhead = params.system_overhead * (rate_left + rate_right)
    return SliceCostBreakdown(
        probe=probe,
        purge=purge,
        filter=filter_cost,
        route=route,
        union=union,
        overhead=overhead,
    )


def chain_cpu_cost(chain: ChainSpec, params: ChainCostParameters) -> float:
    """Total analytical CPU cost (comparisons per second) of a chain."""
    return sum(
        slice_cpu_cost(chain.workload, slice_spec, params).total
        for slice_spec in chain.slices
    )


def chain_memory_cost(chain: ChainSpec, params: ChainCostParameters) -> float:
    """Total analytical state memory (KB) of a chain."""
    return sum(
        slice_memory_cost(chain.workload, slice_spec, params)
        for slice_spec in chain.slices
    )


@dataclass
class MergeGraph:
    """The DAG of all possible slice merges for a workload.

    Node ``i`` represents boundary ``w_i`` (``w_0 = 0``); the edge
    ``i → j`` represents the merged slice ``[w_i, w_j)``.  Edge lengths are
    the analytical CPU cost of that merged slice.
    """

    workload: QueryWorkload
    params: ChainCostParameters
    boundaries: list[float] = field(init=False)

    def __post_init__(self) -> None:
        self.boundaries = [0.0] + self.workload.window_sizes()

    @property
    def node_count(self) -> int:
        return len(self.boundaries)

    def edge_slice(self, i: int, j: int) -> SliceSpec:
        """The merged slice represented by edge ``i → j``."""
        if not 0 <= i < j < self.node_count:
            raise ChainError(f"invalid merge edge {i} -> {j}")
        covered = tuple(self.boundaries[i + 1 : j + 1])
        return SliceSpec(
            start=self.boundaries[i], end=self.boundaries[j], covered_windows=covered
        )

    def edge_cost(self, i: int, j: int) -> float:
        """Analytical CPU cost of the merged slice ``i → j`` (edge length)."""
        return slice_cpu_cost(self.workload, self.edge_slice(i, j), self.params).total

    def chain_from_path(self, path: Sequence[int]) -> ChainSpec:
        """Build the chain spec corresponding to a node path ``0, ..., N``."""
        if len(path) < 2 or path[0] != 0 or path[-1] != self.node_count - 1:
            raise ChainError(
                f"a chain path must start at node 0 and end at node "
                f"{self.node_count - 1}; got {list(path)}"
            )
        slices = [self.edge_slice(path[k], path[k + 1]) for k in range(len(path) - 1)]
        return ChainSpec(self.workload, slices)

    def path_cost(self, path: Sequence[int]) -> float:
        return sum(self.edge_cost(path[k], path[k + 1]) for k in range(len(path) - 1))
