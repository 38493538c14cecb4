"""CPU-optimal chain construction (Sections 5.2 and 6.2).

The CPU-Opt chain is found by a shortest-path computation over the merge
graph: node ``i`` is the window boundary ``w_i``, edge ``i → j`` is a merged
slice ``[w_i, w_j)`` whose length is its analytical CPU cost, and any path
from node 0 to node N is a valid chain.  Because edge costs are mutually
independent (Lemma 2), Dijkstra's algorithm yields the optimal chain in
O(N²) including edge-cost evaluation — the complexity the paper states.

A brute-force optimizer over all 2^(N-1) boundary subsets is also provided;
it is exponential and only used by tests to certify optimality.

The search prices *static* plans (``state-slice-cpu-opt``, Figure 19,
``repro chains`` / ``repro optimize``) in the paper's simulated cost.  No
session calls it: a live chain has no per-operator ``Csys`` to save by
merging and stays the Mem-Opt chain (:mod:`repro.runtime.engine`).
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Sequence

from repro.core.merge_graph import ChainCostParameters, MergeGraph
from repro.core.slices import ChainSpec
from repro.engine.errors import ChainError
from repro.query.query import QueryWorkload

__all__ = [
    "shortest_path",
    "build_cpu_opt_chain",
    "brute_force_cpu_opt_chain",
    "enumerate_chains",
]


def shortest_path(graph: MergeGraph) -> list[int]:
    """Dijkstra's algorithm over the merge graph; returns the node path.

    The graph is a complete DAG over nodes ``0..N`` with edges only from
    lower to higher indices, so Dijkstra terminates after settling each node
    once; ties are broken toward fewer slices (shorter paths), then toward
    lexicographically smaller paths, to make the result deterministic.
    """
    n = graph.node_count
    target = n - 1
    # (cost, hops, path) priority queue.
    frontier: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (0,))]
    best: dict[int, float] = {}
    while frontier:
        cost, hops, path = heapq.heappop(frontier)
        node = path[-1]
        if node == target:
            return list(path)
        if node in best and best[node] <= cost:
            continue
        best[node] = cost
        for nxt in range(node + 1, n):
            edge = graph.edge_cost(node, nxt)
            heapq.heappush(frontier, (cost + edge, hops + 1, path + (nxt,)))
    raise ChainError("merge graph has no path from source to target")


def build_cpu_opt_chain(
    workload: QueryWorkload,
    params: ChainCostParameters | None = None,
) -> ChainSpec:
    """Build the CPU-optimal chain for a workload.

    ``params`` supplies the arrival rates and the system overhead factor
    ``Csys`` that drive the merge/no-merge trade-off; the defaults of
    :class:`ChainCostParameters` match the paper's moderate settings.
    """
    graph = MergeGraph(workload, params or ChainCostParameters())
    path = shortest_path(graph)
    return graph.chain_from_path(path)


def enumerate_chains(workload: QueryWorkload, params: ChainCostParameters) -> list[ChainSpec]:
    """Every valid chain for the workload (all subsets of interior boundaries).

    With N distinct windows there are 2^(N-1) chains; this is exponential and
    intended for tests and ablation studies on small N only.
    """
    graph = MergeGraph(workload, params)
    n = graph.node_count
    interior = list(range(1, n - 1))
    chains = []
    for size in range(len(interior) + 1):
        for kept in combinations(interior, size):
            path = [0, *kept, n - 1]
            chains.append(graph.chain_from_path(path))
    return chains


def brute_force_cpu_opt_chain(
    workload: QueryWorkload,
    params: ChainCostParameters | None = None,
) -> ChainSpec:
    """Exhaustive CPU-Opt search; certifies :func:`build_cpu_opt_chain` in tests."""
    graph = MergeGraph(workload, params or ChainCostParameters())
    n = graph.node_count
    interior = list(range(1, n - 1))
    best_path: Sequence[int] | None = None
    best_cost = float("inf")
    for size in range(len(interior) + 1):
        for kept in combinations(interior, size):
            path = [0, *kept, n - 1]
            cost = graph.path_cost(path)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_path = path
    if best_path is None:
        raise ChainError("no chain could be enumerated")
    return graph.chain_from_path(best_path)
