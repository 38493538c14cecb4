"""Tests for chain specifications, the Mem-Opt builder, the merge graph and
the CPU-Opt (shortest-path) builder."""

from __future__ import annotations

import pytest

from repro.core.cpu_opt import (
    brute_force_cpu_opt_chain,
    build_cpu_opt_chain,
    enumerate_chains,
    shortest_path,
)
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.merge_graph import (
    ChainCostParameters,
    MergeGraph,
    chain_cpu_cost,
    chain_memory_cost,
    slice_cpu_cost,
    slice_memory_cost,
)
from repro.core.slices import ChainSpec, SliceSpec
from repro.engine.errors import ChainError
from repro.query.workload import build_workload, multi_query_workload


def plain_workload(windows):
    return build_workload(list(windows), 0.1)


class TestSliceSpec:
    def test_validation(self):
        with pytest.raises(ChainError):
            SliceSpec(-1.0, 2.0, (2.0,))
        with pytest.raises(ChainError):
            SliceSpec(2.0, 2.0, (2.0,))
        with pytest.raises(ChainError):
            SliceSpec(0.0, 2.0, (5.0,))

    def test_router_needed_when_window_ends_inside(self):
        merged = SliceSpec(0.0, 3.0, (1.0, 3.0))
        exact = SliceSpec(0.0, 3.0, (3.0,))
        assert merged.needs_router
        assert merged.inner_windows() == (1.0,)
        assert not exact.needs_router
        assert exact.inner_windows() == ()

    def test_length_and_describe(self):
        slice_spec = SliceSpec(1.0, 4.0, (2.0, 4.0))
        assert slice_spec.length == 3.0
        assert "1" in slice_spec.describe() and "4" in slice_spec.describe()


class TestChainSpec:
    def test_mem_opt_chain_shape(self):
        workload = plain_workload([3.0, 1.0, 2.0])
        chain = build_mem_opt_chain(workload)
        assert chain.boundaries() == [0.0, 1.0, 2.0, 3.0]
        assert chain.is_memory_optimal
        assert len(chain) == 3

    def test_duplicate_windows_collapse_to_one_slice(self):
        workload = plain_workload([2.0, 2.0, 5.0])
        chain = build_mem_opt_chain(workload)
        assert chain.boundaries() == [0.0, 2.0, 5.0]

    def test_chain_must_start_at_zero(self):
        workload = plain_workload([1.0, 2.0])
        with pytest.raises(ChainError):
            ChainSpec(workload, [SliceSpec(1.0, 2.0, (2.0,))])

    def test_chain_must_be_contiguous(self):
        workload = plain_workload([1.0, 3.0])
        with pytest.raises(ChainError):
            ChainSpec(
                workload,
                [SliceSpec(0.0, 1.0, (1.0,)), SliceSpec(2.0, 3.0, (3.0,))],
            )

    def test_chain_must_cover_all_windows(self):
        workload = plain_workload([1.0, 2.0, 3.0])
        with pytest.raises(ChainError):
            ChainSpec(
                workload,
                [SliceSpec(0.0, 1.0, (1.0,)), SliceSpec(1.0, 3.0, (3.0,))],
            )

    def test_chain_must_end_at_largest_window(self):
        workload = plain_workload([1.0, 2.0])
        with pytest.raises(ChainError):
            ChainSpec(workload, [SliceSpec(0.0, 1.0, (1.0,))])

    def test_query_slice_mapping(self):
        workload = plain_workload([1.0, 2.0, 4.0])
        chain = build_mem_opt_chain(workload)
        assert chain.slice_for_window(2.0) == 1
        assert [q.name for q in chain.queries_completing_in(0)] == ["Q1"]
        assert [q.name for q in chain.queries_tapping(2)] == ["Q3"]
        with pytest.raises(ChainError):
            chain.slice_for_window(9.0)

    def test_describe_lists_slices(self):
        chain = build_mem_opt_chain(plain_workload([1.0, 2.0]))
        assert "J1" in chain.describe()


class TestSliceCosts:
    def test_memory_cost_reflects_pushed_selection(self):
        workload = build_workload(
            [1.0, 3.0], join_selectivity=0.1, filter_selectivities=[1.0, 0.5]
        )
        params = ChainCostParameters(arrival_rate_left=10, arrival_rate_right=10)
        first = slice_memory_cost(workload, SliceSpec(0.0, 1.0, (1.0,)), params)
        second = slice_memory_cost(workload, SliceSpec(1.0, 3.0, (3.0,)), params)
        # First slice: both streams unfiltered (10+10 tuples per second * 1 s).
        assert first == pytest.approx(20.0)
        # Second slice: left stream filtered to 50%, window range 2 s.
        assert second == pytest.approx((10 * 0.5 + 10) * 2.0)

    def test_cpu_cost_components(self):
        workload = plain_workload([1.0, 2.0])
        params = ChainCostParameters(arrival_rate_left=10, arrival_rate_right=10,
                                     system_overhead=0.0)
        merged = slice_cpu_cost(workload, SliceSpec(0.0, 2.0, (1.0, 2.0)), params)
        exact = slice_cpu_cost(workload, SliceSpec(0.0, 1.0, (1.0,)), params)
        assert merged.route > 0  # the merged slice must re-route by window
        assert exact.route == 0
        assert merged.probe > exact.probe
        assert merged.total > 0

    def test_chain_totals_are_sums(self):
        workload = plain_workload([1.0, 2.0])
        params = ChainCostParameters(arrival_rate_left=10, arrival_rate_right=10)
        chain = build_mem_opt_chain(workload)
        total_cpu = chain_cpu_cost(chain, params)
        total_memory = chain_memory_cost(chain, params)
        assert total_cpu == pytest.approx(
            sum(slice_cpu_cost(workload, s, params).total for s in chain.slices)
        )
        assert total_memory == pytest.approx(
            sum(slice_memory_cost(workload, s, params) for s in chain.slices)
        )

    def test_parameter_validation(self):
        with pytest.raises(ChainError):
            ChainCostParameters(arrival_rate_left=0)
        with pytest.raises(ChainError):
            ChainCostParameters(system_overhead=-1)


class TestMergeGraph:
    def test_edges_enumerate_merged_slices(self):
        workload = plain_workload([1.0, 2.0, 3.0])
        graph = MergeGraph(workload, ChainCostParameters())
        assert graph.node_count == 4
        edge = graph.edge_slice(0, 2)
        assert (edge.start, edge.end) == (0.0, 2.0)
        assert edge.covered_windows == (1.0, 2.0)
        with pytest.raises(ChainError):
            graph.edge_slice(2, 2)

    def test_chain_from_path_roundtrip(self):
        workload = plain_workload([1.0, 2.0, 3.0])
        graph = MergeGraph(workload, ChainCostParameters())
        chain = graph.chain_from_path([0, 2, 3])
        assert [s.end for s in chain.slices] == [2.0, 3.0]
        with pytest.raises(ChainError):
            graph.chain_from_path([0, 2])

    def test_path_cost_equals_sum_of_edges(self):
        workload = plain_workload([1.0, 2.0, 3.0])
        graph = MergeGraph(workload, ChainCostParameters())
        assert graph.path_cost([0, 1, 3]) == pytest.approx(
            graph.edge_cost(0, 1) + graph.edge_cost(1, 3)
        )


class TestCpuOptChain:
    def test_dijkstra_matches_brute_force_on_small_workloads(self):
        params = ChainCostParameters(
            arrival_rate_left=40, arrival_rate_right=40, system_overhead=1.0
        )
        for windows in ([1.0, 2.0, 3.0], [0.5, 0.6, 0.7, 5.0], [1.0, 1.5, 2.0, 2.5, 3.0]):
            workload = plain_workload(windows)
            fast = build_cpu_opt_chain(workload, params)
            exhaustive = brute_force_cpu_opt_chain(workload, params)
            graph = MergeGraph(workload, params)
            fast_cost = sum(
                graph.edge_cost(
                    graph.boundaries.index(s.start), graph.boundaries.index(s.end)
                )
                for s in fast.slices
            )
            brute_cost = sum(
                graph.edge_cost(
                    graph.boundaries.index(s.start), graph.boundaries.index(s.end)
                )
                for s in exhaustive.slices
            )
            assert fast_cost == pytest.approx(brute_cost)

    def test_skewed_windows_get_merged(self):
        """Clustered windows with high system overhead should be merged."""
        workload = multi_query_workload("small-large", query_count=12)
        params = ChainCostParameters(
            arrival_rate_left=60, arrival_rate_right=60, system_overhead=4.0
        )
        cpu_opt = build_cpu_opt_chain(workload, params)
        mem_opt = build_mem_opt_chain(workload)
        assert len(cpu_opt) < len(mem_opt)

    def test_cpu_opt_never_costs_more_than_mem_opt(self):
        params = ChainCostParameters(
            arrival_rate_left=50, arrival_rate_right=50, system_overhead=0.5
        )
        for distribution in ("uniform", "mostly-small", "small-large"):
            workload = multi_query_workload(distribution, query_count=12)
            cpu_opt = build_cpu_opt_chain(workload, params)
            mem_opt = build_mem_opt_chain(workload)
            assert chain_cpu_cost(cpu_opt, params) <= chain_cpu_cost(mem_opt, params) + 1e-9

    def test_mem_opt_never_uses_more_memory_than_cpu_opt(self):
        params = ChainCostParameters(
            arrival_rate_left=50, arrival_rate_right=50, system_overhead=1.0
        )
        workload = build_workload(
            [1.0, 2.0, 4.0], join_selectivity=0.1, filter_selectivities=[1.0, 0.4, 0.4]
        )
        cpu_opt = build_cpu_opt_chain(workload, params)
        mem_opt = build_mem_opt_chain(workload)
        assert chain_memory_cost(mem_opt, params) <= chain_memory_cost(cpu_opt, params) + 1e-9

    def test_enumerate_chains_counts_all_partitions(self):
        workload = plain_workload([1.0, 2.0, 3.0, 4.0])
        chains = enumerate_chains(workload, ChainCostParameters())
        assert len(chains) == 2 ** 3

    def test_shortest_path_returns_full_path(self):
        workload = plain_workload([1.0, 2.0])
        graph = MergeGraph(workload, ChainCostParameters())
        path = shortest_path(graph)
        assert path[0] == 0 and path[-1] == graph.node_count - 1

    def test_single_query_chain_is_one_slice(self):
        workload = plain_workload([2.0])
        assert len(build_cpu_opt_chain(workload)) == 1
        assert len(build_mem_opt_chain(workload)) == 1
