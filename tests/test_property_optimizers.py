"""Property-based tests for the analytical cost model and the chain
optimizers (Equations 1-4, Sections 5.1-5.2)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.cost_model import (
    TwoQuerySettings,
    selection_pullup_cost,
    selection_pushdown_cost,
    state_slice_cost,
    state_slice_savings,
)
from repro.core.cpu_opt import brute_force_cpu_opt_chain, build_cpu_opt_chain
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.merge_graph import ChainCostParameters, chain_cpu_cost, chain_memory_cost
from repro.core.plan_builder import build_state_slice_plan
from repro.query.workload import build_workload

settings_strategy = st.builds(
    TwoQuerySettings,
    arrival_rate=st.floats(min_value=1.0, max_value=500.0),
    window_small=st.floats(min_value=0.1, max_value=49.9),
    window_large=st.floats(min_value=50.0, max_value=5000.0),
    tuple_size=st.floats(min_value=0.1, max_value=10.0),
    filter_selectivity=st.floats(min_value=0.01, max_value=1.0),
    join_selectivity=st.floats(min_value=0.001, max_value=1.0),
)

window_sets = st.lists(
    st.floats(min_value=0.2, max_value=30.0, allow_nan=False),
    min_size=1,
    max_size=6,
    unique=True,
)

cost_params = st.builds(
    ChainCostParameters,
    arrival_rate_left=st.floats(min_value=1.0, max_value=200.0),
    arrival_rate_right=st.floats(min_value=1.0, max_value=200.0),
    system_overhead=st.floats(min_value=0.0, max_value=5.0),
)


class TestCostModelProperties:
    @settings(max_examples=200, deadline=None)
    @given(s=settings_strategy)
    def test_equation_4_savings_are_never_negative(self, s):
        savings = state_slice_savings(s)
        assert savings.memory_vs_pullup >= -1e-9
        assert savings.memory_vs_pushdown >= -1e-9
        assert savings.cpu_vs_pullup >= -1e-9
        assert savings.cpu_vs_pushdown >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(s=settings_strategy)
    def test_state_slice_memory_never_exceeds_either_baseline(self, s):
        sliced = state_slice_cost(s)
        assert sliced.memory <= selection_pullup_cost(s).memory + 1e-6
        assert sliced.memory <= selection_pushdown_cost(s).memory + 1e-6

    @settings(max_examples=200, deadline=None)
    @given(s=settings_strategy)
    def test_state_slice_cpu_dominates_up_to_lambda_order_terms(self, s):
        """CPU dominance holds modulo the O(λ) bookkeeping terms.

        The paper's Equation 4 drops the λ-order purge/split/union terms
        ("its effect is small"); the quadratic λ²-order probing and routing
        terms — the ones that matter — must favour the state-slice chain.
        """
        slack = 7 * s.arrival_rate
        sliced = state_slice_cost(s)
        assert sliced.cpu <= selection_pullup_cost(s).cpu + slack
        assert sliced.cpu <= selection_pushdown_cost(s).cpu + slack

    @settings(max_examples=100, deadline=None)
    @given(s=settings_strategy)
    def test_memory_savings_match_direct_ratio_exactly(self, s):
        savings = state_slice_savings(s)
        pullup = selection_pullup_cost(s)
        sliced = state_slice_cost(s)
        direct = (pullup.memory - sliced.memory) / pullup.memory
        assert abs(savings.memory_vs_pullup - direct) < 1e-9


class TestOptimizerProperties:
    @settings(max_examples=25, deadline=None)
    @given(windows=window_sets, params=cost_params)
    def test_dijkstra_cost_equals_brute_force_cost(self, windows, params):
        workload = build_workload(sorted(windows), 0.1)
        fast = build_cpu_opt_chain(workload, params)
        exhaustive = brute_force_cpu_opt_chain(workload, params)
        assert chain_cpu_cost(fast, params) <= chain_cpu_cost(exhaustive, params) + 1e-9
        assert chain_cpu_cost(exhaustive, params) <= chain_cpu_cost(fast, params) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(windows=window_sets, params=cost_params)
    def test_mem_opt_chain_minimises_analytical_memory(self, windows, params):
        filter_selectivities = [1.0] + [0.5] * (len(windows) - 1)
        workload = build_workload(
            sorted(windows),
            join_selectivity=0.1,
            filter_selectivities=filter_selectivities,
        )
        mem_opt = build_mem_opt_chain(workload)
        cpu_opt = build_cpu_opt_chain(workload, params)
        assert chain_memory_cost(mem_opt, params) <= chain_memory_cost(cpu_opt, params) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(windows=window_sets, params=cost_params)
    def test_cpu_opt_chain_never_worse_than_mem_opt(self, windows, params):
        workload = build_workload(sorted(windows), 0.05)
        mem_opt = build_mem_opt_chain(workload)
        cpu_opt = build_cpu_opt_chain(workload, params)
        assert chain_cpu_cost(cpu_opt, params) <= chain_cpu_cost(mem_opt, params) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(windows=window_sets)
    def test_every_chain_yields_a_buildable_plan(self, windows):
        workload = build_workload(sorted(windows), 0.1)
        chain = build_mem_opt_chain(workload)
        plan = build_state_slice_plan(workload, chain=chain)
        plan.validate()
        assert set(plan.output_names()) == set(workload.names())
