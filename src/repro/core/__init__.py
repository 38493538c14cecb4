"""The paper's contribution: state-slice chains and their optimization."""

from repro.core.chain import SlicedJoinChain
from repro.core.chain_operators import OperatorJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.core.cost_model import (
    CostEstimate,
    Savings,
    TwoQuerySettings,
    savings_grid,
    selection_pullup_cost,
    selection_pushdown_cost,
    state_slice_cost,
    state_slice_savings,
)
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
    SliceCostBreakdown,
    chain_cpu_cost,
    chain_memory_cost,
    slice_cpu_cost,
    slice_memory_cost,
)
from repro.core.plan_builder import build_state_slice_plan
from repro.core.pushdown import (
    ResidualFilters,
    SliceFilters,
    pushed_filters,
    residual_filters,
)
from repro.core.slices import ChainSpec, SliceSpec
from repro.core.statistics import StreamStatistics

__all__ = [
    "SlicedJoinChain",
    "OperatorJoinChain",
    "CountSlicedJoinChain",
    "StreamStatistics",
    "TwoQuerySettings",
    "CostEstimate",
    "Savings",
    "selection_pullup_cost",
    "selection_pushdown_cost",
    "state_slice_cost",
    "state_slice_savings",
    "savings_grid",
    "build_mem_opt_chain",
    "build_cpu_opt_chain",
    "brute_force_cpu_opt_chain",
    "enumerate_chains",
    "shortest_path",
    "ChainCostParameters",
    "MergeGraph",
    "SliceCostBreakdown",
    "chain_cpu_cost",
    "chain_memory_cost",
    "slice_cpu_cost",
    "slice_memory_cost",
    "build_state_slice_plan",
    "pushed_filters",
    "residual_filters",
    "SliceFilters",
    "ResidualFilters",
    "ChainSpec",
    "SliceSpec",
]
