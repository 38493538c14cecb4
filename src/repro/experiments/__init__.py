"""Evaluation harness regenerating every figure and table of the paper."""

from repro.experiments.analytical import figure_11a, figure_11b, figure_11c
from repro.experiments.chain_study import FIGURE_19_PANELS, chain_shapes, figure_19
from repro.experiments.config import (
    FILTER_SELECTIVITIES,
    JOIN_SELECTIVITIES,
    STREAM_RATES,
    ExperimentConfig,
    default_multi_query_config,
    default_three_query_config,
)
from repro.experiments.cpu_study import FIGURE_18_PANELS, figure_18
from repro.experiments.harness import (
    STRATEGIES,
    StrategyResult,
    build_plan,
    compare_strategies,
    make_stream_data,
    make_workload,
    run_strategy,
    sweep_rates,
)
from repro.experiments.memory_study import FIGURE_17_PANELS, figure_17
from repro.experiments.report import (
    format_chain_points,
    format_memory_points,
    format_service_rate_points,
    format_table,
    format_trace,
)
from repro.experiments.traces import PAPER_TABLE_2, table_2_full_outputs, table_2_trace

__all__ = [
    "figure_11a",
    "figure_11b",
    "figure_11c",
    "figure_17",
    "figure_18",
    "figure_19",
    "FIGURE_17_PANELS",
    "FIGURE_18_PANELS",
    "FIGURE_19_PANELS",
    "chain_shapes",
    "ExperimentConfig",
    "STREAM_RATES",
    "FILTER_SELECTIVITIES",
    "JOIN_SELECTIVITIES",
    "default_three_query_config",
    "default_multi_query_config",
    "STRATEGIES",
    "StrategyResult",
    "build_plan",
    "compare_strategies",
    "make_stream_data",
    "make_workload",
    "run_strategy",
    "sweep_rates",
    "format_table",
    "format_memory_points",
    "format_service_rate_points",
    "format_chain_points",
    "format_trace",
    "PAPER_TABLE_2",
    "table_2_trace",
    "table_2_full_outputs",
]
