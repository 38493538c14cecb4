"""Evaluation harness regenerating every figure and table of the paper."""

from repro.experiments.analytical import figure_11a, figure_11b, figure_11c
from repro.experiments.config import (
    FILTER_SELECTIVITIES,
    JOIN_SELECTIVITIES,
    STREAM_RATES,
    ExperimentConfig,
    default_multi_query_config,
    default_three_query_config,
)
from repro.experiments.figures import FIGURES, Point, run_panel
from repro.experiments.harness import (
    STRATEGIES,
    StrategyResult,
    build_plan,
    compare_strategies,
    make_stream_data,
    make_workload,
    run_strategy,
)
from repro.experiments.report import (
    format_points,
    format_table,
    format_trace,
)
from repro.experiments.traces import PAPER_TABLE_2, table_2_full_outputs, table_2_trace

__all__ = [
    "figure_11a",
    "figure_11b",
    "figure_11c",
    "FIGURES",
    "Point",
    "run_panel",
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
    "format_table",
    "format_points",
    "format_trace",
    "PAPER_TABLE_2",
    "table_2_trace",
    "table_2_full_outputs",
]
