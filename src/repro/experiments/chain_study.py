"""Figure 19 — Mem-Opt vs CPU-Opt chains.

Section 7.3 compares the service rate of the Mem-Opt chain against the
CPU-Opt chain (built by merging slices with the Section 5.2 shortest-path
algorithm) for query sets without selections:

=====  ================  =========
panel  window dist.      queries
=====  ================  =========
(a)    uniform           12
(b)    mostly-small      12
(c)    small-large       12
(d)    small-large       24
(e)    small-large       36
=====  ================  =========

Join selectivity is 0.025 and the stream rate sweeps 20-80 tuples/s.  For
uniform windows the CPU-Opt chain equals the Mem-Opt chain; the more skewed
the windows, and the more queries, the more slices CPU-Opt merges and the
larger its advantage — those are the reproduced properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cpu_opt import build_cpu_opt_chain
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.merge_graph import ChainCostParameters
from repro.experiments.config import STREAM_RATES, ExperimentConfig, default_multi_query_config
from repro.experiments.harness import compare_strategies, make_workload

__all__ = ["FIGURE_19_PANELS", "ChainPoint", "run_panel", "chain_shapes"]

#: Panel name -> (window distribution, query count).
FIGURE_19_PANELS: dict[str, tuple[str, int]] = {
    "a": ("uniform", 12),
    "b": ("mostly-small", 12),
    "c": ("small-large", 12),
    "d": ("small-large", 24),
    "e": ("small-large", 36),
}

FIGURE_19_STRATEGIES = ("state-slice-mem-opt", "state-slice-cpu-opt")


@dataclass(frozen=True)
class ChainPoint:
    """One point of a Figure 19 curve."""

    panel: str
    strategy: str
    rate: float
    service_rate: float
    cpu_comparisons: float
    slice_count: int


def panel_config(panel: str, time_scale: float = 0.05) -> ExperimentConfig:
    windows, query_count = FIGURE_19_PANELS[panel]
    return default_multi_query_config(
        window_distribution=windows, query_count=query_count, time_scale=time_scale
    )


def chain_shapes(panel: str, rate: float = 40.0, time_scale: float = 0.05) -> dict[str, int]:
    """Number of slices of the Mem-Opt and CPU-Opt chains for a panel."""
    config = panel_config(panel, time_scale=time_scale).with_rate(rate)
    workload = make_workload(config)
    params = ChainCostParameters(
        arrival_rate_left=config.rate,
        arrival_rate_right=config.rate,
        system_overhead=config.system_overhead,
    )
    return {
        "mem_opt_slices": len(build_mem_opt_chain(workload)),
        "cpu_opt_slices": len(build_cpu_opt_chain(workload, params)),
    }


def run_panel(
    panel: str,
    rates: tuple[float, ...] = STREAM_RATES,
    time_scale: float = 0.05,
) -> list[ChainPoint]:
    """Regenerate one panel of Figure 19."""
    base = panel_config(panel, time_scale=time_scale)
    points = []
    for rate in rates:
        config = base.with_rate(rate)
        shapes = chain_shapes(panel, rate=rate, time_scale=time_scale)
        results = compare_strategies(config, FIGURE_19_STRATEGIES)
        for strategy, result in results.items():
            slice_count = (
                shapes["mem_opt_slices"]
                if strategy == "state-slice-mem-opt"
                else shapes["cpu_opt_slices"]
            )
            points.append(
                ChainPoint(
                    panel=panel,
                    strategy=strategy,
                    rate=rate,
                    service_rate=result.service_rate,
                    cpu_comparisons=result.cpu_cost,
                    slice_count=slice_count,
                )
            )
    return points
