"""Figure 18 — service rate comparison of the sharing strategies.

The paper's Figure 18 plots the service rate (throughput per unit of
processing) of the three-query workload against the stream input rate for
the same three strategies as Figure 17, over six parameter settings:

=====  ================  =====  =======
panel  window dist.       S1     Sσ
=====  ================  =====  =======
(a)    mostly-small      0.1    0.5
(b)    uniform           0.1    0.5
(c)    mostly-large      0.1    0.5
(d)    uniform           0.025  0.8
(e)    uniform           0.1    0.8
(f)    uniform           0.4    0.8
=====  ================  =====  =======

Service rate here is output tuples per simulated CPU cost unit (see
:meth:`repro.engine.metrics.MetricsCollector.service_rate`); the relative
ordering and the growth of the gap with the input rate are the reproduced
properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import STREAM_RATES, ExperimentConfig, default_three_query_config
from repro.experiments.harness import compare_strategies

__all__ = ["FIGURE_18_PANELS", "ServiceRatePoint", "run_panel"]

#: Panel name -> (window distribution, join selectivity, filter selectivity).
FIGURE_18_PANELS: dict[str, tuple[str, float, float]] = {
    "a": ("mostly-small", 0.1, 0.5),
    "b": ("uniform", 0.1, 0.5),
    "c": ("mostly-large", 0.1, 0.5),
    "d": ("uniform", 0.025, 0.8),
    "e": ("uniform", 0.1, 0.8),
    "f": ("uniform", 0.4, 0.8),
}

FIGURE_18_STRATEGIES = ("selection-pullup", "state-slice", "selection-pushdown")


@dataclass(frozen=True)
class ServiceRatePoint:
    """One point of a Figure 18 curve."""

    panel: str
    strategy: str
    rate: float
    service_rate: float
    cpu_comparisons: float
    outputs: int


def panel_config(panel: str, time_scale: float = 0.1) -> ExperimentConfig:
    windows, join_selectivity, filter_selectivity = FIGURE_18_PANELS[panel]
    return default_three_query_config(
        window_distribution=windows,
        join_selectivity=join_selectivity,
        filter_selectivity=filter_selectivity,
        time_scale=time_scale,
    )


def run_panel(
    panel: str,
    rates: tuple[float, ...] = STREAM_RATES,
    time_scale: float = 0.1,
) -> list[ServiceRatePoint]:
    """Regenerate one panel of Figure 18."""
    base = panel_config(panel, time_scale=time_scale)
    points = []
    for rate in rates:
        results = compare_strategies(base.with_rate(rate), FIGURE_18_STRATEGIES)
        for strategy, result in results.items():
            points.append(
                ServiceRatePoint(
                    panel=panel,
                    strategy=strategy,
                    rate=rate,
                    service_rate=result.service_rate,
                    cpu_comparisons=result.cpu_cost,
                    outputs=result.output_count,
                )
            )
    return points
