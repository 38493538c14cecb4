"""Figure 17 — state memory comparison of the sharing strategies.

The paper's Figure 17 plots, for the three-query workload of Section 7.2,
the number of tuples resident in join states against the stream input rate
(20-80 tuples/s) for:

* selection pull-up,
* the state-slice chain (Mem-Opt),
* selection push-down,

over six parameter settings:

=====  ================  =====  =======
panel  window dist.       S1     Sσ
=====  ================  =====  =======
(a)    mostly-small      0.1    0.5
(b)    uniform           0.1    0.5
(c)    mostly-large      0.1    0.5
(d)    uniform           0.025  0.2
(e)    uniform           0.025  0.5
(f)    uniform           0.025  0.8
=====  ================  =====  =======
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import STREAM_RATES, ExperimentConfig, default_three_query_config
from repro.experiments.harness import compare_strategies

__all__ = ["FIGURE_17_PANELS", "MemoryPoint", "run_panel"]

#: Panel name -> (window distribution, join selectivity, filter selectivity).
FIGURE_17_PANELS: dict[str, tuple[str, float, float]] = {
    "a": ("mostly-small", 0.1, 0.5),
    "b": ("uniform", 0.1, 0.5),
    "c": ("mostly-large", 0.1, 0.5),
    "d": ("uniform", 0.025, 0.2),
    "e": ("uniform", 0.025, 0.5),
    "f": ("uniform", 0.025, 0.8),
}

#: Strategies plotted by Figure 17, in the paper's legend order.
FIGURE_17_STRATEGIES = ("selection-pullup", "state-slice", "selection-pushdown")


@dataclass(frozen=True)
class MemoryPoint:
    """One point of a Figure 17 curve: tuples in state at a given rate."""

    panel: str
    strategy: str
    rate: float
    memory_tuples: float


def panel_config(panel: str, time_scale: float = 0.1) -> ExperimentConfig:
    windows, join_selectivity, filter_selectivity = FIGURE_17_PANELS[panel]
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
) -> list[MemoryPoint]:
    """Regenerate one panel of Figure 17."""
    base = panel_config(panel, time_scale=time_scale)
    points = []
    for rate in rates:
        results = compare_strategies(base.with_rate(rate), FIGURE_17_STRATEGIES)
        for strategy, result in results.items():
            points.append(
                MemoryPoint(
                    panel=panel,
                    strategy=strategy,
                    rate=rate,
                    memory_tuples=result.memory,
                )
            )
    return points
