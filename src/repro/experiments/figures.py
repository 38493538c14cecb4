"""Figures 17, 18 and 19 — the sharing strategies against the stream rate.

Section 7 runs one experiment design for all three figures: a set of
sharing strategies over stream rates of 20-80 tuples/s, for every row of a
panel table, all strategies of a data point reading the same generated
stream.  The figures differ only in the strategies and in the quantity
plotted.

**Figure 17** (Section 7.2) plots the tuples resident in join states of the
three-query workload for selection pull-up, the state-slice chain (Mem-Opt)
and selection push-down:

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

**Figure 18** plots the service rate of the same workload and strategies:

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

**Figure 19** (Section 7.3) plots the service rate of the Mem-Opt chain
against the CPU-Opt chain (built by merging slices with the Section 5.2
shortest-path algorithm) for query sets without selections, join
selectivity 0.025:

=====  ================  =========
panel  window dist.      queries
=====  ================  =========
(a)    uniform           12
(b)    mostly-small      12
(c)    small-large       12
(d)    small-large       24
(e)    small-large       36
=====  ================  =========

For uniform windows the CPU-Opt chain equals the Mem-Opt chain; the more
skewed the windows, and the more queries, the more slices CPU-Opt merges and
the larger its advantage — those are the reproduced properties.  A point
carries the slice count of the chain its strategy ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.config import (
    STREAM_RATES,
    ExperimentConfig,
    default_multi_query_config,
    default_three_query_config,
)
from repro.experiments.harness import compare_strategies

__all__ = ["Figure", "FIGURES", "Point", "run_panel"]

_THREE_QUERY = ("selection-pullup", "state-slice", "selection-pushdown")


@dataclass(frozen=True)
class Figure:
    """One figure of the design: its strategies (in the paper's legend
    order), its panel table, and what a point of it plots."""

    strategies: tuple[str, ...]
    #: Panel name -> the positional arguments of ``config`` before the time
    #: scale: (window distribution, S1, Sσ) or (window distribution, queries).
    panels: dict[str, tuple]
    config: Callable[..., ExperimentConfig]
    #: The :class:`Point` field plotted, and the digits it is printed with.
    plotted: str
    digits: int
    #: Whether the report names each strategy's chain length.
    shows_slices: bool = False
    #: The command line's panel and time scale when none is given.
    default_panel: str = "b"
    time_scale: float = 0.1


FIGURES: dict[int, Figure] = {
    17: Figure(
        _THREE_QUERY,
        {
            "a": ("mostly-small", 0.1, 0.5),
            "b": ("uniform", 0.1, 0.5),
            "c": ("mostly-large", 0.1, 0.5),
            "d": ("uniform", 0.025, 0.2),
            "e": ("uniform", 0.025, 0.5),
            "f": ("uniform", 0.025, 0.8),
        },
        default_three_query_config,
        plotted="memory_tuples",
        digits=1,
    ),
    18: Figure(
        _THREE_QUERY,
        {
            "a": ("mostly-small", 0.1, 0.5),
            "b": ("uniform", 0.1, 0.5),
            "c": ("mostly-large", 0.1, 0.5),
            "d": ("uniform", 0.025, 0.8),
            "e": ("uniform", 0.1, 0.8),
            "f": ("uniform", 0.4, 0.8),
        },
        default_three_query_config,
        plotted="service_rate",
        digits=5,
    ),
    19: Figure(
        ("state-slice-mem-opt", "state-slice-cpu-opt"),
        {
            "a": ("uniform", 12),
            "b": ("mostly-small", 12),
            "c": ("small-large", 12),
            "d": ("small-large", 24),
            "e": ("small-large", 36),
        },
        default_multi_query_config,
        plotted="service_rate",
        digits=5,
        shows_slices=True,
        default_panel="c",
        time_scale=0.04,
    ),
}


@dataclass(frozen=True)
class Point:
    """One strategy at one rate of one panel."""

    panel: str
    strategy: str
    rate: float
    memory_tuples: float
    service_rate: float
    cpu_comparisons: float
    outputs: int
    #: Slices of the chain the strategy ran (0 for a plan without one).
    slices: int


def run_panel(
    figure: int,
    panel: str,
    rates: tuple[float, ...] = STREAM_RATES,
    time_scale: float | None = None,
) -> list[Point]:
    """Regenerate one panel of a figure: every strategy at every rate."""
    spec = FIGURES[figure]
    base = spec.config(*spec.panels[panel], time_scale=time_scale or spec.time_scale)
    points = []
    for rate in rates:
        results = compare_strategies(base.with_rate(rate), spec.strategies)
        for strategy, result in results.items():
            points.append(
                Point(
                    panel=panel,
                    strategy=strategy,
                    rate=rate,
                    memory_tuples=result.memory,
                    service_rate=result.service_rate,
                    cpu_comparisons=result.cpu_cost,
                    outputs=result.output_count,
                    slices=result.slices,
                )
            )
    return points
