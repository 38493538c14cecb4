"""Experiment configurations.

The constants of the paper's evaluation (Tables 1, 3 and 4) and the
configuration dataclasses consumed by the experiment harness.

Scaling note
------------
The paper runs each experiment for 90 wall-clock seconds with windows of up
to 30 seconds at stream rates of 20-80 tuples/s on a 2.8 GHz JVM.  A
pure-Python nested-loop reproduction of the largest settings would need
minutes per data point, so the default configurations scale *time* down by
a common factor (``time_scale``, default 0.1): every window size and the
run duration are multiplied by it while the stream rates, selectivities and
query counts stay exactly as in the paper.  Scaling time uniformly scales
the expected state occupancy (λ·W) and the probing work (λ²·W) of every
strategy by the same factor, so the ratios between strategies — the shape
of every figure — are preserved, only the absolute tuple counts shrink.
``time_scale=1.0, duration=90.0`` is the unscaled setting for anyone willing
to wait.

The run duration defaults to ``duration_windows`` times the largest
(scaled) window so that every window fills and the steady-state tail is
long enough to average over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.errors import ConfigurationError
from repro.query.workload import window_distribution

__all__ = [
    "STREAM_RATES",
    "FILTER_SELECTIVITIES",
    "JOIN_SELECTIVITIES",
    "THREE_QUERY_WINDOW_NAMES",
    "MULTI_QUERY_WINDOW_NAMES",
    "ExperimentConfig",
    "default_three_query_config",
    "default_multi_query_config",
]

#: Stream input rates (tuples/second) swept by Figures 17, 18 and 19.
STREAM_RATES: tuple[int, ...] = (20, 40, 60, 80)

#: Selection selectivities Sσ of Table 3 (Low / Middle / High).
FILTER_SELECTIVITIES: tuple[float, ...] = (0.2, 0.5, 0.8)

#: Join selectivities S1 of Table 3 (Low / Middle / High).
JOIN_SELECTIVITIES: tuple[float, ...] = (0.025, 0.1, 0.4)

#: Window distribution names of Table 3 (three-query study).
THREE_QUERY_WINDOW_NAMES: tuple[str, ...] = ("mostly-small", "uniform", "mostly-large")

#: Window distribution names of Table 4 (multi-query study).
MULTI_QUERY_WINDOW_NAMES: tuple[str, ...] = ("uniform", "mostly-small", "small-large")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment data point.

    Attributes mirror the knobs of Section 7: the stream rate λ (same for
    both streams), the window distribution, the query count, the two
    selectivities, the time scale (see the module docstring), the run
    duration in simulated seconds (``None`` derives it from the largest
    scaled window) and the random seed.
    """

    rate: float = 40.0
    window_distribution: str = "uniform"
    query_count: int = 3
    join_selectivity: float = 0.1
    filter_selectivity: float = 0.5
    time_scale: float = 0.1
    duration: float | None = None
    duration_windows: float = 4.0
    seed: int = 7
    system_overhead: float = 0.25
    memory_sample_interval: int = 4

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.duration_windows <= 1:
            raise ConfigurationError("duration_windows must exceed 1")
        if self.query_count < 1:
            raise ConfigurationError("query_count must be at least 1")

    # -- derived settings ---------------------------------------------------
    def windows(self) -> tuple[float, ...]:
        """The query window sizes, scaled by ``time_scale``."""
        distribution = window_distribution(self.window_distribution, self.query_count)
        return tuple(round(w * self.time_scale, 9) for w in distribution.windows)

    @property
    def max_window(self) -> float:
        return max(self.windows())

    def effective_duration(self) -> float:
        """The run duration: explicit, or ``duration_windows`` × largest window."""
        if self.duration is not None:
            return self.duration
        return self.duration_windows * self.max_window

    # -- variations ------------------------------------------------------------
    def with_rate(self, rate: float) -> "ExperimentConfig":
        return replace(self, rate=rate)

    def label(self) -> str:
        return (
            f"{self.window_distribution}, {self.query_count} queries, "
            f"S1={self.join_selectivity:g}, Ssigma={self.filter_selectivity:g}, "
            f"rate={self.rate:g}/s, time_scale={self.time_scale:g}"
        )


def default_three_query_config(
    window_distribution: str = "uniform",
    join_selectivity: float = 0.1,
    filter_selectivity: float = 0.5,
    time_scale: float = 0.1,
) -> ExperimentConfig:
    """Scaled-down defaults for the three-query study (Figures 17 and 18)."""
    return ExperimentConfig(
        window_distribution=window_distribution,
        query_count=3,
        join_selectivity=join_selectivity,
        filter_selectivity=filter_selectivity,
        time_scale=time_scale,
    )


def default_multi_query_config(
    window_distribution: str = "small-large",
    query_count: int = 12,
    time_scale: float = 0.05,
) -> ExperimentConfig:
    """Scaled-down defaults for the multi-query study (Figure 19)."""
    return ExperimentConfig(
        window_distribution=window_distribution,
        query_count=query_count,
        join_selectivity=0.025,
        filter_selectivity=1.0,
        time_scale=time_scale,
    )
