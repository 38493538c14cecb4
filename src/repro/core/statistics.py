"""Per-stream arrival rates of a session, from snapshot windows.

:class:`StreamStatistics` holds the arrival rate λ of each input stream —
declared by the caller, or estimated by
:meth:`StreamStatistics.from_metrics_window` from the *difference of two
collector snapshots* (:meth:`~repro.engine.metrics.MetricsCollector.snapshot`
/ :meth:`~repro.engine.metrics.MetricsSnapshot.diff`): per-stream ingest
deltas over elapsed stream time.  A sharded session folds its per-shard
windows into one global estimate (:meth:`StreamStatistics.from_shard_windows`),
which is what :class:`~repro.runtime.shard_planner.ShardPlanner` sizes the
session from and what ``repro runtime --stats`` prints.

The chain searches of Sections 5-7 are not fed from here: they price static
plans from declared :class:`~repro.core.merge_graph.ChainCostParameters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.engine.errors import ConfigurationError
from repro.engine.metrics import MetricsSnapshot

__all__ = ["StreamStatistics"]


@dataclass(frozen=True)
class StreamStatistics:
    """Arrival rates of one session's stream pair.

    Parameters
    ----------
    arrival_rates:
        λ per stream name, tuples per stream-second.
    left_stream / right_stream:
        Names of the stream pair the statistics describe.
    sample_arrivals:
        Arrivals backing the estimate (0 marks a declared prior).
    window:
        Stream-seconds spanned by the estimation window (0 for priors).
    """

    arrival_rates: Mapping[str, float] = field(default_factory=dict)
    left_stream: str = "A"
    right_stream: str = "B"
    sample_arrivals: int = 0
    window: float = 0.0

    def __post_init__(self) -> None:
        for stream, rate in self.arrival_rates.items():
            if rate <= 0:
                raise ConfigurationError(
                    f"arrival rate of stream {stream!r} must be positive, got {rate}"
                )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_metrics_window(
        cls,
        before: MetricsSnapshot,
        after: MetricsSnapshot,
        left_stream: str = "A",
        right_stream: str = "B",
    ) -> "StreamStatistics":
        """Estimate statistics from the counter deltas of one stream window.

        ``before``/``after`` are two
        :meth:`~repro.engine.metrics.MetricsCollector.snapshot` values taken
        around the window; nothing is reset in between.  A stream without
        evidence in the window (zero elapsed time, zero arrivals) is simply
        omitted from the estimate.
        """
        return cls.from_metrics_delta(
            after.diff(before), left_stream=left_stream, right_stream=right_stream
        )

    @classmethod
    def from_metrics_delta(
        cls,
        delta: MetricsSnapshot,
        left_stream: str = "A",
        right_stream: str = "B",
    ) -> "StreamStatistics":
        """Estimate statistics from an already-computed counter delta.

        ``delta`` is a :meth:`~repro.engine.metrics.MetricsSnapshot.diff`
        window — or several such windows folded together with
        :meth:`~repro.engine.metrics.MetricsSnapshot.aggregate`, which is how
        a sharded session merges its per-shard observations into one global
        estimate (all shards share the stream clock, so the aggregated
        ``time.elapsed`` stays the window span while the counters sum).
        """
        elapsed = delta.get("time.elapsed", 0.0)
        rates: dict[str, float] = {}
        if elapsed > 0:
            for stream in (left_stream, right_stream):
                ingested = delta.get(f"ingested.{stream}", 0.0)
                if ingested > 0:
                    rates[stream] = ingested / elapsed
        return cls(
            arrival_rates=rates,
            left_stream=left_stream,
            right_stream=right_stream,
            sample_arrivals=int(delta.get("ingested.total", 0.0)),
            window=max(0.0, elapsed),
        )

    @classmethod
    def from_shard_windows(
        cls,
        windows: "Sequence[tuple[MetricsSnapshot, MetricsSnapshot]]",
        left_stream: str = "A",
        right_stream: str = "B",
    ) -> "StreamStatistics":
        """One global estimate from per-shard ``(before, after)`` snapshots.

        The per-shard diffs are aggregated (counters summed, time axis
        max'ed — see :meth:`MetricsSnapshot.aggregate`) before estimation, so
        the arrival rates describe the whole partitioned session: this is the
        merged view a :class:`~repro.runtime.sharding.ShardPlanner` consumes.
        """
        if not windows:
            raise ConfigurationError("from_shard_windows needs at least one window")
        merged = MetricsSnapshot.aggregate(
            after.diff(before) for before, after in windows
        )
        return cls.from_metrics_delta(
            merged, left_stream=left_stream, right_stream=right_stream
        )

    # -- lookups --------------------------------------------------------------
    def rate(self, stream: str, default: float | None = None) -> float:
        """Arrival rate of ``stream``; raises unless a default is supplied."""
        try:
            return self.arrival_rates[stream]
        except KeyError:
            if default is not None:
                return default
            raise ConfigurationError(
                f"no arrival rate measured for stream {stream!r}; "
                f"known streams: {sorted(self.arrival_rates)}"
            ) from None

    @property
    def is_estimate(self) -> bool:
        """True when the statistics come from observation, not declaration."""
        return self.sample_arrivals > 0

    def describe(self) -> str:
        rates = ", ".join(
            f"λ({stream})={rate:.3g}/s"
            for stream, rate in sorted(self.arrival_rates.items())
        )
        origin = (
            f"measured over {self.window:.3g}s/{self.sample_arrivals} arrivals"
            if self.is_estimate
            else "declared prior"
        )
        return f"StreamStatistics[{rates or 'no rates'}] ({origin})"
