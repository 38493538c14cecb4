"""Adaptive re-optimization of a live stream session.

:class:`AdaptivePolicy` closes the loop the paper leaves open: the CPU-Opt
chain search (Sections 5.2/6.2) assumes known arrival rates and
selectivities, while a running :class:`~repro.runtime.engine.StreamEngine`
*measures* those quantities continuously.  The policy watches windowed
counter deltas (two :meth:`~repro.engine.metrics.MetricsCollector.snapshot`
values per estimation window — nothing is ever reset), turns each window
into a :class:`~repro.core.statistics.StreamStatistics` estimate, and
triggers :meth:`~repro.runtime.engine.StreamEngine.rebalance` — which also
re-derives the shared selection push-down — when the observed statistics
drift away from the ones the current chain was optimized for.

Stability is engineered in three layers so that steady load never migrates:

* **drift threshold** — an estimate must move by more than
  ``drift_threshold`` (relative) from the baseline statistics before it
  counts as drift at all;
* **hysteresis** — ``hysteresis`` *consecutive* drifted windows are
  required; a single noisy window resets the streak;
* **cooldown** — after a rebalance, no further rebalance fires for
  ``cooldown`` stream-seconds, bounding the migration frequency under
  sustained oscillation.

Count-window sessions keep the Mem-Opt chain by construction (merged rank
slices cannot be re-split at routing time), so on a
:class:`~repro.runtime.engine.CountStreamEngine` the policy still estimates
statistics and records drift, but re-baselines instead of migrating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.statistics import StreamStatistics
from repro.engine.metrics import MetricsSnapshot, append_bounded

__all__ = ["AdaptivePolicy", "PolicyEvent"]


@dataclass(frozen=True)
class PolicyEvent:
    """One decision of the adaptive policy (for observability and tests).

    ``kind`` is one of:

    * ``"estimate"`` — an estimation window closed without action;
    * ``"calibrate"`` — the first estimate became the baseline (and, for
      time sessions with ``calibrate_first``, re-optimized the chain);
    * ``"rebalance"`` — drift exceeded the threshold for ``hysteresis``
      windows outside the cooldown and the chain was migrated;
    * ``"recalibrate"`` — same trigger on a count-window session, which
      re-baselines without migrating.
    """

    kind: str
    timestamp: float
    drift: float
    statistics: StreamStatistics
    boundaries: tuple = ()


class AdaptivePolicy:
    """Watches a live engine's statistics and re-optimizes its chain.

    Parameters
    ----------
    window:
        Length of one estimation window in stream-seconds.
    drift_threshold:
        Relative change (of any arrival rate, the join factor, or a
        selection selectivity) vs the baseline statistics that counts as
        drift.
    cooldown:
        Minimum stream-seconds between two rebalances.
    hysteresis:
        Number of consecutive drifted windows required before acting.
    min_arrivals:
        Estimation windows backed by fewer arrivals are discarded (too
        noisy to act on).
    system_overhead / tuple_size:
        Cost-model constants (``Csys``, ``Mt``) forwarded to
        :meth:`StreamStatistics.chain_parameters` — the quantities the
        stream cannot measure about the host system.
    calibrate_first:
        When True (default), the first valid estimate immediately
        re-optimizes the chain (deployment-time calibration).  A chain that
        is already optimal for the measured load performs no migration.
    smoothing:
        Exponential weight of each new window in the running estimate
        (:meth:`StreamStatistics.blend`); smoothing shrinks single-window
        sampling noise so it cannot masquerade as drift.  1.0 disables
        smoothing (each window judged alone).
    """

    def __init__(
        self,
        window: float = 2.0,
        drift_threshold: float = 0.25,
        cooldown: float = 6.0,
        hysteresis: int = 2,
        min_arrivals: int = 64,
        system_overhead: float = 0.5,
        tuple_size: float = 1.0,
        calibrate_first: bool = True,
        smoothing: float = 0.5,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if drift_threshold <= 0:
            raise ValueError(f"drift_threshold must be positive, got {drift_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be at least 1, got {hysteresis}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must lie in (0, 1], got {smoothing}")
        self.smoothing = float(smoothing)
        self.window = float(window)
        self.drift_threshold = float(drift_threshold)
        self.cooldown = float(cooldown)
        self.hysteresis = int(hysteresis)
        self.min_arrivals = int(min_arrivals)
        self.system_overhead = float(system_overhead)
        self.tuple_size = float(tuple_size)
        self.calibrate_first = calibrate_first
        #: The newest :data:`~repro.engine.metrics.LOG_LIMIT` of each: one
        #: entry per estimation window would otherwise accumulate forever.
        self.events: list[PolicyEvent] = []
        self.estimates: list[StreamStatistics] = []
        self.rebalances = 0
        self.baseline: StreamStatistics | None = None
        self.smoothed: StreamStatistics | None = None
        self._window_start: float | None = None
        self._start_snapshot: MetricsSnapshot | None = None
        self._streak = 0
        self._last_rebalance: float | None = None

    # -- engine callback ------------------------------------------------------
    def on_batch(self, engine, now: float) -> None:
        """Called by the engine after every processed batch.

        ``now`` is the stream timestamp of the batch's last arrival; all
        policy timing (windows, cooldown) runs on stream time, so behaviour
        is deterministic and independent of wall-clock speed.
        """
        if self._window_start is None:
            self._window_start = now
            self._start_snapshot = engine.metrics.snapshot()
            return
        if now - self._window_start < self.window:
            return
        after = engine.metrics.snapshot()
        assert self._start_snapshot is not None
        estimate = StreamStatistics.from_metrics_window(
            self._start_snapshot,
            after,
            left_stream=engine.left_stream,
            right_stream=engine.right_stream,
        )
        self._window_start = now
        self._start_snapshot = after
        if estimate.sample_arrivals < self.min_arrivals:
            return
        if (
            engine.left_stream not in estimate.arrival_rates
            or engine.right_stream not in estimate.arrival_rates
        ):
            # A window that saw only one stream (late producer, burst) cannot
            # parameterize the cost model; wait for a complete window.
            return
        append_bounded(self.estimates, estimate)
        self.smoothed = (
            estimate
            if self.smoothed is None
            else self.smoothed.blend(estimate, self.smoothing)
        )
        estimate = self.smoothed
        if self.baseline is None:
            self.baseline = estimate
            if self.calibrate_first:
                self._apply(engine, estimate, now, drift=0.0, kind="calibrate")
            else:
                append_bounded(self.events, PolicyEvent("calibrate", now, 0.0, estimate))
            return
        drift = estimate.drift(self.baseline)
        if drift <= self.drift_threshold:
            self._streak = 0
            append_bounded(self.events, PolicyEvent("estimate", now, drift, estimate))
            return
        self._streak += 1
        if self._streak < self.hysteresis:
            append_bounded(self.events, PolicyEvent("estimate", now, drift, estimate))
            return
        if (
            self._last_rebalance is not None
            and now - self._last_rebalance < self.cooldown
        ):
            append_bounded(self.events, PolicyEvent("estimate", now, drift, estimate))
            return
        self._apply(engine, estimate, now, drift)

    # -- internals ------------------------------------------------------------
    def _apply(
        self,
        engine,
        estimate: StreamStatistics,
        now: float,
        drift: float,
        kind: str = "rebalance",
    ) -> None:
        self._streak = 0
        self.baseline = estimate
        self._last_rebalance = now
        if engine.chain_class.rebalance_refusal is not None:
            # Count-window sessions keep the Mem-Opt chain; re-baselining is
            # the whole adaptation.  The first baseline is still a
            # "calibrate" event; only drift-triggered ones are recalibrations.
            count_kind = "calibrate" if kind == "calibrate" else "recalibrate"
            append_bounded(self.events, PolicyEvent(count_kind, now, drift, estimate))
            return
        params = estimate.chain_parameters(
            system_overhead=self.system_overhead, tuple_size=self.tuple_size
        )
        boundaries = engine.rebalance(params, statistics=estimate)
        if kind == "rebalance":
            self.rebalances += 1
        append_bounded(
            self.events,
            PolicyEvent(kind, now, drift, estimate, boundaries=tuple(boundaries)),
        )

    def describe(self) -> str:
        """One-line summary: tuning, calibration state and rebalance count."""
        state = (
            f"baseline={self.baseline.describe()}"
            if self.baseline is not None
            else "uncalibrated"
        )
        return (
            f"AdaptivePolicy(window={self.window:g}s, "
            f"threshold={self.drift_threshold:.0%}, cooldown={self.cooldown:g}s, "
            f"hysteresis={self.hysteresis}) {state}, "
            f"{self.rebalances} rebalance(s)"
        )
