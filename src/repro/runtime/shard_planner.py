"""Statistics-driven sizing of a sharded session: how many shards, and when.

:class:`ShardPlanner` closes the sizing loop from measured arrival rates
(:mod:`repro.core.statistics`): the per-shard metrics snapshots of a
:class:`~repro.runtime.sharding.ShardedStreamEngine` are aggregated into one
global :class:`~repro.core.statistics.StreamStatistics` view (counters
summed, stream clock max'ed), from which the planner picks a shard count for
the measured load, detects key skew from the per-shard ingest shares, and
decides when a live reshard is worth its migration.  It only reads the
session's public surface — no transport, no shard mode.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.statistics import StreamStatistics
from repro.engine.errors import ShardingError
from repro.engine.metrics import LOG_LIMIT, MetricsSnapshot

if TYPE_CHECKING:
    from repro.runtime.sharding import ReshardEvent, ShardedStreamEngine

__all__ = ["ReshardDecision", "ShardPlan", "ShardPlanner"]


@dataclass(frozen=True)
class ShardPlan:
    """One sizing decision of the :class:`ShardPlanner` (for observability)."""

    shards: int  #: Recommended shard count for the measured load.
    total_rate: float  #: Measured arrivals/second across both streams.
    imbalance: float  #: max/mean per-shard ingest share (1.0 = perfectly even).
    skewed: bool  #: True when the imbalance exceeds the planner's threshold.
    reason: str
    #: Modulus the skew shares were measured under — per-shard ingest
    #: counters only describe the shard count they were collected with, so
    #: after any reshard the imbalance is meaningless without this.
    measured_shards: int = 1

    def describe(self) -> str:
        """One-line human-readable form of this plan."""
        skew = f"skewed {self.imbalance:.2f}x" if self.skewed else (
            f"balanced ({self.imbalance:.2f}x)"
        )
        return (
            f"ShardPlan[{self.shards} shards for {self.total_rate:.3g}/s, "
            f"{skew} measured under modulus {self.measured_shards}]"
        )


@dataclass(frozen=True)
class ReshardDecision:
    """One verdict of :meth:`ShardPlanner.should_reshard` (for observability)."""

    reshard: bool  #: True when the session should move to ``target`` shards now.
    target: int  #: The shard count the decision is about.
    reason: str  #: Why (or why not) — hysteresis, cooldown, skew refusal, …
    plan: ShardPlan | None = None  #: The sizing plan behind the decision, if any.

    def describe(self) -> str:
        """One-line human-readable form of this decision."""
        verdict = f"reshard to {self.target}" if self.reshard else "hold"
        return f"ReshardDecision[{verdict}: {self.reason}]"


class ShardPlanner:
    """Statistics-driven sizing and live resizing of a sharded session.

    Parameters
    ----------
    max_shards:
        Upper bound of :meth:`recommend` (hardware parallelism, or how many
        serial shards still pay for their routing overhead).
    target_rate_per_shard:
        Arrivals/second one shard should absorb; the recommendation is
        ``ceil(total measured rate / target)`` clamped to ``[1, max_shards]``.
        Calibrate on the host with ``python3 bench/run.py --workload sharded_serial``.
    skew_threshold:
        max/mean per-shard ingest share above which the key distribution
        counts as skewed (hot keys concentrating on few shards).
    window:
        Length of one :meth:`should_reshard` estimation window in
        stream-seconds.
    hysteresis:
        Consecutive estimation windows that must agree on a different shard
        count before :meth:`should_reshard` says yes; one conforming window
        resets the streak.
    cooldown:
        Minimum stream-seconds between two positive reshard decisions,
        bounding the migration frequency under oscillating load.
    min_arrivals:
        Estimation windows backed by fewer arrivals are discarded as noise.
    """

    def __init__(
        self,
        max_shards: int = 8,
        target_rate_per_shard: float = 200.0,
        skew_threshold: float = 2.0,
        window: float = 2.0,
        hysteresis: int = 2,
        cooldown: float = 8.0,
        min_arrivals: int = 64,
    ) -> None:
        if max_shards < 1:
            raise ShardingError(f"max_shards must be at least 1, got {max_shards}")
        if target_rate_per_shard <= 0:
            raise ShardingError(
                f"target_rate_per_shard must be positive, got {target_rate_per_shard}"
            )
        if skew_threshold < 1.0:
            raise ShardingError(
                f"skew_threshold must be at least 1.0, got {skew_threshold}"
            )
        if window <= 0:
            raise ShardingError(f"window must be positive, got {window}")
        if hysteresis < 1:
            raise ShardingError(f"hysteresis must be at least 1, got {hysteresis}")
        if cooldown < 0:
            raise ShardingError(f"cooldown must be non-negative, got {cooldown}")
        self.max_shards = int(max_shards)
        self.target_rate_per_shard = float(target_rate_per_shard)
        self.skew_threshold = float(skew_threshold)
        self.window = float(window)
        self.hysteresis = int(hysteresis)
        self.cooldown = float(cooldown)
        self.min_arrivals = int(min_arrivals)
        #: Recent :class:`ReshardDecision` verdicts, newest last.  Bounded —
        #: an always-on session polls this policy indefinitely, so an
        #: unbounded log would be a slow leak.
        self.decisions: deque[ReshardDecision] = deque(maxlen=LOG_LIMIT)
        self._window_start: float | None = None
        self._window_snapshots: Sequence[MetricsSnapshot] | None = None
        self._window_shards: int | None = None
        self._streak = 0
        self._streak_target: int | None = None
        self._last_reshard: float | None = None

    def recommend(self, statistics: StreamStatistics) -> int:
        """Shard count for a measured (or declared) global load."""
        total = sum(statistics.arrival_rates.values())
        if total <= 0:
            return 1
        return max(1, min(self.max_shards, math.ceil(total / self.target_rate_per_shard)))

    def imbalance(self, ingest_totals: Sequence[int]) -> float:
        """max/mean per-shard ingest share; 1.0 is perfectly balanced."""
        if not ingest_totals:
            return 1.0
        mean = sum(ingest_totals) / len(ingest_totals)
        if mean <= 0:
            return 1.0
        return max(ingest_totals) / mean

    def plan(self, engine: ShardedStreamEngine) -> ShardPlan:
        """Size and skew-check a live sharded session from its merged view.

        Uses the whole current shard generation as the estimation window
        (everything since the last :meth:`ShardedStreamEngine.reshard`); the
        returned plan's ``measured_shards`` records the modulus the skew
        shares were measured under.
        """
        snapshots = engine.shard_snapshots()  # one fetch feeds every view
        statistics = engine.merged_statistics(snapshots)
        ingest_totals = engine.shard_ingest_totals(snapshots)
        return self._assemble_plan(engine, statistics, ingest_totals)

    def _assemble_plan(
        self,
        engine: ShardedStreamEngine,
        statistics: StreamStatistics,
        ingest_totals: Sequence[int],
    ) -> ShardPlan:
        shards = self.recommend(statistics)
        imbalance = self.imbalance(ingest_totals)
        skewed = imbalance > self.skew_threshold
        total = sum(statistics.arrival_rates.values())
        if skewed:
            reason = (
                f"hot keys: the busiest shard carries {imbalance:.2f}x the mean "
                f"ingest share (threshold {self.skew_threshold:g}x)"
            )
        elif shards != engine.shards:
            reason = (
                f"measured {total:.3g} arrivals/s over {engine.shards} shard(s); "
                f"{shards} shard(s) hit the {self.target_rate_per_shard:g}/s target"
            )
        else:
            reason = f"{engine.shards} shard(s) match the measured load"
        return ShardPlan(
            shards=shards,
            total_rate=total,
            imbalance=imbalance,
            skewed=skewed,
            reason=reason,
            measured_shards=engine.shards,
        )

    # -- the reshard policy ----------------------------------------------------
    def should_reshard(self, engine: ShardedStreamEngine) -> ReshardDecision:
        """Decide whether the session should change its shard count *now*.

        Call periodically while ingesting (every K arrivals, or from an
        external ticker).  The policy has four stability layers:

        * estimates are *windowed* — rates come from per-shard snapshot
          deltas over ``window`` stream-seconds, never from whole-session
          averages (which would lag a drift indefinitely);
        * a different recommended count must persist for ``hysteresis``
          consecutive windows (one conforming window resets the streak);
        * after a positive decision no further reshard fires for
          ``cooldown`` stream-seconds;
        * **hot-key skew refuses to grow**: when the busiest shard exceeds
          ``skew_threshold`` times the mean ingest share, more shards
          cannot split one key's traffic — the policy holds and says so
          instead of thrashing.

        A reshard performed by anyone (including :meth:`maybe_reshard`)
        resets the estimation window: counters measured under two moduli
        are never mixed.  The decision is recorded in :attr:`decisions`;
        acting on it is the caller's job (or use :meth:`maybe_reshard`).
        """
        if self._window_snapshots is None or self._window_shards != engine.shards:
            # First observation of this shard generation: open a window.
            # (The one snapshot fetch per window boundary is the only shard
            # I/O this policy performs — mid-window polls below read the
            # coordinator's clock and return without flushing anything.)
            snapshots = engine.shard_snapshots()
            self._window_start = max(
                (s.get("time.last", 0.0) for s in snapshots),
                default=engine.stream_clock,
            )
            self._window_snapshots = snapshots
            self._window_shards = engine.shards
            return self._decide(False, engine.shards, "opening an estimation window")
        assert self._window_start is not None
        if engine.stream_clock - self._window_start < self.window:
            return self._decide(
                False, engine.shards, "estimation window still open"
            )
        snapshots = engine.shard_snapshots()
        now = max(
            (s.get("time.last", 0.0) for s in snapshots),
            default=engine.stream_clock,
        )
        pairs = list(zip(self._window_snapshots, snapshots))
        windows = [after.diff(before) for before, after in pairs]
        arrivals = sum(w.get("ingested.total", 0.0) for w in windows)
        self._window_start = now
        self._window_snapshots = snapshots
        if arrivals < self.min_arrivals:
            return self._decide(
                False,
                engine.shards,
                f"window too thin ({arrivals:.0f} arrivals < {self.min_arrivals})",
            )
        statistics = StreamStatistics.from_shard_windows(
            pairs,
            left_stream=engine.left_stream,
            right_stream=engine.right_stream,
        )
        ingest_totals = [int(w.get("ingested.total", 0.0)) for w in windows]
        plan = self._assemble_plan(engine, statistics, ingest_totals)
        if plan.shards == engine.shards:
            self._streak = 0
            self._streak_target = None
            return self._decide(False, engine.shards, plan.reason, plan)
        if plan.shards > engine.shards and not engine.partitionable:
            # A non-equi or count-window session legally runs at one shard
            # but cannot be partitioned; emitting a grow decision would
            # guarantee a ShardingError when applied.
            self._streak = 0
            self._streak_target = None
            return self._decide(
                False,
                engine.shards,
                "holding: the session is not partitionable (no equi-key or "
                "count windows), more shards cannot be built",
                plan,
            )
        if plan.skewed and plan.shards > engine.shards:
            # More shards cannot split one key: every tuple of the hot key
            # still hashes to a single shard under any modulus.
            self._streak = 0
            self._streak_target = None
            return self._decide(
                False,
                engine.shards,
                f"refusing to grow under hot-key skew — {plan.reason}",
                plan,
            )
        if self._streak_target == plan.shards:
            self._streak += 1
        else:
            self._streak = 1
            self._streak_target = plan.shards
        if self._streak < self.hysteresis:
            return self._decide(
                False,
                plan.shards,
                f"hysteresis {self._streak}/{self.hysteresis}: {plan.reason}",
                plan,
            )
        if (
            self._last_reshard is not None
            and now - self._last_reshard < self.cooldown
        ):
            return self._decide(
                False,
                plan.shards,
                f"cooling down ({now - self._last_reshard:.1f}s of "
                f"{self.cooldown:g}s): {plan.reason}",
                plan,
            )
        self._streak = 0
        self._streak_target = None
        self._last_reshard = now
        return self._decide(True, plan.shards, plan.reason, plan)

    def _decide(
        self,
        reshard: bool,
        target: int,
        reason: str,
        plan: ShardPlan | None = None,
    ) -> ReshardDecision:
        decision = ReshardDecision(reshard=reshard, target=target, reason=reason, plan=plan)
        self.decisions.append(decision)
        return decision

    def maybe_reshard(self, engine: ShardedStreamEngine) -> ReshardEvent | None:
        """Run :meth:`should_reshard` and apply a positive decision.

        Returns the :class:`ReshardEvent` when the session was resharded,
        ``None`` when the policy held.  This is the whole auto-resizing
        loop: call it periodically while ingesting.
        """
        decision = self.should_reshard(engine)
        if not decision.reshard:
            return None
        return engine.reshard(decision.target, reason=decision.reason)
