"""Cost accounting for the simulated DSMS.

The paper measures two resources:

* **State memory** — the number of tuples resident in join states
  (Section 7: "the number of tuples staying in the states of the joins").
* **CPU** — the count of comparisons per time unit (Section 3: value
  comparisons and timestamp comparisons are assumed equally expensive and to
  dominate CPU cost), plus a per-operator-invocation system overhead factor
  ``Csys`` (Section 5.2).

:class:`MetricsCollector` is shared by every operator in a plan and counts
each category of comparison separately so experiments can attribute cost to
probing, purging, routing, filtering, splitting and merging — exactly the
cost decomposition the paper's equations 1-3 use.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "CostCategory",
    "MetricsCollector",
    "MetricsSnapshot",
    "StateMemorySample",
    "RunReport",
    "append_bounded",
]

#: Entries an observability log keeps (the newest win).  An always-on session
#: appends to its migration and policy logs forever, and a sharded session
#: ships the migration log whole on every ``stats`` read.
LOG_LIMIT = 256


def append_bounded(log: list, entry) -> None:
    """Append ``entry`` to an observability log, keeping the newest ``LOG_LIMIT``."""
    log.append(entry)
    del log[:-LOG_LIMIT]


class CostCategory:
    """Names of the CPU cost categories used throughout the package."""

    PROBE = "probe"
    PURGE = "purge"
    ROUTE = "route"
    SELECT = "select"
    SPLIT = "split"
    UNION = "union"
    INSERT = "insert"
    OTHER = "other"

    ALL = (PROBE, PURGE, ROUTE, SELECT, SPLIT, UNION, INSERT, OTHER)


@dataclass(frozen=True, slots=True)
class StateMemorySample:
    """Snapshot of the total number of tuples resident in all join states."""

    timestamp: float
    tuples_in_state: int


class MetricsSnapshot(dict):
    """A point-in-time copy of a collector's counters.

    Behaves as a flat ``{key: float}`` dictionary (so existing report code
    keeps working) and adds :meth:`diff`, which turns two snapshots taken
    around a stream window into the *windowed* counter deltas — the raw
    material for online rate/selectivity estimation
    (:mod:`repro.core.statistics`) without resetting the collector.
    """

    #: Key prefixes that denote monotone counters (safe to subtract).
    _COUNTER_PREFIXES = (
        "comparisons.",
        "invocations.",
        "emitted.",
        "ingested.",
        "observations.",
        "reshard.",
        "respawn.",
    )
    _COUNTER_KEYS = ("cpu_cost",)

    @staticmethod
    def _is_counter(key: str) -> bool:
        return key in MetricsSnapshot._COUNTER_KEYS or key.startswith(
            MetricsSnapshot._COUNTER_PREFIXES
        )

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counter deltas between ``earlier`` and this (later) snapshot.

        Monotone counters (comparisons, invocations, emissions, ingests,
        observations, ``cpu_cost``) are subtracted; keys absent from
        ``earlier`` count from zero.  ``service_rate`` is recomputed from the
        deltas (the windowed service rate), ``time.last`` keeps the later
        value, and ``time.elapsed`` is added as the stream-time span of the
        window.  Gauges that cannot be windowed (``memory.average``,
        ``memory.max``) keep the later snapshot's value.
        """
        delta = MetricsSnapshot()
        for key, value in self.items():
            if self._is_counter(key):
                delta[key] = value - earlier.get(key, 0.0)
            else:
                delta[key] = value
        delta["time.elapsed"] = self.get("time.last", 0.0) - earlier.get("time.last", 0.0)
        cost = delta.get("cpu_cost", 0.0)
        delta["service_rate"] = delta.get("emitted.total", 0.0) / cost if cost > 0 else 0.0
        return delta

    def rate(self, key: str, per: str = "time.elapsed") -> float:
        """A windowed rate: ``self[key] / self[per]`` guarding zero spans."""
        denominator = self.get(per, 0.0)
        if denominator <= 0:
            return 0.0
        return self.get(key, 0.0) / denominator

    #: Gauges that sum across disjoint collectors: each shard's join states
    #: are disjoint partitions of one logical session, so total resident
    #: memory is the sum of the per-shard occupancies.
    _ADDITIVE_GAUGES = (
        "memory.average",
        "memory.max",
        "memory.resident_bytes",
        "memory.spilled_bytes",
        "memory.max_resident_bytes",
    )
    #: Time-axis keys: every shard observes the same stream clock, so the
    #: aggregate keeps the furthest point reached (not the sum).
    _TIME_KEYS = ("time.last", "time.elapsed")

    @classmethod
    def aggregate(cls, snapshots: "Iterable[MetricsSnapshot]") -> "MetricsSnapshot":
        """Fold per-shard snapshots (or windowed diffs) into one global view.

        Monotone counters and memory gauges are summed — the inputs must
        come from *disjoint* collectors, one per shard of a partitioned
        session, so sums are the true global quantities.  Time-axis keys
        (``time.last``, ``time.elapsed``) take the maximum, since all shards
        run on the same stream clock; ``service_rate`` is recomputed from
        the aggregated totals.  Works on plain :meth:`MetricsCollector.snapshot`
        values and on :meth:`diff` windows alike.
        """
        merged = cls()
        for snapshot in snapshots:
            for key, value in snapshot.items():
                if cls._is_counter(key) or key in cls._ADDITIVE_GAUGES:
                    merged[key] = merged.get(key, 0.0) + value
                elif key in cls._TIME_KEYS:
                    merged[key] = max(merged.get(key, 0.0), value)
                elif key not in merged:
                    merged[key] = value
        cost = merged.get("cpu_cost", 0.0)
        merged["service_rate"] = (
            merged.get("emitted.total", 0.0) / cost if cost > 0 else 0.0
        )
        return merged


class MetricsCollector:
    """Accumulates comparison counts, invocations and state-memory samples."""

    def __init__(self, system_overhead: float = 0.0) -> None:
        #: Per-category comparison counters.
        self.comparisons: dict[str, int] = defaultdict(int)
        #: Number of operator invocations, keyed by operator name.
        self.invocations: dict[str, int] = defaultdict(int)
        #: Number of tuples emitted per named query output.
        self.emitted: dict[str, int] = defaultdict(int)
        #: Retained samples of total join-state occupancy — only what
        #: :meth:`record_memory_sample` keeps for the finite static runs
        #: (:meth:`steady_state_memory` reads their tail).  A live session
        #: folds its per-batch readings into the running gauges below via
        #: :meth:`sample_memory`, so nothing here grows with session length.
        self.memory_samples: list[StateMemorySample] = []
        self._memory_readings = 0
        self._memory_tuples_sum = 0
        self._memory_tuples_max = 0
        self._resident_bytes = 0.0
        self._spilled_bytes = 0.0
        self._resident_bytes_max = 0.0
        #: The paper's ``Csys`` factor: CPU cost charged per operator invocation.
        self.system_overhead = float(system_overhead)
        #: Number of input tuples fed into the plan.
        self.tuples_ingested = 0
        #: Per-stream ingest counters (populated when callers pass a stream).
        self.ingested: dict[str, int] = defaultdict(int)
        #: Free-form monotone counters (a session's ``spill.*`` deltas).
        #: Observations are bookkeeping, not simulated work: they never enter
        #: ``cpu_cost``.
        self.observations: dict[str, float] = defaultdict(float)
        #: Latest stream timestamp observed (advanced by memory samples and
        #: :meth:`observe_time`); gives snapshots a stream-time axis.
        self.last_timestamp = 0.0
        #: Live reshard events recorded against this collector.
        self.reshards = 0
        #: Resident tuples moved between shards across all reshard events.
        self.reshard_tuples_moved = 0
        #: Crashed shard workers respawned (state recovered) by this session.
        self.respawns = 0

    # -- CPU accounting -----------------------------------------------------
    def count(self, category: str, amount: int = 1) -> None:
        """Record ``amount`` comparisons of the given category."""
        if amount:
            self.comparisons[category] += amount

    def record_invocation(self, operator_name: str, amount: int = 1) -> None:
        """Record ``amount`` operator invocations.

        A cursor chain passes the items a slice saw in a batch, so the
        simulated system overhead (``Csys`` per invocation) stays that of the
        per-item operator plan.
        """
        if amount:
            self.invocations[operator_name] += amount

    def record_emission(self, output_name: str, amount: int = 1) -> None:
        self.emitted[output_name] += amount

    def record_ingest(self, amount: int = 1, stream: str | None = None) -> None:
        self.tuples_ingested += amount
        if stream is not None:
            self.ingested[stream] += amount

    def observe(self, name: str, amount: float = 1) -> None:
        """Record ``amount`` bookkeeping observations (not CPU cost)."""
        if amount:
            self.observations[name] += amount

    def observe_time(self, timestamp: float) -> None:
        """Advance the stream-time axis without sampling memory."""
        if timestamp > self.last_timestamp:
            self.last_timestamp = timestamp

    def record_reshard(self, tuples_moved: int) -> None:
        """Record one live reshard and the resident tuples it repartitioned.

        Moved-tuple accounting is bookkeeping, not simulated work: like
        estimator observations it never enters ``cpu_cost`` (the wall-clock
        price of a reshard is what ``benchmarks/test_resharding.py``
        measures).  Snapshots expose the counters as ``reshard.count`` and
        ``reshard.moved`` — monotone, so windowed :meth:`MetricsSnapshot.diff`
        views report reshards per estimation window.
        """
        self.reshards += 1
        self.reshard_tuples_moved += int(tuples_moved)

    def record_respawn(self) -> None:
        """Record one crashed-worker respawn (sharded process mode).

        Snapshots expose the counter as ``respawn.count`` so callers can see
        how often a session paid the state-recovery price.
        """
        self.respawns += 1

    # -- memory accounting ----------------------------------------------------
    def sample_memory(
        self,
        timestamp: float,
        tuples_in_state: int,
        resident_bytes: float = 0.0,
        spilled_bytes: float = 0.0,
    ) -> None:
        """Fold one state-occupancy reading into the running gauges (O(1)).

        ``resident_bytes`` / ``spilled_bytes`` split the estimated footprint
        by tier for memory-budgeted sessions: resident is what occupies core
        (hot slices plus the spill tail buffers and segment metadata),
        spilled is what lives in the disk tier's segment files.  Unbudgeted
        sessions report their whole estimate as resident.
        """
        self._memory_readings += 1
        self._memory_tuples_sum += tuples_in_state
        if tuples_in_state > self._memory_tuples_max:
            self._memory_tuples_max = tuples_in_state
        self._resident_bytes = resident_bytes
        self._spilled_bytes = spilled_bytes
        if resident_bytes > self._resident_bytes_max:
            self._resident_bytes_max = resident_bytes
        self.observe_time(timestamp)

    def record_memory_sample(self, timestamp: float, tuples_in_state: int) -> None:
        """:meth:`sample_memory`, and keep the sample.

        For the static executor, whose runs are finite and whose reports
        need :meth:`steady_state_memory`'s tail of samples.
        """
        self.memory_samples.append(StateMemorySample(timestamp, tuples_in_state))
        self.sample_memory(timestamp, tuples_in_state)

    # -- derived quantities -----------------------------------------------------
    @property
    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())

    @property
    def total_invocations(self) -> int:
        return sum(self.invocations.values())

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())

    def cpu_cost(self, system_overhead: float | None = None) -> float:
        """Total CPU cost = comparisons + Csys * operator invocations."""
        overhead = self.system_overhead if system_overhead is None else system_overhead
        return self.total_comparisons + overhead * self.total_invocations

    def average_state_memory(self) -> float:
        """Time-averaged number of tuples resident in join states."""
        if not self._memory_readings:
            return 0.0
        return self._memory_tuples_sum / self._memory_readings

    def max_state_memory(self) -> int:
        return self._memory_tuples_max

    def steady_state_memory(self, warmup_fraction: float = 0.5) -> float:
        """Average state memory over the tail of the run.

        The paper starts every experiment with empty states; the interesting
        figure is the occupancy once windows have filled, so the first
        ``warmup_fraction`` of samples is discarded.  Reads the retained
        samples (:meth:`record_memory_sample`), so it is a static-run figure.
        """
        if not self.memory_samples:
            return 0.0
        start = int(len(self.memory_samples) * warmup_fraction)
        tail = self.memory_samples[start:] or self.memory_samples
        return sum(s.tuples_in_state for s in tail) / len(tail)

    def service_rate(self, system_overhead: float | None = None) -> float:
        """Output tuples produced per unit of CPU cost.

        The paper defines service rate as total throughput divided by running
        time on fixed hardware; with a deterministic cost model the analogous
        quantity is throughput per simulated CPU cost unit.  Relative
        comparisons between strategies (which is all the paper's figures show)
        are preserved.
        """
        cost = self.cpu_cost(system_overhead)
        if cost <= 0:
            return 0.0
        return self.total_emitted / cost

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counters into this one."""
        for key, value in other.comparisons.items():
            self.comparisons[key] += value
        for key, value in other.invocations.items():
            self.invocations[key] += value
        for key, value in other.emitted.items():
            self.emitted[key] += value
        for key, value in other.ingested.items():
            self.ingested[key] += value
        for key, value in other.observations.items():
            self.observations[key] += value
        self.memory_samples.extend(other.memory_samples)
        if other._memory_readings:
            self._memory_readings += other._memory_readings
            self._memory_tuples_sum += other._memory_tuples_sum
            self._memory_tuples_max = max(self._memory_tuples_max, other._memory_tuples_max)
            self._resident_bytes = other._resident_bytes
            self._spilled_bytes = other._spilled_bytes
            self._resident_bytes_max = max(self._resident_bytes_max, other._resident_bytes_max)
        self.tuples_ingested += other.tuples_ingested
        self.reshards += other.reshards
        self.reshard_tuples_moved += other.reshard_tuples_moved
        self.respawns += other.respawns
        self.observe_time(other.last_timestamp)

    def snapshot(self) -> MetricsSnapshot:
        """Point-in-time view of every counter (a flat ``{key: float}`` map).

        Two snapshots taken around a stream window can be subtracted with
        :meth:`MetricsSnapshot.diff` to obtain windowed per-operator and
        per-stream rates without resetting this collector.
        """
        data = MetricsSnapshot(
            {
                f"comparisons.{category}": float(self.comparisons.get(category, 0))
                for category in CostCategory.ALL
            }
        )
        data["comparisons.total"] = float(self.total_comparisons)
        for name, value in self.invocations.items():
            data[f"invocations.{name}"] = float(value)
        data["invocations.total"] = float(self.total_invocations)
        for name, value in self.emitted.items():
            data[f"emitted.{name}"] = float(value)
        data["emitted.total"] = float(self.total_emitted)
        for stream, value in self.ingested.items():
            data[f"ingested.{stream}"] = float(value)
        data["ingested.total"] = float(self.tuples_ingested)
        for name, value in self.observations.items():
            data[f"observations.{name}"] = float(value)
        if self.reshards:
            data["reshard.count"] = float(self.reshards)
            data["reshard.moved"] = float(self.reshard_tuples_moved)
        if self.respawns:
            data["respawn.count"] = float(self.respawns)
        data["memory.average"] = self.average_state_memory()
        data["memory.max"] = float(self.max_state_memory())
        data["memory.resident_bytes"] = self._resident_bytes
        data["memory.spilled_bytes"] = self._spilled_bytes
        data["memory.max_resident_bytes"] = self._resident_bytes_max
        data["cpu_cost"] = self.cpu_cost()
        data["service_rate"] = self.service_rate()
        data["time.last"] = self.last_timestamp
        return data


@dataclass
class RunReport:
    """Result of executing one shared plan over one workload."""

    strategy: str
    metrics: MetricsCollector
    results: Mapping[str, list] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def average_state_memory(self) -> float:
        return self.metrics.average_state_memory()

    @property
    def steady_state_memory(self) -> float:
        return self.metrics.steady_state_memory()

    @property
    def max_state_memory(self) -> int:
        return self.metrics.max_state_memory()

    @property
    def cpu_cost(self) -> float:
        return self.metrics.cpu_cost()

    @property
    def service_rate(self) -> float:
        return self.metrics.service_rate()

    @property
    def total_output(self) -> int:
        return sum(len(tuples) for tuples in self.results.values())

    def output_counts(self) -> dict[str, int]:
        return {name: len(tuples) for name, tuples in self.results.items()}

    def summary(self) -> dict[str, float]:
        data = self.metrics.snapshot()
        data["strategy"] = self.strategy  # type: ignore[assignment]
        data["output.total"] = float(self.total_output)
        return data


def total_output(reports: Iterable[RunReport]) -> int:
    """Sum of output tuples across several run reports."""
    return sum(report.total_output for report in reports)
