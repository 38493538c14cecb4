"""One statistics plane shared by the static optimizer and the runtime.

The chain searches of Sections 5-7 price plans from three quantities: the
per-stream arrival rates λ, the join factor S1 of the stream pair, and the
selection selectivities Sσ of the registered queries.  Before this module
those quantities lived in three unrelated places — hand-supplied
:class:`~repro.core.merge_graph.ChainCostParameters` fields, per-predicate
``selectivity`` estimates, and live counters inside
:class:`~repro.engine.metrics.MetricsCollector` that nothing read back.

:class:`StreamStatistics` unifies them:

* **static planning** — :meth:`StreamStatistics.from_workload` builds the
  declared prior (generator-configured rates, predicate estimates), and
  :meth:`chain_parameters` / :meth:`calibrated_workload` feed it to the
  CPU-Opt search exactly as hand-written parameters used to be;
* **online estimation** — :meth:`StreamStatistics.from_metrics_window`
  derives the same quantities from the *difference of two
  collector snapshots* (:meth:`~repro.engine.metrics.MetricsCollector.snapshot`
  / :meth:`~repro.engine.metrics.MetricsSnapshot.diff`): per-stream ingest
  deltas over elapsed stream time give rates, the chain's match/opportunity
  observations give the join factor, and per-query filter pass/seen
  observations give selection selectivities;
* **adaptation** — :meth:`drift` quantifies how far a fresh estimate has
  moved from the statistics the current chain was optimized for, which is
  the trigger signal of :class:`repro.runtime.adaptive.AdaptivePolicy`.

Observation-key conventions (recorded by the runtime engine when statistics
collection is enabled)::

    chain.matches              joined pairs produced by the head slice
    chain.opportunities        candidate pairs offered to the head slice
    filter.<query>.<side>.pass arrivals passing query's <side> predicate
    filter.<query>.<side>.seen arrivals the predicate was evaluated on
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.merge_graph import ChainCostParameters
from repro.engine.errors import ConfigurationError
from repro.engine.metrics import MetricsSnapshot
from repro.query.predicates import Predicate, TruePredicate
from repro.query.query import ContinuousQuery, QueryWorkload

__all__ = [
    "CalibratedPredicate",
    "StreamStatistics",
    "OBS_CHAIN_MATCHES",
    "OBS_CHAIN_OPPORTUNITIES",
    "filter_observation_key",
]

#: Observation-counter names shared with the runtime engine.
OBS_CHAIN_MATCHES = "chain.matches"
OBS_CHAIN_OPPORTUNITIES = "chain.opportunities"


def filter_observation_key(query: str, side: str, event: str) -> str:
    """The observation counter of one query-side filter (`pass` or `seen`)."""
    return f"filter.{query}.{side}.{event}"


@dataclass(frozen=True)
class CalibratedPredicate(Predicate):
    """A predicate whose *measured* selectivity replaces the declared one.

    Delegates matching and ``describe()`` to the wrapped predicate, so the
    push-down machinery (disjunction dedup, residual derivation — both keyed
    on ``describe()``) treats it as the original; only the cost model sees
    the calibrated estimate.
    """

    base: Predicate
    selectivity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ConfigurationError(
                f"calibrated selectivity must lie in [0, 1], got {self.selectivity}"
            )

    def matches(self, tup) -> bool:
        return self.base.matches(tup)

    def describe(self) -> str:
        return self.base.describe()


@dataclass(frozen=True)
class StreamStatistics:
    """Arrival rates, join factors and selection selectivities of one session.

    Parameters
    ----------
    arrival_rates:
        λ per stream name, tuples per stream-second.
    join_selectivity:
        The join factor S1 of the stream pair (output pairs / candidate
        pairs), or ``None`` when not (yet) measurable — consumers then fall
        back to the join condition's declared estimate.
    selection_selectivities:
        ``{query name: (left Sσ, right Sσ)}`` for queries carrying
        selections.  Sides without a measured value use ``None``.
    left_stream / right_stream:
        Names of the stream pair the statistics describe.
    sample_arrivals:
        Arrivals backing the estimate (0 marks a declared prior).
    window:
        Stream-seconds spanned by the estimation window (0 for priors).
    """

    arrival_rates: Mapping[str, float] = field(default_factory=dict)
    join_selectivity: float | None = None
    selection_selectivities: Mapping[str, tuple[float | None, float | None]] = field(
        default_factory=dict
    )
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
        if self.join_selectivity is not None and not 0.0 <= self.join_selectivity <= 1.0:
            raise ConfigurationError(
                f"join selectivity must lie in [0, 1], got {self.join_selectivity}"
            )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        workload: QueryWorkload,
        arrival_rate_left: float,
        arrival_rate_right: float | None = None,
    ) -> "StreamStatistics":
        """The declared prior: configured rates plus per-predicate estimates."""
        if arrival_rate_right is None:
            arrival_rate_right = arrival_rate_left
        selections: dict[str, tuple[float | None, float | None]] = {}
        for query in workload:
            left = (
                query.left_filter.selectivity
                if not isinstance(query.left_filter, TruePredicate)
                else None
            )
            right = (
                query.right_filter.selectivity
                if not isinstance(query.right_filter, TruePredicate)
                else None
            )
            if left is not None or right is not None:
                selections[query.name] = (left, right)
        return cls(
            arrival_rates={
                workload.left_stream: float(arrival_rate_left),
                workload.right_stream: float(arrival_rate_right),
            },
            join_selectivity=workload.join_condition.selectivity,
            selection_selectivities=selections,
            left_stream=workload.left_stream,
            right_stream=workload.right_stream,
        )

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
        around the window; nothing is reset in between.  Quantities without
        enough evidence in the window (zero elapsed time, zero opportunities,
        zero filter evaluations) are simply omitted from the estimate.
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
        opportunities = delta.get(f"observations.{OBS_CHAIN_OPPORTUNITIES}", 0.0)
        matches = delta.get(f"observations.{OBS_CHAIN_MATCHES}", 0.0)
        join_selectivity = (
            min(1.0, matches / opportunities) if opportunities > 0 else None
        )
        selections: dict[str, tuple[float | None, float | None]] = {}
        prefix = "observations.filter."
        for key, value in delta.items():
            if not key.startswith(prefix) or not key.endswith(".seen"):
                continue
            query_and_side = key[len(prefix) : -len(".seen")]
            query, _, side = query_and_side.rpartition(".")
            if not query or value <= 0:
                continue
            passed = delta.get(f"{prefix}{query}.{side}.pass", 0.0)
            selectivity = min(1.0, passed / value)
            left, right = selections.get(query, (None, None))
            if side == "left":
                left = selectivity
            elif side == "right":
                right = selectivity
            else:
                continue
            selections[query] = (left, right)
        return cls(
            arrival_rates=rates,
            join_selectivity=join_selectivity,
            selection_selectivities=selections,
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
        arrival rates, the join factor and selection selectivities describe
        the whole partitioned session: this is the merged view a
        :class:`~repro.runtime.sharding.ShardPlanner` consumes.
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

    def selection_selectivity(
        self, query: str, side: str = "left"
    ) -> float | None:
        """Measured Sσ of one query's selection, or None when unmeasured."""
        pair = self.selection_selectivities.get(query)
        if pair is None:
            return None
        return pair[0] if side == "left" else pair[1]

    @property
    def is_estimate(self) -> bool:
        """True when the statistics come from observation, not declaration."""
        return self.sample_arrivals > 0

    # -- consumers ------------------------------------------------------------
    def chain_parameters(
        self,
        system_overhead: float = 0.5,
        tuple_size: float = 1.0,
        hash_probe: bool = False,
        default_rate: float | None = None,
    ) -> ChainCostParameters:
        """The cost-model parameters this statistics plane implies."""
        return ChainCostParameters(
            arrival_rate_left=self.rate(self.left_stream, default_rate),
            arrival_rate_right=self.rate(self.right_stream, default_rate),
            system_overhead=system_overhead,
            tuple_size=tuple_size,
            hash_probe=hash_probe,
            join_selectivity=self.join_selectivity,
        )

    def calibrated_workload(self, workload: QueryWorkload) -> QueryWorkload:
        """Re-estimate the workload's predicates with measured selectivities.

        Queries with a measured selection selectivity get their predicate
        wrapped in :class:`CalibratedPredicate`; everything else is kept
        as-is.  The calibrated workload prices identically to the original
        under the analytical cost model *except* that slice selectivities
        reflect what the stream actually does — which is what lets the
        CPU-Opt search react to selectivity drift the declared estimates
        cannot see.
        """
        queries: list[ContinuousQuery] = []
        changed = False
        for query in workload:
            left = self.selection_selectivity(query.name, "left")
            right = self.selection_selectivity(query.name, "right")
            updates: dict[str, Predicate] = {}
            if left is not None and not isinstance(query.left_filter, TruePredicate):
                updates["left_filter"] = CalibratedPredicate(query.left_filter, left)
            if right is not None and not isinstance(query.right_filter, TruePredicate):
                updates["right_filter"] = CalibratedPredicate(query.right_filter, right)
            if updates:
                changed = True
                queries.append(replace(query, **updates))
            else:
                queries.append(query)
        return QueryWorkload(queries) if changed else workload

    def scaled(self, factor: float) -> "StreamStatistics":
        """A copy with every arrival rate multiplied by ``factor``.

        Key-partitioning splits the arrival stream but not its *character*:
        a shard of an evenly partitioned session sees ``1/N`` of each
        stream's rate while the join factor and selection selectivities are
        unchanged (they are ratios, invariant under uniform thinning).  The
        sharded engine uses ``scaled(1/N)`` to price each shard's chain from
        a global estimate.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            arrival_rates={
                stream: rate * factor for stream, rate in self.arrival_rates.items()
            },
        )

    # -- adaptation -----------------------------------------------------------
    def blend(self, newer: "StreamStatistics", weight: float = 0.5) -> "StreamStatistics":
        """Exponentially-weighted blend of this estimate with a ``newer`` one.

        ``weight`` is the share of the newer estimate.  Quantities only one
        side measured are taken as-is; the result keeps the newer window's
        provenance fields.  The adaptive policy smooths per-window estimates
        this way so single noisy windows cannot masquerade as drift.
        """
        if not 0.0 < weight <= 1.0:
            raise ConfigurationError(f"blend weight must lie in (0, 1], got {weight}")

        def mix(old: float | None, new: float | None) -> float | None:
            if old is None:
                return new
            if new is None:
                return old
            return (1.0 - weight) * old + weight * new

        rates: dict[str, float] = {}
        for stream in set(self.arrival_rates) | set(newer.arrival_rates):
            mixed = mix(self.arrival_rates.get(stream), newer.arrival_rates.get(stream))
            if mixed is not None:
                rates[stream] = mixed
        selections: dict[str, tuple[float | None, float | None]] = {}
        for query in set(self.selection_selectivities) | set(
            newer.selection_selectivities
        ):
            mine = self.selection_selectivities.get(query, (None, None))
            theirs = newer.selection_selectivities.get(query, (None, None))
            selections[query] = (mix(mine[0], theirs[0]), mix(mine[1], theirs[1]))
        return StreamStatistics(
            arrival_rates=rates,
            join_selectivity=mix(self.join_selectivity, newer.join_selectivity),
            selection_selectivities=selections,
            left_stream=newer.left_stream,
            right_stream=newer.right_stream,
            sample_arrivals=newer.sample_arrivals,
            window=newer.window,
        )

    def drift(self, baseline: "StreamStatistics") -> float:
        """Largest relative change of any shared quantity vs ``baseline``.

        Compares arrival rates, the join factor and selection selectivities
        that both statistics carry; quantities only one side measured are
        ignored (no evidence of drift).  Returns 0.0 when nothing is
        comparable.
        """
        worst = 0.0
        for stream, rate in self.arrival_rates.items():
            base = baseline.arrival_rates.get(stream)
            if base:
                worst = max(worst, abs(rate - base) / base)
        if self.join_selectivity is not None and baseline.join_selectivity:
            worst = max(
                worst,
                abs(self.join_selectivity - baseline.join_selectivity)
                / baseline.join_selectivity,
            )
        for query, (left, right) in self.selection_selectivities.items():
            base_pair = baseline.selection_selectivities.get(query)
            if base_pair is None:
                continue
            for mine, theirs in ((left, base_pair[0]), (right, base_pair[1])):
                if mine is not None and theirs:
                    worst = max(worst, abs(mine - theirs) / theirs)
        return worst

    def describe(self) -> str:
        rates = ", ".join(
            f"λ({stream})={rate:.3g}/s"
            for stream, rate in sorted(self.arrival_rates.items())
        )
        parts = [rates or "no rates"]
        if self.join_selectivity is not None:
            parts.append(f"S1={self.join_selectivity:.3g}")
        for query, (left, right) in sorted(self.selection_selectivities.items()):
            sides = []
            if left is not None:
                sides.append(f"L={left:.3g}")
            if right is not None:
                sides.append(f"R={right:.3g}")
            parts.append(f"Sσ({query})={'/'.join(sides)}")
        origin = (
            f"measured over {self.window:.3g}s/{self.sample_arrivals} arrivals"
            if self.is_estimate
            else "declared prior"
        )
        return f"StreamStatistics[{'; '.join(parts)}] ({origin})"
