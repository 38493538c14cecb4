"""Batch-aware stream session with online multi-query admission.

:class:`StreamEngine` is the first-class API for the scenario that
``examples/online_migration.py`` used to hand-roll: a set of window-join
queries over two streams that *changes while the stream is running*.  The
engine owns one shared chain of sliced joins and keeps it consistent with
the registered queries using the paper's online migration primitives
(Section 5.3):

* ``add_query`` with a window that falls inside an existing slice *splits*
  that slice at the new boundary;
* ``add_query`` with a window beyond the chain end *appends* an empty tail
  slice;
* ``remove_query`` *merges* the slice ending at the orphaned boundary into
  its successor (or drops the tail slice when the largest window leaves).

Nothing else moves a boundary, so a session's chain is always the Mem-Opt
chain of Section 5.1 — one boundary per distinct registered window — and
every result of a slice lies inside the window of every query tapping it.
The CPU-Opt chain of Section 5.2 trades merged slices against ``Csys``, a
per-operator overhead a session (one column per stream, slices as cursors)
does not pay; it lives in the static plans (:mod:`repro.core.cpu_opt`).

Every migration is a drain-and-splice: the engine first flushes any
buffered arrival batch (so all inter-slice queues are empty — the drain),
then rewrites the slice boundaries in place (the splice).  In-flight join
state is never copied out of the chain, so nothing is lost and nothing is
duplicated; the equivalence is asserted by ``tests/test_runtime_engine.py``
and fuzzed against a per-query unshared baseline by
``tests/test_fuzz_differential.py``.

Three dimensions of the paper's query model are admitted:

**Selections** (Section 6) — a query may carry a predicate per input
stream.  On every admission or removal the engine re-derives the shared
push-down placement: the disjunction σ'_i of the predicates of all queries
whose window reaches slice ``i`` is spliced into the chain link in front of
that slice (as :class:`~repro.operators.selection.StreamFilter` operators),
and each query applies its *residual* predicate to the results it taps —
re-evaluated only where the pushed disjunction is weaker than the query's
own predicate.  Filter splicing rides the same drain-and-splice migration,
so the placement stays optimal as the query set evolves.

**Count-based windows** — ``window_kind="count"`` (or the
:class:`CountStreamEngine` convenience subclass) runs the same admission
protocol over a :class:`~repro.core.count_chain.CountSlicedJoinChain`,
whose boundaries are tuple *ranks* instead of time offsets — the same two
columns as a time-window session's chain, its slices rank ranges, so a
migration moves no row.  Selections are *not* pushed into a count
chain: a pushed filter would change which tuples occupy the "most recent
N" ranks, silently redefining every query's window.  Count-window
selections are therefore applied to each query's results (window semantics:
the N most recent *arrivals*, selections filter the answers).

**Hash probing** — ``probe="hash"`` (equi-join conditions only, or
``"auto"``; the constructor default is ``"nested_loop"``) keeps a per-key
index on the equi-key, so a probing tuple examines one bucket instead of the
whole window state.  The index is a property of the column
(:mod:`repro.engine.columns`: posting lists of row ids, which no split or
merge touches) and is rebuilt with whatever a keyed ingest loads.

Arrivals are processed by the cursor chain's block kernel in batches of
``batch_size`` (1 = per-tuple).  Per-query results are delivered
in timestamp order (ties broken by sequence numbers), which makes the
output independent of the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from repro.core.chain import SlicedJoinChain
from repro.core.chain_base import SlicedChainBase
from repro.core.count_chain import CountSlicedJoinChain
from repro.core.pushdown import residual_predicate
from repro.core.statistics import StreamStatistics
from repro.engine.errors import ExecutionError, MigrationError, QueryError
from repro.engine.metrics import CostCategory, MetricsCollector, append_bounded
from repro.engine.spill import SpillStore, estimate_tuple_bytes
from repro.query.predicates import JoinCondition, Predicate, TruePredicate
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.streams.tuples import JoinedTuple, StreamTuple

__all__ = [
    "CountStreamEngine",
    "EngineStats",
    "MigrationEvent",
    "RegisteredQuery",
    "StreamEngine",
]

_EPSILON = 1e-9

#: One per-slice routing entry: ``(queries, left_res, right_res)`` — the
#: queries whose taps of the slice ask for exactly the same checks.  Every
#: result of a slice is inside the windows of the queries tapping it (each
#: window is a boundary), so there is no window check; a residual predicate
#: is None when already implied by the filter pushed below the slice.
_Route = tuple[list[str], Predicate | None, Predicate | None]


#: The one decision ``window_kind`` makes: which chain class a session runs.
#: Window validation, push-down and the partitioning refusal are
#: facts of that class (:class:`~repro.core.chain_base.SlicedChainBase`).
CHAIN_KINDS: dict[str, type[SlicedChainBase]] = {
    "time": SlicedJoinChain,
    "count": CountSlicedJoinChain,
}

_ORDER_KEY = itemgetter(0)
_NO_FILTER = TruePredicate()


def chain_class(window_kind: str) -> type[SlicedChainBase]:
    """The chain class behind ``window_kind`` (:class:`QueryError` if unknown)."""
    try:
        return CHAIN_KINDS[window_kind]
    except KeyError:
        raise QueryError(
            f"window_kind must be 'time' or 'count', got {window_kind!r}"
        ) from None


@dataclass(frozen=True)
class RegisteredQuery:
    """One continuous query currently admitted to a :class:`StreamEngine`."""

    name: str
    window: float  #: Seconds for time-window sessions, ranks for count-window.
    registered_at: int  #: Arrival count at admission time.
    left_filter: Predicate = field(default_factory=TruePredicate)
    right_filter: Predicate = field(default_factory=TruePredicate)

    @property
    def has_selection(self) -> bool:
        """Whether either side carries a non-trivial selection predicate."""
        return not isinstance(self.left_filter, TruePredicate) or not isinstance(
            self.right_filter, TruePredicate
        )


@dataclass(frozen=True)
class MigrationEvent:
    """One chain migration performed by the engine (for observability)."""

    kind: str  #: "create" | "split" | "append" | "merge" | "drop-tail" | "teardown"
    boundary: float
    arrival_count: int
    boundaries_after: tuple[float, ...]


@dataclass
class EngineStats:
    """Aggregate counters of one engine session."""

    arrivals: int = 0
    batches: int = 0
    results_delivered: int = 0
    #: The newest :data:`~repro.engine.metrics.LOG_LIMIT` migrations.
    migrations: list[MigrationEvent] = field(default_factory=list)

    @classmethod
    def aggregate(cls, stats: Iterable["EngineStats"]) -> "EngineStats":
        """Fold the stats of several shard sessions into one global view.

        Counters sum; the migration history is taken from the first session
        — a sharded engine fans every admission out to all shards, so the
        shards' migration sequences are replicas of each other (only the
        per-shard ``arrival_count`` stamps differ).
        """
        merged = cls()
        for entry in stats:
            merged.arrivals += entry.arrivals
            merged.batches += entry.batches
            merged.results_delivered += entry.results_delivered
            if not merged.migrations:
                merged.migrations = list(entry.migrations)
        return merged


class StreamEngine:
    """A live shared sliced-join session with online query admission.

    Parameters
    ----------
    condition:
        The pairwise join condition shared by every admitted query (the
        state-slice sharing precondition, as in
        :class:`~repro.query.query.QueryWorkload`).
    left_stream / right_stream:
        Names of the two input streams.
    batch_size:
        Number of arrivals grouped into one chain batch; 1 processes
        per-tuple.  Results are independent of the batch size.
    metrics:
        Optional shared metrics collector for cost accounting.
    window_kind:
        ``"time"`` (default) for sliding windows in seconds over a
        :class:`~repro.core.chain.SlicedJoinChain`, or ``"count"`` for
        most-recent-N-tuples windows over a
        :class:`~repro.core.count_chain.CountSlicedJoinChain`.
    probe:
        Probe algorithm of every slice: ``"nested_loop"`` (the paper's cost
        model, and the default), ``"hash"`` (equi-join conditions only) or
        ``"auto"`` (hash for equi-joins, nested loop otherwise).
    memory_budget_bytes:
        Optional in-core state budget.  After every batch, while the resident
        estimate exceeds it, the chain moves its oldest state to an on-disk
        segment store (:mod:`repro.engine.spill`).  A session — time or
        count windows — runs the same chain either way: the oldest rows of
        each column keep timestamp and key in core, their payloads go to one
        append-only log per stream, and only rows a batch reports are read
        back.  Results are byte-identical.  ``None`` (default) keeps
        everything in core.
    """

    #: Slice state is always columnar (:mod:`repro.engine.columns`); this
    #: constant exists only because ``bench/workloads.resolved_knobs`` reads
    #: ``session.columnar``, and goes with the next ``benchmark`` PR.
    columnar = "auto"

    def __init__(
        self,
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        batch_size: int = 32,
        metrics: MetricsCollector | None = None,
        window_kind: str = "time",
        probe: str = "nested_loop",
        memory_budget_bytes: int | None = None,
    ) -> None:
        #: The chain class this session builds (read-only; from ``window_kind``).
        self.chain_class = chain_class(window_kind)
        if memory_budget_bytes is not None:
            memory_budget_bytes = int(memory_budget_bytes)
            if memory_budget_bytes <= 0:
                raise QueryError(
                    f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
                )
        self.condition = condition
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.batch_size = max(1, int(batch_size))
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.window_kind = window_kind
        self.probe = probe
        self.stats = EngineStats()
        self._chain: SlicedChainBase | None = None
        self._queries: dict[str, RegisteredQuery] = {}
        self._results: dict[str, list[JoinedTuple]] = {}
        self._pending: list[StreamTuple] = []
        self._last_timestamp = float("-inf")
        self._routing: list[list[_Route]] = []
        self.memory_budget_bytes = memory_budget_bytes
        self._spill_store: SpillStore | None = None
        self._tuple_bytes: int | None = None
        self._spill_reported: dict[str, int] = {}

    # -- admission -------------------------------------------------------------
    def add_query(
        self,
        name: str,
        window: float,
        left_filter: Predicate | None = None,
        right_filter: Predicate | None = None,
    ) -> RegisteredQuery:
        """Admit a query while the stream is running.

        The chain is migrated incrementally (split or append); state already
        resident in the chain is untouched, so the new query immediately
        sees every stored tuple that falls inside its window — exactly the
        results of a fresh shared plan over the remaining stream suffix.
        ``left_filter`` / ``right_filter`` are optional selection predicates
        over the respective input stream; the engine re-derives the shared
        push-down placement as part of the same migration.
        """
        if name in self._queries:
            raise QueryError(f"query {name!r} is already registered")
        window = self.chain_class.normalize_window(name, window)
        self._drain()
        if self._chain is None:
            # The one site a session's chain kind and probe kind are decided.
            self._chain = self.chain_class(
                [0, window],
                self.condition,
                left_stream=self.left_stream,
                right_stream=self.right_stream,
                metrics=self.metrics,
                probe=self.probe,
            )
            self._record_migration("create", window)
        else:
            chain = self._chain
            boundaries = chain.boundaries
            if window > boundaries[-1] + _EPSILON:
                chain.append_slice(window)
                self._record_migration("append", window)
            elif all(abs(window - b) > _EPSILON for b in boundaries):
                index = chain.slice_index_containing(window)
                if index is None:  # pragma: no cover - boundaries are contiguous
                    raise MigrationError(
                        f"no slice of {boundaries} contains boundary {window:g}"
                    )
                chain.split_slice(index, window)
                self._record_migration("split", window)
        query = RegisteredQuery(
            name, window, self.stats.arrivals, self._shared(left_filter), self._shared(right_filter)
        )
        self._queries[name] = query
        self._results[name] = []
        self._refresh_plan()
        return query

    def remove_query(self, name: str) -> list[JoinedTuple]:
        """Deregister a query and return the results delivered to it.

        Boundaries no longer needed by any remaining query are merged away
        (or the tail slice is dropped when the largest window leaves), and
        the pushed-down filters are re-derived for the remaining queries;
        those queries keep producing exactly the same results.
        """
        try:
            query = self._queries.pop(name)
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None
        self._drain()
        delivered = self._results.pop(name)
        chain = self._chain
        assert chain is not None
        if not self._queries:
            # The whole chain's state is being discarded; delete the
            # segments its cold state held so they don't pile up in the
            # store across teardown/re-admission cycles.
            chain.release_spill()
            self._chain = None
            self._routing = []
            self._record_migration("teardown", query.window)
            return delivered
        if any(abs(q.window - query.window) <= _EPSILON for q in self._queries.values()):
            self._refresh_plan()  # another query still needs the boundary
            return delivered
        max_window = max(q.window for q in self._queries.values())
        if query.window > max_window + _EPSILON:
            # The largest window left: shed the tail slice — its state is
            # too old for every remaining query, and the new largest window
            # is the boundary in front of it.
            chain.drop_tail_slice()
            self._record_migration("drop-tail", query.window)
        else:
            index = chain.slice_index_for_boundary(query.window)
            if index is not None and index < chain.slice_count() - 1:
                chain.merge_slices(index)
                self._record_migration("merge", query.window)
        self._refresh_plan()
        return delivered

    def _shared(self, predicate: Predicate | None) -> Predicate:
        """``predicate`` (``None``: no selection) as the one object standing
        for every equal filter of the registered queries, so the routing
        table can tell by identity which queries re-check the same residual."""
        if predicate is None:
            return _NO_FILTER
        for query in self._queries.values():
            for known in (query.left_filter, query.right_filter):
                if known is not _NO_FILTER and known == predicate:
                    return known
        return predicate

    # -- execution -------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Ingest one arriving tuple (buffered until the batch fills).

        Arrivals must come in timestamp order (equal timestamps are legal):
        every slice state is timestamp-ordered and purged from its head,
        which an out-of-order tuple would silently mis-cut.
        """
        if tup.timestamp < self._last_timestamp:
            raise ExecutionError(
                f"out-of-order arrival: timestamp {tup.timestamp!r} is lower than "
                f"the last accepted one ({self._last_timestamp!r})"
            )
        self._last_timestamp = tup.timestamp
        self._pending.append(tup)
        if len(self._pending) >= self.batch_size:
            self._run_batch()

    def process_many(self, tuples: Iterable[StreamTuple]) -> None:
        """Ingest a sequence of timestamp-ordered arrivals."""
        for tup in tuples:
            self.process(tup)

    def flush(self) -> None:
        """Process any buffered arrivals immediately (drain the batch)."""
        self._run_batch()

    def _drain(self) -> None:
        """The drain step of drain-and-splice: empty the arrival buffer."""
        self._run_batch()

    def _run_batch(self) -> None:
        batch = self._pending
        if not batch:
            return
        self._pending = []
        self.stats.arrivals += len(batch)
        self.stats.batches += 1
        metrics = self.metrics
        left_arrivals = sum(1 for tup in batch if tup.stream == self.left_stream)
        right_arrivals = len(batch) - left_arrivals
        metrics.record_ingest(left_arrivals, self.left_stream)
        metrics.record_ingest(right_arrivals, self.right_stream)
        chain = self._chain
        if chain is None:
            metrics.observe_time(batch[-1].timestamp)
            return  # No registered queries: arrivals pass through unjoined.
        routing = self._routing
        results = self._results
        #: Per query: ``(order key, result)`` entries delivered by this batch.
        block: dict[str, list] = {}
        select_count = 0
        # A slice's results are routed at once, once per distinct set of
        # checks: SELECT stays charged per (result, query) — each step's
        # survivors times the queries asking — while the order key is
        # computed per result and a residual per distinct tuple of the bin.
        for index, joined_results in chain.process_batch(batch, binned=True):
            entries = []
            for joined in joined_results:
                left, right = joined.left, joined.right
                entries.append(
                    ((max(left.timestamp, right.timestamp), left.seqno, right.seqno), joined)
                )
            verdicts: dict = {}
            for names, left_res, right_res in routing[index]:
                chosen = entries
                for residual, side in ((left_res, 0), (right_res, 1)):
                    if residual is not None and chosen:
                        select_count += len(chosen) * len(names)
                        # Equal filters are one object (_shared).
                        seen = verdicts.setdefault((id(residual), side), {})
                        matches = residual.matches
                        kept = []
                        for entry in chosen:
                            tup = entry[1].right if side else entry[1].left
                            verdict = seen.get(id(tup))
                            if verdict is None:
                                verdict = seen[id(tup)] = bool(matches(tup))
                            if verdict:
                                kept.append(entry)
                        chosen = kept
                if chosen:
                    for query_name in names:
                        block.setdefault(query_name, []).extend(chosen)
        delivered = 0
        for query_name, entries in block.items():
            # Timestamp-ordered delivery (ties broken by sequence numbers)
            # makes per-query output independent of the batch size.
            entries.sort(key=_ORDER_KEY)
            results[query_name].extend([joined for _, joined in entries])
            metrics.record_emission(query_name, len(entries))
            delivered += len(entries)
        if select_count:
            metrics.count(CostCategory.SELECT, select_count)
        self.stats.results_delivered += delivered
        if self._tuple_bytes is None:
            self._tuple_bytes = max(64, estimate_tuple_bytes(batch[0]))
        resident, spilled = chain.memory_bytes(self._tuple_bytes)
        budget = self.memory_budget_bytes
        if budget is not None and resident > budget:
            # Move cold state out until the estimate fits (the chain says what).
            if self._spill_store is None:
                self._spill_store = SpillStore()
            resident, spilled = chain.evict_cold(self._spill_store, budget, self._tuple_bytes)
        metrics.sample_memory(
            batch[-1].timestamp, chain.state_size(), resident, spilled
        )
        self._report_spill_counters()

    # -- tiered state (memory budget) -------------------------------------------
    def _report_spill_counters(self) -> None:
        """Publish the store's counter deltas as metric observations.

        Observations are counters in the snapshot (diff/aggregate-safe), so
        per-window estimates and sharded merges see monotone values.
        """
        store = self._spill_store
        if store is None:
            return
        reported = self._spill_reported
        metrics = self.metrics
        for name, value in (
            ("spill.segments", store.segments_written),
            ("spill.evictions", store.evictions),
            ("spill.cold_reads", store.cold_reads),
        ):
            delta = value - reported.get(name, 0)
            if delta > 0:
                metrics.observe(name, delta)
                reported[name] = value

    def close(self) -> None:
        """Release the disk tier: segment files and the store directory.

        End-of-session only — state on the tier is discarded, not
        re-materialized.  A retiring shard engine calls this after its
        keyed state has been extracted (extraction reads everything cold
        back into core, so nothing is lost).
        """
        if self._chain is not None:
            self._chain.release_spill()
        if self._spill_store is not None:
            self._spill_store.close()
            self._spill_store = None

    # -- statistics ----------------------------------------------------------------
    def estimated_statistics(
        self, since: "object | None" = None
    ) -> StreamStatistics:
        """Statistics estimated from this session's counters.

        ``since`` is an earlier :meth:`MetricsCollector.snapshot` value
        marking the window start; by default the whole session is the
        window.
        """
        before = since if since is not None else type(self.metrics)().snapshot()
        return StreamStatistics.from_metrics_window(
            before,
            self.metrics.snapshot(),
            left_stream=self.left_stream,
            right_stream=self.right_stream,
        )

    # -- results ---------------------------------------------------------------
    def results(self, name: str) -> list[JoinedTuple]:
        """Results delivered to a query so far (buffered arrivals included)."""
        self._drain()
        try:
            return list(self._results[name])
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None

    def pop_results(self, name: str) -> list[JoinedTuple]:
        """Return and clear a query's delivered results."""
        self._drain()
        try:
            delivered = self._results[name]
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None
        self._results[name] = []
        return delivered

    # -- keyed state repartition (live resharding) ------------------------------
    def extract_keyed_state(self, predicate=None) -> list[dict[str, list[StreamTuple]]]:
        """Drain, then remove and return resident tuples matching ``predicate``.

        One ``{stream: [tuples]}`` map per slice, in chain order — the donor
        half of the repartition primitive behind
        :meth:`repro.runtime.sharding.ShardedStreamEngine.reshard`.
        ``predicate`` is evaluated per resident tuple; ``None`` extracts
        everything.  An idle engine (no queries, hence no chain) returns an
        empty list.
        """
        self._drain()
        if self._chain is None:
            return []
        return self._chain.extract_keyed_state(predicate)

    def ingest_keyed_state(
        self, state: "list[dict[str, list[StreamTuple]]]"
    ) -> int:
        """Drain, then splice extracted per-slice state into the live chain.

        ``state`` must carry one entry per slice (the donor chain held
        identical boundaries: it served the same queries).  Returns the
        number of tuples spliced in.

        Raises
        ------
        MigrationError
            If the engine has no chain, or ``state`` does not match the
            chain's slice count.
        """
        self._drain()
        if self._chain is None:
            if not state:
                return 0
            raise MigrationError("cannot ingest state into an engine with no queries")
        return self._chain.ingest_keyed_state(state)

    # -- introspection ---------------------------------------------------------
    @property
    def boundaries(self) -> tuple[float, ...]:
        """The live chain's slice boundaries (empty for an idle engine)."""
        return tuple(self._chain.boundaries) if self._chain is not None else ()

    def queries(self) -> list[RegisteredQuery]:
        """The registered queries, sorted by (window, name)."""
        return sorted(self._queries.values(), key=lambda q: (q.window, q.name))

    def query(self, name: str) -> RegisteredQuery:
        """The registered query named ``name``.

        Raises :class:`~repro.engine.errors.QueryError` if unknown.
        """
        try:
            return self._queries[name]
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None

    def workload(self) -> QueryWorkload:
        """The registered queries as a static :class:`QueryWorkload`."""
        if not self._queries:
            raise QueryError("the engine has no registered queries")
        return QueryWorkload(
            [
                ContinuousQuery(
                    name=query.name,
                    window=query.window,
                    join_condition=self.condition,
                    left_filter=query.left_filter,
                    right_filter=query.right_filter,
                    left_stream=self.left_stream,
                    right_stream=self.right_stream,
                )
                for query in self._queries.values()
            ]
        )

    def link_filters(self) -> list[tuple[Predicate | None, Predicate | None]]:
        """The pushed-down predicates currently installed, one pair per link.

        All ``(None, None)`` on a count-window session (count chains carry
        no pushed filters); an idle engine returns an empty list.
        """
        return self._chain.link_filters() if self._chain is not None else []

    def slice_count(self) -> int:
        """Number of slices in the live chain (0 for an idle engine)."""
        return self._chain.slice_count() if self._chain is not None else 0

    def state_size(self) -> int:
        """Total tuples resident across the chain's join states."""
        return self._chain.state_size() if self._chain is not None else 0

    def states_are_disjoint(self) -> bool:
        """Check the Lemma 1 property: per-stream slice states never overlap."""
        return self._chain.states_are_disjoint() if self._chain is not None else True

    def describe(self) -> str:
        """One-line summary: registered queries and the chain layout."""
        if self._chain is None:
            return "StreamEngine (idle: no registered queries)"
        unit = self._chain.window_unit
        parts = []
        for q in self.queries():
            label = f"{q.name}[{q.window:g}{unit}]"
            if q.has_selection:
                label += "σ"
            parts.append(label)
        return f"StreamEngine ({', '.join(parts)}) chain: {self._chain.describe()}"

    # -- internals -------------------------------------------------------------
    def _refresh_plan(self) -> None:
        """Re-derive the pushed-down filters and result routing.

        Called after every admission and removal — the splice
        half of drain-and-splice for the selection placement: the σ'
        disjunctions in front of each slice and the per-query residuals
        both depend on the current query set *and* the current boundaries.
        The per-slice pushed pairs are derived once and feed both halves,
        so the installed filters and the residual routing cannot drift
        apart.
        """
        chain = self._chain
        assert chain is not None  # teardown clears the routing itself
        pushed: list[tuple[Predicate, Predicate]] | None = None
        if chain.pushes_selections and any(
            query.has_selection for query in self._queries.values()
        ):
            workload = self.workload()
            pushed = [
                (
                    workload.slice_filter(start, side="left"),
                    workload.slice_filter(start, side="right"),
                )
                for start in chain.boundaries[:-1]
            ]
        chain.set_link_filters(pushed or [(None, None)] * chain.slice_count())
        self._rebuild_routing(chain, pushed)

    def _rebuild_routing(
        self, chain: SlicedChainBase, pushed: list[tuple[Predicate, Predicate]] | None
    ) -> None:
        """Recompute the per-slice result routing after any migration.

        A query taps every slice that ends inside its window — no slice
        straddles a window, every registered window being a boundary.  A
        residual predicate is attached wherever the query's own selection is
        stronger than the disjunction pushed below the slice (σ' of
        Figure 10)."""
        trivial = TruePredicate()
        routing: list[list[_Route]] = []
        # Equal filters are one object (_shared), so queries fall into
        # families asking for the same residuals.
        families: dict[tuple[int, int], list[RegisteredQuery]] = {}
        for query in self._queries.values():
            family = (id(query.left_filter), id(query.right_filter))
            families.setdefault(family, []).append(query)
        for slice_index, end in enumerate(chain.boundaries[1:]):
            if pushed is not None:
                pushed_left, pushed_right = pushed[slice_index]
            else:
                pushed_left = pushed_right = trivial
            slice_routes: list[_Route] = []
            for members in families.values():
                left_res = _residual(members[0].left_filter, pushed_left)
                right_res = _residual(members[0].right_filter, pushed_right)
                inside = [q.name for q in members if end <= q.window + _EPSILON]
                if inside:
                    slice_routes.append((inside, left_res, right_res))
            routing.append(slice_routes)
        self._routing = routing

    def _record_migration(self, kind: str, boundary: float) -> None:
        append_bounded(
            self.stats.migrations,
            MigrationEvent(
                kind=kind,
                boundary=boundary,
                arrival_count=self.stats.arrivals,
                boundaries_after=self.boundaries,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<StreamEngine kind={self.window_kind} queries={len(self._queries)} "
            f"slices={self.slice_count()} arrivals={self.stats.arrivals}>"
        )


def _residual(query_filter: Predicate, pushed: Predicate) -> Predicate | None:
    """:func:`repro.core.pushdown.residual_predicate` for the routing table,
    with trivial residuals collapsed to ``None`` (nothing to re-check)."""
    residual = residual_predicate(query_filter, pushed)
    return None if isinstance(residual, TruePredicate) else residual


class CountStreamEngine(StreamEngine):
    """A :class:`StreamEngine` over count-based windows.

    Convenience subclass: ``CountStreamEngine(condition)`` is
    ``StreamEngine(condition, window_kind="count")``.  Windows are positive
    integer tuple counts ("the N most recent arrivals of each stream");
    selections are applied to each query's results (see the base class
    notes on why rank-based windows cannot share pushed-down filters).
    """

    def __init__(
        self,
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        batch_size: int = 32,
        metrics: MetricsCollector | None = None,
        probe: str = "nested_loop",
        memory_budget_bytes: int | None = None,
    ) -> None:
        super().__init__(
            condition,
            left_stream=left_stream,
            right_stream=right_stream,
            batch_size=batch_size,
            metrics=metrics,
            window_kind="count",
            probe=probe,
            memory_budget_bytes=memory_budget_bytes,
        )
