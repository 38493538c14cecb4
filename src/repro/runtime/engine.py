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
stream.  The disjunction σ'_i of the distinct filters of all queries whose
window reaches slice ``i`` sits in the chain link in front of that slice, and
each query applies its *residual* predicate to the results it taps —
re-evaluated only where the pushed disjunction is weaker than the query's own
predicate.  Both read verdict bits, each distinct filter judged once per row
(:class:`~repro.engine.columns.ChainColumn`).  Filter splicing rides the same
drain-and-splice migration and is as local as the boundary move: per side,
each distinct filter keeps the ``(window, name)`` of the queries carrying it,
so a migration rebuilds only the σ' of the links whose distinct filters
changed, and only the residuals behind them.

**Count-based windows** — ``window_kind="count"`` runs the same admission
protocol over a :class:`~repro.core.count_chain.CountSlicedJoinChain`,
whose boundaries are tuple *ranks* instead of time offsets — the same two
columns as a time-window session's chain, its slices rank ranges, so a
migration moves no row.  Selections are *not* pushed into a count
chain: a pushed filter would change which tuples occupy the "most recent
N" ranks, silently redefining every query's window.  Count-window
selections are therefore applied to each query's results (window semantics:
the N most recent *arrivals*, selections filter the answers).  A count
session is never sharded: :class:`~repro.runtime.sharding.ShardedStreamEngine`
is time-window only.

The caller's quantum is the batch: ``process_many`` runs its arrivals as
one (split at :data:`BLOCK`), ``process`` buffers until a barrier — flush,
pull, admission, removal, introspection — and the chain's
:class:`~repro.engine.columns.HitBlock` is routed as arrays.  Per-query
results are delivered in timestamp order (ties broken by sequence
numbers), which makes the output independent of where batches end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping

from repro.core.chain import SlicedJoinChain
from repro.core.chain_base import SlicedChainBase
from repro.core.count_chain import CountSlicedJoinChain
from repro.core.pushdown import residual_predicate
from repro.engine.columns import RouteTable
from repro.engine.errors import MigrationError, QueryError, check_arrival_order
from repro.engine.metrics import CostCategory, MetricsCollector, append_bounded
from repro.engine.spill import SpillStore, estimate_tuple_bytes
from repro.query.predicates import JoinCondition, Predicate, TruePredicate, disjunction
from repro.streams.tuples import JoinedTuple, StreamTuple

__all__ = [
    "BLOCK",
    "EngineStats",
    "MigrationEvent",
    "RegisteredQuery",
    "StreamEngine",
]

_EPSILON = 1e-9

#: Arrivals one batch holds at most: what bounds a batch's transient memory.
BLOCK = 1024

#: One routing entry per family of queries asking the same checks: ``(taps,
#: left residuals, right residuals)`` — ``taps`` the members as ``(name, last
#: slice tapped)``, a residual per slice.  Every result of a slice is inside
#: the windows of the queries tapping it (each window is a boundary), so
#: there is no window check; a residual predicate is None when already
#: implied by the filter pushed below the slice.
_Route = tuple[list[tuple[str, int]], list[Predicate | None], list[Predicate | None]]


#: The one decision ``window_kind`` makes: which chain class a session runs.
#: Window validation, push-down and the partitioning refusal are
#: facts of that class (:class:`~repro.core.chain_base.SlicedChainBase`).
CHAIN_KINDS: dict[str, type[SlicedChainBase]] = {
    "time": SlicedJoinChain,
    "count": CountSlicedJoinChain,
}

_NO_FILTER = TruePredicate()

#: A query reaches the link in front of a slice when its window is at least
#: the slice start plus this (as ``QueryWorkload.slice_filter`` reads it).
_REACH = 1e-12


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


class _Colour:
    """One distinct filter of one side and the queries carrying it.

    ``carriers`` are their ``(window, name)`` keys, ascending: the filter is a
    disjunct of a link's σ' while its last carrier reaches the link, placed
    by its first carrier that does (the order ``QueryWorkload.slice_filter``
    gives).  ``residuals`` holds, per link, what its carriers re-check on
    that slice's results (``None``: implied by the σ').
    """

    __slots__ = ("filter", "carriers", "residuals")

    def __init__(self, predicate: Predicate) -> None:
        self.filter = predicate
        self.carriers: list[tuple[float, str]] = []
        self.residuals: list[Predicate | None] | None = None


@dataclass(frozen=True)
class MigrationEvent:
    """One chain migration performed by the engine (for observability)."""

    kind: str  #: "create" | "split" | "append" | "merge" | "drop-tail" | "teardown"
    boundary: float
    arrival_count: int
    boundaries_after: tuple[float, ...]


@dataclass
class EngineStats:
    """A session's counters as read: built from its metrics snapshot, which
    is where they are kept."""

    arrivals: int = 0
    batches: int = 0
    results_delivered: int = 0
    #: The newest :data:`~repro.engine.metrics.LOG_LIMIT` migrations.
    migrations: list[MigrationEvent] = field(default_factory=list)

    @classmethod
    def read(
        cls, snapshot: Mapping[str, float], migrations: list[MigrationEvent]
    ) -> "EngineStats":
        """The counters of ``snapshot`` (one session's, or a sharded
        session's merged view) beside a migration log."""
        return cls(
            arrivals=int(snapshot.get("ingested.total", 0)),
            batches=int(snapshot.get("observations.engine.batches", 0)),
            results_delivered=int(snapshot.get("emitted.total", 0)),
            migrations=list(migrations),
        )


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
    window_kind:
        ``"time"`` (default) for sliding windows in seconds over a
        :class:`~repro.core.chain.SlicedJoinChain`, or ``"count"`` for
        most-recent-N-tuples windows over a
        :class:`~repro.core.count_chain.CountSlicedJoinChain`.
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

    #: Slice state is always columnar (:mod:`repro.engine.columns`) and a
    #: slice probes by nested loop, the paper's cost model; these constants
    #: exist only because ``bench/workloads.resolved_knobs`` reads
    #: ``session.columnar`` / ``session.probe``, and go with the next
    #: ``benchmark`` PR.
    columnar = "auto"
    probe = "nested_loop"

    def __init__(
        self,
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        window_kind: str = "time",
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
        #: The one store of the session's counters: :attr:`stats` and the
        #: disk tier's ``spill.*`` counts are read from it.
        self.metrics = MetricsCollector()
        self.window_kind = window_kind
        #: The newest :data:`~repro.engine.metrics.LOG_LIMIT` migrations.
        self._migrations: list[MigrationEvent] = []
        self._chain: SlicedChainBase | None = None
        self._queries: dict[str, RegisteredQuery] = {}
        self._results: dict[str, list[JoinedTuple]] = {}
        self._pending: list[StreamTuple] = []
        self._last_timestamp = float("-inf")
        self._routing: list[_Route] = []
        # The selection placement, (re)made with the chain (add_query):
        #: per side (left, right), the distinct filters by ``id``;
        self._colours: tuple[dict[int, _Colour], dict[int, _Colour]]
        #: per side, per link, the σ' pushed in front of the slice and its
        #: disjuncts' ids in order (``None`` when one is TRUE, as then σ' is);
        self._pushed: tuple[list, list]
        self._disjuncts: tuple[list, list]
        #: every registered filter but the no-filter, by equality (_shared).
        self._shared_filters: dict[Predicate, Predicate]
        #: ``_routing`` as arrays, built when the first batch after a plan change needs it.
        self._table: RouteTable | None = None
        self.memory_budget_bytes = memory_budget_bytes
        self._spill_store: SpillStore | None = None
        self._tuple_bytes: int | None = None

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
        over the respective input stream; the same migration splices the
        shared push-down placement on the links whose filters it changes.
        """
        if name in self._queries:
            raise QueryError(f"query {name!r} is already registered")
        window = self.chain_class.normalize_window(name, window)
        self._drain()
        inserted = None
        if self._chain is None:
            # The one site a session's chain kind is decided.
            self._chain = self.chain_class(
                [0, window],
                self.condition,
                left_stream=self.left_stream,
                right_stream=self.right_stream,
                metrics=self.metrics,
            )
            self._record_migration("create", window)
            self._colours, self._pushed, self._disjuncts = ({}, {}), ([], []), ([], [])
            self._shared_filters = {}
            inserted = 0
        else:
            chain = self._chain
            boundaries = chain.boundaries
            if window > boundaries[-1] + _EPSILON:
                chain.append_slice(window)
                self._record_migration("append", window)
                inserted = chain.slice_count() - 1
            elif all(abs(window - b) > _EPSILON for b in boundaries):
                index = chain.slice_index_containing(window)
                if index is None:  # pragma: no cover - boundaries are contiguous
                    raise MigrationError(
                        f"no slice of {boundaries} contains boundary {window:g}"
                    )
                chain.split_slice(index, window)
                self._record_migration("split", window)
                inserted = index + 1
        query = RegisteredQuery(
            name, window, self.metrics.tuples_ingested,
            self._shared(left_filter), self._shared(right_filter),
        )
        self._queries[name] = query
        self._results[name] = []
        self._splice(query, True, inserted)
        return query

    def remove_query(self, name: str) -> list[JoinedTuple]:
        """Deregister a query and return the results delivered to it.

        Boundaries no longer needed by any remaining query are merged away
        (or the tail slice is dropped when the largest window leaves), and
        the pushed-down filters of the links the query reached are updated
        for the remaining queries; those queries keep producing exactly the
        same results.
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
            self._table = None
            self._record_migration("teardown", query.window)
            self.metrics.retire(list(self.metrics.invocations), (name,))
            return delivered
        deleted = None
        if any(abs(q.window - query.window) <= _EPSILON for q in self._queries.values()):
            pass  # another query still needs the boundary
        elif query.window > max(q.window for q in self._queries.values()) + _EPSILON:
            # The largest window left: shed the tail slice — its state is
            # too old for every remaining query, and the new largest window
            # is the boundary in front of it.
            deleted = chain.slice_count() - 1
            chain.drop_tail_slice()
            self._record_migration("drop-tail", query.window)
        else:
            index = chain.slice_index_for_boundary(query.window)
            if index is not None and index < chain.slice_count() - 1:
                chain.merge_slices(index)
                self._record_migration("merge", query.window)
                deleted = index + 1
        self._splice(query, False, deleted)
        self.metrics.retire(emitted=(name,))
        return delivered

    def _shared(self, predicate: Predicate | None) -> Predicate:
        """``predicate`` (``None``: no selection) as the one object standing
        for every equal filter of the registered queries, so the routing
        table can tell by identity which queries re-check the same residual."""
        if predicate is None:
            return _NO_FILTER
        try:
            return self._shared_filters.setdefault(predicate, predicate)
        except TypeError:  # unhashable: an equal registered filter is found by a scan
            known = (colour.filter for colours in self._colours for colour in colours.values())
            return next((f for f in known if f is not _NO_FILTER and f == predicate), predicate)

    # -- execution -------------------------------------------------------------
    #: The most arrivals one batch holds (read-only).
    batch_size = property(lambda self: BLOCK)

    def process(self, tup: StreamTuple) -> None:
        """Ingest one arriving tuple (buffered until the next barrier or a
        full block).

        Arrivals must come in timestamp order (equal timestamps are legal):
        every slice state is timestamp-ordered and purged from its head,
        which an out-of-order tuple would silently mis-cut.  A tuple of
        neither joined stream is refused before it is buffered (buffered, it
        would fail the whole batch it rides in).
        """
        if tup.stream != self.left_stream and tup.stream != self.right_stream:
            raise QueryError(
                f"session joins streams {sorted((self.left_stream, self.right_stream))}, "
                f"got a tuple of stream {tup.stream!r}"
            )
        self._last_timestamp = check_arrival_order(tup.timestamp, self._last_timestamp)
        self._pending.append(tup)
        if len(self._pending) >= BLOCK:
            self._run_batch()

    def process_many(self, tuples: Iterable[StreamTuple]) -> None:
        """Ingest a sequence of timestamp-ordered arrivals as one batch
        (split only at :data:`BLOCK` arrivals).  A refused tuple leaves the
        arrivals before it buffered, as :meth:`process` would."""
        for tup in tuples:
            self.process(tup)
        self._run_batch()

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
        metrics = self.metrics
        metrics.observe("engine.batches")
        left_arrivals = sum(1 for tup in batch if tup.stream == self.left_stream)
        right_arrivals = len(batch) - left_arrivals
        metrics.record_ingest(left_arrivals, self.left_stream)
        metrics.record_ingest(right_arrivals, self.right_stream)
        chain = self._chain
        if chain is None:
            metrics.observe_time(batch[-1].timestamp)
            return  # No registered queries: arrivals pass through unjoined.
        if self._table is None:
            self._table = RouteTable(self._routing, chain.slice_count())
            chain.assign_filters(*self._table.filters)
        # SELECT stays charged per (result, query); each result delivered is
        # one JoinedTuple, shared by the queries receiving it.
        deliveries, select_count = self._table.route(chain.process_batch(batch))
        results = self._results
        for query_name, joined in deliveries:
            results[query_name].extend(joined)
            metrics.record_emission(query_name, len(joined))
        if select_count:
            metrics.count(CostCategory.SELECT, select_count)
        if self._tuple_bytes is None:
            self._tuple_bytes = max(64, estimate_tuple_bytes(batch[0]))
        resident, spilled = chain.memory_bytes(self._tuple_bytes)
        budget = self.memory_budget_bytes
        if budget is not None and resident > budget:
            # Move cold state out until the estimate fits (the chain says what).
            if self._spill_store is None:
                self._spill_store = SpillStore()
                self._spill_store.metrics = metrics
            resident, spilled = chain.evict_cold(self._spill_store, budget, self._tuple_bytes)
        metrics.sample_memory(
            batch[-1].timestamp, chain.state_size(), resident, spilled
        )

    # -- tiered state (memory budget) -------------------------------------------
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
    def extract_keyed_state(self) -> list[dict[str, list[StreamTuple]]]:
        """Drain, then remove and return every resident tuple.

        One ``{stream: [tuples]}`` map per slice, in chain order — the donor
        half of the repartition primitive behind
        :meth:`repro.runtime.sharding.ShardedStreamEngine.reshard`.  Cold
        rows read back count as ``spill.cold_reads``.  An idle engine (no
        queries, hence no chain) returns an empty list.
        """
        self._drain()
        if self._chain is None:
            return []
        return self._chain.extract_keyed_state()

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

    def link_filters(self) -> list[tuple[Predicate | None, Predicate | None]]:
        """The pushed-down predicates currently installed, one pair per link.

        All ``(None, None)`` on a count-window session (count chains carry
        no pushed filters); an idle engine returns an empty list.
        """
        return self._chain.link_filters() if self._chain is not None else []

    def slice_count(self) -> int:
        """Number of slices in the live chain (0 for an idle engine)."""
        return self._chain.slice_count() if self._chain is not None else 0

    @property
    def stats(self) -> EngineStats:
        """The session's counters, read from :attr:`metrics` (buffered
        arrivals are run first)."""
        self._drain()
        return EngineStats.read(self.metrics.snapshot(), self._migrations)

    def state_size(self) -> int:
        """Total tuples resident across the chain's join states (buffered
        arrivals are run first)."""
        self._drain()
        return self._chain.state_size() if self._chain is not None else 0

    def states_are_disjoint(self) -> bool:
        """Check the Lemma 1 property: per-stream slice states never overlap."""
        self._drain()
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
    def _splice(self, query: RegisteredQuery, admitted: bool, link: int | None) -> None:
        """The splice half of drain-and-splice for the selection placement
        and the routing, after ``query`` was admitted (or removed) and the
        migration inserted (or deleted) chain link ``link``, if any.

        Per side, the query's filter gets (or loses) a carrier.  That changes
        the filter's first carrier at exactly the links the query reaches and
        its preceding carrier does not, so only those links (and an inserted
        one) can see their σ' change; a σ' is rebuilt where its disjuncts
        changed, a residual where its σ' changed or its filter is new, and
        the chain gets the changed links' filters only.  The σ' and residuals
        equal a full re-derivation from the registered queries
        (``tests/test_plan_splice.py``)."""
        chain = self._chain
        assert chain is not None  # teardown clears the routing itself
        bounds = chain.boundaries
        starts, ends = bounds[:-1], bounds[1:]
        pushes = chain.pushes_selections
        key, reached = (query.window, query.name), _links_reached(starts, query.window)
        install: set[int] = set()
        sides = zip((0, 1), self._colours, self._pushed, self._disjuncts)
        for side, colours, pushed, disjuncts in sides:
            if link is not None and admitted:
                # As the chain installed it: no filter, disjuncts unknown.
                pushed.insert(link, _NO_FILTER)
                disjuncts.insert(link, ())
                for colour in colours.values():
                    colour.residuals.insert(link, None)
            elif link is not None:
                for entries in [pushed, disjuncts] + [c.residuals for c in colours.values()]:
                    del entries[link]
            predicate = query.right_filter if side else query.left_filter
            colour = colours.get(id(predicate))
            if colour is None:
                colour = colours[id(predicate)] = _Colour(predicate)
            carriers = colour.carriers
            at = bisect_left(carriers, key)
            # The links the query reaches and its filter's previous carrier
            # does not: where the filter's first carrier changes.
            touched = range(_links_reached(starts, carriers[at - 1][0]) if at else 0, reached)
            if link is not None and admitted and link not in touched:
                touched = [*touched, link]  # a split's link: the query stops in front of it
            if admitted:
                carriers.insert(at, key)
            else:
                del carriers[at]
                if not carriers:
                    self._drop_colour(side, colour)
            resigned = []
            for k in touched:
                ids, members = _link_disjuncts(colours, starts[k]) if pushes else (None, ())
                if ids != disjuncts[k]:
                    disjuncts[k] = ids
                    sigma = _NO_FILTER if ids is None else disjunction(members)
                    if sigma is not pushed[k]:
                        pushed[k] = sigma
                        install.add(k)
                    resigned.append(k)
            for colour in colours.values():
                if colour.residuals is None:
                    colour.residuals = [_residual(colour.filter, sigma) for sigma in pushed]
                else:
                    for k in resigned:
                        colour.residuals[k] = _residual(colour.filter, pushed[k])
        if install:
            left, right = self._pushed
            chain.set_link_filters({k: (left[k], right[k]) for k in install})
        families: dict[tuple[int, int], list[RegisteredQuery]] = {}
        for member in self._queries.values():
            family = (id(member.left_filter), id(member.right_filter))
            families.setdefault(family, []).append(member)
        left, right = self._colours
        self._routing = [
            (
                [(q.name, bisect_right(ends, q.window + _EPSILON) - 1) for q in members],
                left[family[0]].residuals,
                right[family[1]].residuals,
            )
            for family, members in families.items()
        ]
        self._table = None

    def _drop_colour(self, side: int, colour: _Colour) -> None:
        """Drop a filter the last carrier on ``side`` left, and its shared
        object once neither side carries it."""
        predicate = colour.filter
        del self._colours[side][id(predicate)]
        if id(predicate) not in self._colours[1 - side]:
            try:
                if self._shared_filters.get(predicate) is predicate:
                    del self._shared_filters[predicate]
            except TypeError:  # unhashable: never registered
                pass

    def _record_migration(self, kind: str, boundary: float) -> None:
        self.metrics.observe("engine.migrations")
        append_bounded(
            self._migrations,
            MigrationEvent(
                kind=kind,
                boundary=boundary,
                arrival_count=self.metrics.tuples_ingested,
                boundaries_after=self.boundaries,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<StreamEngine kind={self.window_kind} queries={len(self._queries)} "
            f"slices={self.slice_count()} arrivals={self.metrics.tuples_ingested}>"
        )


def _links_reached(starts: list[float], window: float) -> int:
    """How many links, from the first, a query of ``window`` reaches."""
    return bisect_right(starts, window, key=lambda start: start + _REACH)


def _link_disjuncts(
    colours: dict[int, _Colour], start: float
) -> tuple[tuple[int, ...] | None, list[Predicate]]:
    """The distinct filters reaching the link at ``start``, by first carrier,
    and their ids (``None`` if one is TRUE: then so is the σ')."""
    past = start + _REACH
    firsts = []
    for colour in colours.values():
        carriers = colour.carriers
        if carriers[-1][0] >= past:
            if isinstance(colour.filter, TruePredicate):
                return None, []
            firsts.append((carriers[bisect_left(carriers, (past,))], colour.filter))
    members = [predicate for _, predicate in sorted(firsts, key=itemgetter(0))]
    return tuple(map(id, members)), members


def _residual(query_filter: Predicate, pushed: Predicate) -> Predicate | None:
    """:func:`repro.core.pushdown.residual_predicate` for the routing table,
    with trivial residuals collapsed to ``None`` (nothing to re-check)."""
    residual = residual_predicate(query_filter, pushed)
    return None if isinstance(residual, TruePredicate) else residual

