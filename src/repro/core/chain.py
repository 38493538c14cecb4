"""Runtime chains of sliced binary joins, stored as one column per stream.

:class:`SlicedJoinChain` is the runtime form of Definition 2 — what a
time-window :class:`~repro.runtime.engine.StreamEngine` builds, and the
entry point for checking the equivalence theorems (Theorems 1-3) against a
regular window join, inspecting per-slice states (Lemma 1) and exercising
the online migrations of Section 5.3.

The paper's chain stores every tuple once and stratifies it by age (Section
4.2, Theorem 3), so the per-stream states of its slices are *consecutive
ranges of one arrival-ordered sequence*.  :class:`CursorChain` keeps them that
way for both window kinds: per stream one
:class:`~repro.engine.columns.ChainColumn` for the whole chain and one cursor
per slice boundary.  A raw arrival is appended once; rows leave storage off
the chain's end only; a merge deletes a cursor; a batch is classified once and
each column answers it with one 2-D probe mask per block of males for *all*
slices, hit pairs placed in slices afterwards, as arrays, by their own male's
cuts — one :class:`~repro.engine.columns.HitBlock` per batch.  A
chain kind supplies only *where its cursors are*: this module's time chain
advances them by cross-purge (one sweep per slice; ``split_slice`` duplicates
a cursor and the shrunk slice re-purges lazily, as in Section 5.3), the count
chain (:mod:`repro.core.count_chain`) computes them from row counts.
A pushed-down filter meets a row once, as it arrives: a link passes a row,
male or female, when the verdict bit of one of its σ' disjuncts is set.
Comparison counts, per-slice and per-filter invocations and the pushed-down
selections' ``SELECT`` charges come from cursor arithmetic and equal, count
for count, those of the operator pipeline,
:class:`~repro.core.chain_operators.OperatorJoinChain` — the per-item
reference ``tests/test_cursor_chain.py`` holds this class to.
State crosses every migration boundary as per-slice tuple lists
(``docs/invariants.md``).  Under a session's memory budget the oldest rows of
each column are *cold* — payload in an append-only log on disk, timestamp and
key in the column — and the same kernel runs over them
(:meth:`CursorChain.evict_cold`).
For a *static* workload with routers and unions
use :func:`repro.core.plan_builder.build_state_slice_plan`.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil
from operator import attrgetter

from repro.core.chain_base import SlicedChainBase, SliceResult, TimeChainBase
from repro.engine.columns import ChainColumn, HitBlock, ProbeBinding
from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory
from repro.engine.spill import ROW_METADATA_BYTES, SpillLog, SpillStore
from repro.query.predicates import OrPredicate
from repro.streams.tuples import StreamTuple

__all__ = ["CursorChain", "SlicedJoinChain", "SliceResult"]

_ARRIVAL = attrgetter("timestamp", "seqno")  # the order within a slice


@lru_cache(maxsize=256)
def _slice_name(start: float, end: float) -> str:
    """A slice is named by its *current* bounds (an operator keeps the name
    it was built with)."""
    return f"slice[{start:g},{end:g})"


class CursorChain(SlicedChainBase):
    """A chain whose slices are row ranges of one column per stream.

    Everything that does not depend on *where* the cursors are: the two
    :class:`~repro.engine.columns.ChainColumn` columns, the once-per-batch
    classification, the verdict bits of the session's filters, introspection,
    the cold prefix of a memory budget, keyed extract/ingest and the
    migrations that delete, add or free a range.  A kind provides
    ``_slice_results`` (extend, place the cursors each male sees, probe,
    ``settle``, one :class:`~repro.engine.columns.HitBlock`),
    ``split_slice`` and, where a load's own cursors are not its, ``_place``.
    """

    def _build(self, bounds: list) -> None:
        slices = [[] for _ in bounds[1:]]
        self._streams = (self.left_stream, self.right_stream)
        #: Per stream (left, right): the column its tuples live in.
        self._columns = tuple(
            ChainColumn(ProbeBinding(self.condition, stores_left), slices)
            for stores_left in (True, False)
        )

    #: The name a slice's invocations are counted under, from its bounds.
    _slice_name = staticmethod(_slice_name)

    def _retire_slices(self, index: int, count: int = 1) -> None:
        starts = self._bounds[index : index + count + 1]
        self.metrics.retire(map(self._slice_name, starts, starts[1:]))

    def _place(self, column: ChainColumn) -> None:
        """Put ``column``'s cursors where this kind keeps them, after a load —
        which leaves them at the ends of the lists it was given: a time
        chain's place."""

    # -- execution ------------------------------------------------------------
    def _classify(self, batch: list[StreamTuple]) -> tuple[tuple, tuple, tuple]:
        """One pass over a batch; per stream (left, right) its arrivals and,
        per arrival, its place in the batch and how many arrivals of the
        *other* stream precede it (the females it sees as a male)."""
        streams = self._streams
        arrivals: tuple[list, list] = ([], [])
        places: tuple[list, list] = ([], [])
        preceding: tuple[list, list] = ([], [])
        for place, tup in enumerate(batch):
            side = 0 if tup.stream == streams[0] else 1
            if side and tup.stream != streams[1]:
                raise PlanError(f"the chain joins streams {streams[0]!r}/{streams[1]!r}, got {tup.stream!r}")
            preceding[side].append(len(arrivals[1 - side]))
            places[side].append(place)
            arrivals[side].append(tup)
        return arrivals, places, preceding

    _residuals: tuple[list, list] = ([], [])

    def assign_filters(self, left: list, right: list) -> None:
        """The routing residuals each stream's rows keep verdicts for
        (``_residuals``), in a routing table's bit order (:meth:`_register`)."""
        self._residuals = (left, right)
        self._register()

    def _register(self) -> None:
        """Give each column a verdict column per residual, then per disjunct
        of an installed link filter not among them (a link's σ' ORs shared
        query filters), and per link the columns it ORs: at :meth:`assign_filters`
        and the first batch after the links change, not at each change."""
        links = self.link_filters()
        for side, column in enumerate(self._columns):
            filters, bits = list(self._residuals[side]), []
            for predicate in (pair[side] for pair in links):
                disjuncts = predicate.children if isinstance(predicate, OrPredicate) else (predicate,)
                filters += [disjunct for disjunct in disjuncts if disjunct not in (*filters, None)]
                bits.append(None if predicate is None else list(map(filters.index, disjuncts)))
            column.assign_filters(filters, bits)

    # -- introspection ----------------------------------------------------------
    def state_sizes(self) -> list[int]:
        left, right = (column.sizes() for column in self._columns)
        return [a + b for a, b in zip(left, right)]

    def state_size(self) -> int:
        return sum(len(column) - sum(column.dead) for column in self._columns)

    def state_tuples(self, stream: str) -> list[list[StreamTuple]]:
        return self._columns[self._streams.index(stream)].slices()

    # -- the disk tier ------------------------------------------------------------
    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """``(resident, spilled)`` estimate: hot tuples at ``tuple_bytes`` each
        plus the resident metadata of the cold rows; the log's live bytes."""
        hot, cold, spilled = map(sum, zip(*(column.tiers() for column in self._columns)))
        return int(hot * tuple_bytes) + cold * ROW_METADATA_BYTES, spilled

    def evict_cold(self, store: SpillStore, budget: int, tuple_bytes: float) -> tuple[int, int]:
        """Make the oldest hot rows of both columns cold, in proportion to
        their hot rows, until the resident estimate fits ``budget`` or nothing
        is hot (the newest rows stay hot; the slack is the batch in flight).
        Returns the ``(resident, spilled)`` estimate afterwards."""
        saved = max(1.0, tuple_bytes - ROW_METADATA_BYTES)  # per tuple made cold
        while True:
            resident, spilled = self.memory_bytes(tuple_bytes)
            hot = [len(column) - column.cold for column in self._columns]
            if resident <= budget or not any(hot):
                return resident, spilled
            share = ceil((resident - budget) / saved) / sum(hot)  # of each column's hot rows
            for column, own in zip(self._columns, hot):
                if column.log is None:
                    column.log = SpillLog(store)
                store.evictions += column.evict(ceil(own * share))

    def release_spill(self) -> None:
        """Delete both logs (a column that was partly cold is discarded)."""
        for column in self._columns:
            column.release()

    # -- keyed state repartition ------------------------------------------------
    def extract_keyed_state(self) -> list[dict[str, list[StreamTuple]]]:
        state = [{} for _ in self._bounds[1:]]
        for stream, column in zip(self._streams, self._columns):
            taken = column.slices()
            column.load([[] for _ in taken])
            self._place(column)
            for entry, tuples in zip(state, taken):
                entry[stream] = tuples
        return state

    def _ingest(self, state) -> int:
        moved = 0
        for stream, column in zip(self._streams, self._columns):
            incoming = [entry.get(stream, ()) for entry in state]
            if any(incoming):
                residents = column.slices()
                if any(residents) or not column.load_increasing(incoming):
                    column.load([sorted([*resident, *new], key=_ARRIVAL)
                                 for resident, new in zip(residents, incoming)])
                self._place(column)
                moved += sum(map(len, incoming))
        return moved

    # -- online migration: a range joins its successor, is added, is freed --------
    def _merge(self, index: int) -> None:
        for column in self._columns:
            del column.cuts[index]
            column.dead[index] += column.dead.pop(index + 1)

    def _append(self, old_end, end) -> None:
        for column in self._columns:
            column.cuts.append(0)
            column.dead.append(0)

    def _drop_tail(self) -> None:
        for column in self._columns:
            column.cuts.pop()
            column.dead.pop()
            column.settle()  # the rows below the new last cursor go


class SlicedJoinChain(CursorChain, TimeChainBase):
    """A chain of sliced binary window joins (Definition 2) over cursors.

    ``boundaries`` are the window boundaries, for example ``[0, 2, 4]`` for
    the slices ``[0, 2)`` and ``[2, 4)`` (the first must be 0, strictly
    increasing); ``condition`` is shared by every slice; ``left_stream`` /
    ``right_stream`` name the inputs; ``metrics`` is an optional shared
    collector.
    """

    #: The link filters the columns last learnt (:meth:`CursorChain._register`).
    _linked: list = []

    # -- execution ------------------------------------------------------------
    def _slice_results(self, batch: list[StreamTuple]) -> HitBlock:
        metrics, filters, columns, streams = self.metrics, self._filters, self._columns, self._streams
        if self._linked != filters:  # set_link_filters or a migration changed the links
            self._register()
            self._linked = list(filters)
        verdicts = [column.judge([tup for tup in batch if tup.stream == stream])
                    for stream, column in zip(streams, columns)]
        # -- link 0 filters the raw arrivals by their verdicts; then the batch is classified once
        for side, (stream, entry) in enumerate(zip(streams, filters[0])):
            passing = columns[side].passes(verdicts[side], 0)
            if passing is not None and batch:
                metrics.record_invocation(entry.name, len(batch))
                metrics.count(CostCategory.SELECT, len(verdicts[side]))
                verdicts[side] = verdicts[side][passing]
                passed = iter(passing.tolist())
                batch = [tup for tup in batch if tup.stream != stream or next(passed)]
        arrivals, places, preceding = self._classify(batch)
        ends = self._bounds[1:]
        if not batch:
            return HitBlock(len(ends))
        reach = [self._reach(side, verdicts[side]) for side in (0, 1)]
        # -- per column: extend, one purge sweep per slice, one probe, free
        parts = []
        crossed: list[list] = [[], []]
        purges = probes = 0
        for side, column in enumerate(columns):
            males = arrivals[1 - side]
            size = column.extend(arrivals[side], verdicts[side])
            if not males:
                continue
            stops = [size + before for before in preceding[1 - side]]
            cuts, crossed[side], purged, probed = column.sweep(
                size, [male.timestamp for male in males], stops, reach[1 - side], ends
            )
            found = column.probe(males, cuts, stops)
            parts.append((side, found, males, verdicts[1 - side], places[1 - side]))
            probes += probed
            column.settle()
            purges += purged
        metrics.count(CostCategory.PURGE, purges)
        metrics.count(CostCategory.PROBE, probes)
        # -- invocations, link by link: what the operator pipeline would see
        items = len(batch)
        for k, end in enumerate(ends):
            if k:
                # Slice k-1 sent on its males and the live rows they purged.
                sent = [
                    (len(reach[side][k - 1]), *(crossed[side][k] if k < len(crossed[side]) else (0, 0)))
                    for side in (0, 1)
                ]
                items = sum(males + arrived for males, arrived, _ in sent)
                for side, entry in enumerate(filters[k]):
                    if entry is not None and items:
                        metrics.record_invocation(entry.name, items)
                        males, arrived, passed = sent[side]
                        items -= males - len(reach[side][k]) + arrived - passed
            if not items:
                break
            metrics.record_invocation(_slice_name(self._bounds[k], end), items)
        return HitBlock(len(ends), parts)

    def _reach(self, side: int, verdicts) -> list[list[int]]:
        """Per slice, the males (by index) of stream ``side`` that reach it: a
        male's depth is fixed by its verdicts at the link filters of its own
        stream, each charged one ``SELECT`` per male copy it sees (Equation
        3).  An entry no filter shortened is the same list object as
        ``reach[0]``."""
        column = self._columns[side]
        who = list(range(len(verdicts)))
        reach = [who]
        for link in range(1, len(column.links)):
            passing = column.passes(verdicts, link)
            if passing is not None and who:
                self.metrics.count(CostCategory.SELECT, len(who))
                passing = passing.tolist()
                who = [j for j in who if passing[j]]
            reach.append(who)
        return reach

    # -- online migration -------------------------------------------------------
    def split_slice(self, index: int, boundary: float) -> None:
        """Split slice ``index`` at ``boundary`` into two adjacent slices.

        Following Section 5.3, the existing slice has its end window shrunk
        and an empty slice is inserted after it — a duplicated cursor; the
        next probe tuples will naturally purge the now-too-old tuples into
        the new slice, so no state moves and no results are lost.
        """
        self._insert_boundary(index, self._coerce_boundary(boundary))
        for column in self._columns:
            column.cuts.insert(index + 1, column.cuts[index])
            column.dead.insert(index + 1, 0)
