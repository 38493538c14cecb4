"""Shared runtime scaffolding of the sliced-join chains.

:class:`SlicedJoinChain` (time windows) and
:class:`~repro.core.count_chain.CountSlicedJoinChain` (count windows) share
almost all of their runtime machinery: pipelined per-tuple and batched
execution, state introspection, and the drain-and-splice migration
primitives of Section 5.3 (merge / append / drop-tail; only *split* differs
structurally — lazy re-purging for time slices, eager rank moves for count
slices — and stays in the subclasses).  :class:`SlicedChainBase` hosts that
shared machinery once; subclasses provide the slice-kind specifics through
a small hook surface:

* ``_coerce_boundary`` — type one boundary value (float seconds vs int
  ranks);
* ``_make_join`` — construct one slice operator for ``[start, end)``;
* ``_join_bounds`` / ``_set_join_end`` — read/extend a join's interval;
* ``_describe_join`` — one slice's display form;
* ``_through_link`` — the pushed-down filter of the queue in front of a
  slice (identity by default; the time chain overrides it, Section 6);
* ``_on_slice_inserted`` / ``_on_slice_removed`` — keep per-link metadata
  (the time chain's filter list) aligned with structural migrations.

What a *session* must know about its kind of chain is stated here as well
(``window_unit`` … ``check_target``, ``normalize_window``): the runtime asks
its chain instead of comparing ``window_kind`` strings.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.engine.errors import ChainError, MigrationError
from repro.engine.metrics import MetricsCollector
from repro.operators.sliced_join import resolve_probe
from repro.query.predicates import JoinCondition
from repro.streams.tuples import JoinedTuple, StreamTuple

__all__ = ["SlicedChainBase", "SliceResult"]

#: One result produced by a chain: the slice index and the joined tuple.
SliceResult = tuple[int, JoinedTuple]

_EPSILON = 1e-9


class SlicedChainBase:
    """Common execution, introspection and migration core of sliced chains."""

    #: Display unit of a window of this chain kind (``"s"`` / ``" rows"``).
    window_unit: str
    #: Whether selections may be pushed into the links (Section 6).
    pushes_selections = False
    #: Why a session over this chain kind may not CPU-Opt ``rebalance`` its
    #: slices / run on more than one shard (the refusal's text), or ``None``.
    rebalance_refusal: str | None = None
    shard_refusal: str | None = None

    def __init__(
        self,
        boundaries: Sequence[float],
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        metrics: MetricsCollector | None = None,
        probe: str = "nested_loop",
    ) -> None:
        bounds = [self._coerce_boundary(b) for b in boundaries]
        if len(bounds) < 2:
            raise ChainError("a chain needs at least two boundaries (one slice)")
        if abs(bounds[0]) > 1e-12:
            raise ChainError(f"the first boundary must be 0, got {bounds[0]}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ChainError(f"boundaries must be strictly increasing, got {bounds}")
        self.condition = condition
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: The *resolved* probe kind of every slice, fixed at construction
        #: (``"auto"`` is decided here against the condition).
        self.probe = resolve_probe(probe, condition)
        self.joins: list = [
            self._make_join(start, end) for start, end in zip(bounds, bounds[1:])
        ]

    # -- subclass hooks -------------------------------------------------------
    @classmethod
    def normalize_window(cls, name: str, window: float):
        """Query ``name``'s window, validated and typed for this chain kind:
        :class:`QueryError` unless finite and positive (and whole, for ranks)."""
        raise NotImplementedError

    def _coerce_boundary(self, boundary: float):
        raise NotImplementedError

    def _make_join(self, start, end):
        raise NotImplementedError

    def _join_bounds(self, join) -> tuple:
        raise NotImplementedError

    def _set_join_end(self, join, end) -> None:
        raise NotImplementedError

    def _describe_join(self, join) -> str:
        start, end = self._join_bounds(join)
        return f"[{start:g},{end:g})"

    def _through_link(self, index: int, items: list) -> list:
        """Run a FIFO run of items through the link in front of slice ``index``.

        The base chain has no pushed-down selections; the time chain
        overrides this with its per-link :class:`StreamFilter` pairs.
        """
        return items

    def _on_slice_inserted(self, index: int) -> None:
        """A slice was inserted at ``index`` (migration bookkeeping hook)."""

    def _on_slice_removed(self, index: int) -> None:
        """The slice at ``index`` was removed (migration bookkeeping hook)."""

    def set_link_filters(self, predicates: Sequence[tuple]) -> None:
        """Install pushed-down predicates, one ``(left, right)`` pair per link.

        Only a chain that :attr:`pushes_selections` can hold any; here every
        pair must be ``(None, None)``.
        """
        if any(pair != (None, None) for pair in predicates):
            raise ChainError(f"{type(self).__name__} carries no pushed-down selections")

    def link_filters(self) -> list[tuple]:
        """The installed pushed-down predicates, one pair per link (none here)."""
        return [(None, None)] * len(self.joins)

    def check_target(self, target: Sequence[float], windows: dict[str, float]) -> None:
        """Refuse (:class:`MigrationError`) a boundary list this chain kind
        cannot serve the registered ``{query name: window}`` from; a time
        chain serves any (the router re-checks results of wider slices)."""

    # -- execution ------------------------------------------------------------
    def process(self, tup: StreamTuple) -> list[SliceResult]:
        """Feed one arriving tuple through the whole chain.

        Returns every joined result produced, tagged with the index of the
        slice that produced it.  Tuples must be fed in global timestamp
        order.
        """
        results: list[SliceResult] = []
        port = "left" if tup.stream == self.left_stream else "right"
        pending: deque[tuple[int, tuple[str, Any]]] = deque()
        for entry in self._through_link(0, [tup]):
            for emission in self.joins[0].process(entry, port):
                pending.append((0, emission))
        while pending:
            index, (out_port, item) = pending.popleft()
            if out_port == "output":
                results.append((index, item))
            elif out_port == "next":
                next_index = index + 1
                if next_index < len(self.joins):
                    for passed in self._through_link(next_index, [item]):
                        emissions = self.joins[next_index].process(passed, "chain")
                        for emission in emissions:
                            pending.append((next_index, emission))
            # punctuations are dropped: the chain harness returns results
            # directly instead of routing them through a union operator.
        return results

    def process_batch(self, tuples: Sequence[StreamTuple]) -> list[SliceResult]:
        """Feed a FIFO batch of arrivals through the chain, slice by slice.

        The head join's raw ports are interchangeable (each arrival is
        captured as its male/female reference pair from the tuple's own
        stream), so the whole mixed-stream batch is delivered to it in one
        ``process_batch`` call; later joins consume the propagated
        references on their ``chain`` port.  Results are returned in
        slice-major order: all of slice 0's results for the batch, then
        slice 1's, and so on — the result *set* is identical to per-tuple
        processing, and within one slice results keep arrival order.
        """
        batch: list[Any] = list(tuples)
        results: list[SliceResult] = []
        port = "left"
        for index, join in enumerate(self.joins):
            batch = self._through_link(index, batch)
            if not batch:
                break
            next_batch: list[Any] = []
            # Punctuation construction is suppressed (the chain harness
            # returns results directly instead of routing them through a
            # union operator, so slice punctuations would be dropped here).
            for out_port, item in join.process_batch(batch, port, False):
                if out_port == "output":
                    results.append((index, item))
                elif out_port == "next":
                    next_batch.append(item)
            batch = next_batch
            port = "chain"
        return results

    def process_all(self, tuples: Sequence[StreamTuple]) -> list[SliceResult]:
        """Feed a whole (timestamp-ordered) sequence of tuples."""
        results: list[SliceResult] = []
        for tup in tuples:
            results.extend(self.process(tup))
        return results

    # -- introspection ----------------------------------------------------------
    @property
    def boundaries(self) -> list:
        bounds = [self._join_bounds(self.joins[0])[0]]
        bounds.extend(self._join_bounds(join)[1] for join in self.joins)
        return bounds

    def slice_count(self) -> int:
        return len(self.joins)

    def state_size(self) -> int:
        """Total number of tuples stored across all slices of the chain."""
        return sum(join.state_size() for join in self.joins)

    def state_sizes(self) -> list[int]:
        return [join.state_size() for join in self.joins]

    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """(resident, spilled) byte estimate across all slices.

        ``tuple_bytes`` is the caller's per-tuple in-core estimate (the
        engine samples it from the first arrival); slices on the disk tier
        report their segment bytes as spilled and only their tail buffer
        and row metadata as resident.
        """
        resident = 0
        spilled = 0
        for join in self.joins:
            join_resident, join_spilled = join.memory_bytes(tuple_bytes)
            resident += join_resident
            spilled += join_spilled
        return resident, spilled

    def state_tuples(self, stream: str) -> list[list[StreamTuple]]:
        """Per-slice state contents of one stream (oldest slice last)."""
        return [join.state_tuples(stream) for join in self.joins]

    def head_state_sizes(self) -> tuple[int, int]:
        """(left, right) state occupancy of the head slice.

        The head slice sees the unfiltered stream pair whenever its entry
        link carries no selection, which makes its match/candidate ratio an
        unbiased estimator of the join factor — the quantity the adaptive
        runtime feeds into :class:`repro.core.statistics.StreamStatistics`.
        """
        head = self.joins[0]
        return head.state_size(self.left_stream), head.state_size(self.right_stream)

    def states_are_disjoint(self) -> bool:
        """Check the Lemma 1 property: per-stream slice states never overlap."""
        for stream in (self.left_stream, self.right_stream):
            seen: set[int] = set()
            for join in self.joins:
                for tup in join.state_tuples(stream):
                    if tup.seqno in seen:
                        return False
                    seen.add(tup.seqno)
        return True

    # -- keyed state repartition (live resharding) ------------------------------
    def extract_keyed_state(self, predicate=None) -> list[dict[str, list[StreamTuple]]]:
        """Remove and return the resident tuples matching ``predicate``, per slice.

        Returns one ``{stream: [tuples]}`` map per slice (head slice first);
        ``predicate`` is evaluated on each resident tuple (``None`` extracts
        everything).  Within each list the tuples keep their arrival order
        — the ``(timestamp, seqno)`` order every purge loop relies on.  This
        is the donor half of the repartition primitive behind
        :meth:`repro.runtime.sharding.ShardedStreamEngine.reshard`; the
        receiving half is :meth:`ingest_keyed_state`.
        """
        return [
            {
                stream: join.extract_state(stream, predicate)
                for stream in (self.left_stream, self.right_stream)
            }
            for join in self.joins
        ]

    def ingest_keyed_state(
        self, state: Sequence[dict[str, list[StreamTuple]]]
    ) -> int:
        """Splice extracted per-slice state into this chain's slices.

        ``state`` must have one ``{stream: [tuples]}`` entry per slice of
        this chain (the donor chain must therefore hold the same boundaries
        — the admission fan-out invariant of a sharded session).  Each
        slice merges the incoming tuples with its resident ones in global
        ``(timestamp, seqno)`` order and rebuilds its hash index when
        probing is indexed.  Returns the total number of tuples spliced in.
        """
        if len(state) != len(self.joins):
            raise MigrationError(
                f"keyed state has {len(state)} slice entries, chain has "
                f"{len(self.joins)} slices — repartition requires identical "
                f"boundaries"
            )
        moved = 0
        for join, entry in zip(self.joins, state):
            for stream, tuples in entry.items():
                moved += join.ingest_state(stream, tuples)
        return moved

    # -- online migration (Section 5.3) -----------------------------------------
    def merge_slices(self, index: int) -> None:
        """Merge slice ``index`` with slice ``index + 1``.

        The states of the two slices are concatenated (the later slice holds
        the older tuples, so its state goes first — an indexed state
        rebuilds its key index as ``load_state`` loads it) and the surviving
        join's end boundary is extended, mirroring the merge procedure of
        Section 5.3.  The queue between the two slices is always empty in
        this harness because every arrival is propagated fully.
        """
        if not 0 <= index < len(self.joins) - 1:
            raise MigrationError(
                f"cannot merge slice {index}: it has no successor in the chain"
            )
        keep = self.joins[index]
        absorb = self.joins[index + 1]
        for stream in (self.left_stream, self.right_stream):
            older = absorb.state_tuples(stream)
            newer = keep.state_tuples(stream)
            keep.load_state(stream, older + newer)
        self._set_join_end(keep, self._join_bounds(absorb)[1])
        absorb.release_spill()
        del self.joins[index + 1]
        self._on_slice_removed(index + 1)

    def append_slice(self, end) -> None:
        """Extend the chain with a new empty tail slice ``[old_end, end)``.

        Used when a query with a window larger than the current chain end
        registers at runtime: tuples purged off the old tail (previously
        discarded) now flow into the new slice, so the larger window fills
        naturally from this point on — the new query sees exactly the
        results a fresh chain over the remaining stream suffix would see.
        """
        old_end = self._join_bounds(self.joins[-1])[1]
        end = self._coerce_boundary(end)
        if end <= old_end + 1e-12:
            raise MigrationError(
                f"appended boundary {end:g} must exceed the chain end {old_end:g}"
            )
        self.joins.append(self._make_join(old_end, end))
        self._on_slice_inserted(len(self.joins) - 1)

    def drop_tail_slice(self) -> None:
        """Remove the last slice of the chain, discarding its state.

        Used when the largest-window query deregisters: the tail slice holds
        only tuples too old for every remaining window, so its state can be
        dropped wholesale without touching the rest of the chain.
        """
        if len(self.joins) < 2:
            raise MigrationError("cannot drop the only slice of a chain")
        self.joins.pop().release_spill()
        self._on_slice_removed(len(self.joins))

    def slice_index_for_boundary(self, boundary) -> int | None:
        """Index of the slice whose *end* equals ``boundary``, if any."""
        boundary = self._coerce_boundary(boundary)
        for index, join in enumerate(self.joins):
            if abs(self._join_bounds(join)[1] - boundary) <= _EPSILON:
                return index
        return None

    def slice_index_containing(self, boundary) -> int | None:
        """Index of the slice with ``start < boundary < end``, if any."""
        boundary = self._coerce_boundary(boundary)
        for index, join in enumerate(self.joins):
            start, end = self._join_bounds(join)
            if start + _EPSILON < boundary < end - _EPSILON:
                return index
        return None

    def describe(self) -> str:
        return " -> ".join(self._describe_join(join) for join in self.joins)
