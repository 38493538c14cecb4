"""Shared runtime scaffolding of the sliced-join chains.

* :class:`SlicedChainBase` — what a *session* knows of its chain: batched and
  per-tuple execution (``process_batch`` is a template over the kind's
  kernel), introspection, the Section 5.3 migrations as templates over small
  hooks (*split* differs per kind and stays in the subclasses), the keyed
  extract/ingest pair behind live resharding, and the facts the runtime asks
  instead of comparing ``window_kind`` strings (``window_unit`` …
  ``shard_refusal``, ``normalize_window``).
* :class:`TimeChainBase` — what the two time chains (the cursor chain and its
  operator reference) share: seconds as boundaries and selection push-down
  (Section 6), one :class:`~repro.operators.selection.StreamFilter` pair per
  link.

How a chain stores its slices is not decided here: both session kinds keep
them as cursors over two columns (:class:`repro.core.chain.CursorChain`), the
reference as a pipeline of operators (:mod:`repro.core.chain_operators`).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.engine.errors import ChainError, MigrationError, QueryError
from repro.engine.metrics import MetricsCollector
from repro.operators.selection import StreamFilter
from repro.query.predicates import JoinCondition, Predicate, TruePredicate
from repro.query.windows import WindowSlice
from repro.streams.tuples import JoinedTuple, StreamTuple

__all__ = ["SlicedChainBase", "TimeChainBase", "SliceResult"]

#: One result produced by a chain: the slice index and the joined tuple.
SliceResult = tuple[int, JoinedTuple]

_EPSILON = 1e-9


class SlicedChainBase:
    """What a session asks of a sliced chain, whatever holds its state.

    A chain kind provides ``normalize_window`` and ``_coerce_boundary`` (type
    one window / boundary: float seconds, int ranks); ``_build(bounds)``
    (create the empty slices; the base keeps the boundary list); the kernel
    ``_slice_results(batch)`` — one FIFO batch through every slice, returning
    what :meth:`process_batch` does; ``state_tuples(stream)`` / ``state_sizes()``;
    ``extract_keyed_state`` / ``_ingest``; ``split_slice`` and the migration
    hooks ``_merge(index)`` / ``_append(old_end, end)`` / ``_drop_tail()``.  A
    chain a session builds also answers for the disk tier of a memory budget
    (``memory_bytes`` / ``evict_cold`` / ``release_spill``:
    :class:`repro.core.chain.CursorChain`).
    """

    #: Display unit of a window of this chain kind (``"s"`` / ``" rows"``).
    window_unit: str
    #: Whether selections may be pushed into the links (Section 6).
    pushes_selections = False
    #: Why a session over this chain kind may not run on more than one shard
    #: (the refusal's text), or ``None``.
    shard_refusal: str | None = None

    def __init__(
        self,
        boundaries: Sequence[float],
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        metrics: MetricsCollector | None = None,
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
        self._bounds = bounds
        self._build(bounds)

    @classmethod
    def normalize_window(cls, name: str, window: float):
        """Query ``name``'s window, validated and typed for this chain kind:
        :class:`QueryError` unless finite and positive (and whole, for ranks)."""
        raise NotImplementedError

    def _describe_slice(self, start, end) -> str:
        return f"[{start:g},{end:g})"

    def _on_slice_inserted(self, index: int) -> None:
        """A slice was inserted at ``index`` (migration bookkeeping hook)."""

    def _on_slice_removed(self, index: int) -> None:
        """The slice at ``index`` was removed (migration bookkeeping hook)."""

    def set_link_filters(self, predicates: Sequence[tuple]) -> None:
        """Install pushed-down predicates, one ``(left, right)`` pair per link:
        all ``(None, None)`` unless the chain :attr:`pushes_selections`."""
        if any(pair != (None, None) for pair in predicates):
            raise ChainError(f"{type(self).__name__} carries no pushed-down selections")

    def link_filters(self) -> list[tuple]:
        """The installed pushed-down predicates, one pair per link (none here)."""
        return [(None, None)] * self.slice_count()

    # -- execution ------------------------------------------------------------
    def process(self, tup: StreamTuple) -> list[SliceResult]:
        """Feed one arriving tuple (in global timestamp order) through the
        whole chain; returns every joined result produced, tagged with the
        index of the slice that produced it."""
        return list(self.process_batch([tup]))

    def process_batch(self, tuples: Sequence[StreamTuple]):
        """Feed a FIFO batch of arrivals through the chain.

        Returns the kernel's results: an iterable of tagged ``(slice index,
        joined)`` pairs in slice-major order — all of slice 0's for the
        batch, then slice 1's, … — the same *set* as per-tuple processing,
        in arrival order within a slice.  A cursor chain's is a
        :class:`~repro.engine.columns.HitBlock`, which a session routes as
        arrays.
        """
        return self._slice_results(list(tuples))

    def process_all(self, tuples: Sequence[StreamTuple]) -> list[SliceResult]:
        """Feed a whole (timestamp-ordered) sequence of tuples, one at a time."""
        return [pair for tup in tuples for pair in self.process(tup)]

    # -- introspection ----------------------------------------------------------
    @property
    def boundaries(self) -> list:
        return list(self._bounds)

    def slice_count(self) -> int:
        return len(self._bounds) - 1

    def state_size(self) -> int:
        """Total number of tuples stored across all slices of the chain."""
        return sum(self.state_sizes())

    def states_are_disjoint(self) -> bool:
        """Check the Lemma 1 property: per-stream slice states never overlap."""
        for stream in (self.left_stream, self.right_stream):
            seqnos = [tup.seqno for tuples in self.state_tuples(stream) for tup in tuples]
            if len(set(seqnos)) != len(seqnos):
                return False
        return True

    # -- keyed state repartition (live resharding) ------------------------------
    def ingest_keyed_state(
        self, state: Sequence[dict[str, list[StreamTuple]]]
    ) -> int:
        """Splice extracted per-slice state into this chain's slices.

        The receiving half of the repartition primitive behind
        :meth:`repro.runtime.sharding.ShardedStreamEngine.reshard`; the donor
        half, ``extract_keyed_state(predicate=None)``, removes and returns
        the resident tuples matching ``predicate`` (``None``: all) as one
        ``{stream: [tuples]}`` map per slice, head slice first, each list in
        the ``(timestamp, seqno)`` arrival order every purge relies on.
        ``state`` must have one entry per slice of this chain (the donor
        chain must therefore hold the same boundaries — the admission
        fan-out invariant of a sharded session).  Each slice merges the
        incoming tuples with its resident ones in that order.  Returns the
        total number of tuples spliced in.
        """
        if len(state) != self.slice_count():
            raise MigrationError(
                f"keyed state has {len(state)} slice entries, chain has "
                f"{self.slice_count()} slices — repartition requires identical "
                f"boundaries"
            )
        return self._ingest(state)

    # -- online migration (Section 5.3) -----------------------------------------
    def merge_slices(self, index: int) -> None:
        """Merge slice ``index`` with slice ``index + 1`` (Section 5.3): their
        states are concatenated, the older tuples of the later slice first,
        and the surviving slice's end is extended.  The queue between the two
        is always empty here: every arrival is propagated fully."""
        if not 0 <= index < self.slice_count() - 1:
            raise MigrationError(
                f"cannot merge slice {index}: it has no successor in the chain"
            )
        self._merge(index)
        del self._bounds[index + 1]
        self._on_slice_removed(index + 1)

    def append_slice(self, end) -> None:
        """Extend the chain with a new empty tail slice ``[old_end, end)``.

        For a query whose window exceeds the chain end: tuples purged off the
        old tail (previously discarded) now flow into the new slice, so the
        new query sees exactly the results a fresh chain over the remaining
        stream suffix would see.
        """
        old_end = self._bounds[-1]
        end = self._coerce_boundary(end)
        if end <= old_end + 1e-12:
            raise MigrationError(
                f"appended boundary {end:g} must exceed the chain end {old_end:g}"
            )
        self._append(old_end, end)
        self._bounds.append(end)
        self._on_slice_inserted(self.slice_count() - 1)

    def drop_tail_slice(self) -> None:
        """Remove the last slice of the chain, discarding its state (when the
        largest-window query leaves, the tail holds only tuples too old for
        every remaining window)."""
        if self.slice_count() < 2:
            raise MigrationError("cannot drop the only slice of a chain")
        self._drop_tail()
        self._bounds.pop()
        self._on_slice_removed(self.slice_count())

    def _insert_boundary(self, index: int, boundary) -> None:
        """The bookkeeping of a split of slice ``index`` at ``boundary``
        (refused anywhere but strictly inside the slice)."""
        if not 0 <= index < self.slice_count():
            raise MigrationError(f"no slice with index {index}")
        start, end = self._bounds[index : index + 2]
        if not start < boundary < end:
            raise MigrationError(
                f"split boundary {boundary:g} must lie strictly inside "
                f"{self._describe_slice(start, end)}"
            )
        self._bounds.insert(index + 1, boundary)
        self._on_slice_inserted(index + 1)

    def slice_index_for_boundary(self, boundary) -> int | None:
        """Index of the slice whose *end* equals ``boundary``, if any."""
        boundary = self._coerce_boundary(boundary)
        for index, end in enumerate(self._bounds[1:]):
            if abs(end - boundary) <= _EPSILON:
                return index
        return None

    def slice_index_containing(self, boundary) -> int | None:
        """Index of the slice with ``start < boundary < end``, if any."""
        boundary = self._coerce_boundary(boundary)
        bounds = self._bounds
        for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
            if start + _EPSILON < boundary < end - _EPSILON:
                return index
        return None

    def describe(self) -> str:
        bounds = self._bounds
        return " -> ".join(
            self._describe_slice(start, end) for start, end in zip(bounds, bounds[1:])
        )


class TimeChainBase(SlicedChainBase):
    """The facts of a chain over time windows, however it stores its slices.

    Boundaries are seconds, and each link (the queue in front of a slice,
    the chain entry included) can hold one pushed-down ``StreamFilter`` per
    stream (Section 6): a tuple failing a link's filter never enters the
    slices behind it, which keeps the chain memory-minimal (Theorem 4).
    """

    window_unit = "s"
    pushes_selections = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``_filters[i]`` is the ``(left StreamFilter | None, right
        #: StreamFilter | None)`` pair in front of slice ``i`` (``i = 0``
        #: filters the raw arrivals).
        self._filters = [(None, None)] * self.slice_count()

    @classmethod
    def normalize_window(cls, name: str, window: float) -> float:
        """A positive, finite number of seconds (see the base class)."""
        try:
            window = float(window)
        except (TypeError, ValueError, OverflowError):
            raise QueryError(f"query {name!r} has non-numeric window {window!r}") from None
        if not math.isfinite(window):
            raise QueryError(f"query {name!r} has non-finite window {window}")
        if window <= 0:
            raise QueryError(f"query {name!r} has non-positive window {window}")
        return window

    def _coerce_boundary(self, boundary: float) -> float:
        return float(boundary)

    def _describe_slice(self, start: float, end: float) -> str:
        return WindowSlice(start, end).describe()

    def _on_slice_inserted(self, index: int) -> None:
        # The new link starts unfiltered; the owner of the chain recomputes
        # the filter placement for the changed boundaries.
        self._filters.insert(index, (None, None))

    def _on_slice_removed(self, index: int) -> None:
        del self._filters[index]

    def set_link_filters(
        self, predicates: Sequence[tuple[Predicate | None, Predicate | None]]
    ) -> None:
        """Install the pushed-down σ' predicates, one pair per link.

        ``predicates[i]`` is the ``(left, right)`` pair guarding the queue in
        front of slice ``i``; ``None`` (or a ``TruePredicate``) removes the
        filter.  The owner — :class:`repro.runtime.engine.StreamEngine` —
        recomputes the placement after every migration.  Resident state is
        not re-evaluated: a tuple meets a link's filter when it crosses it.
        """
        starts = self._bounds[:-1]
        if len(predicates) != len(starts):
            raise ChainError(f"expected {len(starts)} filter pairs, got {len(predicates)}")
        filters = []
        for start, pair in zip(starts, predicates):
            installed = []
            for stream, predicate in zip((self.left_stream, self.right_stream), pair):
                if predicate is None or isinstance(predicate, TruePredicate):
                    installed.append(None)
                    continue
                stream_filter = StreamFilter(
                    predicate, stream=stream, name=f"σ'[{stream}]@{start:g}"
                )
                stream_filter.bind_metrics(self.metrics)
                installed.append(stream_filter)
            filters.append(tuple(installed))
        self._filters = filters

    def link_filters(self) -> list[tuple[Predicate | None, Predicate | None]]:
        """The installed pushed-down predicates, one pair per link."""
        return [
            tuple(None if entry is None else entry.predicate for entry in pair)
            for pair in self._filters
        ]
