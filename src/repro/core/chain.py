"""Runtime chain of sliced binary joins.

:class:`SlicedJoinChain` is a lightweight runtime harness that manages a
chain of :class:`~repro.operators.sliced_join.SlicedBinaryJoin` operators
directly — without building a full query plan.  It is the most convenient
entry point for:

* verifying the equivalence theorems (Theorems 1-3) against a regular
  window join,
* inspecting the per-slice states (disjointness, Lemma 1),
* exercising the online migration primitives of Section 5.3 — splitting a
  slice into two and merging two adjacent slices while the stream is
  running.

The execution loop and the migration primitives shared with the count-based
chain live in :class:`~repro.core.chain_base.SlicedChainBase`; this class
adds the time-slice specifics: lazy splits (a shrunk slice re-purges its
too-old tuples on the next probe) and the *pushed-down selections* of
Section 6.  Each link (the queue in front of a slice, including the chain
entry) can hold one :class:`~repro.operators.selection.StreamFilter` per
stream, installed via :meth:`SlicedJoinChain.set_link_filters`.  A tuple
failing the filter of a link never enters the slices behind it, which is
what keeps the shared chain memory-minimal when queries carry selection
predicates (Theorem 4).

For shared multi-query execution with selections, routers and unions over a
*static* workload, use :func:`repro.core.plan_builder.build_state_slice_plan`,
which assembles a full :class:`~repro.engine.plan.QueryPlan` from the same
building blocks; the chain-level filters exist for the runtime layer, where
the filter placement must be re-derived after every online migration.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.chain_base import SliceResult, SlicedChainBase
from repro.engine.errors import ChainError, MigrationError, QueryError
from repro.operators.selection import StreamFilter
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.query.predicates import Predicate, TruePredicate
from repro.streams.tuples import JoinedTuple

__all__ = ["SlicedJoinChain", "SliceResult"]


class SlicedJoinChain(SlicedChainBase):
    """A pipelined chain of sliced binary window joins (Definition 2).

    Parameters
    ----------
    boundaries:
        The window boundaries of the chain, for example ``[0, 2, 4]`` for
        the two slices ``[0, 2)`` and ``[2, 4)``.  The first boundary must
        be 0 and boundaries must be strictly increasing.
    condition:
        The join condition shared by every slice.
    left_stream / right_stream:
        Names of the two input streams.
    metrics:
        Optional shared metrics collector for cost accounting.
    probe:
        Probe algorithm of every slice: ``"nested_loop"``, ``"hash"``
        (equi-joins only) or ``"auto"``.
    """

    joins: list[SlicedBinaryJoin]
    window_unit = "s"
    pushes_selections = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Pushed-down selections per link: ``_filters[i]`` is the
        #: ``(left StreamFilter | None, right StreamFilter | None)`` pair in
        #: front of slice ``i`` (``i = 0`` filters the raw arrivals).
        self._filters: list[tuple[StreamFilter | None, StreamFilter | None]] = [
            (None, None) for _ in self.joins
        ]

    # -- chain-base hooks -----------------------------------------------------
    @classmethod
    def normalize_window(cls, name: str, window: float) -> float:
        """A positive, finite number of seconds (see the base class)."""
        window = float(window)
        if not math.isfinite(window):
            raise QueryError(f"query {name!r} has non-finite window {window}")
        if window <= 0:
            raise QueryError(f"query {name!r} has non-positive window {window}")
        return window

    def _coerce_boundary(self, boundary: float) -> float:
        return float(boundary)

    def _make_join(self, start: float, end: float) -> SlicedBinaryJoin:
        join = SlicedBinaryJoin(
            window_start=start,
            window_end=end,
            condition=self.condition,
            left_stream=self.left_stream,
            right_stream=self.right_stream,
            probe=self.probe,
            name=f"slice[{start:g},{end:g})",
        )
        join.bind_metrics(self.metrics)
        return join

    def _join_bounds(self, join: SlicedBinaryJoin) -> tuple[float, float]:
        return join.slice.start, join.slice.end

    def _set_join_end(self, join: SlicedBinaryJoin, end: float) -> None:
        join.slice = type(join.slice)(join.slice.start, end)

    def _describe_join(self, join: SlicedBinaryJoin) -> str:
        return join.slice.describe()

    def _on_slice_inserted(self, index: int) -> None:
        # The new link starts unfiltered; the owner of the chain recomputes
        # the filter placement for the changed boundaries.
        self._filters.insert(index, (None, None))

    def _on_slice_removed(self, index: int) -> None:
        del self._filters[index]

    # -- pushed-down selections (Section 6) ---------------------------------------------
    def set_link_filters(
        self, predicates: Sequence[tuple[Predicate | None, Predicate | None]]
    ) -> None:
        """Install the pushed-down σ' predicates, one pair per link.

        ``predicates[i]`` is the ``(left, right)`` predicate pair guarding
        the queue in front of slice ``i``; ``None`` (or a
        :class:`~repro.query.predicates.TruePredicate`) removes the filter.
        The caller — typically :class:`repro.runtime.engine.StreamEngine` —
        recomputes the placement from its workload after every migration.
        """
        if len(predicates) != len(self.joins):
            raise ChainError(
                f"expected {len(self.joins)} filter pairs, got {len(predicates)}"
            )
        filters: list[tuple[StreamFilter | None, StreamFilter | None]] = []
        for index, (left, right) in enumerate(predicates):
            start = self.joins[index].slice.start
            pair = []
            for stream, predicate in (
                (self.left_stream, left),
                (self.right_stream, right),
            ):
                if predicate is None or isinstance(predicate, TruePredicate):
                    pair.append(None)
                    continue
                stream_filter = StreamFilter(
                    predicate, stream=stream, name=f"σ'[{stream}]@{start:g}"
                )
                stream_filter.bind_metrics(self.metrics)
                pair.append(stream_filter)
            filters.append((pair[0], pair[1]))
        self._filters = filters

    def link_filters(self) -> list[tuple[Predicate | None, Predicate | None]]:
        """The installed pushed-down predicates, one pair per link."""
        return [
            (
                left.predicate if left is not None else None,
                right.predicate if right is not None else None,
            )
            for left, right in self._filters
        ]

    def _through_link(self, index: int, items: list) -> list:
        """Run a FIFO run of items through link ``index``'s filters."""
        left, right = self._filters[index]
        for stream_filter in (left, right):
            if stream_filter is None or not items:
                continue
            items = [
                item for _port, item in stream_filter.process_batch(items, "in")
            ]
        return items

    # -- time-window specifics ------------------------------------------------
    def results_for_window(
        self, results: Sequence[SliceResult], window: float
    ) -> list[JoinedTuple]:
        """Restrict chain results to those a query with ``window`` receives.

        For a Mem-Opt chain the answer of a query with window ``w_k`` is the
        union of the results of slices 1..k; for a chain with merged slices
        the results of the completing slice must additionally satisfy the
        query's window constraint (the router check).
        """
        answer = []
        for index, joined in results:
            join = self.joins[index]
            if join.slice.end <= window + 1e-12:
                answer.append(joined)
            elif join.slice.start < window:
                gap = abs(joined.left.timestamp - joined.right.timestamp)
                if gap < window:
                    answer.append(joined)
        return answer

    def split_slice(self, index: int, boundary: float) -> None:
        """Split slice ``index`` at ``boundary`` into two adjacent slices.

        Following Section 5.3, the existing join simply has its end window
        shrunk and an empty join is inserted after it; the next probe tuples
        will naturally purge the now-too-old tuples into the new slice, so
        no state needs to be moved and no results are lost.
        """
        if not 0 <= index < len(self.joins):
            raise MigrationError(f"no slice with index {index}")
        join = self.joins[index]
        if not (join.slice.start < boundary < join.slice.end):
            raise MigrationError(
                f"split boundary {boundary:g} must lie strictly inside "
                f"{join.slice.describe()}"
            )
        old_end = join.slice.end
        new_join = self._make_join(boundary, old_end)
        join.slice = type(join.slice)(join.slice.start, boundary)
        self.joins.insert(index + 1, new_join)
        self._on_slice_inserted(index + 1)
