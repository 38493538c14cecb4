"""The literal Definition-2 chain: a pipeline of sliced binary join operators.

:class:`OperatorJoinChain` manages one
:class:`~repro.operators.sliced_join.SlicedBinaryJoin` per slice
(``self.joins``), each with its own pair of slice states, and moves reference
tuples between them item by item: ``process(tup)`` is the paper's Figure 9,
comparison for comparison, and a batch is its arrivals processed one after
the other.  No session builds it: it is the reference the cursor chain
(:class:`~repro.core.chain.SlicedJoinChain`, what every time-window session
runs) is fuzzed against.  The time-window facts (seconds, link filters) are
shared with the cursor chain through
:class:`~repro.core.chain_base.TimeChainBase`; a merge re-loads the surviving
operator's states and a split is lazy (the shrunk join re-purges its too-old
tuples into the new one on the next probe).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Sequence

from repro.core.chain_base import SliceResult, TimeChainBase
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.query.windows import WindowSlice
from repro.streams.tuples import StreamTuple

__all__ = ["OperatorJoinChain"]


class OperatorJoinChain(TimeChainBase):
    """A pipelined chain of sliced binary window joins (Definition 2).

    Same constructor as :class:`~repro.core.chain.SlicedJoinChain`.
    """

    joins: list[SlicedBinaryJoin]

    def _build(self, bounds: list[float]) -> None:
        self.joins = [self._make_join(start, end) for start, end in zip(bounds, bounds[1:])]

    def _make_join(self, start: float, end: float) -> SlicedBinaryJoin:
        join = SlicedBinaryJoin(
            window_start=start,
            window_end=end,
            condition=self.condition,
            left_stream=self.left_stream,
            right_stream=self.right_stream,
            name=f"slice[{start:g},{end:g})",
        )
        join.bind_metrics(self.metrics)
        return join

    def _through_link(self, index: int, item: Any) -> bool:
        """Whether ``item`` survives link ``index``'s filters, judged one at
        a time by ``StreamFilter.process`` (which also charges the check)."""
        return all(
            stream_filter is None or stream_filter.process(item, "in")
            for stream_filter in self._filters[index]
        )

    # -- execution ------------------------------------------------------------
    def process(self, tup: StreamTuple) -> list[SliceResult]:
        """One arrival through every operator's per-item ``process()``: the
        literal scalar reference path."""
        results: list[SliceResult] = []
        if not self._through_link(0, tup):
            return results
        port = "left" if tup.stream == self.left_stream else "right"
        pending: deque[tuple[int, tuple[str, Any]]] = deque(
            (0, emission) for emission in self.joins[0].process(tup, port)
        )
        while pending:
            index, (out_port, item) = pending.popleft()
            if out_port == "output":
                results.append((index, item))
            elif out_port == "next":
                next_index = index + 1
                if next_index < len(self.joins) and self._through_link(next_index, item):
                    for emission in self.joins[next_index].process(item, "chain"):
                        pending.append((next_index, emission))
            # Punctuations are dropped: results return directly, not via a union.
        return results

    def _slice_results(self, batch: list) -> list[SliceResult]:
        """Each arrival through :meth:`process`, regrouped slice-major
        (stably: a slice's results stay in arrival order)."""
        return sorted((pair for tup in batch for pair in self.process(tup)), key=itemgetter(0))

    # -- introspection ----------------------------------------------------------
    def state_sizes(self) -> list[int]:
        return [join.state_size() for join in self.joins]

    def state_tuples(self, stream: str) -> list[list[StreamTuple]]:
        return [join.state_tuples(stream) for join in self.joins]

    # -- keyed state repartition ------------------------------------------------
    def extract_keyed_state(self, predicate=None) -> list[dict[str, list[StreamTuple]]]:
        return [
            {
                stream: join.extract_state(stream, predicate)
                for stream in (self.left_stream, self.right_stream)
            }
            for join in self.joins
        ]

    def _ingest(self, state: Sequence[dict[str, list[StreamTuple]]]) -> int:
        return sum(
            join.ingest_state(stream, tuples)
            for join, entry in zip(self.joins, state)
            for stream, tuples in entry.items()
        )

    # -- online migration -------------------------------------------------------
    def split_slice(self, index: int, boundary: float) -> None:
        """Split slice ``index`` at ``boundary`` into two adjacent slices.

        Following Section 5.3, the existing join simply has its end window
        shrunk and an empty join is inserted after it; the next probe tuples
        will naturally purge the now-too-old tuples into the new slice, so
        no state needs to be moved and no results are lost.
        """
        self._insert_boundary(index, boundary)
        join = self.joins[index]
        self.joins.insert(index + 1, self._make_join(boundary, join.slice.end))
        join.slice = WindowSlice(join.slice.start, boundary)

    def _merge(self, index: int) -> None:
        keep, absorb = self.joins[index : index + 2]
        for stream in (self.left_stream, self.right_stream):
            keep.load_state(stream, absorb.state_tuples(stream) + keep.state_tuples(stream))
        keep.slice = WindowSlice(keep.slice.start, self._bounds[index + 2])
        del self.joins[index + 1]

    def _append(self, old_end: float, end: float) -> None:
        self.joins.append(self._make_join(old_end, end))

    def _drop_tail(self) -> None:
        self.joins.pop()
