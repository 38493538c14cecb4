"""The literal Definition-2 chain: a pipeline of sliced binary join operators.

:class:`OperatorJoinChain` manages one
:class:`~repro.operators.sliced_join.SlicedBinaryJoin` per slice, each with
its own pair of slice states, and moves reference tuples between them item
by item (``process``) or batch by batch.  No session builds it: it is the
reference the cursor chain (:class:`~repro.core.chain.SlicedJoinChain`, what
every time-window session runs) is fuzzed against — per-item ``process()``
here is the paper's Figure 9, comparison for comparison.  The time-window
facts (seconds, link filters) are shared with the cursor chain through
:class:`~repro.core.chain_base.TimeChainBase`; a split is lazy (the shrunk
join re-purges its too-old tuples into the new one on the next probe).
"""

from __future__ import annotations

from repro.core.chain_base import OperatorChainBase, TimeChainBase
from repro.operators.sliced_join import SlicedBinaryJoin

__all__ = ["OperatorJoinChain"]


class OperatorJoinChain(OperatorChainBase, TimeChainBase):
    """A pipelined chain of sliced binary window joins (Definition 2).

    Same constructor as :class:`~repro.core.chain.SlicedJoinChain`.
    """

    joins: list[SlicedBinaryJoin]

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

    def _set_join_end(self, join: SlicedBinaryJoin, end: float) -> None:
        join.slice = type(join.slice)(join.slice.start, end)

    def _through_link(self, index: int, items: list) -> list:
        """Run a FIFO run of items through link ``index``'s filters."""
        for stream_filter in self._filters[index]:
            if stream_filter is None or not items:
                continue
            items = [
                item for _port, item in stream_filter.process_batch(items, "in")
            ]
        return items

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
        self._set_join_end(join, boundary)
