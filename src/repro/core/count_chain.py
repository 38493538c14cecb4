"""Runtime chain of count-based sliced joins: slices as rank ranges.

The count-window kind of :class:`~repro.core.chain.CursorChain` (the
extension the paper's Section 2 mentions): the chain boundaries are tuple
*counts* instead of time offsets, and the union of the slice outputs equals
the regular count-based join with the largest count window.

A tuple's rank is the number of newer tuples of its own stream, so in a
column holding ``n`` rows in arrival order slice ``[start, end)`` *is* the
rows ``[n - end, n - start)``: every cursor is arithmetic on row counts.
Nothing is swept and nothing overflows from slice to slice — a male that
sees ``stop`` rows owns the cuts ``max(0, stop - end)``, a batch's ``PURGE``
and ``PROBE`` charges and per-slice invocations follow from the same counts
(and equal those of the per-item pipeline of
:class:`~repro.operators.count_join.CountSlicedBinaryJoin`, which
``tests/test_cursor_chain.py`` holds this class to), and a migration is a
boundary inserted or deleted: membership is the rank, so no row moves.
"""

from __future__ import annotations

import math

from repro.core.chain import CursorChain
from repro.engine.columns import ChainColumn, HitBlock
from repro.engine.errors import QueryError
from repro.engine.metrics import CostCategory
from repro.streams.tuples import StreamTuple

__all__ = ["CountSlicedJoinChain"]


class CountSlicedJoinChain(CursorChain):
    """A chain of count-based sliced binary joins over cursors.

    Parameters
    ----------
    boundaries:
        Rank boundaries of the chain, for example ``[0, 5, 20]`` for two
        slices holding the 5 most recent tuples and the following 15.
        The first boundary must be 0 and boundaries must strictly increase.
    condition:
        The join condition shared by every slice.
    """

    # A rank — unlike a timestamp gap — cannot be read off a filtered stream,
    # so nothing is pushed into the links (``docs/invariants.md``).
    window_unit = " rows"

    @staticmethod
    def _slice_name(start: int, end: int) -> str:
        return f"count-slice[{start},{end})"

    # -- chain-base hooks -----------------------------------------------------
    @classmethod
    def normalize_window(cls, name: str, window: float) -> int:
        """A positive whole number of ranks (see the base class)."""
        try:
            whole = 0 < float(window) < math.inf and window == int(window)
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise QueryError(
                f"query {name!r} needs a positive integer count window, "
                f"got {window!r}"
            )
        return int(window)

    def _coerce_boundary(self, boundary: float) -> int:
        return int(boundary)

    # -- execution ------------------------------------------------------------
    def _slice_results(self, batch: list[StreamTuple]) -> HitBlock:
        metrics = self.metrics
        arrivals, places, preceding = self._classify(batch)
        bounds = self._bounds
        ends = bounds[1:]
        parts = []
        #: Per slice: the inserts of this batch that found it full, both streams.
        overflow = [0] * len(ends)
        probes = 0
        verdicts = [column.judge(arrivals[side]) for side, column in enumerate(self._columns)]
        for side, column in enumerate(self._columns):
            females, males = arrivals[side], arrivals[1 - side]
            size = column.extend(females, verdicts[side])
            if males:
                # Male j sees the rows before it; slice k of those is their
                # ranks [start_k, end_k), whatever the batch adds later.
                stops = [size + before for before in preceding[1 - side]]
                cuts = [[max(0, stop - end) for stop in stops] for end in ends]
                found = column.probe(males, cuts, stops)
                parts.append((side, found, males, verdicts[1 - side], places[1 - side]))
                probes += sum(stops) - sum(cuts[-1])  # one comparison per row in sight
            for k, end in enumerate(ends):
                overflow[k] += max(0, min(len(females), size + len(females) - end))
            self._place(column)
        metrics.count(CostCategory.PURGE, sum(overflow))
        metrics.count(CostCategory.PROBE, probes)
        # -- invocations: every slice sees the batch's males, and the rows the
        # slice before it handed down
        items = len(batch)
        for start, end, handed_down in zip(bounds, ends, overflow):
            metrics.record_invocation(self._slice_name(start, end), items)
            items = len(batch) + handed_down
        return HitBlock(len(ends), parts)

    def _place(self, column: ChainColumn) -> None:
        """Every cursor of ``column`` at its rank (no row of a count chain is
        ever dead: nothing is pushed into it); what is past the last goes."""
        ends = self._bounds[1:]
        rows = len(column)
        column.cuts = [max(0, rows - end) for end in ends]
        column.dead = [0] * len(ends)
        column.settle()

    def split_slice(self, index: int, boundary: int) -> None:
        """Split slice ``index`` at rank ``boundary`` into two adjacent slices:
        a cursor placed by rank.  A time slice that shrinks re-purges lazily,
        because age is measured against the probing tuple; ranks only move on
        same-stream insertions, so the new cursor is exact at once."""
        self._insert_boundary(index, self._coerce_boundary(boundary))
        for column in self._columns:
            self._place(column)
