"""Runtime chain of count-based sliced joins.

Mirror of :class:`repro.core.chain.SlicedJoinChain` for count-based sliding
windows (the extension the paper's Section 2 mentions): the chain boundaries
are tuple *counts* instead of time offsets, each slice stores the tuples of
one contiguous rank range per stream, and the union of the slice outputs
equals the regular count-based join with the largest count window.

The pipelined execution loop and the shared migration primitives (merge /
append / drop-tail) come from
:class:`~repro.core.chain_base.OperatorChainBase`; the one structural
difference lives here: rank boundaries cannot re-partition lazily.  A time
slice whose end window shrinks expels its now-too-old tuples on the next
cross-purge, because age is measured against the probing tuple.  A count
slice's membership is a *rank range*, and ranks only move on same-stream
insertions — a shrunk slice would keep probing tuples whose rank it no
longer covers.  The split migration therefore moves the out-of-range ranks
into the new slice eagerly (an indexed state rebuilds its key index as
``load_state`` loads it), which keeps every probe exact at all times.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.chain_base import OperatorChainBase
from repro.engine.errors import ChainError, MigrationError, QueryError
from repro.operators.count_join import CountSlicedBinaryJoin
from repro.streams.tuples import JoinedTuple

__all__ = ["CountSlicedJoinChain"]


class CountSlicedJoinChain(OperatorChainBase):
    """A pipelined chain of count-based sliced binary joins.

    Parameters
    ----------
    boundaries:
        Rank boundaries of the chain, for example ``[0, 5, 20]`` for two
        slices holding the 5 most recent tuples and the following 15.
        The first boundary must be 0 and boundaries must strictly increase.
    condition:
        The join condition shared by every slice.
    """

    joins: list[CountSlicedBinaryJoin]
    window_unit = " rows"
    # A rank — unlike a timestamp gap — cannot be read off a joined pair, a
    # filtered stream or a shard's subsequence (``docs/invariants.md``).
    rebalance_refusal = (
        "count-window sessions keep the Mem-Opt chain: merged rank "
        "slices cannot be re-split by the result router"
    )
    shard_refusal = (
        "count windows rank tuples over the whole stream, not a shard's "
        "subsequence"
    )

    # -- chain-base hooks -----------------------------------------------------
    @classmethod
    def normalize_window(cls, name: str, window: float) -> int:
        """A positive whole number of ranks (see the base class)."""
        if not 0 < float(window) < math.inf or window != int(window):
            raise QueryError(
                f"query {name!r} needs a positive integer count window, "
                f"got {window!r}"
            )
        return int(window)

    def check_target(self, target: Sequence[float], windows: dict[str, float]) -> None:
        """The Mem-Opt invariant: every registered count stays a boundary."""
        for name, window in windows.items():
            if window not in target:
                raise MigrationError(
                    f"count boundary {window:g} of query {name!r} missing from "
                    f"target {target} (Mem-Opt invariant)"
                )

    def _coerce_boundary(self, boundary: float) -> int:
        return int(boundary)

    def _make_join(self, start: int, end: int) -> CountSlicedBinaryJoin:
        join = CountSlicedBinaryJoin(
            rank_start=start,
            rank_end=end,
            condition=self.condition,
            left_stream=self.left_stream,
            right_stream=self.right_stream,
            probe=self.probe,
            name=f"count-slice[{start},{end})",
        )
        join.bind_metrics(self.metrics)
        return join

    def _set_join_end(self, join: CountSlicedBinaryJoin, end: int) -> None:
        join.rank_end = end

    # -- count-window specifics -----------------------------------------------
    def results_for_count(
        self, results: Sequence[tuple[int, JoinedTuple]], count: int
    ) -> list[JoinedTuple]:
        """Restrict chain results to those a query with count window ``count`` gets.

        Only prefix counts matching a chain boundary can be answered exactly
        (the Mem-Opt construction guarantees one boundary per registered
        query); other counts raise :class:`ChainError`.
        """
        boundaries = self.boundaries
        if count not in boundaries[1:]:
            raise ChainError(
                f"count {count} is not a chain boundary; boundaries: {boundaries}"
            )
        last_slice = boundaries[1:].index(count)
        return [joined for index, joined in results if index <= last_slice]

    def split_slice(self, index: int, boundary: int) -> None:
        """Split slice ``index`` at rank ``boundary`` into two adjacent slices.

        Unlike the time-based split, the out-of-range ranks are moved into
        the new slice eagerly (see the module docstring): each state keeps
        its newest ``boundary - rank_start`` tuples and hands the older
        remainder — exactly the ranks ``[boundary, rank_end)`` — to the new
        slice, so the membership invariant every probe relies on keeps
        holding.
        """
        if not 0 <= index < len(self.joins):
            raise MigrationError(f"no slice with index {index}")
        join = self.joins[index]
        boundary = int(boundary)
        if not join.rank_start < boundary < join.rank_end:
            raise MigrationError(
                f"split boundary {boundary} must lie strictly inside "
                f"[{join.rank_start}, {join.rank_end})"
            )
        new_join = self._make_join(boundary, join.rank_end)
        keep_capacity = boundary - join.rank_start
        for stream in (self.left_stream, self.right_stream):
            state = join.state_tuples(stream)  # oldest first
            overflow = len(state) - keep_capacity
            if overflow > 0:
                new_join.load_state(stream, state[:overflow])
                join.load_state(stream, state[overflow:])
        join.rank_end = boundary
        self.joins.insert(index + 1, new_join)
        self._bounds.insert(index + 1, boundary)
        self._on_slice_inserted(index + 1)
