"""Count-based sliding-window joins, regular and sliced.

The paper presents state-slicing with time-based windows and notes that
"our proposed techniques can be applied to count-based window constraints in
the same way" (Section 2).  This module provides that extension:

* :class:`CountWindowJoin` — the regular count-based join
  ``A[rows N] ⋈ B[rows M]``: each side's state holds the most recent N (M)
  tuples of that stream, an arriving tuple probes the opposite state and is
  then inserted into its own state, evicting the oldest tuple on overflow.

* :class:`CountSlicedBinaryJoin` — one slice ``[rank_start, rank_end)`` of a
  count-based chain.  A slice stores, per stream, the tuples whose *rank*
  (number of newer tuples of the same stream) falls inside the slice.
  Unlike the time-based sliced join, eviction is triggered by same-stream
  insertions (rank only changes when a newer tuple of the same stream
  arrives), so the female copy both inserts and hands the overflowing tuple
  to the next slice; the male copy only probes and propagates.

The sliced operator is what a *static* count plan is built from
(:func:`repro.core.plan_builder.build_state_slice_plan` with
``window_kind="count"``) and the per-item reference of a count session's
chain, :class:`repro.core.count_chain.CountSlicedJoinChain`, which keeps the
same slices as rank ranges of one column per stream and builds no operator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.operators.sliced_join import SlicedJoinBase
from repro.query.predicates import JoinCondition
from repro.streams.tuples import (
    FEMALE,
    JoinedTuple,
    Punctuation,
    RefTuple,
    StreamTuple,
)

__all__ = ["CountWindowJoin", "CountSlicedBinaryJoin"]


class CountWindowJoin(Operator):
    """Regular count-based sliding-window join ``A[rows N] ⋈ B[rows M]``."""

    input_ports = ("left", "right")
    output_ports = ("output",)

    def __init__(
        self,
        count_left: int,
        count_right: int,
        condition: JoinCondition,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if count_left <= 0 or count_right <= 0:
            raise PlanError(
                f"count windows must be positive, got {count_left}, {count_right}"
            )
        self.count_left = int(count_left)
        self.count_right = int(count_right)
        self.condition = condition
        self._left_state: Deque[StreamTuple] = deque()
        self._right_state: Deque[StreamTuple] = deque()

    def state_size(self) -> int:
        return len(self._left_state) + len(self._right_state)

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return []
        if port == "left":
            return self._handle(item, from_left=True)
        if port == "right":
            return self._handle(item, from_left=False)
        raise PlanError(f"unexpected port {port!r} for {self.name!r}")

    def _handle(self, tup: StreamTuple, from_left: bool) -> list[Emission]:
        own_state = self._left_state if from_left else self._right_state
        other_state = self._right_state if from_left else self._left_state
        own_limit = self.count_left if from_left else self.count_right
        emissions: list[Emission] = []
        # Probe the opposite state (its newest `count` tuples by construction).
        for candidate in other_state:
            self.metrics.count(CostCategory.PROBE)
            left, right = (tup, candidate) if from_left else (candidate, tup)
            if self.condition.matches(left, right):
                emissions.append(("output", JoinedTuple(left, right)))
        # Insert, evicting the oldest tuple of the own state on overflow.
        own_state.append(tup)
        if len(own_state) > own_limit:
            self.metrics.count(CostCategory.PURGE)
            own_state.popleft()
        return emissions

    def describe(self) -> str:
        return (
            f"A[rows {self.count_left}] ⋈ B[rows {self.count_right}] on "
            f"{self.condition.describe()}"
        )


class CountSlicedBinaryJoin(SlicedJoinBase):
    """One slice ``[rank_start, rank_end)`` of a count-based sliced-join chain.

    Ports, slice states and probe orientation are those of
    :class:`~repro.operators.sliced_join.SlicedJoinBase`, shared with the
    time-sliced :class:`~repro.operators.sliced_join.SlicedBinaryJoin`;
    what differs is eviction — a rank slice never purges on probe, it
    overflows on insert.
    """

    def __init__(
        self,
        rank_start: int,
        rank_end: int,
        condition: JoinCondition,
        left_stream: str = "A",
        right_stream: str = "B",
        name: str | None = None,
    ) -> None:
        if rank_start < 0 or rank_end <= rank_start:
            raise PlanError(
                f"invalid rank slice [{rank_start}, {rank_end}) for {name!r}"
            )
        super().__init__(condition, left_stream, right_stream, name)
        self.rank_start = int(rank_start)
        self.rank_end = int(rank_end)

    @property
    def capacity(self) -> int:
        """Number of tuples of each stream this slice may hold."""
        return self.rank_end - self.rank_start

    # -- execution --------------------------------------------------------------
    def _process_male(self, ref: RefTuple) -> list[Emission]:
        """Probe the opposite sliced state, then propagate down the chain."""
        return self._probe_and_propagate(ref, [])

    def _process_female(self, tup: StreamTuple) -> list[Emission]:
        """Insert into the own sliced state; hand the overflow to the next slice."""
        state = self._states[tup.stream]
        state.append(tup)
        if len(state) <= self.capacity:
            return []
        self.metrics.count(CostCategory.PURGE)
        return [("next", RefTuple(state.popleft(), FEMALE))]

    def describe(self) -> str:
        return (
            f"{self.left_stream}[rows {self.rank_start},{self.rank_end}) s⋈ "
            f"{self.right_stream}[rows {self.rank_start},{self.rank_end}) on "
            f"{self.condition.describe()}"
        )
