"""Regular sliding-window join operators.

These implement the textbook execution of Figure 1 in the paper:

1. **Cross-purge** — an arriving tuple discards expired tuples from the
   opposite window;
2. **Probe** — it is joined against the remaining tuples of the opposite
   window;
3. **Insert** — it is added to its own window.

Two operators are provided: :class:`OneWayWindowJoin` (``A[W] ⋉ B``) and the
symmetric :class:`SlidingWindowJoin` (``A[W1] ⋈ B[W2]``).  Both support the
nested-loop probing the paper's cost model assumes and an optional
hash-based probing for equi-joins.

Cost accounting matches Section 3: each probed pair costs one comparison
(category ``probe``); cross-purging costs one timestamp comparison per
purged tuple plus one for the first non-expired tuple (category ``purge``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Collection, Deque

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.operators.sliced_join import _scan_purge
from repro.query.predicates import EquiJoinCondition, JoinCondition
from repro.streams.tuples import JoinedTuple, Punctuation, StreamTuple

__all__ = ["OneWayWindowJoin", "SlidingWindowJoin"]


class _WindowState:
    """Time-ordered window state of one stream side.

    Tuples are appended in arrival order (which equals timestamp order), so
    purging only ever inspects the head of the deque.  An optional hash
    index over the equi-join key supports hash probing.
    """

    def __init__(self, key_attribute: str | None = None) -> None:
        self.tuples: Deque[StreamTuple] = deque()
        self.key_attribute = key_attribute
        self.index: dict[Any, Deque[StreamTuple]] | None = (
            defaultdict(deque) if key_attribute else None
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def insert(self, tup: StreamTuple) -> None:
        self.tuples.append(tup)
        if self.index is not None:
            self.index[tup[self.key_attribute]].append(tup)

    def purge_expired(self, now: float, window: float) -> tuple[list[StreamTuple], int]:
        """Remove tuples with ``now - ts >= window`` (the purge loop of the
        sliced joins) and drop them from the hash index.

        Returns the purged tuples (oldest first) and the number of timestamp
        comparisons performed (purged count + 1 for the surviving head, or
        just the purged count when the state empties).
        """
        purged, comparisons = _scan_purge(self.tuples, now, window)
        if self.index is not None:
            for tup in purged:
                key = tup[self.key_attribute]
                bucket = self.index[key]
                bucket.popleft()
                if not bucket:
                    del self.index[key]
        return purged, comparisons

    def candidates(self, probe_key: Any, hash_probe: bool) -> Collection[StreamTuple]:
        """Tuples to probe, not a copy: the matching hash bucket, or the whole
        window (a probe only reads them, before anything is inserted)."""
        if hash_probe and self.index is not None:
            return self.index.get(probe_key, ())
        return self.tuples


class OneWayWindowJoin(Operator):
    """One-way sliding window join ``A[W] ⋉ B`` (Section 4.1).

    Only the left stream keeps state (window ``W``); right-stream tuples
    probe it and are not stored.  Output pairs satisfy ``Tb - Ta < W`` and
    the join condition.
    """

    input_ports = ("left", "right")
    output_ports = ("output",)

    def __init__(
        self,
        window: float,
        condition: JoinCondition,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if window <= 0:
            raise PlanError(f"join window must be positive, got {window}")
        self.window = float(window)
        self.condition = condition
        self._state = _WindowState()

    def state_size(self) -> int:
        return len(self._state)

    def state_tuples(self) -> list[StreamTuple]:
        return list(self._state.tuples)

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return []
        if port == "left":
            self._state.insert(item)
            return []
        if port != "right":
            raise PlanError(f"unexpected port {port!r} for {self.name!r}")
        emissions: list[Emission] = []
        _, purge_comparisons = self._state.purge_expired(item.timestamp, self.window)
        self.metrics.count(CostCategory.PURGE, purge_comparisons)
        for candidate in self._state.tuples:
            self.metrics.count(CostCategory.PROBE)
            if self.condition.matches(candidate, item):
                emissions.append(("output", JoinedTuple(candidate, item)))
        return emissions

    def describe(self) -> str:
        return f"A[{self.window:g}] ⋉ B on {self.condition.describe()}"


class SlidingWindowJoin(Operator):
    """Binary sliding-window join ``A[W_left] ⋈ B[W_right]`` (Figure 1).

    Parameters
    ----------
    window_left / window_right:
        Lifetimes of left / right tuples in their respective states.
    condition:
        The pairwise join condition.
    algorithm:
        ``"nested_loop"`` (the paper's cost model) or ``"hash"``
        (requires an :class:`~repro.query.predicates.EquiJoinCondition`).
    """

    input_ports = ("left", "right")
    output_ports = ("output",)

    def __init__(
        self,
        window_left: float,
        window_right: float,
        condition: JoinCondition,
        algorithm: str = "nested_loop",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if window_left <= 0 or window_right <= 0:
            raise PlanError(
                f"join windows must be positive, got {window_left}, {window_right}"
            )
        if algorithm not in ("nested_loop", "hash"):
            raise PlanError(f"unknown join algorithm {algorithm!r}")
        if algorithm == "hash" and not isinstance(condition, EquiJoinCondition):
            raise PlanError("hash probing requires an equi-join condition")
        self.window_left = float(window_left)
        self.window_right = float(window_right)
        self.condition = condition
        self.algorithm = algorithm
        left_key = condition.left_attribute if algorithm == "hash" else None
        right_key = condition.right_attribute if algorithm == "hash" else None
        self._left_state = _WindowState(left_key)
        self._right_state = _WindowState(right_key)

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
        other_window = self.window_right if from_left else self.window_left
        # 1. Cross-purge the opposite window.
        _, purge_comparisons = other_state.purge_expired(tup.timestamp, other_window)
        self.metrics.count(CostCategory.PURGE, purge_comparisons)
        # 2. Probe the opposite window.
        hash_probe = self.algorithm == "hash"
        probe_value = None
        if hash_probe and isinstance(self.condition, EquiJoinCondition):
            probe_value = tup[
                self.condition.left_attribute
                if from_left
                else self.condition.right_attribute
            ]
        candidates = other_state.candidates(probe_value, hash_probe)
        self.metrics.count(CostCategory.PROBE, len(candidates))
        emissions: list[Emission] = []
        # Bound only when there is a candidate: a tuple lacking the join
        # attribute fails where ``condition.matches`` would have.
        if candidates and from_left:
            check = self.condition.bind_left(tup)
            emissions = [("output", JoinedTuple(tup, c)) for c in candidates if check(c)]
        elif candidates:
            check = self.condition.bind_right(tup)
            emissions = [("output", JoinedTuple(c, tup)) for c in candidates if check(c)]
        # 3. Insert into the own window.
        own_state.insert(tup)
        return emissions

    def describe(self) -> str:
        return (
            f"A[{self.window_left:g}] ⋈ B[{self.window_right:g}] on "
            f"{self.condition.describe()} ({self.algorithm})"
        )
