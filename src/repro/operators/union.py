"""Order-preserving merge union.

The union operator merges the joined results produced by the sliced joins of
a chain (or by the parallel joins of the selection push-down strategy) into
one output stream ordered by timestamp.  Because each upstream join emits
results in timestamp order, the union only needs to know how far every
upstream has progressed before releasing buffered results; the paper uses
the propagated "male" tuple of the last sliced join as that progress marker
(a punctuation, Section 4.3).

:class:`OrderedUnion` implements exactly that protocol:

* joined results are buffered;
* a :class:`~repro.streams.tuples.Punctuation` with timestamp ``T``
  guarantees no future result will carry a timestamp smaller than ``T``,
  so every buffered result with timestamp ``< T`` is released in sorted
  order;
* any remainder is released at end of stream by :meth:`flush`.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.streams.tuples import JoinedTuple, Punctuation

__all__ = ["OrderedUnion", "BagUnion"]


class OrderedUnion(Operator):
    """Merge union releasing results in timestamp order, driven by punctuations.

    Ordering guarantee: the released stream is globally sorted provided all
    inputs reach the union in global timestamp order, which holds under the
    push-based :class:`~repro.engine.executor.ImmediateExecutor` (every
    arrival is fully propagated before the next).
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._heap: list[tuple[float, int, int, JoinedTuple]] = []
        self._counter = 0

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            # The paper charges the punctuation-driven merge per input-stream
            # tuple (the punctuations), not per joined result: buffered results
            # arrive already sorted per upstream join, so only the release
            # decision costs a comparison (Equation 3's union term).
            self.metrics.count(CostCategory.UNION)
            return self._release(item.timestamp)
        self._counter += 1
        key = getattr(item, "timestamp", 0.0)
        heapq.heappush(self._heap, (key, self._counter, id(item), item))
        return []

    def flush(self) -> list[Emission]:
        emissions: list[Emission] = []
        while self._heap:
            _, _, _, item = heapq.heappop(self._heap)
            emissions.append(("out", item))
        return emissions

    def pending(self) -> int:
        """Number of results buffered awaiting a punctuation."""
        return len(self._heap)

    def _release(self, up_to: float) -> list[Emission]:
        emissions: list[Emission] = []
        while self._heap and self._heap[0][0] < up_to:
            _, _, _, item = heapq.heappop(self._heap)
            emissions.append(("out", item))
        return emissions

    def describe(self) -> str:
        return "union (order-preserving)"


class BagUnion(Operator):
    """Unordered pass-through union (useful for baselines and tests).

    Results are forwarded immediately; punctuations are dropped.  One union
    comparison is charged per forwarded item so the CPU accounting of plans
    that use it stays comparable with :class:`OrderedUnion`.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return []
        self.metrics.count(CostCategory.UNION)
        return [("out", item)]

    def describe(self) -> str:
        return "union (bag)"
