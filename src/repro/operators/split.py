"""Stream partitioning (split) operator.

The selection push-down sharing strategy of Section 3.2 partitions the input
stream by the selection predicate so that each partial join only sees the
tuples it needs.  :class:`Split` performs that two-way partition ("match" /
"rest").
"""

from __future__ import annotations

from typing import Any

from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.query.predicates import Predicate
from repro.streams.tuples import Punctuation

__all__ = ["Split"]


class Split(Operator):
    """Routes each tuple to ``match`` or ``rest`` depending on a predicate.

    One comparison (category ``split``) is charged per tuple, matching the
    splitting cost term ``λ`` in the paper's Equation 2.
    """

    input_ports = ("in",)
    output_ports = ("match", "rest")

    def __init__(self, predicate: Predicate, name: str | None = None) -> None:
        super().__init__(name)
        self.predicate = predicate

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [("match", item), ("rest", item)]
        self.metrics.count(CostCategory.SPLIT)
        if self.predicate.matches(item):
            return [("match", item)]
        return [("rest", item)]

    def describe(self) -> str:
        return f"split[{self.predicate.describe()}]"
