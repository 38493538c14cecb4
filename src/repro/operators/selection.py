"""Selection (filter) operators.

Two variants are provided:

* :class:`Selection` — the plain σ operator over stream tuples.
* :class:`StreamFilter` — a selection placed *inside* a sliced-join chain
  (Figure 10/15 of the paper): it filters only the reference tuples of one
  stream and lets everything else (the other stream's tuples, punctuations)
  pass untouched.

The residual σ' selections over joined results are routes of a
:class:`~repro.operators.router.Router`.
"""

from __future__ import annotations

from typing import Any

from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.query.predicates import Predicate
from repro.streams.tuples import Punctuation, RefTuple

__all__ = ["Selection", "StreamFilter"]


class Selection(Operator):
    """Filters tuples by a predicate (the paper's σ operator).

    Every evaluated tuple costs one comparison (category ``select``),
    matching the per-tuple filtering cost of the paper's CPU model.
    Punctuations pass through unharmed so selections can sit inside a
    sliced-join chain without breaking the union's ordering protocol.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, predicate: Predicate, name: str | None = None) -> None:
        super().__init__(name)
        self.predicate = predicate

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [("out", item)]
        self.metrics.count(CostCategory.SELECT)
        if self.predicate.matches(item):
            return [("out", item)]
        return []

    def describe(self) -> str:
        return f"σ[{self.predicate.describe()}]"


class StreamFilter(Operator):
    """A selection pushed into a sliced-join chain.

    It sits on the queue between two sliced joins and filters only the
    reference tuples (male and female copies) belonging to ``stream``; the
    other stream's tuples pass through untouched so the chain keeps working
    for the unfiltered side.

    Cost accounting follows the paper's Equation 3, which charges the pushed
    selection once per original stream tuple (λ): the predicate is charged
    for the male copy only — the female copy of the same tuple reuses that
    decision, which is the tuple-lineage optimisation the paper borrows
    from [18].
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(
        self,
        predicate: Predicate,
        stream: str,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.stream = stream

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [("out", item)]
        if isinstance(item, RefTuple) and item.stream == self.stream:
            if item.is_male():
                self.metrics.count(CostCategory.SELECT)
            if self.predicate.matches(item.base):
                return [("out", item)]
            return []
        if not isinstance(item, RefTuple) and getattr(item, "stream", None) == self.stream:
            self.metrics.count(CostCategory.SELECT)
            if self.predicate.matches(item):
                return [("out", item)]
            return []
        return [("out", item)]

    def describe(self) -> str:
        return f"σ[{self.stream}: {self.predicate.describe()}] (in-chain)"
