"""Router operator for shared join outputs.

When several queries share one physical join whose window is the largest of
the group (the selection pull-up strategy of Section 3.1), the joined
results must be dispatched to each query according to that query's window
constraint and residual filter.  The routing step is a per-result-tuple cost
and is one of the inefficiencies the state-slice paradigm eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory
from repro.engine.operator import Emission, Operator
from repro.query.predicates import Predicate, TruePredicate
from repro.streams.tuples import JoinedTuple, Punctuation

__all__ = ["Route", "Router"]


@dataclass(frozen=True)
class Route:
    """One routing rule of a :class:`Router`.

    Parameters
    ----------
    port:
        Output port receiving the matching results.
    window:
        Window constraint of the registered query; a joined tuple is routed
        when ``|Ta - Tb| < window``.  ``None`` means no window check is
        needed (the query's window equals the shared join's window).
    left_filter / right_filter:
        Residual filters applied to the left / right component of the joined
        tuple ("Filtered PullUp" keeps the selection above the join).
    """

    port: str
    window: float | None = None
    left_filter: Predicate = TruePredicate()
    right_filter: Predicate = TruePredicate()


class Router(Operator):
    """Dispatches joined tuples to query outputs by window and filter.

    Cost accounting follows Section 3.1: each non-trivial window check costs
    one comparison (category ``route``) and each residual filter evaluation
    one comparison (category ``select``), both charged per joined result —
    the quadratic per-result cost the paper highlights.
    """

    input_ports = ("in",)

    def __init__(self, routes: Sequence[Route], name: str | None = None) -> None:
        super().__init__(name)
        if not routes:
            raise PlanError("Router requires at least one route")
        ports = [route.port for route in routes]
        if len(ports) != len(set(ports)):
            raise PlanError(f"duplicate output ports in router routes: {ports}")
        self.routes = list(routes)
        self.output_ports = tuple(ports)

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        if isinstance(item, Punctuation):
            return [(route.port, item) for route in self.routes]
        if not isinstance(item, JoinedTuple):
            raise PlanError(
                f"router {self.name!r} expects joined tuples, got {type(item).__name__}"
            )
        emissions: list[Emission] = []
        gap = abs(item.left.timestamp - item.right.timestamp)
        for route in self.routes:
            if route.window is not None:
                self.metrics.count(CostCategory.ROUTE)
                if gap >= route.window:
                    continue
            if not isinstance(route.left_filter, TruePredicate):
                self.metrics.count(CostCategory.SELECT)
                if not route.left_filter.matches(item.left):
                    continue
            if not isinstance(route.right_filter, TruePredicate):
                self.metrics.count(CostCategory.SELECT)
                if not route.right_filter.matches(item.right):
                    continue
            emissions.append((route.port, item))
        return emissions

    def describe(self) -> str:
        parts = []
        for route in self.routes:
            window = "all" if route.window is None else f"|ΔT|<{route.window:g}"
            parts.append(f"{route.port}:{window}")
        return f"router[{', '.join(parts)}]"
