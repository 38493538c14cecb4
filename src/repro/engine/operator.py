"""Base class for stream operators.

Every operator in a query plan derives from :class:`Operator`.  An operator
declares its input and output ports, processes one item at a time and
returns the items it emits as ``(output_port, item)`` pairs.  The executor
is responsible for routing emissions to downstream operators according to
the plan's edges.

Operators do not talk to each other directly; they only see items and the
shared :class:`~repro.engine.metrics.MetricsCollector` used for cost
accounting.  This keeps operators independently testable.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.engine.errors import PlanError
from repro.engine.metrics import MetricsCollector

__all__ = ["Operator", "Emission"]

#: An emission is a pair of (output port name, item).
Emission = tuple[str, Any]

_operator_counter = itertools.count()


class Operator:
    """Base class for all stream operators.

    Subclasses must define :attr:`input_ports` and :attr:`output_ports`
    (tuples of port names) and implement :meth:`process`.

    Parameters
    ----------
    name:
        Unique operator name within a plan.  When omitted a name is derived
        from the class name and a global counter.
    """

    #: Names of the input ports accepted by this operator type.
    input_ports: tuple[str, ...] = ("in",)
    #: Names of the output ports produced by this operator type.
    output_ports: tuple[str, ...] = ("out",)

    def __init__(self, name: Optional[str] = None) -> None:
        if name is None:
            name = f"{type(self).__name__.lower()}#{next(_operator_counter)}"
        self.name = name
        self.metrics: MetricsCollector = MetricsCollector()

    # -- wiring ---------------------------------------------------------------
    def bind_metrics(self, metrics: MetricsCollector) -> None:
        """Attach the shared metrics collector (called by the plan/executor)."""
        self.metrics = metrics

    def check_port(self, port: str, direction: str = "input") -> None:
        ports = self.input_ports if direction == "input" else self.output_ports
        if port not in ports:
            raise PlanError(
                f"operator {self.name!r} has no {direction} port {port!r}; "
                f"known ports: {list(ports)}"
            )

    # -- execution --------------------------------------------------------------
    def process(self, item: Any, port: str) -> list[Emission]:
        """Process one input item arriving on ``port``.

        Returns the emitted items as a list of ``(output_port, item)`` pairs
        in emission order.  The order is significant: the executor delivers
        emissions downstream in exactly this order, which the sliced-join
        chain relies on (purged tuples must precede the propagated probe
        tuple).
        """
        raise NotImplementedError

    def flush(self) -> list[Emission]:
        """Emit any items buffered inside the operator at end of stream.

        The default implementation emits nothing.  Operators that buffer
        (for example the order-preserving union) override this.
        """
        return []

    # -- introspection --------------------------------------------------------
    def state_size(self) -> int:
        """Number of tuples currently resident in this operator's state."""
        return 0

    def describe(self) -> str:
        """One-line human-readable description used by plan pretty-printing."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


class PassThrough(Operator):
    """Trivial operator forwarding every item unchanged (useful in tests)."""

    def process(self, item: Any, port: str) -> list[Emission]:
        self.metrics.record_invocation(self.name)
        return [("out", item)]
