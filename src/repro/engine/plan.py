"""Query plan DAG.

A :class:`QueryPlan` wires operators together:

* **entries** map stream names to the operator input ports where newly
  arriving tuples of that stream are injected;
* **edges** connect an operator output port to a downstream operator input
  port;
* **outputs** name the operator output ports whose emissions are collected
  as the answer of a registered continuous query.

A shared plan serving N queries is a DAG with N outputs — one per query —
exactly as described in Section 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.engine.errors import PlanError
from repro.engine.metrics import MetricsCollector
from repro.engine.operator import Operator

__all__ = ["Edge", "Entry", "Output", "QueryPlan"]


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed connection from an output port to an input port."""

    source: str
    source_port: str
    target: str
    target_port: str


@dataclass(frozen=True, slots=True)
class Entry:
    """An injection point: arriving tuples of ``stream`` enter ``(operator, port)``."""

    stream: str
    operator: str
    port: str


@dataclass(frozen=True, slots=True)
class Output:
    """A named query output fed by ``(operator, port)`` emissions."""

    name: str
    operator: str
    port: str


class QueryPlan:
    """A DAG of operators implementing one or more continuous queries."""

    def __init__(self, name: str = "plan") -> None:
        self.name = name
        self._operators: dict[str, Operator] = {}
        self._edges: list[Edge] = []
        self._entries: list[Entry] = []
        self._outputs: list[Output] = []

    # -- construction -----------------------------------------------------------
    def add_operator(self, operator: Operator) -> Operator:
        if operator.name in self._operators:
            raise PlanError(f"duplicate operator name {operator.name!r} in plan {self.name!r}")
        self._operators[operator.name] = operator
        return operator

    def connect(
        self,
        source: Operator | str,
        source_port: str,
        target: Operator | str,
        target_port: str,
    ) -> Edge:
        source_name = source.name if isinstance(source, Operator) else source
        target_name = target.name if isinstance(target, Operator) else target
        src = self.operator(source_name)
        dst = self.operator(target_name)
        src.check_port(source_port, "output")
        dst.check_port(target_port, "input")
        edge = Edge(source_name, source_port, target_name, target_port)
        self._edges.append(edge)
        return edge

    def add_entry(self, stream: str, operator: Operator | str, port: str) -> Entry:
        operator_name = operator.name if isinstance(operator, Operator) else operator
        self.operator(operator_name).check_port(port, "input")
        entry = Entry(stream, operator_name, port)
        self._entries.append(entry)
        return entry

    def add_output(self, name: str, operator: Operator | str, port: str) -> Output:
        operator_name = operator.name if isinstance(operator, Operator) else operator
        self.operator(operator_name).check_port(port, "output")
        if any(output.name == name for output in self._outputs):
            raise PlanError(f"duplicate output name {name!r} in plan {self.name!r}")
        output = Output(name, operator_name, port)
        self._outputs.append(output)
        return output

    # -- lookup -------------------------------------------------------------------
    def operator(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError:
            raise PlanError(
                f"plan {self.name!r} has no operator named {name!r}; "
                f"known operators: {sorted(self._operators)}"
            ) from None

    @property
    def operators(self) -> dict[str, Operator]:
        return dict(self._operators)

    @property
    def entries(self) -> list[Entry]:
        return list(self._entries)

    @property
    def outputs(self) -> list[Output]:
        return list(self._outputs)

    def output_names(self) -> list[str]:
        return [output.name for output in self._outputs]

    def downstream(self, operator: str, port: str) -> list[Edge]:
        """Edges leaving ``(operator, port)``."""
        return [
            edge
            for edge in self._edges
            if edge.source == operator and edge.source_port == port
        ]

    def upstream(self, operator: str, port: str) -> list[Edge]:
        """Edges entering ``(operator, port)``."""
        return [
            edge
            for edge in self._edges
            if edge.target == operator and edge.target_port == port
        ]

    def outputs_at(self, operator: str, port: str) -> list[Output]:
        return [
            output
            for output in self._outputs
            if output.operator == operator and output.port == port
        ]

    # -- analysis -------------------------------------------------------------------
    def bind_metrics(self, metrics: MetricsCollector) -> None:
        for operator in self._operators.values():
            operator.bind_metrics(metrics)

    def total_state_size(self) -> int:
        """Total number of tuples currently held in operator states."""
        return sum(operator.state_size() for operator in self._operators.values())

    def topological_order(self) -> list[Operator]:
        """Operators in a topological order; raises :class:`PlanError` on cycles."""
        indegree = {name: 0 for name in self._operators}
        for edge in self._edges:
            indegree[edge.target] += 1
        ready = sorted(name for name, degree in indegree.items() if degree == 0)
        order: list[str] = []
        remaining = dict(indegree)
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in self._edges:
                if edge.source != name:
                    continue
                remaining[edge.target] -= 1
                if remaining[edge.target] == 0:
                    ready.append(edge.target)
            ready.sort()
        if len(order) != len(self._operators):
            cyclic = sorted(set(self._operators) - set(order))
            raise PlanError(f"plan {self.name!r} contains a cycle involving {cyclic}")
        return [self._operators[name] for name in order]

    def validate(self) -> None:
        """Check structural consistency of the plan.

        Raises :class:`PlanError` when the plan has no entries, no outputs,
        contains a cycle, or has operators that are completely disconnected.
        """
        if not self._entries:
            raise PlanError(f"plan {self.name!r} has no entry points")
        if not self._outputs:
            raise PlanError(f"plan {self.name!r} has no outputs")
        self.topological_order()
        connected = set()
        for edge in self._edges:
            connected.add(edge.source)
            connected.add(edge.target)
        for entry in self._entries:
            connected.add(entry.operator)
        for output in self._outputs:
            connected.add(output.operator)
        dangling = sorted(set(self._operators) - connected)
        if dangling:
            raise PlanError(
                f"plan {self.name!r} has disconnected operators: {dangling}"
            )

    # -- presentation -----------------------------------------------------------------
    def describe(self) -> str:
        """Readable multi-line description of the plan topology."""
        lines = [f"QueryPlan {self.name!r}"]
        lines.append("  entries:")
        for entry in self._entries:
            lines.append(f"    {entry.stream} -> {entry.operator}.{entry.port}")
        lines.append("  operators:")
        for operator in self.topological_order():
            lines.append(f"    {operator.name}: {operator.describe()}")
        lines.append("  edges:")
        for edge in self._edges:
            lines.append(
                f"    {edge.source}.{edge.source_port} -> {edge.target}.{edge.target_port}"
            )
        lines.append("  outputs:")
        for output in self._outputs:
            lines.append(f"    {output.name} <- {output.operator}.{output.port}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators.values())

    def __len__(self) -> int:
        return len(self._operators)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QueryPlan({self.name!r}, operators={len(self._operators)}, "
            f"edges={len(self._edges)}, outputs={len(self._outputs)})"
        )
