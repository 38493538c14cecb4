"""Operator-at-a-time scheduling with explicit inter-operator queues.

The CAPE prototype used by the paper runs operators under a round-robin
scheduler (Section 7.1).  :class:`ScheduledExecutor` reproduces that model:
arriving tuples are appended to the entry queues, and operators are invoked
in scheduler order, each invocation consuming a bounded batch of items from
the operator's input queues (oldest timestamp first).

This executor exposes effects that the push-based executor hides — most
importantly queue memory and the asynchronous window movement that makes the
states of independently-scheduled joins drift apart (the reason the
selection push-down strategy cannot share state, Section 3.2).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.clock import VirtualClock
from repro.engine.errors import ExecutionError, SchedulingError
from repro.engine.metrics import MetricsCollector, RunReport
from repro.engine.plan import QueryPlan
from repro.engine.queues import OperatorQueue
from repro.streams.tuples import StreamTuple

__all__ = ["RoundRobinScheduler", "ScheduledExecutor"]


class RoundRobinScheduler:
    """Cycles over operator names in a fixed order."""

    def __init__(self, operator_names: list[str]) -> None:
        if not operator_names:
            raise SchedulingError("cannot schedule an empty operator list")
        self._names = list(operator_names)
        self._next = 0

    def next_operator(self) -> str:
        name = self._names[self._next]
        self._next = (self._next + 1) % len(self._names)
        return name

    def __len__(self) -> int:
        return len(self._names)


class ScheduledExecutor:
    """Queue-based executor with a round-robin operator scheduler.

    Parameters
    ----------
    plan:
        The validated query plan.
    metrics:
        Shared metrics collector.
    invocations_per_arrival:
        Service capacity: how many operator invocations the scheduler
        performs after each arriving tuple.  Small values let queues build
        up (an overloaded system); large values approach the synchronous
        behaviour of :class:`~repro.engine.executor.ImmediateExecutor`.
    batch_size:
        Maximum number of items an operator consumes per invocation.
    """

    def __init__(
        self,
        plan: QueryPlan,
        metrics: MetricsCollector | None = None,
        invocations_per_arrival: int = 8,
        batch_size: int = 4,
        memory_sample_interval: int = 1,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.plan.bind_metrics(self.metrics)
        self.clock = VirtualClock()
        self.invocations_per_arrival = max(1, int(invocations_per_arrival))
        self.batch_size = max(1, int(batch_size))
        self.memory_sample_interval = max(1, int(memory_sample_interval))
        self.results: dict[str, list[Any]] = {name: [] for name in plan.output_names()}
        order = [operator.name for operator in plan.topological_order()]
        self.scheduler = RoundRobinScheduler(order)
        #: One queue per (operator, input port) pair.
        self.queues: dict[tuple[str, str], OperatorQueue] = {}
        for name, operator in plan.operators.items():
            for port in operator.input_ports:
                self.queues[(name, port)] = OperatorQueue(f"{name}.{port}")
        self._arrivals_seen = 0
        self._last_sampled_arrival = 0
        self._last_timestamp = 0.0

    # -- public API ---------------------------------------------------------------
    def run(self, tuples: Iterable[StreamTuple], strategy: str = "") -> RunReport:
        for tup in tuples:
            self.process_arrival(tup)
        self.drain()
        self._flush()
        if self._arrivals_seen and self._arrivals_seen != self._last_sampled_arrival:
            # The final state size must be sampled even when the arrival
            # count is not a multiple of the sampling stride, matching
            # ImmediateExecutor.finish — peak-memory numbers must not be
            # stride-dependent.
            self.metrics.record_memory_sample(
                self._last_timestamp, self.plan.total_state_size()
            )
            self._last_sampled_arrival = self._arrivals_seen
        return RunReport(
            strategy=strategy or self.plan.name,
            metrics=self.metrics,
            results=self.results,
            duration=self._last_timestamp,
        )

    def process_arrival(self, tup: StreamTuple) -> None:
        entries = self.plan.entries_for(tup.stream)
        if not entries:
            raise ExecutionError(
                f"no entry point registered for stream {tup.stream!r} in plan "
                f"{self.plan.name!r}"
            )
        self.clock.observe(tup.timestamp)
        self.metrics.record_ingest()
        for entry in entries:
            self.queues[(entry.operator, entry.port)].push(tup)
        for _ in range(self.invocations_per_arrival):
            self._invoke(self.scheduler.next_operator())
        self._arrivals_seen += 1
        self._last_timestamp = tup.timestamp
        if self._arrivals_seen % self.memory_sample_interval == 0:
            self.metrics.record_memory_sample(tup.timestamp, self.plan.total_state_size())
            self._last_sampled_arrival = self._arrivals_seen

    def drain(self) -> None:
        """Run the scheduler until every queue is empty."""
        idle_rounds = 0
        while idle_rounds < len(self.scheduler):
            name = self.scheduler.next_operator()
            if self._invoke(name) == 0:
                idle_rounds += 1
            else:
                idle_rounds = 0

    def queue_memory(self) -> int:
        """Total number of items currently buffered in inter-operator queues."""
        return sum(len(queue) for queue in self.queues.values())

    def max_queue_memory(self) -> int:
        return sum(queue.max_size for queue in self.queues.values())

    # -- internals ------------------------------------------------------------------
    def _invoke(self, operator_name: str) -> int:
        """Run one scheduled invocation of ``operator_name``.

        Returns the number of items consumed.  Items are consumed from the
        operator's input queues in global timestamp order to respect the
        ordering assumption of the sliced-join chain.  Consecutive items
        from the same port are handed to the operator as one
        ``process_batch`` run; because plans are acyclic an operator never
        feeds its own queues, so the port picks are identical to popping one
        item at a time.
        """
        operator = self.plan.operator(operator_name)
        ports = operator.input_ports
        consumed = 0
        if len(ports) == 1:
            # Single input port: the whole scheduling quantum is one run.
            queue = self.queues[(operator_name, ports[0])]
            run = queue.pop_run(self.batch_size)
            if run:
                consumed = len(run)
                for out_port, out_item in operator.process_batch(run, ports[0]):
                    self._route(operator_name, out_port, out_item)
            return consumed
        while consumed < self.batch_size:
            port = self._pick_port(operator_name, ports)
            if port is None:
                break
            queue = self.queues[(operator_name, port)]
            run = [queue.pop()]
            consumed += 1
            while consumed < self.batch_size and self._pick_port(operator_name, ports) == port:
                run.append(queue.pop())
                consumed += 1
            for out_port, out_item in operator.process_batch(run, port):
                self._route(operator_name, out_port, out_item)
        return consumed

    def _pick_port(self, operator_name: str, ports: tuple[str, ...]) -> str | None:
        """Choose the input port whose queue head has the oldest timestamp."""
        best_port = None
        best_key: tuple[float, int] | None = None
        for port in ports:
            queue = self.queues[(operator_name, port)]
            head = queue.peek()
            if head is None:
                continue
            timestamp = getattr(head, "timestamp", 0.0)
            seqno = getattr(head, "seqno", 0)
            key = (timestamp, seqno)
            if best_key is None or key < best_key:
                best_key = key
                best_port = port
        return best_port

    def _route(self, operator_name: str, port: str, item: Any) -> None:
        for output in self.plan.outputs_at(operator_name, port):
            self.results[output.name].append(item)
            self.metrics.record_emission(output.name)
        for edge in self.plan.downstream(operator_name, port):
            self.queues[(edge.target, edge.target_port)].push(item)

    def _flush(self) -> None:
        for operator in self.plan.topological_order():
            for port, item in operator.flush():
                self._route(operator.name, port, item)
            self.drain()
