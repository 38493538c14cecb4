"""The plan executor.

:class:`ImmediateExecutor` is the one executor of static plans, and a static
plan has one schedule: each arriving tuple, and every item it transitively
produces, is propagated through the operators' per-item
:meth:`~repro.engine.operator.Operator.process` before the next arrival — a
FIFO worklist drained to quiescence per arrival.  It is deterministic and
matches the synchronous execution the paper's analysis assumes (Sections 3
and 7 count comparisons and resident tuples per arriving tuple), so it runs
the correctness tests and every figure reproduction; it returns a
:class:`~repro.engine.metrics.RunReport`.  Arrivals must come in timestamp
order (Lemma 1: every join's raw-input ports see global timestamp order); a
lower timestamp than the last accepted one is refused.  The paper's one
asynchronous illustration, Table 2, is hand-scheduled with its own queue in
:mod:`repro.experiments.traces`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable

from repro.engine.errors import ExecutionError
from repro.engine.metrics import MetricsCollector, RunReport
from repro.engine.plan import QueryPlan
from repro.streams.tuples import StreamTuple

__all__ = ["ImmediateExecutor", "execute_plan"]


class ImmediateExecutor:
    """Push-based executor: every arrival is fully propagated before the next.

    Parameters
    ----------
    plan:
        The (validated) query plan to execute.
    metrics:
        Shared metrics collector; a fresh one is created when omitted.
    memory_sample_interval:
        Sample the total join-state occupancy every N arrivals.  Sampling on
        every arrival is exact but slows large runs; the default of 1 keeps
        the correctness tests exact while benchmarks pass a larger stride.
        Regardless of the stride, the state size after the final arrival is
        always sampled (by :meth:`finish`), so peak-memory numbers are not
        stride-dependent.
    retain_results:
        When False, query outputs are only counted (via the metrics
        collector), not stored.  Long benchmark runs producing millions of
        joined tuples use this to bound memory.
    """

    def __init__(
        self,
        plan: QueryPlan,
        metrics: MetricsCollector | None = None,
        memory_sample_interval: int = 1,
        retain_results: bool = True,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.plan.bind_metrics(self.metrics)
        self.memory_sample_interval = max(1, int(memory_sample_interval))
        self.retain_results = retain_results
        self.results: dict[str, list[Any]] = {name: [] for name in plan.output_names()}
        self._arrivals_seen = 0
        self._last_sampled_arrival = 0
        self._last_timestamp = 0.0
        # Precomputed lookup tables: the naive per-emission scans over the
        # plan's edge/output lists dominate the routing cost otherwise.
        self._operators = plan.operators
        self._entries: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for entry in plan.entries:
            self._entries[entry.stream].append((entry.operator, entry.port))
        self._routes: dict[tuple[str, str], tuple[list[str], list[tuple[str, str]]]] = {}
        for name, operator in self._operators.items():
            for port in operator.output_ports:
                self._routes[(name, port)] = (
                    [output.name for output in plan.outputs_at(name, port)],
                    [(edge.target, edge.target_port) for edge in plan.downstream(name, port)],
                )

    # -- public API -----------------------------------------------------------
    def run(self, tuples: Iterable[StreamTuple], strategy: str = "") -> RunReport:
        """Process all ``tuples`` (must be in timestamp order) and flush."""
        for tup in tuples:
            self.process_arrival(tup)
        self.finish()
        return RunReport(
            strategy=strategy or self.plan.name,
            metrics=self.metrics,
            results=self.results,
            duration=self._last_timestamp,
        )

    def process_arrival(self, tup: StreamTuple) -> None:
        """Inject one arriving stream tuple and propagate it fully.

        Arrivals must come in timestamp order (equal timestamps are legal):
        every join state is timestamp-ordered and purged from its head, which
        an out-of-order tuple would silently mis-cut.
        """
        entries = self._entries.get(tup.stream)
        if not entries:
            raise ExecutionError(
                f"no entry point registered for stream {tup.stream!r} in plan "
                f"{self.plan.name!r}"
            )
        if self._arrivals_seen and tup.timestamp < self._last_timestamp:
            raise ExecutionError(
                f"out-of-order arrival: timestamp {tup.timestamp!r} is lower than "
                f"the last accepted one ({self._last_timestamp!r})"
            )
        self.metrics.record_ingest()
        self._drain(deque((operator_name, port, tup) for operator_name, port in entries))
        self._arrivals_seen += 1
        self._last_timestamp = tup.timestamp
        if self._arrivals_seen % self.memory_sample_interval == 0:
            self._sample_memory()

    def finish(self) -> None:
        """Flush buffered operator state (e.g. unions) at end of stream."""
        work: deque[tuple[str, str, Any]] = deque()
        for operator in self.plan.topological_order():
            for port, item in operator.flush():
                self._route(operator.name, port, item, work)
            self._drain(work)
        if self._arrivals_seen and self._arrivals_seen != self._last_sampled_arrival:
            # The final state size must be sampled even when the arrival
            # count is not a multiple of the sampling stride.
            self._sample_memory()

    # -- internals ------------------------------------------------------------
    def _drain(self, work: deque[tuple[str, str, Any]]) -> None:
        """Deliver queued work items in FIFO order until quiescent."""
        operators = self._operators
        while work:
            operator_name, port, item = work.popleft()
            emissions = operators[operator_name].process(item, port)
            for out_port, out_item in emissions:
                self._route(operator_name, out_port, out_item, work)

    def _route(
        self,
        operator_name: str,
        port: str,
        item: Any,
        work: deque[tuple[str, str, Any]],
    ) -> None:
        """Send an emitted item to downstream operators and query outputs."""
        output_names, downstream = self._routes[(operator_name, port)]
        for output_name in output_names:
            if self.retain_results:
                self.results[output_name].append(item)
            self.metrics.record_emission(output_name)
        for target, target_port in downstream:
            work.append((target, target_port, item))

    def _sample_memory(self) -> None:
        self.metrics.record_memory_sample(self._last_timestamp, self.plan.total_state_size())
        self._last_sampled_arrival = self._arrivals_seen


def execute_plan(
    plan: QueryPlan,
    tuples: Iterable[StreamTuple],
    strategy: str = "",
    system_overhead: float = 0.0,
    memory_sample_interval: int = 1,
    retain_results: bool = True,
) -> RunReport:
    """Convenience wrapper: build an :class:`ImmediateExecutor` and run it."""
    metrics = MetricsCollector(system_overhead=system_overhead)
    executor = ImmediateExecutor(
        plan,
        metrics=metrics,
        memory_sample_interval=memory_sample_interval,
        retain_results=retain_results,
    )
    return executor.run(tuples, strategy=strategy)
