"""The plan executor.

:class:`ImmediateExecutor` is the one executor of static plans: a push-based
executor that fully processes each arriving tuple (and every item it
transitively produces) before the next arrival.  It is deterministic and
matches the synchronous execution the paper's analysis assumes (Sections 3
and 7 count comparisons and resident tuples), so it runs the correctness
tests and every figure reproduction; it returns a
:class:`~repro.engine.metrics.RunReport`.  With ``batch_size > 1`` it
amortizes per-item dispatch by grouping consecutive arrivals into batches
and driving operators through their vectorized
:meth:`~repro.engine.operator.Operator.process_batch` path (see "Batched
execution" below) — an operator-at-a-time schedule with a backlog of one
batch between adjacent operators.  The paper's one asynchronous
illustration, Table 2, is hand-scheduled with its own queue in
:mod:`repro.experiments.traces`.

Batched execution
-----------------
Correctness of the sliced joins depends on tuples reaching every join's
raw-input ports in global timestamp order (Lemma 1), so arrivals cannot
simply be partitioned per entry port.  The batched mode therefore splits
each plan once, at construction time, into:

* the **ingest region** — every operator that is (or feeds, directly or
  transitively) an operator with two or more *connected* input ports, whose
  cross-port input order is semantically significant (the head of a sliced
  chain, the raw joins of the baselines).  Arrivals traverse this region
  one at a time, exactly as in per-tuple mode.
* the **batchable region** — everything downstream.  Each operator there
  has a single connected input port, so FIFO per-port delivery is the only
  ordering requirement.  Items produced by the ingest phase are buffered
  per target operator, tagged with the index of the arrival that produced
  them, and drained in one topological sweep per batch with
  ``process_batch``.

Within a batch the sweep delivers every buffer sorted stably by arrival
tag, which reproduces the per-tuple arrival order at each operator.  Query
outputs are identical to per-tuple execution (the order-preserving union
releases results strictly by timestamp in both modes); the equivalence is
asserted for batch sizes {1, 7, 64} by ``tests/test_batch_execution.py``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable

from repro.engine.clock import VirtualClock
from repro.engine.errors import ExecutionError
from repro.engine.metrics import MetricsCollector, RunReport
from repro.engine.plan import QueryPlan
from repro.streams.tuples import Punctuation, StreamTuple

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
    batch_size:
        Number of consecutive arrivals grouped into one execution batch.
        1 (the default) is the classic per-tuple mode; larger values enable
        the vectorized ``process_batch`` path for all operators downstream
        of the plan's ingest region.  Query outputs are independent of the
        batch size.  Memory sampling, however, happens at batch boundaries
        (state cannot be observed mid-batch), so the effective sampling
        stride becomes ``max(memory_sample_interval, batch_size)``;
        measurement runs that need fine-grained memory series should use
        per-tuple mode.
    """

    def __init__(
        self,
        plan: QueryPlan,
        metrics: MetricsCollector | None = None,
        memory_sample_interval: int = 1,
        retain_results: bool = True,
        batch_size: int = 1,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.plan.bind_metrics(self.metrics)
        self.clock = VirtualClock()
        self.memory_sample_interval = max(1, int(memory_sample_interval))
        self.retain_results = retain_results
        self.batch_size = max(1, int(batch_size))
        self.results: dict[str, list[Any]] = {name: [] for name in plan.output_names()}
        self._arrivals_seen = 0
        self._last_sampled_arrival = 0
        self._last_timestamp = 0.0
        self._pending: list[StreamTuple] = []
        # Precomputed lookup tables: the naive per-emission scans over the
        # plan's edge/output lists dominate the routing cost otherwise.
        # Downstream destinations carry both the real input port (used by
        # per-item delivery) and the canonical port (used by batch buffers:
        # interchangeable ports of one operator collapse onto one buffer run).
        self._operators = plan.operators
        canonical: dict[tuple[str, str], str] = {}
        for name, operator in self._operators.items():
            ports = operator.interchangeable_input_ports
            if len(ports) > 1:
                for port in ports:
                    canonical[(name, port)] = ports[0]
        self._entries: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        for entry in plan.entries:
            self._entries[entry.stream].append(
                (
                    entry.operator,
                    entry.port,
                    canonical.get((entry.operator, entry.port), entry.port),
                )
            )
        self._routes: dict[
            tuple[str, str], tuple[list[str], list[tuple[str, str, str]]]
        ] = {}
        for name, operator in self._operators.items():
            for port in operator.output_ports:
                self._routes[(name, port)] = (
                    [output.name for output in plan.outputs_at(name, port)],
                    [
                        (
                            edge.target,
                            edge.target_port,
                            canonical.get((edge.target, edge.target_port), edge.target_port),
                        )
                        for edge in plan.downstream(name, port)
                    ],
                )
        self._topo_names = [operator.name for operator in plan.topological_order()]
        self._ingest_region = self._compute_ingest_region()

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
        """Inject one arriving stream tuple.

        In per-tuple mode the tuple is propagated fully before returning; in
        batched mode it is buffered and propagated when the batch fills (or
        on :meth:`finish`).
        """
        if self.batch_size == 1:
            self._process_single(tup)
            return
        self._pending.append(tup)
        if len(self._pending) >= self.batch_size:
            self._flush_pending()

    def finish(self) -> None:
        """Flush pending batches and buffered operator state (e.g. unions)."""
        self._flush_pending()
        work: deque[tuple[str, str, Any]] = deque()
        for operator in self.plan.topological_order():
            for port, item in operator.flush():
                self._route(operator.name, port, item, work)
            self._drain(work)
        if self._arrivals_seen and self._arrivals_seen != self._last_sampled_arrival:
            # The final state size must be sampled even when the arrival
            # count is not a multiple of the sampling stride.
            self._sample_memory()

    # -- per-tuple path -------------------------------------------------------
    def _process_single(self, tup: StreamTuple) -> None:
        entries = self._entries_for(tup.stream)
        self.clock.observe(tup.timestamp)
        self.metrics.record_ingest()
        work: deque[tuple[str, str, Any]] = deque()
        for operator_name, port, _canon in entries:
            work.append((operator_name, port, tup))
        self._drain(work)
        self._arrivals_seen += 1
        self._last_timestamp = tup.timestamp
        if self._arrivals_seen % self.memory_sample_interval == 0:
            self._sample_memory()

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
        for target, target_port, _canon in downstream:
            work.append((target, target_port, item))

    # -- batched path ---------------------------------------------------------
    def _compute_ingest_region(self) -> frozenset[str]:
        """Operators whose cross-port input order must follow arrival order.

        An operator with two or more *connected* input ports (edges or
        entries) consumes an interleaved sequence whose order is
        semantically significant — e.g. the head of a sliced chain must see
        left/right arrivals in global timestamp order.  The same holds for a
        merge-order-sensitive operator fed by several upstream edges on one
        port (a bag union forwards in arrival order).  Such operators stay
        per-item.  An operator whose multiple connected ports are declared
        *interchangeable* (the sliced binary join) can itself be batched —
        its buffer runs collapse onto one canonical port, preserving global
        item order — but its upstream operators must still run per-item so
        that buffered items carry exact per-arrival tags.  In both cases
        every operator that can reach an order-sensitive one is processed
        per-item during the ingest phase; the region is ancestor-closed, so
        the batched sweep never routes an item back into it.
        """
        connected: dict[str, set[str]] = {name: set() for name in self._operators}
        fan_in: dict[tuple[str, str], int] = defaultdict(int)
        for edge in self.plan.edges:
            connected[edge.target].add(edge.target_port)
            fan_in[(edge.target, edge.target_port)] += 1
        for entry in self.plan.entries:
            connected[entry.operator].add(entry.port)
            fan_in[(entry.operator, entry.port)] += 1
        sensitive: set[str] = set()
        #: Operators whose buffered input must carry exact per-arrival tags.
        tag_exact: set[str] = set()
        for name, ports in connected.items():
            if len(ports) > 1:
                tag_exact.add(name)
                if not set(ports) <= set(
                    self._operators[name].interchangeable_input_ports
                ):
                    sensitive.add(name)
        sensitive.update(
            name
            for (name, _port), count in fan_in.items()
            if count > 1 and self._operators[name].merge_order_sensitive
        )
        tag_exact.update(sensitive)
        successors: dict[str, set[str]] = defaultdict(set)
        for edge in self.plan.edges:
            successors[edge.source].add(edge.target)
        # Walk the topological order backwards: a single reverse sweep marks
        # every strict ancestor of an order-sensitive or tag-exact operator.
        region = set(sensitive)
        for name in reversed(self._topo_names):
            if name not in region and any(
                successor in region or successor in tag_exact
                for successor in successors[name]
            ):
                region.add(name)
        return frozenset(region)

    def _flush_pending(self) -> None:
        """Propagate the buffered arrival batch through the plan."""
        batch = self._pending
        if not batch:
            return
        self._pending = []
        operators = self._operators
        ingest_region = self._ingest_region
        metrics = self.metrics
        observe = self.clock.observe
        #: Per-operator buffers of (arrival_tag, input_port, item).
        buffers: dict[str, list[tuple[int, str, Any]]] = defaultdict(list)
        work: deque[tuple[str, str, Any]] = deque()
        if not ingest_region:
            # Fast path: the whole plan is batchable (e.g. a state-slice
            # chain, whose head accepts mixed-stream arrival batches), so
            # arrivals buffer straight into the sweep and the per-tuple
            # clock/ingest bookkeeping is hoisted out of the loop (entry
            # lookups are memoized per stream — a batch holds two streams).
            entries_by_stream: dict[str, list[tuple[str, str, str]]] = {}
            for tag, tup in enumerate(batch):
                entries = entries_by_stream.get(tup.stream)
                if entries is None:
                    entries = entries_by_stream[tup.stream] = self._entries_for(
                        tup.stream
                    )
                for operator_name, _port, canon_port in entries:
                    buffers[operator_name].append((tag, canon_port, tup))
            observe(batch[-1].timestamp)
            metrics.record_ingest(len(batch))
            self._finish_batch(batch, buffers)
            return
        for tag, tup in enumerate(batch):
            entries = self._entries_for(tup.stream)
            observe(tup.timestamp)
            metrics.record_ingest()
            for operator_name, port, canon_port in entries:
                if operator_name in ingest_region:
                    work.append((operator_name, port, tup))
                else:
                    buffers[operator_name].append((tag, canon_port, tup))
            # Ingest phase: per-item propagation through the order-sensitive
            # region; emissions leaving the region are buffered for the sweep.
            while work:
                operator_name, port, item = work.popleft()
                emissions = operators[operator_name].process(item, port)
                for out_port, out_item in emissions:
                    output_names, downstream = self._routes[(operator_name, out_port)]
                    for output_name in output_names:
                        if self.retain_results:
                            self.results[output_name].append(out_item)
                        metrics.record_emission(output_name)
                    for target, target_port, canon_port in downstream:
                        if target in ingest_region:
                            work.append((target, target_port, out_item))
                        else:
                            buffers[target].append((tag, canon_port, out_item))
        self._finish_batch(batch, buffers)

    def _entries_for(self, stream: str) -> list[tuple[str, str, str]]:
        entries = self._entries.get(stream)
        if not entries:
            raise ExecutionError(
                f"no entry point registered for stream {stream!r} in plan "
                f"{self.plan.name!r}"
            )
        return entries

    def _finish_batch(
        self,
        batch: list[StreamTuple],
        buffers: dict[str, list[tuple[int, str, Any]]],
    ) -> None:
        """Sweep the batch buffers and do the per-batch bookkeeping."""
        self._arrivals_seen += len(batch)
        self._last_timestamp = batch[-1].timestamp
        self._sweep(buffers)
        interval = self.memory_sample_interval
        if self._arrivals_seen // interval > self._last_sampled_arrival // interval:
            self._sample_memory()

    def _sweep(self, buffers: dict[str, list[tuple[int, str, Any]]]) -> None:
        """Drain the batch buffers in one topological pass with process_batch.

        Operators outside the ingest region have exactly one connected input
        port (or interchangeable ports collapsed onto one), so after the
        stable per-tag sort each buffer is consumed as a handful of maximal
        same-port runs (usually one).

        Punctuations sort *after* data items of the same arrival tag.  A
        punctuation asserts that every result with a smaller timestamp has
        already been emitted; inside one sweep a join's punctuations reach a
        union directly while the corresponding results take an extra hop
        through a router, so delivering them in raw buffer order would let a
        punctuation overtake the results it vouches for and prematurely
        advance the union's release threshold.  Because arrivals are
        timestamp-ordered, every result a batch's punctuations cover is
        produced within the same batch, so the data-before-punctuation
        delivery restores the punctuation contract exactly.
        """
        operators = self._operators
        routes = self._routes
        metrics = self.metrics
        retain = self.retain_results
        results = self.results
        for operator_name in self._topo_names:
            pending = buffers.get(operator_name)
            if not pending:
                continue
            buffers[operator_name] = []
            pending.sort(
                key=lambda entry: (entry[0], isinstance(entry[2], Punctuation))
            )
            operator = operators[operator_name]
            index = 0
            total = len(pending)
            while index < total:
                port = pending[index][1]
                run: list[Any] = []
                while index < total and pending[index][1] == port:
                    run.append(pending[index][2])
                    index += 1
                run_tag = pending[index - 1][0]
                emissions = operator.process_batch(run, port)
                for out_port, out_item in emissions:
                    output_names, downstream = routes[(operator_name, out_port)]
                    for output_name in output_names:
                        if retain:
                            results[output_name].append(out_item)
                        metrics.record_emission(output_name)
                    for target, _target_port, canon_port in downstream:
                        buffers[target].append((run_tag, canon_port, out_item))

    # -- shared internals -----------------------------------------------------
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
    batch_size: int = 1,
) -> RunReport:
    """Convenience wrapper: build an :class:`ImmediateExecutor` and run it."""
    metrics = MetricsCollector(system_overhead=system_overhead)
    executor = ImmediateExecutor(
        plan,
        metrics=metrics,
        memory_sample_interval=memory_sample_interval,
        retain_results=retain_results,
        batch_size=batch_size,
    )
    return executor.run(tuples, strategy=strategy)
