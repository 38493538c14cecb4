"""Span tracing of the runtime's layer boundaries, from the benchmark's side.

:func:`install` replaces methods *at class level* with timing wrappers before
any session is built.  It is imported by the traced pass only; end-to-end
numbers never come from a process that imported this module.

Two kinds of wrapper share one stack, so self time is exact across them:

* **spans** — calls made O(1) times per delivery quantum or per batch
  (session methods, chain and join batches, spill operations, migrations).
  Each is kept in memory as ``(id, parent, name, start, end, quantum)`` and
  written as JSON lines by :meth:`Tracer.write`.
* **tallies** — calls made once per arriving tuple per slice
  (``match_mask``, ``purge_cut``, ``take``, the metrics counters,
  ``StreamEngine.process``).  Only their call count, total and self time are
  accumulated; recording each as a span would cost more than the call.

``self = total - time covered by wrapped children``.  Per-tuple calls that are
cheaper than a wrapper (``ColumnarState.append``, ``Predicate.matches``) are
not wrapped; their time stays in their caller's self time and their volume is
read from the program's own counters.

A target that no longer exists is skipped and listed in
:attr:`Tracer.unwrapped`; the metrics that read it then report zero.  Forked
worker processes inherit the wrappers switched off.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter

#: (span name, module, class or None for a module-level function, attribute).
SPANS = (
    ("sharding.process_many", "repro.runtime.sharding", "ShardedStreamEngine", "process_many"),
    ("sharding.flush", "repro.runtime.sharding", "ShardedStreamEngine", "flush"),
    ("sharding.pop_results_all", "repro.runtime.sharding", "ShardedStreamEngine", "pop_results_all"),
    ("sharding.add_query", "repro.runtime.sharding", "ShardedStreamEngine", "add_query"),
    ("sharding.remove_query", "repro.runtime.sharding", "ShardedStreamEngine", "remove_query"),
    ("sharding.reshard", "repro.runtime.sharding", "ShardedStreamEngine", "reshard"),
    # Send one command to every worker and wait for every reply: where the
    # parent of a process-mode session blocks.
    ("sharding.worker_wait", "repro.runtime.sharding", "ShardedStreamEngine", "_request_each"),
    ("ring.try_push", "repro.engine.ring", "SpscRing", "try_push"),
    ("streams.encode_batch", "repro.runtime.sharding", None, "encode_batch"),
    ("engine.process_many", "repro.runtime.engine", "StreamEngine", "process_many"),
    ("engine.flush", "repro.runtime.engine", "StreamEngine", "flush"),
    ("engine.pop_results", "repro.runtime.engine", "StreamEngine", "pop_results"),
    ("engine.add_query", "repro.runtime.engine", "StreamEngine", "add_query"),
    ("engine.remove_query", "repro.runtime.engine", "StreamEngine", "remove_query"),
    ("engine.extract_keyed_state", "repro.runtime.engine", "StreamEngine", "extract_keyed_state"),
    ("engine.ingest_keyed_state", "repro.runtime.engine", "StreamEngine", "ingest_keyed_state"),
    ("chain.process_batch", "repro.core.chain_base", "SlicedChainBase", "process_batch"),
    ("chain.split_slice", "repro.core.chain", "SlicedJoinChain", "split_slice"),
    ("chain.merge_slices", "repro.core.chain_base", "SlicedChainBase", "merge_slices"),
    ("chain.append_slice", "repro.core.chain_base", "SlicedChainBase", "append_slice"),
    ("chain.drop_tail_slice", "repro.core.chain_base", "SlicedChainBase", "drop_tail_slice"),
    ("join.process_batch", "repro.operators.sliced_join", "SlicedBinaryJoin", "process_batch"),
    ("join.extract_state", "repro.operators.sliced_join", "KeyedStateMixin", "extract_state"),
    ("join.ingest_state", "repro.operators.sliced_join", "KeyedStateMixin", "ingest_state"),
    ("join.load_state", "repro.operators.sliced_join", "SlicedBinaryJoin", "load_state"),
    ("spill.probe", "repro.engine.spill", "SpilledState", "probe"),
    ("spill.purge", "repro.engine.spill", "SpilledState", "purge"),
    ("spill.flush", "repro.engine.spill", "SpilledState", "flush"),
    ("spill.evict", "repro.engine.spill", "SpillableJoinMixin", "spill"),
    ("metrics.snapshot", "repro.engine.metrics", "MetricsCollector", "snapshot"),
)

TALLIES = (
    ("engine.process", "repro.runtime.engine", "StreamEngine", "process"),
    ("predicates.match_mask", "repro.query.predicates", "EquiJoinCondition", "match_mask"),
    ("predicates.match_mask", "repro.query.predicates", "ModularMatchCondition", "match_mask"),
    ("columns.purge_cut", "repro.engine.columns", "ColumnarState", "purge_cut"),
    ("columns.take", "repro.engine.columns", "ColumnarState", "take"),
) + tuple(
    (f"metrics.{method}", "repro.engine.metrics", "MetricsCollector", method)
    for method in (
        "count",
        "record_invocation",
        "record_emission",
        "record_ingest",
        "observe",
        "observe_time",
        "sample_memory",
        "record_reshard",
    )
)


class Tally:
    """Accumulated calls and seconds of one wrapped name."""

    __slots__ = ("calls", "total", "self_time", "false_returns", "result_bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: Calls that returned ``False`` (a full ring refusing a push).
        self.false_returns = 0
        #: Summed ``len()`` of bytes results (encoded batch sizes).
        self.result_bytes = 0


class Tracer:
    """Wrappers, their shared call stack, and what they recorded."""

    def __init__(self) -> None:
        self.enabled = False
        #: Delivery quantum the driver is feeding; spans carry it so that the
        #: spans of one quantum can be grouped.  -1 outside the timed loop.
        self.quantum = -1
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.tallies: dict[str, Tally] = {}
        self.unwrapped: list[str] = []
        # One frame per active wrapped call: [seconds in wrapped children, span id].
        self._stack: list[list] = []
        self._next_id = 0

    # -- reading -----------------------------------------------------------------
    def tally(self, name: str) -> Tally:
        return self.tallies.get(name) or Tally()

    def total(self, *names: str) -> float:
        return sum(self.tally(name).total for name in names)

    def self_time(self, *names: str) -> float:
        return sum(self.tally(name).self_time for name in names)

    def calls(self, *names: str) -> int:
        return sum(self.tally(name).calls for name in names)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, quantum in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "quantum": quantum,
                        }
                    )
                    + "\n"
                )

    # -- wrapping ----------------------------------------------------------------
    def _wrap(self, name: str, function, record: bool):
        tracer = self
        stack = self._stack
        spans = self.spans
        tally = self.tallies.setdefault(name, Tally())
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            parent = stack[-1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1] if parent else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tally.calls += 1
                tally.total += elapsed
                tally.self_time += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if record:
                    spans.append(
                        (span_id, parent[1] if parent else -1, name, start, end, tracer.quantum)
                    )
            if result is False:
                tally.false_returns += 1
            elif type(result) is bytes:
                tally.result_bytes += len(result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _install_one(self, name, module_name, class_name, attribute, record) -> None:
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            # vars(): wrap where the method is defined, not an inherited copy.
            function = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            self.unwrapped.append(name)
            return
        setattr(owner, attribute, self._wrap(name, function, record))

    def install(self) -> None:
        for target in SPANS:
            self._install_one(*target, record=True)
        for target in TALLIES:
            self._install_one(*target, record=False)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False


def install() -> Tracer:
    """Wrap the layer boundaries and return the (still disabled) tracer."""
    tracer = Tracer()
    tracer.install()
    return tracer
