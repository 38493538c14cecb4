"""The shard side of the sharded runtime: one engine, one command table.

A shard is a :class:`~repro.runtime.engine.StreamEngine` built from a
:class:`ShardConfig` and driven through :func:`run_command` — the single
definition of what ``add``, ``pop_all``, ``export`` … mean, executed
in-thread by a serial shard and inside :func:`worker_main` by a
process-mode one, so the two cannot drift apart.  This module is also the
only one that touches ``multiprocessing``: :func:`spawn_worker` starts a
worker process on a fresh pipe and shared-memory arrival ring.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable

from repro.engine.errors import ExecutionError
from repro.engine.ring import DEFAULT_RING_CAPACITY, SpscRing
from repro.query.predicates import JoinCondition
from repro.runtime.engine import StreamEngine
from repro.streams.tuples import decode_batch

__all__ = ["COMMANDS", "ShardConfig", "reply_to", "run_command", "spawn_worker"]

#: Bytes of one worker's shared-memory arrival ring (read at each spawn).  A
#: batch whose encoding can never fit falls back to the pipe without losing
#: the arrival order.
RING_CAPACITY = DEFAULT_RING_CAPACITY


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to build one shard's time-window engine (picklable,
    so the process driver can ship it to a spawned worker)."""

    condition: JoinCondition
    left_stream: str = "A"
    right_stream: str = "B"
    #: Per-shard in-core state budget (the session budget split over the
    #: current shard count); re-derived by every
    #: :meth:`~repro.runtime.sharding.ShardedStreamEngine.reshard`.
    memory_budget_bytes: int | None = None

    def build(self) -> StreamEngine:
        """Construct one shard's :class:`StreamEngine` from this config."""
        return StreamEngine(
            self.condition,
            left_stream=self.left_stream,
            right_stream=self.right_stream,
            memory_budget_bytes=self.memory_budget_bytes,
        )


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------
def _add(engine: StreamEngine, payload) -> None:
    name, window, left_filter, right_filter = payload
    engine.add_query(name, window, left_filter=left_filter, right_filter=right_filter)


def _snapshot(engine: StreamEngine, _payload):
    engine.flush()
    return engine.metrics.snapshot()


#: What the ``state`` command reads: an attribute or zero-argument method of
#: the shard's engine, by name.
STATE_FIELDS = (
    "stats",
    "boundaries",
    "slice_count",
    "state_size",
    "states_are_disjoint",
    "describe",
)


def _state(engine: StreamEngine, field: str):
    """Introspection is a barrier: buffered arrivals are ingested first."""
    if field not in STATE_FIELDS:
        raise ExecutionError(f"unknown shard state field {field!r}")
    engine.flush()
    value = getattr(engine, field)
    return value() if callable(value) else value


def _export(engine: StreamEngine, names) -> dict:
    """Live-reshard donor half: drain the engine and strip it.

    Ships the whole keyed state, undelivered results (``names`` are the
    registered queries) and this generation's counters back to the
    coordinator.
    """
    engine.flush()
    payload = {
        "state": engine.extract_keyed_state(),
        "results": {name: engine.pop_results(name) for name in names},
        "stats": engine.stats,
        "snapshot": engine.metrics.snapshot(),
    }
    # The extraction above materialized every spilled slice back into core
    # (the payload's state is plain tuples), so the retiring engine's disk
    # tier holds nothing live — delete its segment store now rather than
    # waiting for GC.
    engine.close()
    return payload


#: Every command a shard answers, by name: ``handler(engine, payload)``.
#: Handlers look methods up on the instance at call time, so class-level
#: instrumentation and per-instance test doubles are honoured.
COMMANDS: dict[str, Callable] = {
    "add": _add,
    "remove": lambda engine, name: engine.remove_query(name),
    "results": lambda engine, name: engine.results(name),
    "pop": lambda engine, name: engine.pop_results(name),
    "pop_all": lambda engine, names: {name: engine.pop_results(name) for name in names},
    "sync": lambda engine, _: engine.flush(),
    "snapshot": _snapshot,
    "state": _state,
    "export": _export,
    "ingest": lambda engine, state: engine.ingest_keyed_state(state),
}


def run_command(engine: StreamEngine, command: str, payload=None):
    """Execute one shard command on ``engine`` and return its result."""
    try:
        handler = COMMANDS[command]
    except KeyError:
        raise ExecutionError(f"unknown shard command {command!r}") from None
    return handler(engine, payload)


def reply_to(engine: StreamEngine, command: str, payload=None) -> tuple[str, object]:
    """Run a command and wrap the outcome the way it crosses a pipe:
    ``("ok", result)`` or ``("error", "ExceptionType: message")``."""
    try:
        return "ok", run_command(engine, command, payload)
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        return "error", f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Process-parallel worker
# ---------------------------------------------------------------------------
def worker_main(conn, config: ShardConfig, ring: SpscRing) -> None:  # pragma: no cover - subprocess
    """One worker process owning one shard's engine.

    Arrivals travel through ``ring``, a shared-memory SPSC byte ring of
    :func:`~repro.streams.tuples.encode_batch` records the worker drains
    without a syscall per batch; the pipe ``conn`` carries the command
    protocol — every command gets a :func:`reply_to` reply.  The ring is
    drained *before a command executes*, which is the session's ordering
    barrier: a reply proves every arrival pushed before the command has
    been ingested.  Batches whose encoding can never fit the ring fall back
    to a fire-and-forget ``("batch", tuples)`` pipe message; their position
    in the arrival order is held by an empty marker record in the ring, so
    the two transports cannot reorder.

    Batch-processing errors are deferred and reported on the next replied
    command, so the parent never deadlocks waiting for an ack that a failed
    batch will not send.  The discovering command is still *executed* before
    the deferred error is reported — admissions fan out to every shard, so
    skipping it here would leave this shard's query set diverged from its
    siblings even though the parent raises either way.
    """
    engine = config.build()
    deferred_error: str | None = None

    def ingest(tuples) -> None:
        nonlocal deferred_error
        try:
            engine.process_many(tuples)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            deferred_error = f"{type(exc).__name__}: {exc}"

    def drain_ring(to_marker: bool = False) -> int:
        """Ingest every ring record; an empty marker stands for an oversize
        batch on the pipe — awaited here, or left to the caller holding it."""
        drained = 0
        while (record := ring.try_pop()) is not None:
            if record:
                ingest(decode_batch(record))
            elif to_marker:
                break
            else:
                _, batch = conn.recv()
                ingest(batch)
            drained += 1
        return drained

    while True:
        busy = drain_ring()
        try:
            if not conn.poll(0 if busy else 0.002):
                continue
            command, payload = conn.recv()
        except (EOFError, OSError):
            break
        if command == "batch":
            # Oversize fallback received ahead of its ring marker: replay
            # the ring up to the marker first, then take the pipe batch.
            drain_ring(to_marker=True)
            ingest(payload)
            continue
        if command == "close":
            break
        drain_ring()
        status, result = reply_to(engine, command, payload)
        if deferred_error is not None:
            result = (
                f"{deferred_error}; then {command}: {result}"
                if status == "error"
                else deferred_error
            )
            status, deferred_error = "error", None
        conn.send((status, result))
    engine.close()  # delete this shard's spill segments before exiting
    conn.close()
    ring.close()


def spawn_worker(config: ShardConfig):
    """Start one worker process; returns ``(pipe, ring, process)``."""
    ring = SpscRing(RING_CAPACITY)
    parent_conn, child_conn = multiprocessing.Pipe()
    worker = multiprocessing.Process(
        target=worker_main, args=(child_conn, config, ring), daemon=True
    )
    worker.start()
    child_conn.close()
    return parent_conn, ring, worker
