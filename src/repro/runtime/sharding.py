"""Key-partitioned sharded runtime: N-way StreamEngine scale-out.

One :class:`~repro.runtime.engine.StreamEngine` probes one monolithic
per-slice state.  For an *equi-join* workload that is more work than the
answer requires: two tuples can only join when they agree on the join key,
so hash-partitioning **both** input streams on that key splits the session
into N completely independent sub-sessions — every joinable pair lands in
the same shard, and the union of the per-shard answers is exactly the
unsharded answer.

:class:`ShardedStreamEngine` implements that split:

* **routing** — each arrival goes to ``shard_for_key(key, N)`` where the key
  is the tuple's side of the shared equi-join condition; the partitioner is
  a stable CRC-32 hash, deterministic across processes and runs (so the
  process-parallel driver and the differential tests agree on placement);
* **admission fan-out** — ``add_query`` / ``remove_query`` / ``rebalance``
  are applied to every shard, so all shards keep identical chain boundaries
  and pushed-down filters (one logical session, N replicas of its plan);
* **deterministic merge** — per-query results are merged across shards in
  ``(timestamp, left seqno, right seqno)`` order, the same order key a
  single engine delivers in, so the global output is independent of the
  shard count;
* **two drivers** — ``shard_mode="serial"`` runs the shards round-robin in
  the calling thread (still an algorithmic win: each nested-loop probe
  scans ~1/N of the resident window state), while ``shard_mode="process"``
  gives every shard a worker process fed through a shared-memory arrival
  ring (:class:`~repro.engine.ring.SpscRing`) of columnar batch encodings —
  no syscall or pickle round-trip per batch — with a pipe reserved for the
  command protocol and oversize fallbacks.  A worker that dies mid-stream
  is respawned and its state recovered from a parent-side replay journal
  (see :meth:`ShardedStreamEngine._respawn_shard`).

Sharding is answer-preserving only for equi-key workloads over time-based
windows.  Non-equi conditions have no partition key, and a count window's
rank ("the N most recent arrivals") is defined over the *whole* stream, not
a shard's subsequence — both therefore raise :class:`ShardingError` for
``shards > 1`` (or fall back to one shard with ``on_unsupported="fallback"``).

:class:`ShardPlanner` closes the sizing loop with the statistics plane of
:mod:`repro.core.statistics`: the per-shard metrics snapshots are aggregated
into one global :class:`~repro.core.statistics.StreamStatistics` view
(counters summed, stream clock max'ed), from which the planner picks a shard
count for the measured load, detects key skew from the per-shard ingest
shares, and re-prices every shard's chain with its *own* measured statistics
via per-shard ``rebalance(params, statistics=)``.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.core.merge_graph import ChainCostParameters
from repro.core.statistics import StreamStatistics
from repro.engine.errors import ExecutionError, MigrationError, QueryError, ShardingError
from repro.engine.metrics import MetricsCollector, MetricsSnapshot
from repro.engine.ring import DEFAULT_RING_CAPACITY, SpscRing
from repro.query.predicates import EquiJoinCondition, JoinCondition, Predicate
from repro.runtime.engine import EngineStats, RegisteredQuery, StreamEngine
from repro.streams.tuples import JoinedTuple, StreamTuple, decode_batch, encode_batch

__all__ = [
    "ReshardDecision",
    "ReshardEvent",
    "ShardConfig",
    "ShardPlan",
    "ShardPlanner",
    "ShardedStreamEngine",
    "shard_for_key",
]

def shard_for_key(key: object, shards: int) -> int:
    """Stable shard index of a join-key value.

    Uses CRC-32 over a canonical string form, so the mapping is a pure
    function of ``(key, shards)`` — identical across interpreter runs,
    worker processes and machines (unlike built-in ``hash``, which salts
    strings per process).  Keys that compare equal must co-shard (the
    partitioning invariant behind answer preservation), so numeric types
    are canonicalized first: ``True == 1 == 1.0`` all shard as the integer
    ``1``, matching ``EquiJoinCondition``'s ``==`` semantics across mixed
    int/float/bool key sources.  CRC-32 mixes well enough that random key
    domains spread evenly; determinism, the cross-type invariant and the
    frequency bound are property-tested in ``tests/test_sharding.py``.
    """
    if shards <= 1:
        return 0
    if isinstance(key, bool):
        key = int(key)
    elif isinstance(key, float) and key.is_integer():
        key = int(key)
    data = key if isinstance(key, bytes) else str(key).encode("utf-8")
    return zlib.crc32(data) % shards


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to build one shard's engine (picklable, so the
    process driver can ship it to a spawned worker)."""

    condition: JoinCondition
    left_stream: str = "A"
    right_stream: str = "B"
    batch_size: int = 32
    window_kind: str = "time"
    probe: str = "nested_loop"
    system_overhead: float = 0.0
    collect_statistics: bool = False
    #: Per-shard in-core state budget (the session budget split over the
    #: current shard count); re-derived by every :meth:`~ShardedStreamEngine.reshard`.
    memory_budget_bytes: int | None = None

    def build(self) -> StreamEngine:
        """Construct one shard's :class:`StreamEngine` from this config."""
        return StreamEngine(
            self.condition,
            left_stream=self.left_stream,
            right_stream=self.right_stream,
            batch_size=self.batch_size,
            metrics=MetricsCollector(system_overhead=self.system_overhead),
            window_kind=self.window_kind,
            probe=self.probe,
            collect_statistics=self.collect_statistics,
            memory_budget_bytes=self.memory_budget_bytes,
        )


def _export_engine(engine: StreamEngine, names: Sequence[str]) -> dict:
    """Drain one shard engine and strip it for a reshard.

    One definition serves both drivers — the serial loop and the worker
    process's ``export`` command — so the payload's fields cannot drift
    apart between shard modes.
    """
    engine.flush()
    payload = {
        "boundaries": engine.boundaries,
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


# ---------------------------------------------------------------------------
# Process-parallel worker
# ---------------------------------------------------------------------------
def _shard_worker(conn, config: ShardConfig, ring: SpscRing | None = None) -> None:  # pragma: no cover - subprocess
    """One worker process owning one shard's engine.

    Arrivals travel through ``ring``, a shared-memory SPSC byte ring of
    :func:`~repro.streams.tuples.encode_batch` records the worker drains
    without a syscall per batch; the pipe ``conn`` carries the command
    protocol — every command gets an ``("ok", payload)`` or ``("error",
    text)`` reply.  The ring is drained *before a command executes*, which
    is the session's ordering barrier: a reply proves every arrival pushed
    before the command has been ingested.  Batches whose encoding can never
    fit the ring fall back to a fire-and-forget ``("batch", tuples)`` pipe
    message; their position in the arrival order is held by an empty marker
    record in the ring, so the two transports cannot reorder.

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

    def drain_ring() -> int:
        """Ingest every ring record; blocks for announced oversize batches."""
        drained = 0
        while (record := ring.try_pop()) is not None:
            if record:
                ingest(decode_batch(record))
            else:
                # Empty marker: the batch it stands for follows on the pipe.
                _, batch = conn.recv()
                ingest(batch)
            drained += 1
        return drained

    while True:
        busy = drain_ring() if ring is not None else 0
        try:
            if ring is not None and not conn.poll(0 if busy else 0.002):
                continue
            command, payload = conn.recv()
        except (EOFError, OSError):
            break
        if command == "batch":
            # Oversize fallback received ahead of its ring marker: replay
            # the ring up to the marker first, then take the pipe batch.
            if ring is not None:
                while (record := ring.try_pop()) is not None:
                    if not record:
                        break
                    ingest(decode_batch(record))
            ingest(payload)
            continue
        if command == "close":
            break
        if ring is not None:
            drain_ring()
        error = deferred_error
        deferred_error = None
        try:
            if command == "add":
                name, window, left_filter, right_filter = payload
                engine.add_query(
                    name, window, left_filter=left_filter, right_filter=right_filter
                )
                result = engine.boundaries
            elif command == "remove":
                result = engine.remove_query(payload)
            elif command == "results":
                result = engine.results(payload)
            elif command == "pop":
                result = engine.pop_results(payload)
            elif command == "pop_all":
                result = {name: engine.pop_results(name) for name in payload}
            elif command == "probe":
                engine.set_probe(payload)
                result = None
            elif command == "sync":
                engine.flush()
                result = None
            elif command == "snapshot":
                engine.flush()
                result = engine.metrics.snapshot()
            elif command == "state":
                engine.flush()
                result = {
                    "stats": engine.stats,
                    "state_size": engine.state_size(),
                    "slice_count": engine.slice_count(),
                    "boundaries": engine.boundaries,
                    "disjoint": engine.states_are_disjoint(),
                }
            elif command == "rebalance":
                params, statistics = payload
                result = engine.rebalance(params, statistics=statistics)
            elif command == "export":
                # Live-reshard donor half: drain, then ship boundaries, the
                # whole keyed state, undelivered results and the counters of
                # this generation back to the coordinator (payload is the
                # registered query names).
                result = _export_engine(engine, payload)
            elif command == "adopt":
                result = engine.set_boundaries(payload)
            elif command == "ingest":
                result = engine.ingest_keyed_state(payload)
            else:
                raise ExecutionError(f"unknown shard command {command!r}")
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            detail = f"{type(exc).__name__}: {exc}"
            error = f"{error}; then {command}: {detail}" if error else detail
            result = None
        if error is not None:
            conn.send(("error", error))
        else:
            conn.send(("ok", result))
    engine.close()  # delete this shard's spill segments before exiting
    conn.close()
    if ring is not None:
        ring.close()


@dataclass(frozen=True)
class ReshardEvent:
    """One live shard-count change performed by :meth:`ShardedStreamEngine.reshard`."""

    old_shards: int  #: Shard count before the reshard.
    new_shards: int  #: Shard count after the reshard.
    moved_tuples: int  #: Resident tuples that changed shards under the new modulus.
    resident_tuples: int  #: Total resident tuples repartitioned (moved or not).
    carried_results: int  #: Undelivered per-query results carried across generations.
    arrivals: int  #: Session arrivals ingested when the reshard ran.
    stream_time: float  #: Stream clock at the reshard (max per-shard ``time.last``).
    reason: str = ""  #: Why the reshard happened (planner decision or caller note).

    def describe(self) -> str:
        """One-line human-readable form of this event."""
        return (
            f"reshard {self.old_shards}->{self.new_shards} @ t={self.stream_time:g}s: "
            f"moved {self.moved_tuples}/{self.resident_tuples} resident tuples, "
            f"carried {self.carried_results} results"
            + (f" ({self.reason})" if self.reason else "")
        )


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------
class ShardedStreamEngine:
    """N key-partitioned :class:`StreamEngine` shards behind one session API.

    Parameters
    ----------
    condition:
        The shared join condition.  ``shards > 1`` requires an
        :class:`~repro.query.predicates.EquiJoinCondition` — the equi-key is
        the partition key.
    shards:
        Number of inner engines.  ``1`` degenerates to a single unsharded
        engine (any condition or window kind).
    shard_mode:
        ``"serial"`` (default) runs the shards in the calling thread —
        already a throughput win, since each nested-loop probe scans ~1/N
        of the window state; ``"process"`` starts one worker process per
        shard and ships pickled arrival batches (conditions and predicates
        must then be picklable; close the session with :meth:`close` or use
        it as a context manager).
    on_unsupported:
        ``"raise"`` (default) raises :class:`ShardingError` for workloads
        that cannot be partitioned (non-equi condition, count windows);
        ``"fallback"`` silently runs them on one shard.
    ring_capacity:
        Bytes of one worker's shared-memory arrival ring (process mode).
        Batches whose encoding can never fit fall back to the pipe without
        losing the arrival order.
    max_respawns:
        How many times one shard's dead worker may be replaced before the
        session gives up (see :meth:`_respawn_shard` for what a replacement
        recovers).
    memory_budget_bytes:
        Optional *session-level* in-core state budget.  Split evenly over
        the live shard count — each shard engine enforces
        ``budget // shards`` (at least 1) by spilling its own cold slices
        to disk, see :class:`StreamEngine`.  A :meth:`reshard` re-splits
        the session budget under the new modulus, so growing the session
        also grows nobody's total footprint.
    batch_size / window_kind / probe / system_overhead / collect_statistics:
        Forwarded to every shard's engine, see :class:`StreamEngine`.
    """

    #: See :attr:`StreamEngine.columnar` — read by
    #: ``bench/workloads.resolved_knobs``; goes with the next ``benchmark`` PR.
    columnar = "auto"

    def __init__(
        self,
        condition: JoinCondition,
        shards: int = 4,
        shard_mode: str = "serial",
        left_stream: str = "A",
        right_stream: str = "B",
        batch_size: int = 32,
        window_kind: str = "time",
        probe: str = "nested_loop",
        system_overhead: float = 0.0,
        collect_statistics: bool = False,
        on_unsupported: str = "raise",
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        max_respawns: int = 3,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if shards < 1:
            raise ShardingError(f"shard count must be at least 1, got {shards}")
        if shard_mode not in ("serial", "process"):
            raise ShardingError(
                f"shard_mode must be 'serial' or 'process', got {shard_mode!r}"
            )
        if on_unsupported not in ("raise", "fallback"):
            raise ShardingError(
                f"on_unsupported must be 'raise' or 'fallback', got {on_unsupported!r}"
            )
        if shards > 1:
            problem = None
            if not isinstance(condition, EquiJoinCondition):
                problem = (
                    f"condition {condition.describe()!r} has no equi-key to "
                    f"partition on"
                )
            elif window_kind != "time":
                problem = (
                    "count windows rank tuples over the whole stream, not a "
                    "shard's subsequence"
                )
            if problem is not None:
                if on_unsupported == "raise":
                    raise ShardingError(
                        f"cannot run {shards} shards: {problem} (pass "
                        f"on_unsupported='fallback' to run unsharded)"
                    )
                shards = 1
        self.condition = condition
        self.shards = shards
        self.shard_mode = shard_mode
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.window_kind = window_kind
        self.probe = probe
        self.batch_size = max(1, int(batch_size))
        self.ring_capacity = int(ring_capacity)
        self.max_respawns = int(max_respawns)
        if memory_budget_bytes is not None:
            memory_budget_bytes = int(memory_budget_bytes)
            if memory_budget_bytes <= 0:
                raise ShardingError(
                    f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
                )
        #: The session-level budget (per-shard splits live in :attr:`config`).
        self.memory_budget_bytes = memory_budget_bytes
        self.config = ShardConfig(
            condition=condition,
            left_stream=left_stream,
            right_stream=right_stream,
            batch_size=self.batch_size,
            window_kind=window_kind,
            probe=probe,
            system_overhead=system_overhead,
            collect_statistics=collect_statistics,
            memory_budget_bytes=self._per_shard_budget(self.shards),
        )
        if isinstance(condition, EquiJoinCondition):
            # Kept even for one shard: a later reshard to N > 1 partitions
            # the resident state on the same equi-key.
            self._key_attrs = {
                left_stream: condition.left_attribute,
                right_stream: condition.right_attribute,
            }
        else:
            self._key_attrs = None
        self._queries: dict[str, RegisteredQuery] = {}
        self._arrivals = 0
        self._clock = 0.0
        self._closed = False
        self.shard_engines: list[StreamEngine] = []
        self._workers: list = []
        self._pipes: list = []
        self._buffers: list[list[StreamTuple]] = []
        self._rings: list[SpscRing] = []
        # Crash-recovery plane (process mode only): a per-shard replay
        # journal of pushed arrivals (bounded by twice the largest window),
        # per-shard/per-query delivery and admission frontiers expressed as
        # push positions, the state each generation started from, and the
        # per-shard respawn budget.  See :meth:`_respawn_shard`.
        self._journals: list[deque[tuple[int, StreamTuple]]] = []
        self._journal_counts: list[dict[str, int]] = []
        self._pushed: list[int] = []
        self._admitted: list[dict[str, int]] = []
        self._delivered: list[dict[str, int]] = []
        self._recovery_base: list = []
        self._respawns: list[int] = []
        self._respawn_guard = False
        #: Per-shard probe overrides installed by :meth:`set_shard_probes`
        #: (``None`` until then; reset by :meth:`reshard`).
        self._shard_probes: list[str] | None = None
        # Chain boundaries as last observed by the coordinator — what a
        # replacement worker must adopt before state can be spliced in.
        self._boundaries_cache: tuple[float, ...] | None = None
        #: Session-level collector: reshard events and moved-tuple accounting
        #: (per-shard work lives in the shard engines' own collectors).
        self.metrics = MetricsCollector()
        #: Reshard history, newest last (see :class:`ReshardEvent`).
        self.reshard_events: list[ReshardEvent] = []
        # Carryover views across reshard generations: undelivered per-query
        # results, retired EngineStats/metrics counters, and the statistics
        # epoch (zero counters at the stream time of the last reshard, so
        # post-reshard rate estimates use the right time span).
        self._carryover: dict[str, list[JoinedTuple]] = {}
        self._stats_base: EngineStats | None = None
        self._snapshot_base: MetricsSnapshot | None = None
        self._epoch: MetricsSnapshot = MetricsCollector().snapshot()
        # Admissions, removals and reshards serialize on this lock (a reshard
        # must never observe a half-fanned-out admission); the owner check
        # turns same-thread re-entry into an error instead of a deadlock.
        self._session_lock = threading.Lock()
        self._lock_owner: int | None = None
        if self.shard_mode == "serial":
            self.shard_engines = [self.config.build() for _ in range(self.shards)]
        else:
            self._start_workers()

    @contextmanager
    def _serialized(self, what: str):
        """Hold the session lock for one structural change (admission/reshard)."""
        me = threading.get_ident()
        if self._lock_owner == me:
            raise MigrationError(
                f"cannot {what}: a session migration is already in progress "
                f"on this thread"
            )
        self._session_lock.acquire()
        self._lock_owner = me
        try:
            yield
        finally:
            self._lock_owner = None
            self._session_lock.release()

    # -- process-mode plumbing -------------------------------------------------
    def _spawn_worker(self):
        """Start one worker process with a fresh pipe and arrival ring."""
        import multiprocessing

        ring = SpscRing(self.ring_capacity)
        parent_conn, child_conn = multiprocessing.Pipe()
        worker = multiprocessing.Process(
            target=_shard_worker, args=(child_conn, self.config, ring), daemon=True
        )
        worker.start()
        child_conn.close()
        return parent_conn, ring, worker

    def _start_workers(self) -> None:
        for _ in range(self.shards):
            parent_conn, ring, worker = self._spawn_worker()
            self._workers.append(worker)
            self._pipes.append(parent_conn)
            self._rings.append(ring)
            self._buffers.append([])
            self._journals.append(deque())
            self._journal_counts.append({})
            self._pushed.append(0)
            self._admitted.append({})
            self._delivered.append({})
            self._recovery_base.append(None)
            self._respawns.append(0)

    def _worker_died(self, index: int, command: str, exc: BaseException) -> ExecutionError:
        return ExecutionError(
            f"shard {index}: worker died during {command!r} "
            f"({type(exc).__name__}); the session is in an undefined "
            f"state — close it"
        )

    def _can_respawn(self) -> bool:
        """Whether a dead worker may be replaced right now (not re-entrantly,
        not on a closed session)."""
        return (
            self.shard_mode == "process"
            and not self._respawn_guard
            and not self._closed
        )

    def _request(self, index: int, command: str, payload=None, respawn: bool = True):
        try:
            self._pipes[index].send((command, payload))
            status, result = self._pipes[index].recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            if not respawn or not self._can_respawn():
                raise self._worker_died(index, command, exc) from exc
            self._respawn_shard(index, f"worker died during {command!r}")
            return self._request(index, command, payload, respawn=False)
        if status == "error":
            raise ExecutionError(f"shard {index}: {result}")
        return result

    def _request_each(self, command: str, payloads: Sequence) -> list:
        """Fan one command out with a per-shard payload; dead workers are
        respawned (state recovered from the journal) and retried once.

        Sends first, receives second: the shards work concurrently while
        the parent waits, instead of serializing one round-trip per shard.
        """
        for index, payload in enumerate(payloads):
            try:
                self._pipes[index].send((command, payload))
            except (BrokenPipeError, OSError) as exc:
                if not self._can_respawn():
                    raise self._worker_died(index, command, exc) from exc
                self._respawn_shard(index, f"worker died before {command!r}")
                self._pipes[index].send((command, payload))
        replies = []
        for index in range(len(self._pipes)):
            try:
                status, result = self._pipes[index].recv()
            except (EOFError, OSError) as exc:
                if not self._can_respawn():
                    raise self._worker_died(index, command, exc) from exc
                self._respawn_shard(index, f"worker died during {command!r}")
                replies.append(
                    self._request(index, command, payloads[index], respawn=False)
                )
                continue
            if status == "error":
                raise ExecutionError(f"shard {index}: {result}")
            replies.append(result)
        return replies

    def _request_all(self, command: str, payload=None) -> list:
        return self._request_each(command, [payload] * len(self._pipes))

    def _push_batch(self, index: int) -> None:
        """Ship shard ``index``'s buffered arrivals through its ring.

        A full ring spins (the worker is draining it on the other side,
        and a worker found dead is respawned); an encoding that can never
        fit falls back to the pipe behind an empty ring marker that holds
        its place in the arrival order.  The batch enters the shard's
        replay journal only after it is handed off, so a respawn triggered
        mid-push never replays it twice.
        """
        buffer = self._buffers[index]
        if not buffer:
            return
        self._buffers[index] = []
        payload = encode_batch(buffer)
        try:
            while not self._rings[index].try_push(payload):
                if not self._workers[index].is_alive():
                    if not self._can_respawn():
                        raise ExecutionError(
                            f"shard {index}: worker died with a full arrival "
                            f"ring; the session is in an undefined state — "
                            f"close it"
                        )
                    self._respawn_shard(index, "worker died with a full arrival ring")
                else:
                    time.sleep(0.0002)
        except ValueError:
            while not self._rings[index].try_push(b""):
                if not self._workers[index].is_alive():
                    if not self._can_respawn():
                        raise ExecutionError(
                            f"shard {index}: worker died with a full arrival "
                            f"ring; the session is in an undefined state — "
                            f"close it"
                        )
                    self._respawn_shard(index, "worker died with a full arrival ring")
                else:
                    time.sleep(0.0002)
            try:
                self._pipes[index].send(("batch", buffer))
            except (BrokenPipeError, OSError) as exc:
                if not self._can_respawn():
                    raise self._worker_died(index, "batch", exc) from exc
                self._respawn_shard(index, "worker died receiving an oversize batch")
                self._rings[index].try_push(b"")  # fresh empty ring: cannot fail
                self._pipes[index].send(("batch", buffer))
        self._journal_append(index, buffer)

    def _send_buffers(self) -> None:
        for index in range(len(self._buffers)):
            self._push_batch(index)

    def _stop_workers(self) -> None:
        """Stop the current worker generation (close, join, drop the pipes)."""
        for pipe in self._pipes:
            try:
                pipe.send(("close", None))
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
        for pipe in self._pipes:
            pipe.close()
        for ring in self._rings:
            ring.close()
            ring.unlink()
        self._workers = []
        self._pipes = []
        self._rings = []
        self._buffers = []
        self._journals = []
        self._journal_counts = []
        self._pushed = []
        self._admitted = []
        self._delivered = []
        self._recovery_base = []
        self._respawns = []

    # -- crash recovery (process mode) -----------------------------------------
    def _journal_horizon(self) -> float:
        """Retention horizon of the replay journals.

        Twice the largest registered window: any undelivered result whose
        male is within the last window of stream time (or the last ``N``
        ranks, for a count session) still has every joinable partner inside
        the journal — partners reach at most one window further back.
        """
        if not self._queries:
            return 0.0
        return 2.0 * max(query.window for query in self._queries.values())

    def _journal_append(self, index: int, tuples: Sequence[StreamTuple]) -> None:
        journal = self._journals[index]
        counts = self._journal_counts[index]
        base = self._pushed[index]
        for offset, tup in enumerate(tuples):
            journal.append((base + offset + 1, tup))
            counts[tup.stream] = counts.get(tup.stream, 0) + 1
        self._pushed[index] = base + len(tuples)
        journal_horizon = self._journal_horizon()
        if not journal:
            return
        if journal_horizon <= 0:
            # No queries: chainless arrivals build no state and no results.
            journal.clear()
            counts.clear()
        elif self.window_kind == "time":
            latest = journal[-1][1].timestamp
            while journal and latest - journal[0][1].timestamp >= journal_horizon:
                _, dropped = journal.popleft()
                counts[dropped.stream] -= 1
        else:
            while journal and counts[journal[0][1].stream] - 1 >= journal_horizon:
                _, dropped = journal.popleft()
                counts[dropped.stream] -= 1

    def _recover_state(self, index: int):
        """Rebuild a dead shard's engine from the parent-side journal.

        Replays the generation's base state plus the journaled arrivals
        through a fresh local engine, replaying admissions at their
        recorded push positions.  Results are popped per journal segment:
        a segment's results are kept for a query only when its delivery
        frontier lies at or before the segment start — results the dead
        worker had already handed out are discarded, undelivered ones are
        returned for the carryover view.  Returns ``(state, boundaries,
        recovered_results)``; ``state`` is ``None`` when no query is
        registered.
        """
        engine = self.config.build()
        admitted = self._admitted[index]
        delivered = self._delivered[index]
        queries = list(self._queries.values())
        recovered: dict[str, list[JoinedTuple]] = {}
        admitted_names: set[str] = set()

        def admit_through(position: int) -> None:
            for query in queries:
                if (
                    query.name not in admitted_names
                    and admitted.get(query.name, 0) <= position
                ):
                    engine.add_query(
                        query.name,
                        query.window,
                        left_filter=query.left_filter,
                        right_filter=query.right_filter,
                    )
                    admitted_names.add(query.name)

        admit_through(0)
        base = self._recovery_base[index]
        if base is not None and admitted_names:
            base_boundaries, bucket = base
            engine.set_boundaries(base_boundaries)
            engine.ingest_keyed_state(bucket)
        entries = list(self._journals[index])
        cuts = sorted({*admitted.values(), *delivered.values()})
        cuts.append(self._pushed[index])
        pointer = 0
        previous = 0
        for cut in cuts:
            if cut <= previous:
                continue
            segment: list[StreamTuple] = []
            while pointer < len(entries) and entries[pointer][0] <= cut:
                segment.append(entries[pointer][1])
                pointer += 1
            if segment:
                engine.process_many(segment)
                engine.flush()
                for name in admitted_names:
                    results = engine.pop_results(name)
                    if results and delivered.get(name, 0) <= previous:
                        recovered.setdefault(name, []).extend(results)
            admit_through(cut)
            previous = cut
        if not admitted_names:
            return None, self._boundaries_cache, recovered
        engine.flush()
        boundaries = self._boundaries_cache
        if boundaries is not None and tuple(engine.boundaries) != tuple(boundaries):
            engine.set_boundaries(boundaries)
        else:
            boundaries = tuple(engine.boundaries)
        return engine.extract_keyed_state(), boundaries, recovered

    def _respawn_shard(self, index: int, cause: str) -> None:
        """Replace shard ``index``'s dead worker and recover its state.

        The replacement is rebuilt from the parent side alone: admissions
        replay from the registry, chain boundaries from the coordinator's
        cache, window state and undelivered results from the shard's replay
        journal (see :meth:`_recover_state`).  Undelivered results whose
        male fell off the journal's retention horizon (no result pull for
        more than one full window) are lost, as are the dead worker's
        metrics counters; everything else — state, delivered results, the
        per-shard probe override — survives the crash exactly.
        """
        self._respawns[index] += 1
        if self._respawns[index] > self.max_respawns:
            raise ExecutionError(
                f"shard {index}: worker died ({cause}) and exhausted its "
                f"{self.max_respawns} respawns; close the session"
            )
        self._respawn_guard = True
        try:
            worker = self._workers[index]
            if worker.is_alive():  # a broken pipe does not imply a dead process
                worker.terminate()
            worker.join(timeout=5)
            try:
                self._pipes[index].close()
            except OSError:  # pragma: no cover - already closed
                pass
            old_ring = self._rings[index]
            old_ring.close()
            old_ring.unlink()
            state, boundaries, recovered = self._recover_state(index)
            for name, results in recovered.items():
                self._carryover.setdefault(name, []).extend(results)
            parent_conn, ring, worker = self._spawn_worker()
            self._pipes[index] = parent_conn
            self._rings[index] = ring
            self._workers[index] = worker
            for query in self._queries.values():
                self._request(
                    index,
                    "add",
                    (query.name, query.window, query.left_filter, query.right_filter),
                    respawn=False,
                )
            if state is not None:
                self._request(index, "adopt", boundaries, respawn=False)
                self._request(index, "ingest", state, respawn=False)
            if self._shard_probes is not None:
                self._request(
                    index, "probe", self._shard_probes[index], respawn=False
                )
            # The recovered state is the replacement's generation base:
            # restart the journal bookkeeping from it.
            self._recovery_base[index] = (
                (boundaries, state) if state is not None else None
            )
            self._journals[index].clear()
            self._journal_counts[index].clear()
            self._pushed[index] = 0
            self._admitted[index] = {name: 0 for name in self._queries}
            self._delivered[index] = {name: 0 for name in self._queries}
            self.metrics.record_respawn()
        finally:
            self._respawn_guard = False

    def _per_shard_budget(self, shards: int) -> int | None:
        """Split the session budget evenly over ``shards`` engines.

        The shards partition the key space, so their resident states are
        disjoint and the per-shard budgets sum (up to rounding) to the
        session budget the caller asked for.
        """
        total = self.memory_budget_bytes
        if total is None:
            return None
        return max(1, total // max(1, shards))

    @property
    def per_shard_memory_budget(self) -> int | None:
        """The budget each live shard engine currently enforces."""
        return self.config.memory_budget_bytes

    def close(self) -> None:
        """Shut the session down: worker processes (process mode) or the
        serial engines' disk tiers (segment stores of spilled slices)."""
        if self._closed:
            return
        self._closed = True
        if self.shard_mode == "process":
            self._stop_workers()
            return
        for engine in self.shard_engines:
            engine.close()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("the sharded session has been closed")

    # -- routing ---------------------------------------------------------------
    def shard_of(self, tup: StreamTuple) -> int:
        """The shard an arrival is routed to (pure in the tuple's key)."""
        if self.shards == 1 or self._key_attrs is None:
            return 0
        try:
            attribute = self._key_attrs[tup.stream]
        except KeyError:
            raise QueryError(
                f"sharded session joins streams {sorted(self._key_attrs)}, got a "
                f"tuple of stream {tup.stream!r}"
            ) from None
        return shard_for_key(tup.values[attribute], self.shards)

    # -- execution -------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Ingest one arriving tuple, routing it to its key's shard.

        Global timestamp order is checked here: an arrival that is late
        for the session can still be in order for its own shard, whose
        engine would then accept it.
        """
        self._check_open()
        if tup.timestamp < self._clock and self._arrivals:
            raise ExecutionError(
                f"out-of-order arrival: timestamp {tup.timestamp!r} is lower than "
                f"the last accepted one ({self._clock!r})"
            )
        index = self.shard_of(tup)
        self._arrivals += 1
        self._clock = tup.timestamp
        if self.shard_mode == "serial":
            self.shard_engines[index].process(tup)
            return
        buffer = self._buffers[index]
        buffer.append(tup)
        if len(buffer) >= self.batch_size:
            self._push_batch(index)

    def process_many(self, tuples: Iterable[StreamTuple]) -> None:
        """Ingest a sequence of timestamp-ordered arrivals."""
        for tup in tuples:
            self.process(tup)

    def flush(self) -> None:
        """Process buffered arrivals on every shard (a cross-shard barrier)."""
        self._check_open()
        if self.shard_mode == "serial":
            for engine in self.shard_engines:
                engine.flush()
            return
        self._send_buffers()
        self._request_all("sync")

    # -- admission (fans out to every shard) -----------------------------------
    def add_query(
        self,
        name: str,
        window: float,
        left_filter: Predicate | None = None,
        right_filter: Predicate | None = None,
    ) -> RegisteredQuery:
        """Admit a query on every shard (one logical admission).

        All shards run the same migration, so their chain boundaries and
        pushed-down filters stay identical — the session behaves as one
        engine whose state happens to be partitioned by key.  Admissions,
        removals and reshards serialize on one session lock.
        """
        with self._serialized("admit a query"):
            self._check_open()
            if name in self._queries:
                raise QueryError(f"query {name!r} is already registered")
            if self.shard_mode == "serial":
                registered = None
                for engine in self.shard_engines:
                    registered = engine.add_query(
                        name, window, left_filter=left_filter, right_filter=right_filter
                    )
                assert registered is not None
                query = replace(registered, registered_at=self._arrivals)
            else:
                self._send_buffers()
                replies = self._request_all(
                    "add", (name, window, left_filter, right_filter)
                )
                self._boundaries_cache = tuple(replies[0])
                for index in range(self.shards):
                    # The new query's results start at the current push
                    # position: a crash replay must not fabricate results
                    # for males this shard ingested before the admission.
                    self._admitted[index][name] = self._pushed[index]
                    self._delivered[index][name] = self._pushed[index]
                updates = {
                    key: value
                    for key, value in (
                        ("left_filter", left_filter),
                        ("right_filter", right_filter),
                    )
                    if value is not None
                }
                query = RegisteredQuery(name, window, self._arrivals, **updates)
            self._queries[name] = query
            return query

    def remove_query(self, name: str) -> list[JoinedTuple]:
        """Deregister a query on every shard; return its merged results.

        Results delivered before the last :meth:`reshard` (carried across
        the generation change) are included in the merge.
        """
        with self._serialized("remove a query"):
            self._check_open()
            if name not in self._queries:
                raise QueryError(f"no registered query named {name!r}")
            if self.shard_mode == "serial":
                delivered = [engine.remove_query(name) for engine in self.shard_engines]
            else:
                self._send_buffers()
                delivered = self._request_all("remove", name)
                for index in range(self.shards):
                    self._admitted[index].pop(name, None)
                    self._delivered[index].pop(name, None)
            del self._queries[name]
            if self.shard_mode == "process":
                # The removal may have shrunk the chain; refresh the
                # coordinator's boundary cache for crash recovery.
                self._boundaries_cache = (
                    tuple(self._request(0, "state")["boundaries"])
                    if self._queries
                    else None
                )
            delivered.append(self._carryover.pop(name, []))
            return self._merge(delivered)

    # -- results ---------------------------------------------------------------
    @staticmethod
    def _merge(per_shard: Sequence[list[JoinedTuple]]) -> list[JoinedTuple]:
        """Deterministic global order: merge shard outputs by the same
        ``(timestamp, seqno, seqno)`` key a single engine delivers in."""
        return sorted(
            itertools.chain.from_iterable(per_shard),
            key=lambda j: (j.timestamp, j.left.seqno, j.right.seqno),
        )

    def results(self, name: str) -> list[JoinedTuple]:
        """A query's merged results so far (buffered arrivals included).

        Includes results delivered before any :meth:`reshard` (the carryover
        of retired shard generations), re-merged into the global order.
        """
        self._check_open()
        if name not in self._queries:
            raise QueryError(f"no registered query named {name!r}")
        if self.shard_mode == "serial":
            per_shard = [engine.results(name) for engine in self.shard_engines]
        else:
            self._send_buffers()
            per_shard = self._request_all("results", name)
        per_shard.append(self._carryover.get(name, []))
        return self._merge(per_shard)

    def pop_results(self, name: str) -> list[JoinedTuple]:
        """Return and clear a query's merged results (carryover included)."""
        self._check_open()
        if name not in self._queries:
            raise QueryError(f"no registered query named {name!r}")
        if self.shard_mode == "serial":
            per_shard = [engine.pop_results(name) for engine in self.shard_engines]
        else:
            self._send_buffers()
            per_shard = self._request_all("pop", name)
            for index in range(self.shards):
                # Everything pushed so far is now delivered for this query
                # (the worker drains its ring before executing a command).
                self._delivered[index][name] = self._pushed[index]
        per_shard.append(self._carryover.pop(name, []))
        return self._merge(per_shard)

    def pop_results_all(self) -> dict[str, list[JoinedTuple]]:
        """Return and clear every query's merged results in one sweep.

        The batched pull of the process driver: one round-trip per shard
        for *all* queries, instead of one per ``(shard, query)`` pair —
        the way a throughput-sensitive caller should drain a sharded
        session.  Carryover results are included, exactly as in
        :meth:`pop_results`.
        """
        self._check_open()
        names = list(self._queries)
        if self.shard_mode == "serial":
            per_name = {
                name: [engine.pop_results(name) for engine in self.shard_engines]
                for name in names
            }
        else:
            self._send_buffers()
            replies = self._request_all("pop_all", names)
            per_name = {
                name: [reply.get(name, []) for reply in replies] for name in names
            }
            for index in range(self.shards):
                for name in names:
                    self._delivered[index][name] = self._pushed[index]
        merged: dict[str, list[JoinedTuple]] = {}
        for name in names:
            parts = per_name[name]
            parts.append(self._carryover.pop(name, []))
            merged[name] = self._merge(parts)
        return merged

    # -- statistics ------------------------------------------------------------
    def shard_snapshots(self) -> list[MetricsSnapshot]:
        """One metrics snapshot per shard (buffered arrivals flushed first)."""
        self._check_open()
        if self.shard_mode == "serial":
            self.flush()
            return [engine.metrics.snapshot() for engine in self.shard_engines]
        self._send_buffers()
        return self._request_all("snapshot")

    def merged_snapshot(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> MetricsSnapshot:
        """The per-shard snapshots folded into one global counter view.

        Counters of shard generations retired by :meth:`reshard` are folded
        in (their memory gauges are not — two generations overlap in time),
        as are the session-level reshard counters.  Pass ``snapshots`` (a
        prior :meth:`shard_snapshots` value) to reuse one fetch across
        several derived views — in process mode every fresh fetch is a
        flush plus one round-trip per worker."""
        if snapshots is None:
            snapshots = self.shard_snapshots()
        parts = list(snapshots)
        if self._snapshot_base is not None:
            parts.append(self._snapshot_base)
        if self.metrics.reshards or self.metrics.respawns:
            parts.append(self.metrics.snapshot())
        return MetricsSnapshot.aggregate(parts)

    def shard_statistics(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> list[StreamStatistics]:
        """Statistics estimates, one per shard (measured per-shard rates —
        unequal under key skew).

        Estimated over the current shard *generation*: the window opens at
        the last :meth:`reshard` (or session start), so rates are measured
        under the modulus the counters were collected with.
        """
        if snapshots is None:
            snapshots = self.shard_snapshots()
        return [
            StreamStatistics.from_metrics_delta(
                snapshot.diff(self._epoch),
                left_stream=self.left_stream,
                right_stream=self.right_stream,
            )
            for snapshot in snapshots
        ]

    def merged_statistics(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> StreamStatistics:
        """The global statistics view: per-shard observations aggregated
        before estimation (the input of a :class:`ShardPlanner`).

        Like :meth:`shard_statistics`, the estimation window opens at the
        last :meth:`reshard` — mixing counters measured under two different
        moduli would bias every per-shard quantity.  Note the join factor
        of this view is the *within-shard* match rate — conditioned on key
        co-location, so ≈ N× the unpartitioned S1 under uniform keys.  That
        is deliberately the right quantity here: it is what a shard's
        probes actually hit, hence what prices a shard's chain; the arrival
        rates remain global (summed across shards)."""
        if snapshots is None:
            snapshots = self.shard_snapshots()
        return StreamStatistics.from_shard_windows(
            [(self._epoch, snapshot) for snapshot in snapshots],
            left_stream=self.left_stream,
            right_stream=self.right_stream,
        )

    # -- re-optimization -------------------------------------------------------
    def rebalance(
        self,
        params: ChainCostParameters,
        statistics: StreamStatistics | None = None,
    ) -> tuple[float, ...]:
        """Migrate every shard's chain to the CPU-Opt boundaries.

        ``params`` and ``statistics`` describe the *global* session; each
        shard of an evenly partitioned stream sees ``1/N`` of the arrival
        rates, so both are scaled down before the per-shard search runs
        (selectivities are rate-invariant).  For skew-aware re-pricing from
        each shard's own measurements use :meth:`ShardPlanner.rebalance`.
        """
        self._check_open()
        scale = 1.0 / self.shards
        shard_params = replace(
            params,
            arrival_rate_left=params.arrival_rate_left * scale,
            arrival_rate_right=params.arrival_rate_right * scale,
        )
        shard_stats = statistics.scaled(scale) if statistics is not None else None
        return self.rebalance_shards([(shard_params, shard_stats)] * self.shards)

    def rebalance_shards(
        self,
        plans: Sequence[tuple[ChainCostParameters, StreamStatistics | None]],
    ) -> tuple[float, ...]:
        """Rebalance each shard with its own parameters/statistics.

        All shards must keep identical boundaries (the admission fan-out
        invariant), so the first shard's target is applied everywhere; the
        per-shard inputs only matter for *pricing* under skew, where the
        planner deliberately feeds every shard the same skew-aware view.
        """
        self._check_open()
        if len(plans) != self.shards:
            raise ShardingError(
                f"need one plan per shard ({self.shards}), got {len(plans)}"
            )
        boundaries: tuple[float, ...] | None = None
        if self.shard_mode == "serial":
            for engine, (params, statistics) in zip(self.shard_engines, plans):
                result = tuple(engine.rebalance(params, statistics=statistics))
                boundaries = result if boundaries is None else boundaries
        else:
            self._send_buffers()
            replies = self._request_each("rebalance", list(plans))
            boundaries = tuple(replies[0])
            self._boundaries_cache = boundaries
        assert boundaries is not None
        return boundaries

    def set_shard_probes(self, probes: Sequence[str]) -> None:
        """Install a per-shard probe choice (``"hash"`` / ``"nested_loop"``).

        Unlike boundaries, the probe strategy is private to a shard — it
        changes *how* a shard scans its state, never which results exist —
        so shards may legally differ: a hot shard amortizes a hash index
        over many candidates per probe while a sparse one is better off
        nested-loop scanning a handful.  Each engine rebuilds its indexes
        and reloads its state in place (:meth:`StreamEngine.set_probe`).
        The choice survives worker respawns but is reset by
        :meth:`reshard` (per-shard statistics do not survive a modulus
        change); see :meth:`ShardPlanner.recommend_probes` for picking the
        probes from measured statistics.
        """
        self._check_open()
        probes = list(probes)
        if len(probes) != self.shards:
            raise ShardingError(
                f"need one probe per shard ({self.shards}), got {len(probes)}"
            )
        if self.shard_mode == "serial":
            for engine, probe in zip(self.shard_engines, probes):
                engine.set_probe(probe)
        else:
            self._send_buffers()
            self._request_each("probe", probes)
        self._shard_probes = probes

    @property
    def shard_probes(self) -> list[str]:
        """The effective per-shard probe strategies."""
        if self._shard_probes is not None:
            return list(self._shard_probes)
        return [self.probe] * self.shards

    # -- live resharding -------------------------------------------------------
    def reshard(self, target: "int | ShardPlan", reason: str = "") -> ReshardEvent:
        """Change the shard count of the running session to ``target``.

        The one migration primitive the fan-out invariant cannot express:
        every resident tuple must move to the shard its key hashes to under
        the *new* modulus.  The session performs a keyed state repartition
        without stopping ingestion or changing any query's answer:

        1. **drain** — in-flight batches are flushed on every shard;
        2. **export** — each shard's per-slice window state is extracted
           (:meth:`StreamEngine.extract_keyed_state`), its undelivered
           results popped, and its counters retired into the session-level
           carryover views;
        3. **repartition** — every resident tuple is bucketed by
           ``shard_for_key(key, target)``, per slice and stream;
        4. **rebuild** — ``target`` fresh shards replay the current
           admissions (which re-derives the pushed-down filters), adopt the
           donor generation's exact chain boundaries
           (:meth:`StreamEngine.set_boundaries` — a prior rebalance may
           have moved them off the Mem-Opt positions), and splice their
           bucket in (:meth:`StreamEngine.ingest_keyed_state` — per-slice
           ``(timestamp, seqno)`` merge, hash indexes rebuilt).

        Ingestion resumes against the new generation; subsequent statistics
        views are measured under the new modulus (the estimation epoch
        resets to the reshard's stream time).  "Without stopping ingestion"
        means no arrival is lost or reordered across the cut in the ingest
        loop — it does **not** make ``process``/``flush`` safe to call from
        another thread while the reshard runs: ingestion is single-threaded
        by contract (admissions, removals and reshards serialize on the
        session lock; readers and writers of the stream do not).

        Parameters
        ----------
        target:
            The new shard count, or a :class:`ShardPlan` whose ``shards``
            (and ``reason``) are used.  ``1`` is the degenerate single
            engine; values above 1 require an equi-join time-window session
            (the same constraint as constructing a sharded session).
        reason:
            Free-form note recorded on the :class:`ReshardEvent` (the
            planner passes its decision reason).

        Returns
        -------
        ReshardEvent
            The recorded event — moved/resident tuple counts, carried
            results, and the stream time of the cut.  A no-op (``target``
            equals the current count) returns an event with nothing moved
            and is not recorded in :attr:`reshard_events`.

        Raises
        ------
        ShardingError
            If ``target`` is not partitionable (non-equi condition or count
            windows with ``target > 1``) or not positive.
        MigrationError
            If called re-entrantly from within another session migration on
            the same thread (admissions and reshards serialize).
        ExecutionError
            If the session is closed, or a process-mode worker died — the
            session is then in an undefined state and must be closed.
        """
        if isinstance(target, ShardPlan):
            if not reason:
                reason = target.reason
            target = target.shards
        if (
            isinstance(target, bool)
            or not isinstance(target, (int, float))
            or target != int(target)
        ):
            raise ShardingError(
                f"shard count must be a whole number, got {target!r}"
            )
        target = int(target)
        with self._serialized("reshard"):
            self._check_open()
            if target < 1:
                raise ShardingError(f"shard count must be at least 1, got {target}")
            if target > 1:
                problem = None
                if not isinstance(self.condition, EquiJoinCondition):
                    problem = (
                        f"condition {self.condition.describe()!r} has no "
                        f"equi-key to partition on"
                    )
                elif self.window_kind != "time":
                    problem = (
                        "count windows rank tuples over the whole stream, "
                        "not a shard's subsequence"
                    )
                if problem is not None:
                    raise ShardingError(
                        f"cannot reshard to {target} shards: {problem}"
                    )
            old = self.shards
            if target == old:
                return ReshardEvent(
                    old_shards=old,
                    new_shards=target,
                    moved_tuples=0,
                    resident_tuples=0,
                    carried_results=0,
                    arrivals=self._arrivals,
                    stream_time=self._stream_time(),
                    reason=reason or "no-op: already at the target shard count",
                )
            exports = self._export_shards()
            boundaries = tuple(exports[0]["boundaries"])
            stream_time = max(
                (export["snapshot"].get("time.last", 0.0) for export in exports),
                default=0.0,
            )
            # Repartition every resident tuple under the new modulus.  Each
            # tuple remembers its donor slice, but the final placement must
            # restore the chain's *layering invariant* — every tuple of
            # slice k+1 older than every tuple of slice k.  Purging is
            # per-shard lazy, so one donor may retain a tuple shallowly that
            # another donor has long pushed past; merged naively, a later
            # cross-purge would append females out of timestamp order and an
            # unchecked slice (end <= window) could emit a too-old pair.
            # Conflicts are resolved by pulling tuples *shallower* (walking
            # oldest -> newest, depth only ever shrinks): a shallower slice
            # re-purges the tuple on the next probe, whereas a deeper slice
            # is not tapped by small-window queries and would lose results.
            streams = (self.left_stream, self.right_stream)
            slice_count = len(boundaries) - 1 if boundaries else 0
            entries: list[dict[str, list]] = [
                {stream: [] for stream in streams} for _ in range(target)
            ]
            moved = 0
            resident = 0
            key_attrs = self._key_attrs
            for old_index, export in enumerate(exports):
                for slice_index, entry in enumerate(export["state"]):
                    for stream, tuples in entry.items():
                        for tup in tuples:
                            resident += 1
                            if target == 1:
                                new_index = 0
                            else:
                                assert key_attrs is not None
                                new_index = shard_for_key(
                                    tup[key_attrs[stream]], target
                                )
                            if new_index != old_index:
                                moved += 1
                            entries[new_index][stream].append((tup, slice_index))
            buckets: list[list[dict[str, list[StreamTuple]]]] = [
                [{stream: [] for stream in streams} for _ in range(slice_count)]
                for _ in range(target)
            ]
            for new_index in range(target):
                for stream in streams:
                    tagged = entries[new_index][stream]
                    tagged.sort(key=lambda e: (e[0].timestamp, e[0].seqno))
                    depth = slice_count  # oldest first; depth only shrinks
                    for tup, donor_depth in tagged:
                        depth = min(depth, donor_depth)
                        buckets[new_index][depth][stream].append(tup)
            # Results already delivered by the retiring generation stay
            # readable through the carryover view.
            carried = 0
            for name in self._queries:
                pending = self._merge(
                    [export["results"].get(name, []) for export in exports]
                )
                if pending:
                    carried += len(pending)
                    self._carryover.setdefault(name, []).extend(pending)
            # Retire the old generation's counters (memory gauges dropped:
            # generations overlap in time, their occupancies must not sum).
            stats_parts = [export["stats"] for export in exports]
            if self._stats_base is not None:
                stats_parts.insert(0, self._stats_base)
            self._stats_base = EngineStats.aggregate(stats_parts)
            snapshot_parts = [export["snapshot"] for export in exports]
            if self._snapshot_base is not None:
                snapshot_parts.insert(0, self._snapshot_base)
            snapshot_base = MetricsSnapshot.aggregate(snapshot_parts)
            for gauge in (
                "memory.average",
                "memory.max",
                "memory.resident_bytes",
                "memory.spilled_bytes",
                "memory.max_resident_bytes",
            ):
                snapshot_base.pop(gauge, None)
            self._snapshot_base = snapshot_base
            self._epoch = MetricsSnapshot({"time.last": stream_time})
            # Build the new generation and splice the buckets in.  Per-shard
            # probe overrides were chosen under the old modulus; the new
            # generation starts from the config default until the planner
            # re-tunes it.
            self.shards = target
            self._shard_probes = None
            # Re-split the session memory budget under the new modulus: the
            # new generation's shards each enforce their own slice of it
            # (the retiring generation's segment stores were deleted by the
            # export — state crosses the cut materialized, never as files).
            self.config = replace(
                self.config, memory_budget_bytes=self._per_shard_budget(target)
            )
            self._build_generation(boundaries, buckets)
            self.metrics.record_reshard(moved)
            self.metrics.observe_time(stream_time)
            event = ReshardEvent(
                old_shards=old,
                new_shards=target,
                moved_tuples=moved,
                resident_tuples=resident,
                carried_results=carried,
                arrivals=self._arrivals,
                stream_time=stream_time,
                reason=reason,
            )
            self.reshard_events.append(event)
            return event

    @property
    def partitionable(self) -> bool:
        """Whether this session can run more than one shard.

        True for equi-join time-window sessions — the same constraint the
        constructor and :meth:`reshard` enforce; the reshard policy checks
        it before recommending growth.
        """
        return (
            isinstance(self.condition, EquiJoinCondition)
            and self.window_kind == "time"
        )

    @property
    def stream_clock(self) -> float:
        """Stream timestamp of the last ingested arrival (no shard I/O).

        Tracked by the coordinator, so reading it never flushes a shard —
        the cheap clock :meth:`ShardPlanner.should_reshard` polls between
        estimation windows.
        """
        return self._clock

    def _stream_time(self) -> float:
        """The stream time of a cut (the coordinator has seen every arrival)."""
        return self._clock

    def _export_shards(self) -> list[dict]:
        """Drain and strip the retiring generation: state, results, counters."""
        names = list(self._queries)
        if self.shard_mode == "serial":
            return [_export_engine(engine, names) for engine in self.shard_engines]
        self._send_buffers()
        exports = self._request_all("export", names)
        self._stop_workers()
        return exports

    def _build_generation(
        self,
        boundaries: tuple[float, ...],
        buckets: "list[list[dict[str, list[StreamTuple]]]]",
    ) -> None:
        """Start ``self.shards`` fresh shards at the donor boundaries and
        splice each one's repartitioned state bucket in."""
        queries = list(self._queries.values())
        if self.shard_mode == "serial":
            # Build the generation fully before publishing it: the session
            # is single-threaded for ingestion by contract, but a complete
            # swap keeps the visible state consistent at every point.
            engines = [self.config.build() for _ in range(self.shards)]
            for index, engine in enumerate(engines):
                for query in queries:
                    engine.add_query(
                        query.name,
                        query.window,
                        left_filter=query.left_filter,
                        right_filter=query.right_filter,
                    )
                if queries:
                    engine.set_boundaries(boundaries)
                    engine.ingest_keyed_state(buckets[index])
            self.shard_engines = engines
            self._boundaries_cache = tuple(boundaries) if queries else None
            return
        # A worker death in here cannot be recovered from the journal (the
        # generation's base state only exists in `buckets` until every shard
        # acknowledged its ingest), so respawns are off until the build is
        # complete.
        self._respawn_guard = True
        try:
            self._start_workers()
            for query in queries:
                self._request_all(
                    "add",
                    (query.name, query.window, query.left_filter, query.right_filter),
                )
            if queries:
                self._request_all("adopt", boundaries)
                self._request_each("ingest", buckets)
        finally:
            self._respawn_guard = False
        self._boundaries_cache = tuple(boundaries) if queries else None
        for index in range(self.shards):
            self._admitted[index] = {query.name: 0 for query in queries}
            self._delivered[index] = {query.name: 0 for query in queries}
            self._recovery_base[index] = (
                (tuple(boundaries), buckets[index]) if queries else None
            )

    # -- introspection ---------------------------------------------------------
    def _shard_states(self) -> list[dict]:
        """Process-mode introspection: flush buffers, one round-trip each."""
        self._check_open()
        self._send_buffers()
        return self._request_all("state")

    @property
    def stats(self) -> EngineStats:
        """Aggregated session counters (migrations from the first shard —
        the fan-out keeps every shard's migration sequence identical).

        Counters of generations retired by :meth:`reshard` are included;
        the migration history shown is the oldest generation's (each
        reshard replays admissions, so later generations repeat it).
        """
        if self.shard_mode == "serial":
            self._check_open()
            current = [engine.stats for engine in self.shard_engines]
        else:
            current = [state["stats"] for state in self._shard_states()]
        if self._stats_base is not None:
            current.insert(0, self._stats_base)
        return EngineStats.aggregate(current)

    @property
    def boundaries(self) -> tuple[float, ...]:
        """The session's chain boundaries (identical on every shard)."""
        if self.shard_mode == "serial":
            self._check_open()
            return self.shard_engines[0].boundaries
        return self.shard_boundaries()[0]

    def shard_boundaries(self) -> list[tuple[float, ...]]:
        """Every shard's chain boundaries (the fan-out keeps them equal)."""
        if self.shard_mode == "serial":
            self._check_open()
            return [engine.boundaries for engine in self.shard_engines]
        return [tuple(state["boundaries"]) for state in self._shard_states()]

    def queries(self) -> list[RegisteredQuery]:
        """The registered queries, sorted by (window, name)."""
        return sorted(self._queries.values(), key=lambda q: (q.window, q.name))

    def query(self, name: str) -> RegisteredQuery:
        """The registered query named ``name``.

        Raises :class:`~repro.engine.errors.QueryError` if unknown.
        """
        try:
            return self._queries[name]
        except KeyError:
            raise QueryError(f"no registered query named {name!r}") from None

    def slice_count(self) -> int:
        """Slices per shard chain (identical on every shard)."""
        if self.shard_mode == "serial":
            self._check_open()
            return self.shard_engines[0].slice_count()
        return int(self._shard_states()[0]["slice_count"])

    def state_size(self) -> int:
        """Total tuples resident across all shards' join states."""
        if self.shard_mode == "serial":
            self._check_open()
            return sum(engine.state_size() for engine in self.shard_engines)
        return sum(state["state_size"] for state in self._shard_states())

    def states_are_disjoint(self) -> bool:
        """Within-shard slice disjointness; cross-shard disjointness holds by
        construction (each tuple is routed to exactly one shard)."""
        if self.shard_mode == "serial":
            self._check_open()
            return all(engine.states_are_disjoint() for engine in self.shard_engines)
        return all(state["disjoint"] for state in self._shard_states())

    def shard_ingest_totals(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> list[int]:
        """Arrivals routed to each shard (the raw material of skew detection)."""
        if snapshots is None:
            snapshots = self.shard_snapshots()
        return [int(snapshot.get("ingested.total", 0.0)) for snapshot in snapshots]

    def describe(self) -> str:
        """One-line summary: shard layout and the inner session shape."""
        inner = (
            self.shard_engines[0].describe()
            if self.shard_mode == "serial"
            else f"{len(self._queries)} queries"
        )
        return (
            f"ShardedStreamEngine[{self.shards}x {self.shard_mode}, "
            f"key={self.condition.describe()}] each: {inner}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ShardedStreamEngine shards={self.shards} mode={self.shard_mode} "
            f"queries={len(self._queries)} arrivals={self._arrivals}>"
        )


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """One sizing decision of the :class:`ShardPlanner` (for observability)."""

    shards: int  #: Recommended shard count for the measured load.
    total_rate: float  #: Measured arrivals/second across both streams.
    imbalance: float  #: max/mean per-shard ingest share (1.0 = perfectly even).
    skewed: bool  #: True when the imbalance exceeds the planner's threshold.
    reason: str
    #: Modulus the skew shares were measured under — per-shard ingest
    #: counters only describe the shard count they were collected with, so
    #: after any reshard the imbalance is meaningless without this.
    measured_shards: int = 1

    def describe(self) -> str:
        """One-line human-readable form of this plan."""
        skew = f"skewed {self.imbalance:.2f}x" if self.skewed else (
            f"balanced ({self.imbalance:.2f}x)"
        )
        return (
            f"ShardPlan[{self.shards} shards for {self.total_rate:.3g}/s, "
            f"{skew} measured under modulus {self.measured_shards}]"
        )


@dataclass(frozen=True)
class ReshardDecision:
    """One verdict of :meth:`ShardPlanner.should_reshard` (for observability)."""

    reshard: bool  #: True when the session should move to ``target`` shards now.
    target: int  #: The shard count the decision is about.
    reason: str  #: Why (or why not) — hysteresis, cooldown, skew refusal, …
    plan: ShardPlan | None = None  #: The sizing plan behind the decision, if any.

    def describe(self) -> str:
        """One-line human-readable form of this decision."""
        verdict = f"reshard to {self.target}" if self.reshard else "hold"
        return f"ReshardDecision[{verdict}: {self.reason}]"


class ShardPlanner:
    """Statistics-driven sizing, re-pricing and live resizing of a sharded session.

    Parameters
    ----------
    max_shards:
        Upper bound of :meth:`recommend` (hardware parallelism, or how many
        serial shards still pay for their routing overhead).
    target_rate_per_shard:
        Arrivals/second one shard should absorb; the recommendation is
        ``ceil(total measured rate / target)`` clamped to ``[1, max_shards]``.
        Calibrate from ``benchmarks/test_sharded_scaleout.py`` on the host.
    skew_threshold:
        max/mean per-shard ingest share above which the key distribution
        counts as skewed (hot keys concentrating on few shards).
    window:
        Length of one :meth:`should_reshard` estimation window in
        stream-seconds (mirrors :class:`~repro.runtime.adaptive.AdaptivePolicy`).
    hysteresis:
        Consecutive estimation windows that must agree on a different shard
        count before :meth:`should_reshard` says yes; one conforming window
        resets the streak.
    cooldown:
        Minimum stream-seconds between two positive reshard decisions,
        bounding the migration frequency under oscillating load.
    min_arrivals:
        Estimation windows backed by fewer arrivals are discarded as noise.
    """

    def __init__(
        self,
        max_shards: int = 8,
        target_rate_per_shard: float = 200.0,
        skew_threshold: float = 2.0,
        window: float = 2.0,
        hysteresis: int = 2,
        cooldown: float = 8.0,
        min_arrivals: int = 64,
    ) -> None:
        if max_shards < 1:
            raise ShardingError(f"max_shards must be at least 1, got {max_shards}")
        if target_rate_per_shard <= 0:
            raise ShardingError(
                f"target_rate_per_shard must be positive, got {target_rate_per_shard}"
            )
        if skew_threshold < 1.0:
            raise ShardingError(
                f"skew_threshold must be at least 1.0, got {skew_threshold}"
            )
        if window <= 0:
            raise ShardingError(f"window must be positive, got {window}")
        if hysteresis < 1:
            raise ShardingError(f"hysteresis must be at least 1, got {hysteresis}")
        if cooldown < 0:
            raise ShardingError(f"cooldown must be non-negative, got {cooldown}")
        self.max_shards = int(max_shards)
        self.target_rate_per_shard = float(target_rate_per_shard)
        self.skew_threshold = float(skew_threshold)
        self.window = float(window)
        self.hysteresis = int(hysteresis)
        self.cooldown = float(cooldown)
        self.min_arrivals = int(min_arrivals)
        #: Recent :class:`ReshardDecision` verdicts, newest last.  Bounded —
        #: an always-on session polls this policy indefinitely, so an
        #: unbounded log would be a slow leak.
        self.decisions: deque[ReshardDecision] = deque(maxlen=256)
        self._window_start: float | None = None
        self._window_snapshots: Sequence[MetricsSnapshot] | None = None
        self._window_shards: int | None = None
        self._streak = 0
        self._streak_target: int | None = None
        self._last_reshard: float | None = None

    def recommend(self, statistics: StreamStatistics) -> int:
        """Shard count for a measured (or declared) global load."""
        total = sum(statistics.arrival_rates.values())
        if total <= 0:
            return 1
        return max(1, min(self.max_shards, math.ceil(total / self.target_rate_per_shard)))

    def imbalance(self, ingest_totals: Sequence[int]) -> float:
        """max/mean per-shard ingest share; 1.0 is perfectly balanced."""
        if not ingest_totals:
            return 1.0
        mean = sum(ingest_totals) / len(ingest_totals)
        if mean <= 0:
            return 1.0
        return max(ingest_totals) / mean

    def plan(self, engine: ShardedStreamEngine) -> ShardPlan:
        """Size and skew-check a live sharded session from its merged view.

        Uses the whole current shard generation as the estimation window
        (everything since the last :meth:`ShardedStreamEngine.reshard`); the
        returned plan's ``measured_shards`` records the modulus the skew
        shares were measured under.
        """
        snapshots = engine.shard_snapshots()  # one fetch feeds every view
        statistics = engine.merged_statistics(snapshots)
        ingest_totals = engine.shard_ingest_totals(snapshots)
        return self._assemble_plan(engine, statistics, ingest_totals)

    def _assemble_plan(
        self,
        engine: ShardedStreamEngine,
        statistics: StreamStatistics,
        ingest_totals: Sequence[int],
    ) -> ShardPlan:
        shards = self.recommend(statistics)
        imbalance = self.imbalance(ingest_totals)
        skewed = imbalance > self.skew_threshold
        total = sum(statistics.arrival_rates.values())
        if skewed:
            reason = (
                f"hot keys: the busiest shard carries {imbalance:.2f}x the mean "
                f"ingest share (threshold {self.skew_threshold:g}x)"
            )
        elif shards != engine.shards:
            reason = (
                f"measured {total:.3g} arrivals/s over {engine.shards} shard(s); "
                f"{shards} shard(s) hit the {self.target_rate_per_shard:g}/s target"
            )
        else:
            reason = f"{engine.shards} shard(s) match the measured load"
        return ShardPlan(
            shards=shards,
            total_rate=total,
            imbalance=imbalance,
            skewed=skewed,
            reason=reason,
            measured_shards=engine.shards,
        )

    # -- the reshard policy ----------------------------------------------------
    def should_reshard(self, engine: ShardedStreamEngine) -> ReshardDecision:
        """Decide whether the session should change its shard count *now*.

        Call periodically while ingesting (every K arrivals, or from an
        external ticker).  The policy mirrors
        :class:`~repro.runtime.adaptive.AdaptivePolicy`'s stability layers:

        * estimates are *windowed* — rates come from per-shard snapshot
          deltas over ``window`` stream-seconds, never from whole-session
          averages (which would lag a drift indefinitely);
        * a different recommended count must persist for ``hysteresis``
          consecutive windows (one conforming window resets the streak);
        * after a positive decision no further reshard fires for
          ``cooldown`` stream-seconds;
        * **hot-key skew refuses to grow**: when the busiest shard exceeds
          ``skew_threshold`` times the mean ingest share, more shards
          cannot split one key's traffic — the policy holds and says so
          instead of thrashing.

        A reshard performed by anyone (including :meth:`maybe_reshard`)
        resets the estimation window: counters measured under two moduli
        are never mixed.  The decision is recorded in :attr:`decisions`;
        acting on it is the caller's job (or use :meth:`maybe_reshard`).
        """
        if self._window_snapshots is None or self._window_shards != engine.shards:
            # First observation of this shard generation: open a window.
            # (The one snapshot fetch per window boundary is the only shard
            # I/O this policy performs — mid-window polls below read the
            # coordinator's clock and return without flushing anything.)
            snapshots = engine.shard_snapshots()
            self._window_start = max(
                (s.get("time.last", 0.0) for s in snapshots),
                default=engine.stream_clock,
            )
            self._window_snapshots = snapshots
            self._window_shards = engine.shards
            return self._decide(False, engine.shards, "opening an estimation window")
        assert self._window_start is not None
        if engine.stream_clock - self._window_start < self.window:
            return self._decide(
                False, engine.shards, "estimation window still open"
            )
        snapshots = engine.shard_snapshots()
        now = max(
            (s.get("time.last", 0.0) for s in snapshots),
            default=engine.stream_clock,
        )
        pairs = list(zip(self._window_snapshots, snapshots))
        windows = [after.diff(before) for before, after in pairs]
        arrivals = sum(w.get("ingested.total", 0.0) for w in windows)
        self._window_start = now
        self._window_snapshots = snapshots
        if arrivals < self.min_arrivals:
            return self._decide(
                False,
                engine.shards,
                f"window too thin ({arrivals:.0f} arrivals < {self.min_arrivals})",
            )
        statistics = StreamStatistics.from_shard_windows(
            pairs,
            left_stream=engine.left_stream,
            right_stream=engine.right_stream,
        )
        ingest_totals = [int(w.get("ingested.total", 0.0)) for w in windows]
        plan = self._assemble_plan(engine, statistics, ingest_totals)
        if plan.shards == engine.shards:
            self._streak = 0
            self._streak_target = None
            return self._decide(False, engine.shards, plan.reason, plan)
        if plan.shards > engine.shards and not engine.partitionable:
            # A non-equi or count-window session legally runs at one shard
            # but cannot be partitioned; emitting a grow decision would
            # guarantee a ShardingError when applied.
            self._streak = 0
            self._streak_target = None
            return self._decide(
                False,
                engine.shards,
                "holding: the session is not partitionable (no equi-key or "
                "count windows), more shards cannot be built",
                plan,
            )
        if plan.skewed and plan.shards > engine.shards:
            # More shards cannot split one key: every tuple of the hot key
            # still hashes to a single shard under any modulus.
            self._streak = 0
            self._streak_target = None
            return self._decide(
                False,
                engine.shards,
                f"refusing to grow under hot-key skew — {plan.reason}",
                plan,
            )
        if self._streak_target == plan.shards:
            self._streak += 1
        else:
            self._streak = 1
            self._streak_target = plan.shards
        if self._streak < self.hysteresis:
            return self._decide(
                False,
                plan.shards,
                f"hysteresis {self._streak}/{self.hysteresis}: {plan.reason}",
                plan,
            )
        if (
            self._last_reshard is not None
            and now - self._last_reshard < self.cooldown
        ):
            return self._decide(
                False,
                plan.shards,
                f"cooling down ({now - self._last_reshard:.1f}s of "
                f"{self.cooldown:g}s): {plan.reason}",
                plan,
            )
        self._streak = 0
        self._streak_target = None
        self._last_reshard = now
        return self._decide(True, plan.shards, plan.reason, plan)

    def _decide(
        self,
        reshard: bool,
        target: int,
        reason: str,
        plan: ShardPlan | None = None,
    ) -> ReshardDecision:
        decision = ReshardDecision(reshard=reshard, target=target, reason=reason, plan=plan)
        self.decisions.append(decision)
        return decision

    def maybe_reshard(self, engine: ShardedStreamEngine) -> ReshardEvent | None:
        """Run :meth:`should_reshard` and apply a positive decision.

        Returns the :class:`ReshardEvent` when the session was resharded,
        ``None`` when the policy held.  This is the whole auto-resizing
        loop: call it periodically while ingesting.
        """
        decision = self.should_reshard(engine)
        if not decision.reshard:
            return None
        return engine.reshard(decision.target, reason=decision.reason)

    def recommend_probes(
        self,
        engine: ShardedStreamEngine,
        snapshots: Sequence[MetricsSnapshot] | None = None,
        min_scan_per_arrival: float = 8.0,
    ) -> list[str]:
        """Per-shard probe choice from each shard's *measured* probe density.

        A hash index pays its build-and-maintain overhead only when probes
        scan enough candidates to amortize it; under key skew that varies
        per shard.  A shard whose measured scan volume exceeds
        ``min_scan_per_arrival`` candidate comparisons per ingested arrival
        is *hot* and gets ``"hash"``; sparse shards keep the cheap
        ``"nested_loop"`` scan.  Non-equi sessions have no hashable key, so
        every shard stays nested-loop.  Apply the result with
        :meth:`ShardedStreamEngine.set_shard_probes` (or pass
        ``tune_probes=True`` to :meth:`rebalance`).
        """
        if not isinstance(engine.condition, EquiJoinCondition):
            return ["nested_loop"] * engine.shards
        if snapshots is None:
            snapshots = engine.shard_snapshots()
        probes = []
        for snapshot in snapshots:
            ingested = snapshot.get("ingested.total", 0.0)
            scanned = snapshot.get("comparisons.probe", 0.0)
            dense = ingested > 0 and scanned / ingested >= min_scan_per_arrival
            probes.append("hash" if dense else "nested_loop")
        return probes

    def rebalance(
        self,
        engine: ShardedStreamEngine,
        system_overhead: float = 0.5,
        tuple_size: float = 1.0,
        tune_probes: bool = False,
    ) -> tuple[float, ...]:
        """Re-price every shard's chain from its own measured statistics.

        Under key skew the shards see different arrival rates; each shard is
        therefore rebalanced with its *own* whole-session estimate, falling
        back to the merged global view (scaled to one shard's share) for
        quantities a thin shard could not measure.  Requires the session to
        run with ``collect_statistics=True``.  With ``tune_probes=True``
        the same snapshots also drive :meth:`recommend_probes`, and the
        recommendation is applied to the session.
        """
        snapshots = engine.shard_snapshots()
        merged = engine.merged_statistics(snapshots)
        fallback = merged.scaled(1.0 / engine.shards)
        plans: list[tuple[ChainCostParameters, StreamStatistics]] = []
        for stats in engine.shard_statistics(snapshots):
            if stats.join_selectivity is None:
                stats = replace(stats, join_selectivity=merged.join_selectivity)
            rates = dict(fallback.arrival_rates)
            rates.update(stats.arrival_rates)
            stats = replace(stats, arrival_rates=rates)
            params = stats.chain_parameters(
                system_overhead=system_overhead,
                tuple_size=tuple_size,
                default_rate=max(sum(rates.values()), 1e-9),
            )
            plans.append((params, stats))
        boundaries = engine.rebalance_shards(plans)
        if tune_probes:
            engine.set_shard_probes(self.recommend_probes(engine, snapshots))
        return boundaries
