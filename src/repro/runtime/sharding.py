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
* **one fan-out** — ``add_query`` / ``remove_query`` and every other
  session call reach the shards through :meth:`ShardedStreamEngine._request_each`,
  which sends one command of the shard command table
  (:mod:`repro.runtime.shard_worker`) to every shard, so all shards keep
  identical chain boundaries and pushed-down filters (one logical session,
  N replicas of its plan);
* **deterministic merge** — per-query results are merged across shards in
  ``(timestamp, left seqno, right seqno)`` order, the same order key a
  single engine delivers in, so the global output is independent of the
  shard count;
* **two shard handles** — the session is written once against handles with
  ``push`` / ``send`` / ``recv`` / ``close``.  ``shard_mode="serial"`` picks
  :class:`_LocalShard`, which runs the command table on an engine in the
  calling thread (the in-thread form of the same handle — see the
  ``sharded_serial`` row of ``bench/README.md``); ``shard_mode="process"`` picks
  :class:`_WorkerShard`, a worker process fed through a shared-memory
  arrival ring (:class:`~repro.engine.ring.SpscRing`) of columnar batch
  encodings — no syscall or pickle round-trip per batch — with a pipe
  reserved for the command protocol and oversize fallbacks.  A worker that
  dies mid-stream is respawned and its state recovered from the handle's
  replay journal (see :meth:`_WorkerShard.respawn`).

A sharded session is time-window only (a count window's rank — "the N most
recent arrivals" — is defined over the *whole* stream, not a shard's
subsequence; count windows run on :class:`StreamEngine`).  Sharding is
answer-preserving only for equi-key workloads: a non-equi condition has no
partition key and raises :class:`ShardingError` for ``shards > 1`` (pass
``shards=1`` to run it unsharded).

The shard count is the caller's: the constructor's ``shards`` and every
:meth:`ShardedStreamEngine.reshard` target; nothing here picks one.  The
partitioner lives in :mod:`repro.runtime.partition` and the shard side
(config, command table, worker process) in :mod:`repro.runtime.shard_worker`;
their public names are re-exported here.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.core.chain import SlicedJoinChain
from repro.engine.errors import (
    ExecutionError,
    MigrationError,
    QueryError,
    ShardingError,
    check_arrival_order,
)
from repro.engine.metrics import MetricsCollector, MetricsSnapshot, append_bounded
from repro.query.predicates import EquiJoinCondition, JoinCondition, Predicate, TruePredicate
from repro.runtime.engine import BLOCK, EngineStats, MigrationEvent, RegisteredQuery
from repro.runtime.partition import (
    relayer,
    repartition,
    shard_for_key,
    unpartitionable_reason,
)
from repro.runtime.shard_worker import ShardConfig, reply_to, spawn_worker
from repro.streams.tuples import JoinedTuple, StreamTuple, encode_batch

__all__ = [
    "ReshardEvent",
    "ShardConfig",
    "ShardedStreamEngine",
    "shard_for_key",
]

#: How many times one shard's dead worker may be replaced before the session
#: gives up (read at each respawn; see :meth:`_WorkerShard.respawn`).
MAX_RESPAWNS = 3


def _shard_count(value) -> int:
    """``value`` as a shard count: a finite whole number of at least 1 (not
    a bool), else :class:`ShardingError`."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value != int(value)
        or value < 1
    ):
        raise ShardingError(
            f"shard count must be a whole number of at least 1, got {value!r}"
        )
    return int(value)


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

    def describe(self) -> str:
        """One-line human-readable form of this event."""
        return (
            f"reshard {self.old_shards}->{self.new_shards} @ t={self.stream_time:g}s: "
            f"moved {self.moved_tuples}/{self.resident_tuples} resident tuples, "
            f"carried {self.carried_results} results"
        )


def _merge_key(joined: JoinedTuple) -> tuple:
    left, right = joined.left, joined.right  # read directly: no property call
    return (max(left.timestamp, right.timestamp), left.seqno, right.seqno)


# ---------------------------------------------------------------------------
# Shard handles: what the session holds for each shard
# ---------------------------------------------------------------------------
class _LocalShard:
    """A shard in the calling thread: the command table run on its own engine."""

    def __init__(self, index: int, config: ShardConfig) -> None:
        self.engine = config.build()
        self._reply: tuple[str, object] | None = None

    def push(self, tup: StreamTuple) -> None:
        """Ingest one arrival (the engine batches internally)."""
        self.engine.process(tup)

    def ship(self) -> None:
        """End of the caller's quantum: the engine runs what it buffered."""
        self.engine.flush()

    def send(self, command: str, payload=None) -> None:
        """Run one command now; :meth:`recv` hands out its reply."""
        self._reply = reply_to(self.engine, command, payload)

    def recv(self) -> tuple[str, object]:
        """The ``("ok", result)`` / ``("error", text)`` reply to the last :meth:`send`."""
        return self._reply

    def close(self) -> None:
        """Release the engine's disk tier."""
        self.engine.close()


class ShardDied(ExecutionError):
    """A shard's worker process is gone.  Only :class:`_WorkerShard` raises
    it; the session answers with :meth:`_WorkerShard.respawn` when it may."""


class _WorkerShard:
    """A shard in a worker process, and everything needed to replace it.

    Owns the transport (command pipe, shared-memory arrival ring, the buffer
    of arrivals not yet shipped) and the crash-recovery plane: a replay
    journal of shipped arrivals (bounded by twice the largest window),
    per-query admission and delivery frontiers expressed as push positions,
    the state this worker generation started from, and the respawns spent
    out of :data:`MAX_RESPAWNS`.  The plane is kept in step by
    :meth:`_observe`, from the commands the worker acknowledged.
    """

    def __init__(self, index: int, config: ShardConfig) -> None:
        self.index = index
        self.config = config
        self.respawns = 0
        self.buffer: list[StreamTuple] = []
        #: Acknowledged admissions: name -> the ``add`` payload that made it.
        self.queries: dict[str, tuple] = {}
        self._inflight: tuple[str, object] = ("", None)
        self._restart_journal()
        self.pipe, self.ring, self.worker = spawn_worker(config)

    def _restart_journal(self) -> None:
        """Begin a worker generation: nothing pushed, nothing to replay."""
        self.journal: deque[tuple[int, StreamTuple]] = deque()
        self.pushed = 0
        self.admitted = {name: 0 for name in self.queries}
        self.delivered = {name: 0 for name in self.queries}
        #: The state this generation started from and the windows, by name, of
        #: the still-registered queries whose chain it is layered on.
        self.recovery_base: tuple[dict[str, float], list] | None = None

    def _died(self, what: str) -> ShardDied:
        return ShardDied(
            f"shard {self.index}: worker died {what}; the session is in an "
            f"undefined state — close it"
        )

    # -- transport ---------------------------------------------------------------
    def push(self, tup: StreamTuple) -> None:
        """Buffer one arrival; a full buffer is shipped through the ring.

        On :class:`ShardDied` the arrival is not lost: it stays buffered and
        the next ``push`` or ``send`` ships it to the replacement worker.
        """
        self.buffer.append(tup)
        if len(self.buffer) >= BLOCK:
            self.ship()

    def ship(self) -> None:
        """Hand the buffered arrivals to the worker through its ring (the
        worker runs each record as one batch).

        A full ring spins (the worker is draining it on the other side); an
        encoding that can never fit falls back to the pipe behind an empty
        ring marker that holds its place in the arrival order.  The batch
        leaves the buffer and enters the replay journal only after it is
        handed off, so a respawn triggered mid-push never replays it twice.
        """
        buffer = self.buffer
        if not buffer:
            return
        record = encode_batch(buffer)
        try:
            self._ring_push(record)
        except ValueError:
            self._ring_push(b"")
            self._pipe_send("batch", buffer)
        self.buffer = []
        self._journal_append(buffer)

    def _ring_push(self, record: bytes) -> None:
        while not self.ring.try_push(record):
            if not self.worker.is_alive():
                raise self._died("with a full arrival ring")
            time.sleep(0.0002)

    def _pipe_send(self, command: str, payload) -> None:
        try:
            self.pipe.send((command, payload))
        except OSError as exc:
            raise self._died(f"before {command!r} ({type(exc).__name__})") from exc
        self._inflight = (command, payload)  # what the next recv() answers

    def send(self, command: str, payload=None) -> None:
        """Ship buffered arrivals, then the command (the worker drains its
        ring before executing it, so a reply covers every earlier arrival)."""
        self.ship()
        self._pipe_send(command, payload)

    def recv(self) -> tuple[str, object]:
        """The worker's reply to the last :meth:`send`."""
        command, payload = self._inflight
        try:
            status, result = self.pipe.recv()
        except (EOFError, OSError) as exc:
            raise self._died(f"during {command!r} ({type(exc).__name__})") from exc
        if status == "ok":
            self._observe(command, payload)
        return status, result

    def _call(self, command: str, payload=None):
        """One round-trip that ships no buffered arrivals (respawn replay)."""
        self._pipe_send(command, payload)
        status, result = self.recv()
        if status == "error":
            raise ExecutionError(f"shard {self.index}: {result}")
        return result

    def _release(self) -> None:
        self.worker.join(timeout=5)
        if self.worker.is_alive():  # pragma: no cover - stuck worker
            self.worker.terminate()
        self.pipe.close()
        self.ring.close()
        self.ring.unlink()

    def close(self) -> None:
        """Stop the worker process and free its pipe and ring."""
        try:
            self.pipe.send(("close", None))
        except OSError:  # pragma: no cover - dead worker
            pass
        self._release()

    # -- crash recovery ----------------------------------------------------------
    def _observe(self, command: str, payload) -> None:
        """Fold one acknowledged command into the recovery plane."""
        if command == "add":
            name = payload[0]
            self.queries[name] = payload
            # The new query's results start at the current push position: a
            # crash replay must not fabricate results for males this shard
            # ingested before the admission.
            self.admitted[name] = self.delivered[name] = self.pushed
        elif command == "remove":
            for registry in (self.queries, self.admitted, self.delivered):
                registry.pop(payload, None)
            if self.recovery_base is not None and payload in self.recovery_base[0]:
                # The base follows the removal as the worker's chain did
                # (slices merged, or the tail dropped): it stays layered on
                # the chain of its own queries that are still registered.
                windows, bucket = self.recovery_base
                before = list(windows.values())
                del windows[payload]
                self.recovery_base = (windows, relayer(bucket, before, windows.values()))
        elif command == "pop":
            # Everything pushed so far is now delivered for this query.
            self.delivered[payload] = self.pushed
        elif command == "pop_all":
            self.delivered.update(dict.fromkeys(payload, self.pushed))
        elif command == "ingest":
            # The state is layered on the chain of the queries registered now.
            windows = {name: query[1] for name, query in self.queries.items()}
            self.recovery_base = (windows, payload)

    def _journal_append(self, tuples: Sequence[StreamTuple]) -> None:
        """Journal shipped arrivals, then trim to the retention horizon.

        Twice the largest registered window: any undelivered result whose
        male is within the last window of stream time still has every
        joinable partner inside the journal — partners reach at most one
        window further back.
        """
        journal = self.journal
        for tup in tuples:
            self.pushed += 1
            journal.append((self.pushed, tup))
        horizon = 2.0 * max((query[1] for query in self.queries.values()), default=0.0)
        if horizon <= 0:
            # No queries: chainless arrivals build no state and no results.
            journal.clear()
            return
        latest = journal[-1][1].timestamp
        while journal and journal[0][1].age(latest) >= horizon:
            journal.popleft()

    def _recover(self):
        """Rebuild the dead worker's engine state from the journal.

        Replays the generation's base state plus the journaled arrivals
        through a fresh local engine, replaying admissions at their
        recorded push positions — the base's own queries before its
        ingest, every other one after it.  Results are popped per journal
        segment: a segment's results are kept for a query only when its
        delivery frontier lies at or before the segment start — results the
        dead worker had already handed out are discarded, undelivered ones
        are returned for the carryover view.  Returns ``(state,
        recovered_results)``; ``state`` is ``None`` when no query is
        registered.
        """
        engine = self.config.build()
        admitted = self.admitted
        delivered = self.delivered
        recovered: dict[str, list[JoinedTuple]] = {}
        admitted_names: set[str] = set()

        def admit(names) -> None:
            for name in names:
                _, window, left_filter, right_filter = self.queries[name]
                engine.add_query(
                    name, window, left_filter=left_filter, right_filter=right_filter
                )
                admitted_names.add(name)

        def admit_through(position: int) -> None:
            admit(
                name
                for name in self.queries
                if name not in admitted_names and admitted.get(name, 0) <= position
            )

        if self.recovery_base is not None:
            # The base goes in under exactly the queries it is layered on; a
            # query admitted since (even before any arrival) then splits or
            # appends a slice and re-purges lazily, as it did live.
            base_windows, bucket = self.recovery_base
            admit(base_windows)
            engine.ingest_keyed_state(bucket)
        admit_through(0)
        entries = list(self.journal)
        cuts = sorted({*admitted.values(), *delivered.values()})
        cuts.append(self.pushed)
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
            return None, recovered
        return engine.extract_keyed_state(), recovered

    def respawn(self, died: ShardDied) -> dict[str, list[JoinedTuple]]:
        """Replace the dead worker and recover its state; returns the
        undelivered results recovered from the journal.

        The replacement is rebuilt from this handle alone: admissions
        replay from its registry (which fixes the chain boundaries), window
        state and undelivered results from the replay journal (see
        :meth:`_recover`).  Undelivered results whose male fell off the
        journal's retention horizon (no result pull for more than one full
        window) are lost, as are the dead worker's metrics counters;
        everything else — state, delivered results — survives the crash
        exactly.
        """
        self.respawns += 1
        if self.respawns > MAX_RESPAWNS:
            raise ExecutionError(
                f"shard {self.index}: worker died and exhausted its "
                f"{MAX_RESPAWNS} respawns; close the session"
            ) from died
        if self.worker.is_alive():  # a broken pipe does not imply a dead process
            self.worker.terminate()
        self._release()
        state, recovered = self._recover()
        self.pipe, self.ring, self.worker = spawn_worker(self.config)
        # The recovered state is the replacement's generation base: restart
        # the journal from it, then replay the admissions over the pipe.
        self._restart_journal()
        for payload in list(self.queries.values()):
            self._call("add", payload)
        if state is not None:
            self._call("ingest", state)
        return recovered


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
        Number of inner engines, a whole number of at least 1
        (:class:`ShardingError` otherwise).  ``1`` degenerates to a single
        unsharded engine (any condition); more raise :class:`ShardingError`
        for a non-equi condition.
    shard_mode:
        ``"serial"`` (default) runs the shards in the calling thread — the
        in-thread form of the same handle, not a speed-up (``bench/README.md``,
        row ``sharded_serial``); ``"process"`` starts one worker process per
        shard and pushes ``encode_batch`` records of the arrivals through a
        shared-memory ring of :data:`~repro.runtime.shard_worker.RING_CAPACITY`
        bytes (conditions and predicates must then be picklable; close the
        session with :meth:`close` or use it as a context manager).  A dead
        worker is replaced up to :data:`MAX_RESPAWNS` times.
    memory_budget_bytes:
        Optional *session-level* in-core state budget.  Split evenly over
        the live shard count — each shard engine enforces
        ``budget // shards`` (at least 1) by spilling its own cold slices
        to disk, see :class:`StreamEngine`.  A :meth:`reshard` re-splits
        the session budget under the new modulus, so growing the session
        also grows nobody's total footprint.

    Windows are time windows (:class:`~repro.core.chain.SlicedJoinChain`).
    """

    #: See :attr:`StreamEngine.columnar` / :attr:`StreamEngine.probe` — read
    #: by ``bench/workloads.resolved_knobs``; go with the next ``benchmark`` PR.
    columnar = "auto"
    probe = "nested_loop"

    def __init__(
        self,
        condition: JoinCondition,
        shards: int = 4,
        shard_mode: str = "serial",
        left_stream: str = "A",
        right_stream: str = "B",
        memory_budget_bytes: int | None = None,
    ) -> None:
        shards = _shard_count(shards)
        if shard_mode not in ("serial", "process"):
            raise ShardingError(
                f"shard_mode must be 'serial' or 'process', got {shard_mode!r}"
            )
        problem = unpartitionable_reason(condition)
        if shards > 1 and problem is not None:
            raise ShardingError(
                f"cannot run {shards} shards: {problem} (pass shards=1 to run "
                f"unsharded)"
            )
        self.condition = condition
        self.shards = shards
        self.shard_mode = shard_mode
        self.left_stream = left_stream
        self.right_stream = right_stream
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
        self._clock = float("-inf")  # the last accepted timestamp
        self._closed = False
        # Set while a generation is being built: a worker death in there
        # cannot be recovered (see _build_generation), so it is not retried.
        self._respawn_guard = False
        #: Session-level collector: reshard events and moved-tuple accounting
        #: (per-shard work lives in the shard engines' own collectors).
        self.metrics = MetricsCollector()
        #: The newest :data:`~repro.engine.metrics.LOG_LIMIT` reshards, newest
        #: last (see :class:`ReshardEvent`).
        self.reshard_events: list[ReshardEvent] = []
        # Carryover views across reshard generations: undelivered per-query
        # results, retired metrics counters and the retired generations'
        # migration log, which the current generation's log continues after
        # its first ``_replayed`` entries (the replay of the admissions it
        # was built on).
        self._carryover: dict[str, list[JoinedTuple]] = {}
        self._snapshot_base: MetricsSnapshot | None = None
        self._migrations: list[MigrationEvent] = []
        self._replayed = 0
        # Admissions, removals and reshards serialize on this lock (a reshard
        # must never observe a half-fanned-out admission); the owner check
        # turns same-thread re-entry into an error instead of a deadlock.
        self._session_lock = threading.Lock()
        self._lock_owner: int | None = None
        # The one place the shard mode matters: which handle a shard gets.
        self._make_shard = _WorkerShard if shard_mode == "process" else _LocalShard
        self._shards = [self._make_shard(index, self.config) for index in range(shards)]

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

    # -- the fan-out -----------------------------------------------------------
    def _respawn(self, index: int, died: ShardDied) -> None:
        """Replace shard ``index``'s dead worker, or re-raise when the
        session may not (closed, or mid-build of a shard generation)."""
        if self._closed or self._respawn_guard:
            raise died
        recovered = self._shards[index].respawn(died)
        for name, results in recovered.items():
            self._carry(name, results)
        self.metrics.record_respawn()

    def _carry(self, name: str, results: list[JoinedTuple]) -> None:
        """Add ``results`` to a query's carryover, kept in merge order (a
        lone part of :meth:`_merge` is returned unsorted)."""
        self._carryover[name] = self._merge([self._carryover.get(name, []), results])

    def _request_each(self, command: str, payloads: Sequence) -> list:
        """Fan one command out with a per-shard payload: the one path from
        the session to its shards.

        Sends first, receives second: worker shards run concurrently while
        the parent waits, instead of serializing one round-trip per shard.
        Every shard's reply is received before a failure is raised — an
        unread reply would answer the *next* command — and the error names
        every failing shard.  A dead worker is respawned (state recovered
        from its journal) and the command retried once.
        """
        shards = self._shards
        for index, shard in enumerate(shards):
            try:
                shard.send(command, payloads[index])
            except ShardDied as died:
                self._respawn(index, died)
                shard.send(command, payloads[index])
        replies = []
        failures = []
        for index, shard in enumerate(shards):
            try:
                status, result = shard.recv()
            except ShardDied as died:
                self._respawn(index, died)
                shard.send(command, payloads[index])
                status, result = shard.recv()
            if status == "error":
                failures.append(f"shard {index}: {result}")
            replies.append(result)
        if failures:
            raise ExecutionError("; ".join(failures))
        return replies

    def _request_all(self, command: str, payload=None) -> list:
        return self._request_each(command, [payload] * len(self._shards))

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
        """Shut the session down: worker processes and their rings (process
        mode) or the engines' disk tiers (segment stores of spilled slices)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("the sharded session has been closed")

    # -- routing ---------------------------------------------------------------
    def shard_of(self, tup: StreamTuple) -> int:
        """The shard an arrival is routed to (pure in the tuple's key).

        A tuple of neither joined stream is refused here, in every shard
        mode and at every shard count, before any shard buffers it.
        """
        if tup.stream != self.left_stream and tup.stream != self.right_stream:
            raise QueryError(
                f"sharded session joins streams "
                f"{sorted((self.left_stream, self.right_stream))}, got a tuple of "
                f"stream {tup.stream!r}"
            )
        if self.shards == 1 or self._key_attrs is None:
            return 0
        return shard_for_key(tup.values[self._key_attrs[tup.stream]], self.shards)

    # -- execution -------------------------------------------------------------
    def process(self, tup: StreamTuple) -> None:
        """Ingest one arriving tuple, routing it to its key's shard.

        Global timestamp order is checked here: an arrival that is late
        for the session can still be in order for its own shard, whose
        engine would then accept it.
        """
        self._check_open()
        self._clock = check_arrival_order(tup.timestamp, self._clock)
        index = self.shard_of(tup)
        self._arrivals += 1
        try:
            self._shards[index].push(tup)
        except ShardDied as died:
            self._respawn(index, died)  # the handle kept the arrival buffered

    #: The most arrivals one shard's batch holds (read-only).
    batch_size = property(lambda self: BLOCK)

    def process_many(self, tuples: Iterable[StreamTuple]) -> None:
        """Ingest a sequence of timestamp-ordered arrivals; each shard runs
        its share as one batch.  A refused tuple leaves the arrivals before
        it buffered, as :meth:`process` would."""
        for tup in tuples:
            self.process(tup)
        for index, shard in enumerate(self._shards):
            try:
                shard.ship()
            except ShardDied as died:
                self._respawn(index, died)  # the handle kept the arrivals buffered

    def flush(self) -> None:
        """Process buffered arrivals on every shard (a cross-shard barrier)."""
        self._check_open()
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
        removals and reshards serialize on one session lock.  The query is
        validated here, before any shard sees it: a refused admission
        leaves every shard untouched.
        """
        with self._serialized("admit a query"):
            self._check_open()
            if name in self._queries:
                raise QueryError(f"query {name!r} is already registered")
            window = SlicedJoinChain.normalize_window(name, window)
            self._request_all("add", (name, window, left_filter, right_filter))
            query = RegisteredQuery(
                name,
                window,
                self._arrivals,
                left_filter if left_filter is not None else TruePredicate(),
                right_filter if right_filter is not None else TruePredicate(),
            )
            self._queries[name] = query
            return query

    def remove_query(self, name: str) -> list[JoinedTuple]:
        """Deregister a query on every shard; return its merged results.

        Results delivered before the last :meth:`reshard` (carried across
        the generation change) are included in the merge.
        """
        with self._serialized("remove a query"):
            self._check_open()
            self.query(name)  # raises QueryError for an unknown name
            delivered = self._request_all("remove", name)
            del self._queries[name]
            delivered.append(self._carryover.pop(name, []))
            return self._merge(delivered)

    # -- results ---------------------------------------------------------------
    @staticmethod
    def _merge(per_shard: Sequence[list[JoinedTuple]]) -> list[JoinedTuple]:
        """Deterministic global order: merge shard outputs by the same
        ``(timestamp, seqno, seqno)`` key a single engine delivers in (one
        non-empty part is that order already, and is returned as it is)."""
        parts = [part for part in per_shard if part]
        if len(parts) <= 1:
            return parts[0] if parts else []
        return sorted(itertools.chain.from_iterable(parts), key=_merge_key)

    def results(self, name: str) -> list[JoinedTuple]:
        """A query's merged results so far (buffered arrivals included).

        Includes results delivered before any :meth:`reshard` (the carryover
        of retired shard generations), re-merged into the global order.
        """
        self._check_open()
        self.query(name)  # raises QueryError for an unknown name
        per_shard = self._request_all("results", name)
        per_shard.append(list(self._carryover.get(name, [])))
        return self._merge(per_shard)

    def pop_results(self, name: str) -> list[JoinedTuple]:
        """Return and clear a query's merged results (carryover included)."""
        self._check_open()
        self.query(name)  # raises QueryError for an unknown name
        per_shard = self._request_all("pop", name)
        per_shard.append(self._carryover.pop(name, []))
        return self._merge(per_shard)

    def pop_results_all(self) -> dict[str, list[JoinedTuple]]:
        """Return and clear every query's merged results in one sweep.

        One command per shard for *all* queries, instead of one per
        ``(shard, query)`` pair — the way a throughput-sensitive caller
        should drain a sharded session.  Carryover results are included,
        exactly as in :meth:`pop_results`.
        """
        self._check_open()
        names = list(self._queries)
        replies = self._request_all("pop_all", names)
        merged: dict[str, list[JoinedTuple]] = {}
        for name in names:
            parts = [reply[name] for reply in replies]
            parts.append(self._carryover.pop(name, []))
            merged[name] = self._merge(parts)
        return merged

    # -- statistics ------------------------------------------------------------
    def shard_snapshots(self) -> list[MetricsSnapshot]:
        """One metrics snapshot per shard (buffered arrivals flushed first)."""
        self._check_open()
        return self._request_all("snapshot")

    def merged_snapshot(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> MetricsSnapshot:
        """The per-shard snapshots folded into one global counter view.

        Counters of shard generations retired by :meth:`reshard` are folded
        in (their memory gauges are not — two generations overlap in time —
        and their per-name counts only into the totals), as are the
        session-level reshard counters.  Pass ``snapshots`` (a
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

    # -- live resharding -------------------------------------------------------
    def reshard(self, target: int) -> ReshardEvent:
        """Change the shard count of the running session to ``target``.

        The one migration primitive the fan-out invariant cannot express:
        every resident tuple must move to the shard its key hashes to under
        the *new* modulus.  The session performs a keyed state repartition
        without stopping ingestion or changing any query's answer:

        1. **drain and export** (:meth:`_export_shards`) — in-flight batches
           are flushed, each shard's per-slice window state is extracted
           (:meth:`StreamEngine.extract_keyed_state`) and its undelivered
           results popped, and the retiring generation is closed;
        2. **repartition** (:func:`~repro.runtime.partition.repartition`) —
           every resident tuple is bucketed by ``shard_for_key(key,
           target)``, per slice and stream, and re-layered;
        3. **carry and retire** (:meth:`_carry_results`,
           :meth:`_retire_counters`) — undelivered results and the old
           generation's counters move into the session-level carryover
           views;
        4. **rebuild** (:meth:`_build_generation`) — ``target`` fresh shards
           replay the current admissions (which re-derives the donor
           generation's chain boundaries and pushed-down filters: both
           follow from the query set alone), and splice their bucket in
           (:meth:`StreamEngine.ingest_keyed_state` — per-slice
           ``(timestamp, seqno)`` merge).

        Ingestion resumes against the new generation, whose per-shard
        counters (:meth:`shard_ingest_totals`) start from zero under the new
        modulus.  "Without stopping ingestion"
        means no arrival is lost or reordered across the cut in the ingest
        loop — it does **not** make ``process``/``flush`` safe to call from
        another thread while the reshard runs: ingestion is single-threaded
        by contract (admissions, removals and reshards serialize on the
        session lock; readers and writers of the stream do not).

        Parameters
        ----------
        target:
            The new shard count, a whole number of at least 1.  ``1`` is the
            degenerate single engine; values above 1 require an equi-join
            condition (the same constraint as constructing a sharded session).

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
            If ``target`` is not a whole number of at least 1, or is above 1
            for a non-equi condition.
        MigrationError
            If called re-entrantly from within another session migration on
            the same thread (admissions and reshards serialize).
        ExecutionError
            If the session is closed, or a process-mode worker died — the
            session is then in an undefined state and must be closed.
        """
        target = _shard_count(target)
        with self._serialized("reshard"):
            self._check_open()
            problem = unpartitionable_reason(self.condition)
            if target > 1 and problem is not None:
                raise ShardingError(f"cannot reshard to {target} shards: {problem}")
            old = self.shards
            if target == old:
                return ReshardEvent(
                    old_shards=old,
                    new_shards=target,
                    moved_tuples=0,
                    resident_tuples=0,
                    carried_results=0,
                    arrivals=self._arrivals,
                    stream_time=self._clock if self._arrivals else 0.0,
                )
            exports = self._export_shards()
            stream_time = max(
                (export["snapshot"].get("time.last", 0.0) for export in exports),
                default=0.0,
            )
            buckets, moved, resident = repartition(
                [export["state"] for export in exports],
                target,
                self._key_attrs,
                (self.left_stream, self.right_stream),
            )
            carried = self._carry_results(exports)
            self._retire_counters(exports)
            # The session memory budget is re-split under the new modulus
            # (the retiring generation's segment stores were deleted by the
            # export — state crosses the cut materialized, never as files).
            self.shards = target
            self.config = replace(
                self.config, memory_budget_bytes=self._per_shard_budget(target)
            )
            self._build_generation(buckets)
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
            )
            append_bounded(self.reshard_events, event)
            return event

    def _export_shards(self) -> list[dict]:
        """Drain and strip the retiring generation (state, results,
        counters), then close it."""
        exports = self._request_all("export", list(self._queries))
        for shard in self._shards:
            shard.close()
        return exports

    def _carry_results(self, exports: Sequence[dict]) -> int:
        """Move the retiring generation's undelivered results into the
        carryover view; returns how many there were."""
        carried = 0
        for name in self._queries:
            pending = self._merge([export["results"].get(name, []) for export in exports])
            if pending:
                carried += len(pending)
                self._carry(name, pending)
        return carried

    def _retire_counters(self, exports: Sequence[dict]) -> None:
        """Fold the retiring generation's counters into the session-level
        base, and what its migration log added into the session's.

        Memory gauges are dropped: generations overlap in time, so their
        occupancies must not sum.  So are per-name counts (their totals
        stay): the names are a generation's slices, links and queries.  The
        next generation's log starts with one entry per boundary of this
        generation's chain, the replay of its admissions
        (:meth:`_since_replay`).
        """
        log = exports[0]["stats"].migrations
        for event in self._since_replay(log, exports[0]["snapshot"]):
            append_bounded(self._migrations, event)
        self._replayed = max(len(log[-1].boundaries_after) - 1, 0) if log else 0
        snapshot_parts = [export["snapshot"] for export in exports]
        if self._snapshot_base is not None:
            snapshot_parts.insert(0, self._snapshot_base)
        base = MetricsSnapshot.aggregate(snapshot_parts)
        for key in list(base):
            per_name = key.startswith(("invocations.", "emitted.")) and not key.endswith(".total")
            if per_name or key in MetricsSnapshot._ADDITIVE_GAUGES:
                del base[key]
        self._snapshot_base = base

    def _build_generation(
        self, buckets: "list[list[dict[str, list[StreamTuple]]]]"
    ) -> None:
        """Start ``self.shards`` fresh shards on the current admissions and
        splice each one's repartitioned state bucket in.

        A worker death in here cannot be recovered from a journal (the
        generation's base state only exists in ``buckets`` until every
        shard acknowledged its ingest), so respawns are off until the build
        is complete.
        """
        self._respawn_guard = True
        try:
            self._shards = [
                self._make_shard(index, self.config) for index in range(self.shards)
            ]
            for query in self._queries.values():
                self._request_all(
                    "add",
                    (query.name, query.window, query.left_filter, query.right_filter),
                )
            if self._queries:
                self._request_each("ingest", buckets)
        finally:
            self._respawn_guard = False

    # -- introspection (a barrier: every shard ingests its buffer first) --------
    def _shard_states(self, field: str) -> list:
        """One ``state`` field of every shard's engine."""
        self._check_open()
        return self._request_all("state", field)

    @property
    def stats(self) -> EngineStats:
        """The session's counters, read from :meth:`merged_snapshot` (so
        generations retired by :meth:`reshard` are included), and the
        migration history of the first shard — the fan-out keeps every
        shard's migration sequence identical — after the retired
        generations', the newest ``LOG_LIMIT`` entries.  A reshard's replay
        of the admissions is not a migration and is not shown.
        """
        snapshots = self.shard_snapshots()
        migrations = list(self._migrations)
        log = self._shard_states("stats")[0].migrations
        for event in self._since_replay(log, snapshots[0]):
            append_bounded(migrations, event)
        return EngineStats.read(self.merged_snapshot(snapshots), migrations)

    def _since_replay(
        self, log: list[MigrationEvent], snapshot: MetricsSnapshot
    ) -> list[MigrationEvent]:
        """The entries of a generation's migration log (its first shard's,
        beside that shard's snapshot) that follow the replay of the
        admissions the generation was built on: what of the replay the
        bounded log still holds is the replay less what the log dropped."""
        dropped = int(snapshot.get("observations.engine.migrations", 0)) - len(log)
        return log[max(self._replayed - dropped, 0) :]

    @property
    def boundaries(self) -> tuple[float, ...]:
        """The session's chain boundaries (identical on every shard)."""
        return self.shard_boundaries()[0]

    def shard_boundaries(self) -> list[tuple[float, ...]]:
        """Every shard's chain boundaries (the fan-out keeps them equal)."""
        return [tuple(boundaries) for boundaries in self._shard_states("boundaries")]

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
        return int(self._shard_states("slice_count")[0])

    def state_size(self) -> int:
        """Total tuples resident across all shards' join states."""
        return sum(self._shard_states("state_size"))

    def states_are_disjoint(self) -> bool:
        """Within-shard slice disjointness; cross-shard disjointness holds by
        construction (each tuple is routed to exactly one shard)."""
        return all(self._shard_states("states_are_disjoint"))

    def shard_ingest_totals(
        self, snapshots: Sequence[MetricsSnapshot] | None = None
    ) -> list[int]:
        """Arrivals routed to each shard of the current generation.

        The counters restart at every :meth:`reshard`, so the shares are
        measured under the current modulus (``self.shards``) only; a hot key
        shows as one shard carrying most of them.
        """
        if snapshots is None:
            snapshots = self.shard_snapshots()
        return [int(snapshot.get("ingested.total", 0.0)) for snapshot in snapshots]

    def describe(self) -> str:
        """One-line summary: shard layout and the inner session shape."""
        return (
            f"ShardedStreamEngine[{self.shards}x {self.shard_mode}, "
            f"key={self.condition.describe()}] each: "
            f"{self._shard_states('describe')[0]}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ShardedStreamEngine shards={self.shards} mode={self.shard_mode} "
            f"queries={len(self._queries)} arrivals={self._arrivals}>"
        )
