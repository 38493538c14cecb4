"""The six benchmark workloads: input parameters, queries, schedules, sessions.

Every session is built with **constructor defaults** for the execution knobs
(no ``probe=``, ``columnar=``, ``batch_size=`` or ``ring_capacity=``): the
benchmark measures the runtime as a caller who read the quick start meets it,
and a later change of a default is measured as such.  The values the
constructors resolved are read back from the session and stored with each run
(:func:`resolved_knobs`).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.query.predicates import EquiJoinCondition, selectivity_filter, selectivity_join
from repro.runtime.engine import StreamEngine
from repro.runtime.sharding import ShardedStreamEngine
from repro.streams.generators import SelectivityValueGenerator, StreamGenerator, StreamSpec
from repro.streams.tuples import StreamTuple

#: Arrivals handed to ``process_many`` between two pops.
QUANTUM = 128
#: Both streams are Poisson at this rate, so one stream-second is ~1000 arrivals.
STREAM_RATE = 500.0
ARRIVALS_PER_STREAM_SECOND = 2 * STREAM_RATE
KEY_DOMAIN = 1000
#: Open-loop latency percentiles are taken per window of about one second.
OPEN_WINDOWS = 9
#: The lazily generated, untimed prefix lasts this many max-windows of stream
#: time: one window fills every slice, the extra quarter lets purge, compaction
#: and eviction run at steady size before memory is read and timing starts.
WARMUP_WINDOWS = 1.25


@dataclass(frozen=True)
class QuerySpec:
    """One continuous query: window in seconds and filter selectivities."""

    name: str
    window: float
    left_selectivity: float | None = None
    right_selectivity: float | None = None


@dataclass(frozen=True)
class ChurnSchedule:
    """Admissions, removals and reshards applied between quanta.

    Before quantum ``k`` (counted from the first arrival): when ``k`` is a
    multiple of ``query_every``, admit the next query while fewer than
    ``max_live`` are live, else remove the oldest; when ``k`` is a multiple of
    ``reshard_every``, switch to the other entry of ``shard_cycle``.  One
    *cycle* is ``2 * reshard_every`` quanta: both reshard directions and
    ``2 * reshard_every / query_every`` admissions or removals.
    """

    query_every: int = 8
    max_live: int = 6
    window_cycle: int = 11
    #: 32, not the 64 first specified: an open-loop window (32 quanta on
    #: ``churn``) then holds exactly one reshard, whichever window it is.
    reshard_every: int = 32
    shard_cycle: tuple[int, int] = (2, 4)

    @property
    def cycle_quanta(self) -> int:
        return 2 * self.reshard_every

    def query(self, ordinal: int) -> QuerySpec:
        """The ``ordinal``-th admitted query: windows cycle 1..11 s, a 0.5
        left filter on every second one."""
        return QuerySpec(
            f"c{ordinal}",
            float(1 + ordinal % self.window_cycle),
            0.5 if ordinal % 2 else None,
        )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``why`` is the reason it exists."""

    name: str
    why: str
    session: str  #: "single" (StreamEngine) or "sharded" (ShardedStreamEngine)
    session_args: tuple[tuple[str, object], ...]
    join: str  #: "equi" or "modular"
    join_selectivity: float | None
    queries: tuple[QuerySpec, ...]
    #: Timed arrivals at scale 1.0: the closed loop, and the open loop's
    #: ``OPEN_WINDOWS`` windows together (about 9 s at ``open_rate``).
    closed_arrivals: int
    open_arrivals: int
    #: Fixed open-loop rate, arrivals per wall second (see bench/README.md).
    open_rate: int
    churn: ChurnSchedule | None = None

    @property
    def max_window(self) -> float:
        return max(query.window for query in self.queries)

    def fingerprint(self) -> str:
        """Hash of everything that defines the workload's input and work."""
        spec = asdict(self)
        spec.update(
            quantum=QUANTUM,
            stream_rate=STREAM_RATE,
            key_domain=KEY_DOMAIN,
            open_windows=OPEN_WINDOWS,
            warmup_windows=WARMUP_WINDOWS,
        )
        spec.pop("why")
        text = json.dumps(spec, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


_SHARED_WINDOWS = (0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 16)
#: A 0.5 left filter on every second query, a 0.2 right filter on every fourth.
_SHARED_QUERIES = tuple(
    QuerySpec(
        f"q{index:02d}",
        float(window),
        0.5 if index % 2 else None,
        0.2 if index % 4 == 3 else None,
    )
    for index, window in enumerate(_SHARED_WINDOWS)
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="equi_shared",
            why="12-slice equi-join chain with pushed-down selections: chain "
            "plumbing, per-slice purge and per-result routing dominate",
            session="single",
            session_args=(),
            join="equi",
            join_selectivity=None,
            queries=_SHARED_QUERIES,
            closed_arrivals=36864,
            open_arrivals=27648,
            open_rate=3000,
        ),
        Workload(
            name="theta_scan",
            why="non-equi modular condition over 3 slices: the match_mask scan "
            "dominates; equi-only and sharding-only changes must not move it",
            session="single",
            session_args=(),
            join="modular",
            join_selectivity=0.001,
            queries=(
                QuerySpec("t0", 4.0),
                QuerySpec("t1", 8.0, 0.5),
                QuerySpec("t2", 16.0),
            ),
            closed_arrivals=27648,
            open_arrivals=23040,
            open_rate=2500,
        ),
        Workload(
            name="equi_spill",
            why="equi_shared under a 512 KiB budget (state ~12x budget): spill "
            "does most of the work; shows what a budget costs and bounds",
            session="single",
            session_args=(("memory_budget_bytes", 524288),),
            join="equi",
            join_selectivity=None,
            queries=_SHARED_QUERIES,
            closed_arrivals=9216,
            open_arrivals=6912,
            open_rate=750,
        ),
        Workload(
            name="sharded_serial",
            why="equi_shared on 2 serial shards: partitioning and cross-shard "
            "merge work, transport does none",
            session="sharded",
            session_args=(("shards", 2),),
            join="equi",
            join_selectivity=None,
            queries=_SHARED_QUERIES,
            closed_arrivals=36864,
            open_arrivals=27648,
            open_rate=3000,
        ),
        # Not in BENCHMARK.json, run by name only: parent + 2 workers on the
        # reference host's 2 shared vCPUs do not repeat within any bound the
        # contract allows (bench/README.md, "Why `sharded_process` is not gated").
        Workload(
            name="sharded_process",
            why="equi_shared on 2 worker processes: ring transport, batch "
            "encode/decode, pipe result return and worker wake-up work",
            session="sharded",
            session_args=(("shards", 2), ("shard_mode", "process")),
            join="equi",
            join_selectivity=None,
            queries=_SHARED_QUERIES,
            closed_arrivals=27648,
            open_arrivals=18432,
            open_rate=2000,
        ),
        Workload(
            name="churn",
            why="admit/remove every 8 quanta and reshard 2<->4 every 32 under an "
            "umbrella query: split/merge/extract/load/ingest of slice state",
            session="sharded",
            session_args=(("shards", 2),),
            join="equi",
            join_selectivity=None,
            queries=(QuerySpec("umbrella", 16.0),),
            closed_arrivals=65536,
            open_arrivals=36864,
            open_rate=2500,
            churn=ChurnSchedule(),
        ),
    )
}


def build_session(workload: Workload) -> StreamEngine | ShardedStreamEngine:
    """A fresh session on constructor defaults; queries are admitted by the caller."""
    if workload.join == "equi":
        condition = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)
    else:
        condition = selectivity_join(workload.join_selectivity, domain=KEY_DOMAIN)
    arguments = dict(workload.session_args)
    if workload.session == "single":
        return StreamEngine(condition, **arguments)
    return ShardedStreamEngine(condition, **arguments)


def admit(session, query: QuerySpec) -> None:
    """Admit ``query`` with its selectivity filters (``value > 1 - s``)."""
    session.add_query(
        query.name,
        query.window,
        left_filter=_filter(query.left_selectivity),
        right_filter=_filter(query.right_selectivity),
    )


def _filter(selectivity: float | None):
    return None if selectivity is None else selectivity_filter(selectivity)


def resolved_knobs(session) -> dict[str, object]:
    """The execution knobs the constructor defaults resolved to."""
    return {
        "probe": session.probe,
        "columnar": session.columnar,
        "batch_size": session.batch_size,
    }


def arrivals(seed: int) -> Iterator[StreamTuple]:
    """Both streams of one seed, merged by timestamp, generated lazily.

    Every workload reads a prefix of the same seeded stream pair, so rows of
    different workloads are directly comparable.
    """
    streams = [
        StreamGenerator(
            StreamSpec(name, STREAM_RATE, values=SelectivityValueGenerator(KEY_DOMAIN)),
            seed=seed,
        ).stream(float("inf"))
        for name in ("A", "B")
    ]
    return heapq.merge(*streams, key=lambda tup: tup.timestamp)
