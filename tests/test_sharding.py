"""Tests for the key-partitioned sharded runtime.

Four properties carry the sharded engine's correctness story:

1. **Partitioner** — :func:`shard_for_key` is a pure, stable function of
   ``(key, shards)`` (identical across runs and processes) and spreads
   random key domains evenly (frequency bound, hypothesis-checked).
2. **Equivalence** — a sharded session delivers exactly the single-engine
   answer under admissions, removals and selections (the
   per-scenario differential family lives in ``test_fuzz_differential.py``;
   scripted cases here keep the failure surface small).
3. **Fan-out invariants** — every shard keeps identical chain boundaries
   and the merged output is in deterministic global order.
4. **Planner** — the merged statistics view sizes N with the measured
   load, and hot keys are reported as skew.

The optional process-parallel driver is smoke-tested for correctness
against the serial driver (same protocol, same merged answers).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import StreamStatistics
from repro.engine.errors import ExecutionError, MigrationError, ShardingError
from repro.engine.metrics import MetricsCollector, MetricsSnapshot
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    attribute_gt,
)
from repro.runtime import (
    ShardedStreamEngine,
    ShardPlanner,
    StreamEngine,
    shard_for_key,
)
from repro.runtime.partition import relayer
from repro.streams.generators import SelectivityValueGenerator, generate_join_workload
from repro.streams.tuples import make_tuple
from tests.conftest import kill_worker

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=24)
DATA = generate_join_workload(rate_a=30, rate_b=30, duration=6.0, seed=21)


def pairs(results):
    return sorted((j.left.seqno, j.right.seqno) for j in results)


# ---------------------------------------------------------------------------
# 1. The partitioner
# ---------------------------------------------------------------------------
def test_partitioner_is_deterministic_and_in_range():
    for key in (0, 7, -3, 10**12, "sensor-17", 3.25, b"raw"):
        for shards in (1, 2, 3, 8):
            first = shard_for_key(key, shards)
            assert 0 <= first < shards
            assert all(shard_for_key(key, shards) == first for _ in range(3))


def test_partitioner_single_shard_short_circuits():
    assert shard_for_key("anything", 1) == 0
    assert shard_for_key(42, 0) == 0  # degenerate counts clamp to shard 0


def test_partitioner_cross_type_equal_keys_co_shard():
    """Keys that compare equal must land on the same shard.

    EquiJoinCondition matches `1 == 1.0 == True`, so mixed int/float/bool
    key sources must co-shard or the sharded engine would silently drop
    pairs the single engine emits."""
    for shards in (2, 3, 4, 8):
        for key in (0, 1, 7, 10**9):
            expected = shard_for_key(key, shards)
            assert shard_for_key(float(key), shards) == expected
        assert shard_for_key(True, shards) == shard_for_key(1, shards)
        assert shard_for_key(False, shards) == shard_for_key(0, shards)
    # non-integral floats keep their own identity
    assert shard_for_key(1.5, 4) == shard_for_key(1.5, 4)


def test_sharded_joins_mixed_int_float_keys():
    single = StreamEngine(CONDITION, batch_size=4)
    sharded = ShardedStreamEngine(CONDITION, shards=4, batch_size=4)
    arrivals = [
        make_tuple("A", 0.1, join_key=1, value=0.5),
        make_tuple("B", 0.2, join_key=1.0, value=0.5),
        make_tuple("A", 0.3, join_key=2.0, value=0.5),
        make_tuple("B", 0.4, join_key=2, value=0.5),
    ]
    for engine in (single, sharded):
        engine.add_query("Q", 5.0)
        engine.process_many(arrivals)
        engine.flush()
    assert pairs(sharded.results("Q")) == pairs(single.results("Q"))
    assert len(sharded.results("Q")) == 2


@settings(max_examples=60, deadline=None)
@given(
    shards=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    consecutive=st.booleans(),
)
def test_partitioner_balance_bound(shards, seed, consecutive):
    """Frequency bound over random key domains.

    With ≥64 distinct keys per shard, no shard's share may exceed 1.6× the
    mean (CRC-32 measures ≤1.25× empirically; the slack keeps the property
    robust without weakening it into vacuity).
    """
    import random

    rng = random.Random(seed)
    count = 64 * shards + rng.randrange(0, 512)
    if consecutive:
        base = rng.randrange(10**6)
        keys = range(base, base + count)
    else:
        keys = [rng.randrange(10**7) for _ in range(count)]
    counts = [0] * shards
    for key in keys:
        counts[shard_for_key(key, shards)] += 1
    mean = count / shards
    assert max(counts) <= 1.6 * mean, counts


# ---------------------------------------------------------------------------
# 2./3. Sharded vs single engine, fan-out invariants
# ---------------------------------------------------------------------------
def _run_session(engine, admit_at=150, remove_at=300):
    """One scripted session: umbrella + mid-stream σ-query add/remove."""
    engine.add_query("umbrella", 4.0)
    removed = None
    for index, tup in enumerate(DATA.tuples):
        if index == admit_at:
            engine.add_query(
                "Q2", 2.0, left_filter=attribute_gt("value", 0.4, selectivity=0.6)
            )
        if index == remove_at:
            removed = engine.remove_query("Q2")
        engine.process(tup)
    engine.flush()
    return removed


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_equals_single_engine(shards):
    single = StreamEngine(CONDITION, batch_size=16)
    sharded = ShardedStreamEngine(CONDITION, shards=shards, batch_size=16)
    removed_single = _run_session(single)
    removed_sharded = _run_session(sharded)
    assert pairs(removed_sharded) == pairs(removed_single)
    assert pairs(sharded.results("umbrella")) == pairs(single.results("umbrella"))
    assert sharded.stats.arrivals == single.stats.arrivals
    assert sharded.states_are_disjoint()


def test_merged_output_order_is_deterministic():
    sharded = ShardedStreamEngine(CONDITION, shards=3, batch_size=7)
    _run_session(sharded)
    merged = sharded.results("umbrella")
    key = lambda j: (j.timestamp, j.left.seqno, j.right.seqno)  # noqa: E731
    assert merged == sorted(merged, key=key)
    # pop_results drains every shard
    assert pairs(sharded.pop_results("umbrella")) == pairs(merged)
    assert sharded.results("umbrella") == []


def test_fanout_keeps_shard_boundaries_identical():
    sharded = ShardedStreamEngine(CONDITION, shards=4, batch_size=16)
    sharded.add_query("big", 4.0)
    sharded.add_query("small", 1.5)
    assert sharded.shard_boundaries() == [(0.0, 1.5, 4.0)] * 4
    sharded.process_many(DATA.tuples[:200])
    sharded.remove_query("small")
    assert sharded.shard_boundaries() == [(0.0, 4.0)] * 4
    assert sharded.boundaries == (0.0, 4.0)
    assert sharded.slice_count() == 1


def test_unsupported_workloads_raise_or_fall_back():
    cross = CrossProductCondition()
    with pytest.raises(ShardingError, match="equi-key"):
        ShardedStreamEngine(cross, shards=2)
    with pytest.raises(ShardingError, match="count windows"):
        ShardedStreamEngine(CONDITION, shards=2, window_kind="count")
    with pytest.raises(TypeError):
        ShardedStreamEngine(cross, shards=4, on_unsupported="fallback")  # knob deleted
    # The unsharded path for such workloads is shards=1.
    unsharded = ShardedStreamEngine(cross, shards=1)
    assert not unsharded.partitionable
    unsharded.add_query("Q", 2.0)
    unsharded.process_many(DATA.tuples[:50])
    single = StreamEngine(cross, batch_size=32)
    single.add_query("Q", 2.0)
    single.process_many(DATA.tuples[:50])
    assert pairs(unsharded.results("Q")) == pairs(single.results("Q"))


def test_admission_surface_validation():
    sharded = ShardedStreamEngine(CONDITION, shards=2)
    sharded.add_query("Q", 2.0)
    from repro.engine.errors import QueryError

    with pytest.raises(QueryError):
        sharded.add_query("Q", 3.0)
    with pytest.raises(QueryError):
        sharded.remove_query("missing")
    with pytest.raises(QueryError):
        sharded.results("missing")
    with pytest.raises(QueryError):
        sharded.process(make_tuple("C", 1.0, join_key=1))


# ---------------------------------------------------------------------------
# 4. Statistics aggregation and the planner
# ---------------------------------------------------------------------------
def test_out_of_order_arrival_is_rejected_session_wide():
    """A late arrival is refused even when it is in order for its own shard."""
    engine = ShardedStreamEngine(CONDITION, shards=2, batch_size=4)
    engine.add_query("Q", 2.0)
    keys = {shard_for_key(key, 2): key for key in range(24)}  # one key per shard
    engine.process(make_tuple("A", 1.0, join_key=keys[0]))
    engine.process(make_tuple("B", 2.0, join_key=keys[0]))
    with pytest.raises(ExecutionError, match="out-of-order"):
        # Late for the session (last accepted: 2.0) but the first arrival
        # of shard 1, whose own engine would have accepted it.
        engine.process(make_tuple("A", 1.5, join_key=keys[1]))
    engine.process(make_tuple("A", 2.0, join_key=keys[1]))  # equal timestamps stay legal
    engine.process(make_tuple("B", 2.5, join_key=keys[1]))
    engine.flush()
    assert len(engine.results("Q")) == 2


def test_snapshot_aggregation_sums_counters():
    left = MetricsCollector()
    right = MetricsCollector()
    left.count("probe", 10)
    right.count("probe", 5)
    left.record_ingest(4, "A")
    right.record_ingest(6, "A")
    left.record_emission("Q", 3)
    left.sample_memory(2.0, 7)
    right.sample_memory(3.0, 5)
    merged = MetricsSnapshot.aggregate([left.snapshot(), right.snapshot()])
    assert merged["comparisons.probe"] == 15.0
    assert merged["ingested.A"] == 10.0
    assert merged["emitted.total"] == 3.0
    assert merged["memory.max"] == 12.0  # disjoint states: occupancies add
    assert merged["time.last"] == 3.0  # shared stream clock: max, not sum
    assert merged["service_rate"] == pytest.approx(3.0 / merged["cpu_cost"])


def test_merged_statistics_global_rates():
    sharded = ShardedStreamEngine(CONDITION, shards=4, batch_size=16)
    sharded.add_query("Q", 3.0)
    sharded.process_many(DATA.tuples)
    sharded.flush()
    merged = sharded.merged_statistics()
    # Global rates survive the partitioning: ~30/s per stream.
    assert merged.rate("A") == pytest.approx(30.0, rel=0.25)
    assert merged.rate("B") == pytest.approx(30.0, rel=0.25)


def test_shard_windows_aggregate_matches_engine_view():
    empty = MetricsCollector().snapshot()
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    sharded.add_query("Q", 3.0)
    sharded.process_many(DATA.tuples[:200])
    stats = StreamStatistics.from_shard_windows(
        [(empty, snapshot) for snapshot in sharded.shard_snapshots()]
    )
    merged = sharded.merged_statistics()
    assert stats.arrival_rates == merged.arrival_rates


def test_planner_recommend_and_skew():
    planner = ShardPlanner(max_shards=8, target_rate_per_shard=25.0)
    stats = StreamStatistics(arrival_rates={"A": 60.0, "B": 60.0})
    assert planner.recommend(stats) == 5
    assert planner.recommend(StreamStatistics()) == 1
    assert planner.recommend(StreamStatistics(arrival_rates={"A": 1000.0})) == 8

    assert planner.imbalance([100, 100, 100, 100]) == 1.0
    assert planner.imbalance([400, 0, 0, 0]) == 4.0
    assert planner.imbalance([]) == 1.0


def test_planner_plan_flags_hot_keys():
    planner = ShardPlanner(target_rate_per_shard=15.0, skew_threshold=1.8)
    sharded = ShardedStreamEngine(CONDITION, shards=4, batch_size=16)
    sharded.add_query("Q", 2.0)
    # every arrival carries the same key -> one hot shard
    hot = [
        make_tuple(tup.stream, tup.timestamp, join_key=7, value=0.5)
        for tup in DATA.tuples[:240]
    ]
    sharded.process_many(hot)
    plan = planner.plan(sharded)
    assert plan.skewed
    assert plan.imbalance == pytest.approx(4.0)
    assert "hot keys" in plan.reason
    assert plan.shards >= 1
    assert "skewed" in plan.describe()


# ---------------------------------------------------------------------------
# Process-parallel driver (correctness smoke)
# ---------------------------------------------------------------------------
def test_process_mode_matches_serial():
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    removed_serial = _run_session(serial)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as process:
        removed_process = _run_session(process)
        assert pairs(removed_process) == pairs(removed_serial)
        assert pairs(process.results("umbrella")) == pairs(
            serial.results("umbrella")
        )
        assert process.stats.arrivals == serial.stats.arrivals
        assert process.state_size() == serial.state_size()
        assert process.shard_boundaries() == serial.shard_boundaries()
        assert process.slice_count() == serial.slice_count()
        assert process.states_are_disjoint() and serial.states_are_disjoint()
        # describe() prints the inner chain in both modes
        assert process.describe() == serial.describe().replace("serial", "process")
        assert "chain:" in process.describe()
        snapshot = process.merged_snapshot()
        assert snapshot["ingested.total"] == len(DATA.tuples)


def test_process_mode_rejects_use_after_close():
    from repro.engine.errors import ExecutionError

    engine = ShardedStreamEngine(CONDITION, shards=2, shard_mode="process")
    engine.add_query("Q", 1.0)
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ExecutionError):
        engine.process(DATA.tuples[0])
    # introspection raises the API's error, not a raw pipe OSError
    with pytest.raises(ExecutionError):
        engine.state_size()
    with pytest.raises(ExecutionError):
        engine.stats  # noqa: B018 - the property performs the round-trip
    with pytest.raises(ExecutionError):
        engine.shard_boundaries()


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_introspection_is_a_barrier_in_both_modes(mode):
    """stats/state_size/... must reflect arrivals already handed to process()."""
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode=mode, batch_size=1000
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples[:50])  # far below the batch size
        assert engine.stats.arrivals == 50
        assert engine.state_size() > 0
        assert engine.states_are_disjoint()
        assert engine.boundaries == (0.0, 3.0)
        assert engine.slice_count() == 1
        assert "Q[3s]" in engine.describe()


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_failed_admission_leaves_the_session_working(mode):
    """A refused admission reaches no shard, and a shard-side error reply
    never leaves another shard's reply unread (the protocol stays in step)."""
    from repro.engine.errors import QueryError

    reference = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    reference.add_query("Q", 1.0)
    reference.process_many(DATA.tuples)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode=mode, batch_size=16
    ) as engine:
        engine.add_query("Q", 1.0)
        engine.process_many(DATA.tuples[:100])
        with pytest.raises(QueryError, match="non-positive window"):
            engine.add_query("bad", -1.0)
        assert [q.name for q in engine.queries()] == ["Q"]
        # An error raised on the shards themselves: every shard is named and
        # every reply is consumed before the session raises.
        with pytest.raises(ExecutionError, match="shard 0: .*; shard 1: "):
            engine._request_all("pop", "never-admitted")
        first = engine.pop_results("Q")
        assert engine.state_size() > 0
        engine.process_many(DATA.tuples[100:])
        assert pairs(first + engine.pop_results("Q")) == pairs(reference.results("Q"))
        assert engine.stats.arrivals == len(DATA.tuples)


def test_process_mode_worker_kill_mid_stream_recovers():
    """A worker killed mid-stream (no reshard involved) is respawned and the
    session's final answer is exactly the serial driver's."""
    half = len(DATA.tuples) // 2
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    serial.add_query("Q", 3.0)
    serial.process_many(DATA.tuples)
    serial.flush()
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples[:half])
        engine.flush()
        kill_worker(engine, 1)
        engine.process_many(DATA.tuples[half:])
        engine.flush()
        assert pairs(engine.results("Q")) == pairs(serial.results("Q"))
        assert engine.metrics.respawns == 1
        assert engine.merged_snapshot()["respawn.count"] == 1.0


@pytest.mark.parametrize(
    "ring_capacity",
    [
        pytest.param(2048, id="full-ring"),  # holds two or three ~650 B batches
        pytest.param(64, id="oversize-pipe-batch"),  # no batch fits: marker + pipe
    ],
)
def test_process_mode_worker_killed_while_pushing_recovers(ring_capacity):
    """A worker that dies with nobody draining its ring (or reading its
    pipe) is found dead by the push itself; the batch in flight is shipped
    to the replacement exactly once."""
    half = len(DATA.tuples) // 2
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    serial.add_query("Q", 3.0)
    serial.process_many(DATA.tuples)
    with ShardedStreamEngine(
        CONDITION,
        shards=2,
        shard_mode="process",
        batch_size=16,
        ring_capacity=ring_capacity,
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples[:half])
        engine.flush()
        kill_worker(engine, 0)
        engine.process_many(DATA.tuples[half:])  # no command until the very end
        assert pairs(engine.results("Q")) == pairs(serial.results("Q"))
        assert engine.metrics.respawns == 1


def test_process_mode_worker_dying_inside_a_command_recovers():
    """The worker accepts a command and dies before replying: the death
    surfaces at the receive, and the command is retried on the replacement."""
    import signal
    import threading

    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    serial.add_query("Q", 3.0)
    serial.process_many(DATA.tuples)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples[:200])
        worker = engine._shards[1].worker
        os.kill(worker.pid, signal.SIGSTOP)  # alive, but answers nothing
        killer = threading.Timer(0.3, worker.kill)
        killer.start()
        try:
            engine.flush()  # sent to the stopped worker, whose death the recv sees
        finally:
            killer.join(5)
        assert engine.metrics.respawns == 1
        engine.process_many(DATA.tuples[200:])
        assert pairs(engine.results("Q")) == pairs(serial.results("Q"))


def test_process_mode_kill_after_reshard_recovers():
    """Recovery of a later generation: the replacement starts from the
    bucket the reshard spliced in."""

    def drive(engine, kill):
        engine.add_query("big", 4.0)
        engine.add_query(
            "small", 1.0, left_filter=attribute_gt("value", 0.8, selectivity=0.2)
        )
        engine.process_many(DATA.tuples[:120])
        engine.reshard(3)
        engine.process_many(DATA.tuples[120:200])
        if kill:
            kill_worker(engine, 2)
        engine.process_many(DATA.tuples[200:])
        assert engine.shard_boundaries() == [(0.0, 1.0, 4.0)] * 3
        return {name: pairs(engine.results(name)) for name in ("big", "small")}

    expected = drive(ShardedStreamEngine(CONDITION, shards=2, batch_size=16), False)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as engine:
        assert drive(engine, True) == expected
        assert engine.metrics.respawns == 1


@pytest.mark.parametrize("removed", ["small", "big"])
def test_process_mode_kill_after_reshard_and_removal_recovers(removed):
    """A query leaves between the reshard and the crash: the generation's
    base state was layered on the chain of both queries and is regrouped
    onto the chain of the one that remains (removing the larger one used to
    leave the session dead)."""

    def drive(engine, kill):
        engine.add_query("big", 4.0)
        engine.add_query("small", 1.0)
        engine.process_many(DATA.tuples[:120])
        engine.reshard(3)
        engine.process_many(DATA.tuples[120:200])
        engine.remove_query(removed)
        (kept,) = engine.queries()
        delivered = engine.pop_results(kept.name)
        if kill:
            kill_worker(engine, 1)
        # Results are pulled every 16 arrivals: an undelivered result older
        # than the journal's retention (two windows) dies with its worker.
        for start in range(200, len(DATA.tuples), 16):
            engine.process_many(DATA.tuples[start : start + 16])
            delivered += engine.pop_results(kept.name)
        assert engine.shard_boundaries() == [(0.0, kept.window)] * 3
        return pairs(delivered)

    expected = drive(ShardedStreamEngine(CONDITION, shards=2, batch_size=16), False)
    assert expected
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as engine:
        assert drive(engine, True) == expected
        assert engine.metrics.respawns == 1


@pytest.mark.parametrize("window", [2.0, 0.5, 4.0])
def test_process_mode_kill_after_reshard_and_admission_recovers(window):
    """A query joins between the reshard and the crash, before its shard saw
    an arrival: the base state is ingested under the chain it was taken on
    and the newcomer splits a slice afterwards, as it did live (admitting it
    first used to leave rows one slice too deep, and the new query silently
    lost its results against them).  ``4.0`` re-admits a removed name: the
    tail its removal dropped stays dropped."""

    # Three keys: every row of the base state meets a male of each query.
    data = generate_join_workload(
        30, 30, 6.0, seed=21, value_generator=lambda: SelectivityValueGenerator(key_domain=3)
    ).tuples

    def drive(engine, kill):
        engine.add_query("big", 4.0)
        engine.add_query("small", 1.0)
        engine.process_many(data[:120])
        engine.reshard(3)
        if window == 4.0:
            engine.remove_query("big")
            engine.add_query("big", 4.0)
        else:
            engine.add_query("new", window)
        if kill:
            kill_worker(engine, 1)
        delivered = {query.name: [] for query in engine.queries()}
        # Results are pulled every 16 arrivals: an undelivered result older
        # than the journal's retention (two windows) dies with its worker.
        for start in range(120, len(data), 16):
            engine.process_many(data[start : start + 16])
            for name, results in delivered.items():
                results += engine.pop_results(name)
        assert len(set(engine.shard_boundaries())) == 1
        return {name: pairs(results) for name, results in delivered.items()}

    expected = drive(ShardedStreamEngine(CONDITION, shards=2, batch_size=16), False)
    assert all(expected.values())
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16
    ) as engine:
        assert drive(engine, True) == expected
        assert engine.metrics.respawns == 1


def test_relayer_regroups_onto_a_subset_and_refuses_anything_else():
    old, mid, new = (make_tuple("A", t, join_key=0, value=0.5) for t in (0.2, 1.5, 2.5))
    state = [{"A": [new]}, {"A": [mid]}, {"A": [old]}]
    assert relayer(state, [1.0, 2.0, 4.0, 4.0], [1.0, 4.0]) == [{"A": [new]}, {"A": [mid, old]}]
    assert relayer(state, [1.0, 2.0, 4.0], [2.0]) == [{"A": [new, mid]}]  # tail dropped
    assert relayer(state, [1.0, 2.0, 4.0], []) == []
    with pytest.raises(MigrationError, match="regroup"):
        relayer(state, [1.0, 2.0, 4.0], [1.0, 3.0])  # 3 would cut the base slice (2, 4]
    with pytest.raises(MigrationError, match="regroup"):
        relayer(state[:2], [1.0, 2.0, 4.0], [1.0])


def test_process_mode_count_window_and_idle_journal_recover():
    """The journal's two other retention rules: rank-based for a count
    session (one shard only), and nothing at all while no query is
    registered."""
    single = StreamEngine(CONDITION, batch_size=16, window_kind="count")
    with ShardedStreamEngine(
        CONDITION, shards=1, shard_mode="process", batch_size=16, window_kind="count"
    ) as engine:
        engine.process_many(DATA.tuples[:40])  # chainless: builds no state
        single.process_many(DATA.tuples[:40])
        engine.flush()
        assert not engine._shards[0].journal
        for session in (single, engine):
            session.add_query("Q", 12)
            session.process_many(DATA.tuples[40:200])
        # Results are pulled every 16 arrivals: an undelivered result older
        # than the journal's retention (two windows) dies with its worker.
        assert pairs(engine.pop_results("Q")) == pairs(single.pop_results("Q"))
        kill_worker(engine, 0)
        for start in range(200, len(DATA.tuples), 16):
            for session in (single, engine):
                session.process_many(DATA.tuples[start : start + 16])
            assert pairs(engine.pop_results("Q")) == pairs(single.pop_results("Q"))
        assert engine.metrics.respawns == 1
        assert engine.stats.results_delivered > 0


# ---------------------------------------------------------------------------
# The probe kind is fixed at construction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["serial", "process"])
def test_hash_probe_holds_across_reshard_and_respawn(mode):
    """All a fixed-at-construction probe has to guarantee: every shard
    generation — after ``reshard(3)`` and, in process mode, after a worker
    respawn — holds indexed slice states and answers like the default scan.

    An indexed state hands a male its key bucket, so on an equi-join every
    probe comparison is a result; the default scan compares the whole state.
    """
    plain = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    plain.add_query("Q", 3.0)
    plain.process_many(DATA.tuples)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode=mode, batch_size=16, probe="hash"
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples[:150])
        engine.reshard(3)
        if mode == "process":
            kill_worker(engine, 0)
        engine.process_many(DATA.tuples[150:])
        assert pairs(engine.results("Q")) == pairs(plain.results("Q"))
        assert engine.metrics.respawns == (1 if mode == "process" else 0)
        assert engine.probe == "hash"
        snapshots = engine.shard_snapshots()
        assert len(snapshots) == 3
        probed = [snapshot.get("comparisons.probe", 0.0) for snapshot in snapshots]
        assert probed == [snapshot.get("emitted.Q", 0.0) for snapshot in snapshots]
        assert sum(probed) > 0
    scanned = sum(s["comparisons.probe"] for s in plain.shard_snapshots())
    assert scanned > sum(s["emitted.Q"] for s in plain.shard_snapshots())


# ---------------------------------------------------------------------------
# Batched result pulls
# ---------------------------------------------------------------------------
def test_pop_results_all_matches_per_query_pops():
    for mode in ("serial", "process"):
        reference = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
        reference.add_query("Q1", 2.0)
        reference.add_query("Q2", 3.0)
        reference.process_many(DATA.tuples)
        reference.flush()
        expected = {
            name: pairs(reference.pop_results(name)) for name in ("Q1", "Q2")
        }
        with ShardedStreamEngine(
            CONDITION, shards=2, shard_mode=mode, batch_size=16
        ) as engine:
            engine.add_query("Q1", 2.0)
            engine.add_query("Q2", 3.0)
            engine.process_many(DATA.tuples)
            engine.flush()
            popped = engine.pop_results_all()
            assert {name: pairs(res) for name, res in popped.items()} == expected
            # destructive: a second pull is empty
            assert engine.pop_results_all() == {"Q1": [], "Q2": []}
            assert engine.results("Q1") == []


def test_process_mode_tiny_ring_uses_pipe_fallback():
    """Batches that cannot fit the arrival ring take the marked pipe path
    without reordering against ring traffic."""
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=16)
    serial.add_query("Q", 3.0)
    serial.process_many(DATA.tuples)
    serial.flush()
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=16, ring_capacity=64
    ) as engine:
        engine.add_query("Q", 3.0)
        engine.process_many(DATA.tuples)
        engine.flush()
        assert pairs(engine.results("Q")) == pairs(serial.results("Q"))
