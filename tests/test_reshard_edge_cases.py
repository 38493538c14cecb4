"""Live resharding: planner-driven N changes with keyed state repartitioning.

Covers the reshard edge cases the differential fuzz cannot target
deterministically:

* answer preservation across grow and shrink (including the degenerate
  reshard to N=1), with results delivered *before* the reshard carried
  across the generation change;
* the layering regression: donors with different lazy-purge progress must
  merge into a chain whose slices stay time-layered (old tuples pulled
  shallower, never younger tuples pushed deeper);
* serialization — a reshard must wait for an in-flight admission, and
  re-entering a session migration on the same thread is an error, not a
  deadlock;
* process mode with a dead worker: the shard is respawned and its state
  recovered from the parent-side replay journal (an :class:`ExecutionError`
  only once the respawn budget is spent);
* hot-key skew, where :meth:`ShardPlanner.should_reshard` must *refuse* to
  grow (more shards cannot split one key);
* the keyed extract/ingest primitives at the operator, chain and engine
  layers that the reshard orchestration is built from.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.chain import SlicedJoinChain
from repro.engine.errors import ExecutionError, MigrationError, ShardingError
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.query.predicates import CrossProductCondition, EquiJoinCondition
from repro.runtime import ShardedStreamEngine, ShardPlanner, StreamEngine
from repro.streams.tuples import make_tuple
from tests.conftest import kill_worker

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=8)


def make_stream(count=240, domain=8, spacing=0.02, start=0.0, hot_key=None):
    """A dense, deterministic two-stream arrival sequence."""
    tuples = []
    timestamp = start
    for index in range(count):
        timestamp += spacing
        # Groups of three consecutive (mixed-stream) arrivals share a key, so
        # both streams populate every key and pairs actually join.
        key = hot_key if hot_key is not None else (index // 3) % domain
        tuples.append(
            make_tuple(
                "A" if index % 2 == 0 else "B",
                timestamp,
                join_key=key,
                value=(index * 7919) % 100 / 100.0,
            )
        )
    return tuples


def pairs(results):
    return sorted((j.left.seqno, j.right.seqno) for j in results)


def run_with_reshards(tuples, schedule, shards=2, batch_size=8, probe="nested_loop"):
    """One single engine and one sharded engine over the same stream, with
    the sharded one resharding per ``schedule`` ({arrival index: target N})."""
    single = StreamEngine(CONDITION, batch_size=batch_size, probe=probe)
    sharded = ShardedStreamEngine(
        CONDITION, shards=shards, batch_size=batch_size, probe=probe
    )
    for engine in (single, sharded):
        engine.add_query("Q", 2.0)
        engine.add_query("R", 0.9)
    events = []
    for index, tup in enumerate(tuples):
        if index in schedule:
            events.append(sharded.reshard(schedule[index]))
        single.process(tup)
        sharded.process(tup)
    single.flush()
    sharded.flush()
    return single, sharded, events


# ---------------------------------------------------------------------------
# Answer preservation
# ---------------------------------------------------------------------------
def test_grow_preserves_answers():
    tuples = make_stream()
    single, sharded, events = run_with_reshards(
        tuples, {len(tuples) // 2: 4}, shards=2
    )
    assert sharded.shards == 4
    assert [e.new_shards for e in events] == [4]
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))
    assert sharded.states_are_disjoint()
    assert sharded.shard_boundaries() == [sharded.boundaries] * 4


def test_shrink_to_one_is_the_degenerate_single_engine():
    tuples = make_stream()
    single, sharded, events = run_with_reshards(
        tuples, {len(tuples) // 3: 1}, shards=3
    )
    assert sharded.shards == 1
    assert events[0].old_shards == 3 and events[0].new_shards == 1
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))
    # One shard holds the whole window state again.
    assert sharded.state_size() == sharded.shard_engines[0].state_size()


def test_grow_then_shrink_mid_stream():
    tuples = make_stream(count=300)
    single, sharded, events = run_with_reshards(
        tuples, {100: 4, 200: 2}, shards=1
    )
    assert [e.new_shards for e in events] == [4, 2]
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))


def test_hash_probe_indexes_survive_resharding():
    tuples = make_stream()
    single, sharded, _ = run_with_reshards(
        tuples, {80: 3, 160: 2}, shards=2, probe="hash"
    )
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))


def test_lazy_purge_donors_merge_into_layered_slices():
    """Regression: donors at different purge progress must re-layer.

    Keys are chosen so one shard sees long idle gaps (its purge clock lags)
    while the other stays busy; a naive per-slice merge then leaves a stale
    tuple ordered behind younger ones and an unchecked slice emits a
    too-old pair.
    """
    tuples = []
    timestamp = 0.0
    for index in range(300):
        # Bursty key pattern: long runs of one key starve the other shard.
        key = (index // 25) % 8
        timestamp += 0.02
        tuples.append(
            make_tuple(
                "A" if index % 2 == 0 else "B",
                timestamp,
                join_key=key,
                value=0.5,
            )
        )
    single, sharded, _ = run_with_reshards(tuples, {150: 1, 225: 3}, shards=4)
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))


# ---------------------------------------------------------------------------
# Carryover and accounting
# ---------------------------------------------------------------------------
def test_results_delivered_before_the_reshard_are_carried():
    tuples = make_stream()
    half = len(tuples) // 2
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    sharded.process_many(tuples[:half])
    sharded.flush()
    before = pairs(sharded.results("Q"))
    assert before  # the pre-reshard generation delivered something
    event = sharded.reshard(4)
    assert event.carried_results == len(before)
    assert pairs(sharded.results("Q")) == before  # nothing lost at the cut
    sharded.process_many(tuples[half:])
    sharded.flush()
    popped = sharded.pop_results("Q")
    assert pairs(popped)[: len(before)] != []  # carryover included in the pop
    assert sharded.results("Q") == []  # and cleared with it


def test_remove_query_returns_carried_results():
    tuples = make_stream()
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    sharded.process_many(tuples[:120])
    sharded.flush()
    delivered = pairs(sharded.results("Q"))
    sharded.reshard(3)
    assert pairs(sharded.remove_query("Q")) == delivered


def test_reshard_event_and_metrics_accounting():
    tuples = make_stream()
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    sharded.process_many(tuples[:120])
    sharded.flush()
    resident = sharded.state_size()
    event = sharded.reshard(4, reason="test")
    assert event.resident_tuples == resident
    assert 0 < event.moved_tuples <= event.resident_tuples
    assert sharded.state_size() == resident  # repartitioned, not dropped
    assert sharded.reshard_events == [event]
    snapshot = sharded.merged_snapshot()
    assert snapshot["reshard.count"] == 1.0
    assert snapshot["reshard.moved"] == float(event.moved_tuples)
    # Counters of the retired generation are still in the merged view.
    assert snapshot["ingested.total"] == 120.0
    # Arrivals survive in the aggregated EngineStats too.
    assert sharded.stats.arrivals == 120


def test_statistics_epoch_resets_at_the_reshard():
    tuples = make_stream(count=240, spacing=0.02)  # 4.8 stream-seconds
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    sharded.process_many(tuples[:120])
    sharded.flush()
    event = sharded.reshard(4)
    sharded.process_many(tuples[120:])
    sharded.flush()
    stats = sharded.merged_statistics()
    # Rates are measured under the new modulus only: the estimation window
    # opens at the reshard's stream time, not at the session start.
    assert stats.window == pytest.approx(
        tuples[-1].timestamp - event.stream_time, rel=0.05
    )
    assert stats.sample_arrivals == 120


def test_noop_reshard_is_not_recorded():
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    tuples = make_stream(count=40)
    sharded.process_many(tuples)
    sharded.flush()
    event = sharded.reshard(2)
    assert event.old_shards == event.new_shards == 2
    assert event.resident_tuples == 0
    # Even a no-op reports the actual stream time of the (attempted) cut.
    assert event.stream_time == pytest.approx(tuples[-1].timestamp)
    assert sharded.reshard_events == []
    assert sharded.metrics.reshards == 0


def test_reshard_target_must_be_a_whole_number():
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    with pytest.raises(ShardingError, match="whole number"):
        sharded.reshard("auto")  # the CLI flag value, passed through raw
    with pytest.raises(ShardingError, match="whole number"):
        sharded.reshard(2.5)
    assert sharded.reshard(3.0).new_shards == 3  # integral floats are fine


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------
def test_reshard_rejects_unpartitionable_targets():
    non_equi = ShardedStreamEngine(CrossProductCondition(), shards=1)
    non_equi.add_query("Q", 1.0)
    with pytest.raises(ShardingError, match="equi-key"):
        non_equi.reshard(2)
    counts = ShardedStreamEngine(CONDITION, shards=1, window_kind="count")
    counts.add_query("Q", 5)
    with pytest.raises(ShardingError, match="count windows"):
        counts.reshard(2)
    sharded = ShardedStreamEngine(CONDITION, shards=2)
    with pytest.raises(ShardingError, match="at least 1"):
        sharded.reshard(0)


def test_reshard_waits_for_an_inflight_admission():
    """Admissions and reshards serialize: the reshard must observe either
    no admission or a fully fanned-out one, never half of one."""
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    sharded.process_many(make_stream(count=60))
    entered = threading.Event()
    release = threading.Event()
    original = sharded.shard_engines[1].add_query

    def slow_add(name, window, **kwargs):
        entered.set()
        assert release.wait(5), "test deadlock: admission never released"
        return original(name, window, **kwargs)

    sharded.shard_engines[1].add_query = slow_add
    admission = threading.Thread(target=sharded.add_query, args=("R", 0.9))
    admission.start()
    assert entered.wait(5)
    finished = []
    resharder = threading.Thread(
        target=lambda: finished.append(sharded.reshard(4))
    )
    resharder.start()
    time.sleep(0.2)
    # The admission still holds the session lock: the reshard is waiting.
    assert not finished
    release.set()
    admission.join(5)
    resharder.join(5)
    assert finished and sharded.shards == 4
    # The admission fanned out fully before the reshard ran.
    assert {q.name for q in sharded.queries()} == {"Q", "R"}
    assert sharded.shard_boundaries() == [sharded.boundaries] * 4


def test_reentrant_migration_raises_instead_of_deadlocking():
    sharded = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    sharded.add_query("Q", 2.0)
    caught = []
    original = sharded.shard_engines[0].add_query

    def reentrant_add(name, window, **kwargs):
        try:
            sharded.reshard(3)
        except MigrationError as exc:
            caught.append(exc)
        return original(name, window, **kwargs)

    sharded.shard_engines[0].add_query = reentrant_add
    sharded.add_query("R", 0.9)
    assert caught, "re-entrant reshard should raise MigrationError"
    assert sharded.shards == 2  # the inner reshard did not run


def test_process_mode_reshard_matches_serial():
    tuples = make_stream(count=160)
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    serial.add_query("Q", 2.0)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=8
    ) as procs:
        procs.add_query("Q", 2.0)
        for index, tup in enumerate(tuples):
            if index == 60:
                serial.reshard(3)
                procs.reshard(3)
            if index == 120:
                serial.reshard(1)
                procs.reshard(1)
            serial.process(tup)
            procs.process(tup)
        assert pairs(procs.results("Q")) == pairs(serial.results("Q"))
        assert procs.shards == 1


def test_process_mode_reshard_with_a_dead_worker_recovers():
    # A worker killed mid-stream no longer poisons the session: the reshard
    # path respawns it, recovers its state and undelivered results from the
    # parent-side replay journal, and the migration proceeds answer-intact.
    tuples = make_stream(count=160)
    serial = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    serial.add_query("Q", 2.0)
    serial.process_many(tuples)
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=8
    ) as engine:
        engine.add_query("Q", 2.0)
        engine.process_many(tuples[:80])
        engine.flush()
        kill_worker(engine, 0)
        event = engine.reshard(3)
        assert event.new_shards == 3
        engine.process_many(tuples[80:])
        assert pairs(engine.results("Q")) == pairs(serial.results("Q"))
        assert engine.metrics.respawns == 1


def test_process_mode_worker_death_exhausts_its_respawn_budget():
    with ShardedStreamEngine(
        CONDITION, shards=2, shard_mode="process", batch_size=8, max_respawns=0
    ) as engine:
        engine.add_query("Q", 2.0)
        engine.process_many(make_stream(count=40))
        engine.flush()
        kill_worker(engine, 0)
        with pytest.raises(ExecutionError, match="shard 0"):
            engine.flush()
    # close() after the failure is clean (the context manager just ran it).


# ---------------------------------------------------------------------------
# The planner policy
# ---------------------------------------------------------------------------
def planner(**overrides):
    settings = dict(
        max_shards=4,
        target_rate_per_shard=20.0,
        skew_threshold=1.5,
        window=0.4,
        hysteresis=2,
        cooldown=1.0,
        min_arrivals=16,
    )
    settings.update(overrides)
    return ShardPlanner(**settings)


def drive(engine, tuples, policy, every=16):
    decisions = []
    for index, tup in enumerate(tuples):
        engine.process(tup)
        if index % every == every - 1:
            decisions.append(policy.should_reshard(engine))
    return decisions


def test_should_reshard_recommends_growth_under_load():
    # 0.01s spacing = 100 arrivals/s against a 20/s-per-shard target.
    tuples = make_stream(count=300, spacing=0.01)
    engine = ShardedStreamEngine(CONDITION, shards=1, batch_size=8)
    engine.add_query("Q", 1.0)
    policy = planner()
    decisions = drive(engine, tuples, policy)
    fired = [d for d in decisions if d.reshard]
    assert fired, "sustained overload must eventually fire"
    assert fired[0].target > 1
    # Hysteresis: the first over-target window did not fire on its own.
    first_over = next(i for i, d in enumerate(decisions) if d.plan is not None)
    assert not decisions[first_over].reshard


def test_should_reshard_refuses_to_grow_under_hot_key_skew():
    tuples = make_stream(count=300, spacing=0.01, hot_key=5)
    engine = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    engine.add_query("Q", 1.0)
    policy = planner(hysteresis=1)
    decisions = drive(engine, tuples, policy)
    refusals = [
        d for d in decisions if d.plan is not None and d.plan.skewed
    ]
    assert refusals, "a single hot key must register as skew"
    assert all(not d.reshard for d in refusals)
    assert any("hot-key" in d.reason for d in refusals)
    assert engine.shards == 2


def test_should_reshard_holds_on_unpartitionable_sessions():
    """The auto-resize loop must hold, not crash, on a legal shards=1
    session whose condition/window kind cannot be partitioned."""
    tuples = make_stream(count=300, spacing=0.01)
    engine = ShardedStreamEngine(CrossProductCondition(), shards=1, batch_size=8)
    engine.add_query("Q", 1.0)
    policy = planner(hysteresis=1)
    for index, tup in enumerate(tuples):
        engine.process(tup)
        if index % 16 == 15:
            assert policy.maybe_reshard(engine) is None  # never throws
    holds = [d for d in policy.decisions if "not partitionable" in d.reason]
    assert holds, "the overloaded session must explain why it cannot grow"
    assert engine.shards == 1


def test_should_reshard_cooldown_bounds_the_frequency():
    tuples = make_stream(count=400, spacing=0.01)
    engine = ShardedStreamEngine(CONDITION, shards=1, batch_size=8)
    engine.add_query("Q", 1.0)
    policy = planner(hysteresis=1, cooldown=100.0, max_shards=8)
    fired = 0
    for index, tup in enumerate(tuples):
        engine.process(tup)
        if index % 16 == 15:
            decision = policy.should_reshard(engine)
            if decision.reshard:
                engine.reshard(decision.target, reason=decision.reason)
                fired += 1
    assert fired <= 1, "the cooldown must bound the reshard frequency"


def test_plan_reports_its_measured_modulus():
    engine = ShardedStreamEngine(CONDITION, shards=2, batch_size=8)
    engine.add_query("Q", 1.0)
    engine.process_many(make_stream(count=120))
    plan = ShardPlanner().plan(engine)
    assert plan.measured_shards == 2
    assert "measured under modulus 2" in plan.describe()
    engine.reshard(3)
    plan = ShardPlanner().plan(engine)
    assert plan.measured_shards == 3


# ---------------------------------------------------------------------------
# The extract/ingest primitives
# ---------------------------------------------------------------------------
def test_operator_extract_and_ingest_by_key_predicate():
    join = SlicedBinaryJoin(0.0, 2.0, CONDITION, probe="hash")
    tuples = make_stream(count=40, spacing=0.01)
    for tup in tuples:
        join.process(tup, "left" if tup.stream == "A" else "right")
    before = {s: join.state_tuples(s) for s in ("A", "B")}
    taken = {
        s: join.extract_state(s, lambda t: t["join_key"] % 2 == 0)
        for s in ("A", "B")
    }
    for stream in ("A", "B"):
        assert all(t["join_key"] % 2 == 0 for t in taken[stream])
        assert all(t["join_key"] % 2 == 1 for t in join.state_tuples(stream))
        # Ingest splices them back in (timestamp, seqno) order.
        assert join.ingest_state(stream, taken[stream]) == len(taken[stream])
        assert join.state_tuples(stream) == before[stream]
    # The rebuilt hash index still probes correctly.
    probe = make_tuple("A", 2.0, join_key=tuples[-1]["join_key"], value=0.0)
    emitted = [e for e in join.process(probe, "left") if e[0] == "output"]
    expected = [
        t
        for t in join.state_tuples("B")
        if t["join_key"] == probe["join_key"] and probe.timestamp - t.timestamp < 2.0
    ]
    assert len(emitted) == len(expected)


def test_chain_ingest_requires_matching_boundaries():
    chain = SlicedJoinChain([0, 1, 2], CONDITION)
    donor = SlicedJoinChain([0, 2], CONDITION)
    donor.process_all(make_stream(count=20, spacing=0.01))
    state = donor.extract_keyed_state()
    assert donor.state_size() == 0
    with pytest.raises(MigrationError, match="identical boundaries"):
        chain.ingest_keyed_state(state)


# ---------------------------------------------------------------------------
# Memory-budgeted sessions: per-shard spill budgets across reshards
# ---------------------------------------------------------------------------
def test_reshard_resplits_the_spill_budget_and_deletes_retired_segments():
    import os

    tuples = make_stream(count=300)
    single = StreamEngine(CONDITION, batch_size=8)
    sharded = ShardedStreamEngine(
        CONDITION, shards=2, batch_size=8, memory_budget_bytes=8192
    )
    assert sharded.per_shard_memory_budget == 8192 // 2
    for engine in (single, sharded):
        engine.add_query("Q", 2.0)
        engine.add_query("R", 0.9)
    retired_dirs: list[str] = []
    for index, tup in enumerate(tuples):
        if index == 120:
            # Capture the retiring generation's segment stores, then grow:
            # the session budget must be re-split under the new modulus.
            retired_dirs = [
                engine._spill_store.directory
                for engine in sharded.shard_engines
                if engine._spill_store is not None
                and engine._spill_store.directory is not None
            ]
            sharded.reshard(4)
            assert sharded.per_shard_memory_budget == 8192 // 4
            assert [e.memory_budget_bytes for e in sharded.shard_engines] == (
                [8192 // 4] * 4
            )
        if index == 220:
            sharded.reshard(1)
            # The degenerate single shard gets the whole session budget back.
            assert sharded.per_shard_memory_budget == 8192
        single.process(tup)
        sharded.process(tup)
    single.flush()
    sharded.flush()
    for name in ("Q", "R"):
        assert pairs(sharded.results(name)) == pairs(single.results(name))
    # The tight budget forced the first generation to spill, and the reshard
    # deleted its segment directories at the export cut (state crosses the
    # generation change materialized, never as segment files).
    assert retired_dirs, "the 4096 B/shard budget should have forced spilling"
    for directory in retired_dirs:
        assert not os.path.exists(directory)
    assert [e.memory_budget_bytes for e in sharded.shard_engines] == [8192]
    sharded.close()
