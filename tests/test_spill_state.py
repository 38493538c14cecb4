"""Unit tests for the tiered window-state primitives (PR 8).

The differential fuzz and benchmark suites exercise spilling end-to-end;
this file pins the primitives in isolation: budget parsing, the
deque-compatible :class:`SpilledState` surface, the per-segment key
index, store cleanup, and the engine-level eviction/accounting contract
(``tests/test_slice_state_protocol.py`` drives the whole state protocol
against a model, together with the in-core state).
"""

from __future__ import annotations

import os

import pytest

from repro.engine.columns import ProbeBinding
from repro.engine.spill import (
    SpilledState,
    SpillStore,
    parse_memory_budget,
)
from repro.query.predicates import EquiJoinCondition, selectivity_join
from repro.runtime import StreamEngine
from repro.runtime.engine import QueryError
from repro.streams.tuples import StreamTuple


#: A state of left ("A") tuples under an equi-join gets the segment key
#: index; under a non-equi condition every probe is a full scan.
KEYED = ProbeBinding(
    EquiJoinCondition("join_key", "join_key", key_domain=8), stores_left=True, equi=True
)
UNKEYED = ProbeBinding(selectivity_join(0.5), stores_left=True)


def make_tuples(count, stream="A", key_domain=4, spacing=0.01):
    return [
        StreamTuple(stream, i * spacing, {"join_key": i % key_domain, "seq": i})
        for i in range(count)
    ]


# -- parse_memory_budget -------------------------------------------------------


def test_parse_memory_budget_accepts_suffixes_and_plain_bytes():
    assert parse_memory_budget(None) is None
    assert parse_memory_budget(4096) == 4096
    assert parse_memory_budget("4096") == 4096
    assert parse_memory_budget("64K") == 64 * 1024
    assert parse_memory_budget("64KB") == 64 * 1024
    assert parse_memory_budget(" 2m ") == 2 * 1024**2
    assert parse_memory_budget("1G") == 1024**3


@pytest.mark.parametrize("bad", ["", "nonsense", "12Q", "-4K", 0, -1])
def test_parse_memory_budget_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_memory_budget(bad)


# -- SpilledState deque compatibility ------------------------------------------


def test_spilled_state_preserves_order_across_tiers():
    store = SpillStore()
    data = make_tuples(300)
    state = SpilledState(store, KEYED, data[:200], flush_rows=64)
    for tup in data[200:]:
        state.append(tup)
    assert len(state) == 300
    assert list(state) == data
    assert state[0] is data[0] or state[0].seqno == data[0].seqno
    assert state[-1].seqno == data[-1].seqno
    assert state.popleft().seqno == data[0].seqno
    assert len(state) == 299
    store.close()


def test_spilled_state_getitem_bounds():
    store = SpillStore()
    state = SpilledState(store, UNKEYED, make_tuples(10), flush_rows=4)
    with pytest.raises(IndexError):
        state[10]
    with pytest.raises(IndexError):
        state[-11]
    assert state[-1].seqno == state[9].seqno
    store.close()


def test_spilled_state_purge_matches_in_core_scan():
    store = SpillStore()
    data = make_tuples(100, spacing=0.1)  # timestamps 0.0 .. 9.9
    state = SpilledState(store, KEYED, data, flush_rows=16)
    purged, comparisons = state.purge(now=10.0, end=5.0)
    # now - t >= 5.0  <=>  t <= 5.0  <=>  the first 51 tuples.
    assert [t.seqno for t in purged] == [t.seqno for t in data[:51]]
    assert comparisons == 52  # one per purged head + the failing check
    assert len(state) == 49
    # A second purge with the same clock is a no-op costing one check.
    purged, comparisons = state.purge(now=10.0, end=5.0)
    assert purged == [] and comparisons == 1
    store.close()


def test_spilled_state_probe_uses_key_index():
    store = SpillStore()
    data = make_tuples(256, key_domain=8)
    state = SpilledState(store, KEYED, data, flush_rows=64)
    before = store.cold_reads
    probing = StreamTuple("B", 9.0, {"join_key": 3})
    hits, comparisons = state.probe(probing)
    assert [t.seqno for t in hits] == [t.seqno for t in data if t.values["join_key"] == 3]
    # The index decoded only the matching bucket, not the full state.
    assert comparisons == len(hits) == store.cold_reads - before
    # A probing tuple without the key attribute falls back to a full scan.
    assert len(state.candidates(StreamTuple("B", 9.0, {}))) == 256
    # An unhashable key degrades gracefully to the scan path.
    assert len(state.candidates(StreamTuple("B", 9.0, {"join_key": []}))) == 256
    # Without an equi-join there is no index: every probe scans everything.
    unkeyed = SpilledState(store, UNKEYED, data, flush_rows=64)
    _, comparisons = unkeyed.probe(probing)
    assert comparisons == 256
    store.close()


def test_spill_store_close_removes_segment_directory():
    store = SpillStore()
    assert store.directory is None  # lazy: no tempdir until a segment exists
    state = SpilledState(store, UNKEYED, make_tuples(48), flush_rows=16)
    for tup in make_tuples(48):
        state.append(tup)  # three more flushes of 16 rows each
    directory = store.directory
    assert directory is not None and os.path.isdir(directory)
    assert store.segments_written >= 4
    assert state.memory_bytes(256)[1] > 0
    store.close()
    assert not os.path.exists(directory)
    store.close()  # idempotent


# -- engine-level budget contract ----------------------------------------------


def test_engine_rejects_non_positive_budget():
    condition = EquiJoinCondition("join_key", "join_key", key_domain=4)
    with pytest.raises(QueryError):
        StreamEngine(condition, memory_budget_bytes=0)
    with pytest.raises(QueryError):
        StreamEngine(condition, memory_budget_bytes=-1)


def test_budgeted_engine_matches_unbudgeted_and_accounts_tiers():
    condition = EquiJoinCondition("join_key", "join_key", key_domain=6)
    tuples = sorted(
        make_tuples(240, stream="A", key_domain=6, spacing=0.02)
        + make_tuples(240, stream="B", key_domain=6, spacing=0.02),
        key=lambda t: (t.timestamp, t.seqno),
    )

    def run(budget):
        engine = StreamEngine(
            condition, batch_size=16, memory_budget_bytes=budget
        )
        engine.add_query("Q", 2.0)
        engine.add_query("R", 0.7)
        engine.process_many(tuples)
        engine.flush()
        pairs = sorted((j.left.seqno, j.right.seqno) for j in engine.results("Q"))
        snapshot = engine.metrics.snapshot()
        engine.close()
        return pairs, snapshot

    baseline, base_snap = run(None)
    budgeted, snap = run(2048)
    assert budgeted == baseline
    assert base_snap["memory.spilled_bytes"] == 0.0
    assert base_snap["memory.resident_bytes"] > 0.0
    assert snap["observations.spill.evictions"] > 0
    assert snap["observations.spill.segments"] > 0
    assert snap["memory.max_resident_bytes"] < base_snap["memory.max_resident_bytes"]


def test_engine_close_releases_spill_store():
    condition = EquiJoinCondition("join_key", "join_key", key_domain=4)
    engine = StreamEngine(condition, batch_size=16, memory_budget_bytes=1024)
    # Two windows so the chain has a cold tail slice (the head never spills).
    engine.add_query("Q", 3.0)
    engine.add_query("R", 0.5)
    engine.process_many(
        sorted(
            make_tuples(150, stream="A") + make_tuples(150, stream="B"),
            key=lambda t: (t.timestamp, t.seqno),
        )
    )
    store = engine._spill_store
    assert store is not None and store.directory is not None
    directory = store.directory
    engine.close()
    assert not os.path.exists(directory)
    assert engine._spill_store is None
