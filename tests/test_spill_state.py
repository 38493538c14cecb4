"""Unit tests for the tiered window-state primitives (PR 8, PR 19).

The differential fuzz and benchmark suites exercise spilling end-to-end;
this file pins the primitives in isolation: budget parsing, the
deque-compatible :class:`SpilledState` surface, the per-segment key
index, store cleanup, and the engine-level eviction/accounting contract
(``tests/test_slice_state_protocol.py`` drives the whole state protocol
against a model, together with the in-core state) — including the two
bounds a session's tier states (resident estimate, files on disk), for
time and for count windows, and every path that must release its log
(``tests/test_cursor_chain.py`` holds the cold prefix itself to the
per-item reference).
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain import CursorChain
from repro.engine import spill
from repro.engine import columns
from repro.engine.columns import ProbeBinding
from repro.engine.spill import (
    ROW_METADATA_BYTES,
    SpilledState,
    SpillStore,
    parse_memory_budget,
)
from repro.query.predicates import ComparisonPredicate, EquiJoinCondition, selectivity_join
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.runtime.engine import CHAIN_KINDS, QueryError
from repro.streams.tuples import StreamTuple
from tests.conftest import shard_engines


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
    # Scaled first, truncated second: a fraction of a unit is legal.
    assert parse_memory_budget("1.5K") == 1536
    assert parse_memory_budget("0.5M") == 512 * 1024


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
    assert store._directory is None  # lazy: no tempdir until a segment exists
    state = SpilledState(store, UNKEYED, make_tuples(48), flush_rows=16)
    for tup in make_tuples(48):
        state.append(tup)  # three more flushes of 16 rows each
    directory = store._directory
    assert directory is not None and os.path.isdir(directory)
    assert store.segments_written >= 4
    assert state.memory_bytes(256)[1] > 0
    store.close()
    assert not os.path.exists(directory)
    store.close()  # idempotent


# -- SpillLog: both record formats round-trip exactly --------------------------

#: Rows of the layout a log learns (an int key and a float value, in this
#: order) come most often, so runs of fixed-width records form between the
#: rows that must be pickled.
EDGE_INTS = [0, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70]
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]
ODD_VALUES = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.sampled_from(EDGE_INTS),
    st.lists(st.integers(), max_size=2), st.tuples(st.floats()), st.dictionaries(st.text(max_size=1), st.integers()),
)


@st.composite
def log_rows(draw):
    """A row of the log's stream ``A``: ``None`` (no payload), the layout's
    shape (an int key past int64 included), or a payload that is not (a
    ``bool`` key, odd values, missing or reordered attributes, another
    stream, a non-``dict`` mapping, an int timestamp)."""
    kind = draw(st.sampled_from(
        ["fixed"] * 6 + ["none", "flag", "odd", "order", "missing", "stream", "mapping", "stamp"]
    ))
    if kind == "none":
        return None
    key = draw(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(EDGE_INTS)))
    value = draw(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)))
    values = {"join_key": key, "value": value}
    stream, timestamp = "A", draw(st.floats(0, 1e9))
    if kind == "flag":
        values["join_key"] = draw(st.booleans())
    elif kind == "odd":
        values[draw(st.sampled_from(sorted(values)))] = draw(ODD_VALUES)
    elif kind == "order":
        values = {"value": value, "join_key": key}
    elif kind == "missing":
        del values["value"]
    elif kind == "stream":
        stream = "B"
    elif kind == "mapping":
        values = OrderedDict(values)
    elif kind == "stamp":
        timestamp = int(timestamp)
    return StreamTuple(stream, timestamp, values, draw(st.integers(0, 2**63 - 1)))


def exactly(a, b):
    """``a`` and ``b`` are the same value of the same type: floats bit for bit
    (``-0.0``, every NaN), mappings key order included."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, StreamTuple):
        return all(exactly(getattr(a, name), getattr(b, name)) for name in StreamTuple.__slots__)
    if isinstance(a, dict):
        return list(a) == list(b) and all(exactly(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(exactly, a, b))
    return a == b


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(log_rows(), min_size=1, max_size=60),
    chunks=st.lists(st.integers(1, 9), min_size=1, max_size=8),
    first=st.integers(0, 10**6),
    data=st.data(),
)
def test_a_log_reads_back_every_row_exactly_in_either_format(rows, chunks, first, data):
    """Appended in chunks across 96 B segments, every row with a payload reads
    back as appended — type for type, ``-0.0`` and NaN bit for bit, key order
    kept — in any ascending subset, before and after a ``free``; the live
    bytes are the files' bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spill, "LOG_SEGMENT_BYTES", 96)
        patch.setattr(spill, "READ_SPAN_BYTES", 64)  # two 32 B records a span
        store, done, reads = SpillStore(), 0, 0
        log = spill.SpillLog(store)
        while done < len(rows):
            size = chunks[done % len(chunks)]
            log.append(first + done, rows[done : done + size])
            done += size
        held = [first + i for i, row in enumerate(rows) if row is not None]
        for cut in (first, data.draw(st.integers(first, first + len(rows)), label="freed below")):
            log.free(cut)
            kept = [row for row in held if row >= cut]
            wanted = sorted(data.draw(st.sets(st.sampled_from(kept))) if kept else [])
            for ids in (wanted, kept):
                read, reads = log.read(np.array(ids, np.intp)), reads + len(ids)
                assert len(read) == len(ids)
                assert all(exactly(rows[row - first], tup) for row, tup in zip(ids, read))
            files = [os.path.join(store._directory, name) for name in os.listdir(store._directory)]
            oldest = log._segments[0].first if log._segments else None
            assert sum(map(os.path.getsize, files)) == (log.live_bytes(oldest) if files else 0)
        assert store.cold_reads == reads
        store.close()


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
            condition, memory_budget_bytes=budget
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
    engine = StreamEngine(condition, memory_budget_bytes=1024)
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
    assert store is not None and store._directory is not None
    directory = store._directory
    engine.close()
    assert not os.path.exists(directory)
    assert engine._spill_store is None


# -- the tier of a session, time or count windows: bounds asserted, logs released --


def interleaved(count, spacing=0.01, key_domain=4):
    """``count`` arrivals per stream, merged in timestamp order."""
    return sorted(
        make_tuples(count, "A", key_domain, spacing) + make_tuples(count, "B", key_domain, spacing),
        key=lambda t: (t.timestamp, t.seqno),
    )


def spill_files(engine):
    directory = engine._spill_store._directory
    return [os.path.join(directory, name) for name in os.listdir(directory)]


#: Per window kind, two windows holding about the same state: 150 and 40 rows
#: per stream at ``interleaved``'s 100 arrivals a second, 100 and 25 at 50.
WINDOWS = {"time": ((1.5, 0.4), (2.0, 0.5)), "count": ((150, 40), (100, 25))}


@pytest.mark.parametrize(
    "window_kind, budget",
    [pytest.param("time", budget, id=str(budget)) for budget in (1, 2048, 16384)]
    + [pytest.param("count", budget, id=f"count-{budget}") for budget in (1, 2048, 16384)],
)
def test_resident_estimate_stays_within_the_budget_or_the_rows_metadata(window_kind, budget):
    """After every batch: ``resident <= max(budget, stored rows x metadata)``
    — 1 B leaves nothing hot, 2 KiB is outgrown by the metadata alone, 16 KiB
    keeps a hot head."""
    engine = StreamEngine(
        EquiJoinCondition("join_key", "join_key", key_domain=4),
        window_kind=window_kind,
        memory_budget_bytes=budget,
    )
    for name, window in zip("QR", WINDOWS[window_kind][0]):
        engine.add_query(name, window)
    tuples = interleaved(400)
    peak_rows = 0
    for start in range(0, len(tuples), 16):
        engine.process_many(tuples[start : start + 16])
        rows = sum(len(column) for column in engine._chain._columns)
        peak_rows = max(peak_rows, rows)
        resident, spilled = engine._chain.memory_bytes(engine._tuple_bytes)
        assert resident <= max(budget, rows * ROW_METADATA_BYTES)
        assert (resident, spilled) == tuple(
            engine.metrics.snapshot()[f"memory.{tier}_bytes"] for tier in ("resident", "spilled")
        )
    snapshot = engine.metrics.snapshot()
    assert snapshot["memory.max_resident_bytes"] <= max(budget, peak_rows * ROW_METADATA_BYTES)
    assert snapshot["observations.spill.evictions"] >= snapshot["memory.max"]
    engine.close()


def test_a_cold_row_holds_no_object_of_its_own_and_fits_its_metadata_estimate():
    """A cold row's ``refs`` entry is the one shared cold mark (``None``: no
    payload), and its in-core bytes are its entries in the column arrays
    (timestamp, key, ``_died``, a verdict byte per filter) plus a list slot:
    within the ``ROW_METADATA_BYTES`` a budget charges it, with no offsets
    entry, as every record is fixed-width."""
    engine = StreamEngine(
        EquiJoinCondition("join_key", "join_key", key_domain=4), memory_budget_bytes=2048
    )
    some = ComparisonPredicate("join_key", ">=", 1)  # filters a row in four at link 1
    engine.add_query("Q", 1.5, left_filter=some, right_filter=some)
    engine.add_query("R", 0.4)
    engine.process_many(interleaved(400))
    engine.flush()
    for column in engine._chain._columns:
        cold = column._refs[column._head : column._head + column.cold]
        assert column.cold > 100 and None in cold and set(map(id, cold)) == {id(None), id(columns._COLD)}
        assert all(segment.offsets is None for segment in column.log._segments)
        arrays = (column._ts, column._keys, column._died, column._verdicts)
        per_row = sum(array.itemsize * (array.size // len(array)) for array in arrays)
        assert column._verdicts.shape[1] >= 1 and per_row + struct.calcsize("P") <= ROW_METADATA_BYTES
    engine.close()


def test_log_files_never_exceed_live_bytes_plus_a_segment_per_stream(monkeypatch):
    """Over 25 window lengths the files on disk stay within the live spilled
    bytes plus one segment per stream: a segment is unlinked as soon as every
    row in it has been purged off the chain's end — by age or by rank."""
    monkeypatch.setattr(spill, "LOG_SEGMENT_BYTES", 2048)
    tuples = interleaved(2500, spacing=0.02)  # 50 s of stream: 25 windows
    for window_kind, (_, windows) in WINDOWS.items():
        engine = StreamEngine(
            EquiJoinCondition("join_key", "join_key", key_domain=4),
            window_kind=window_kind,
            memory_budget_bytes=4096,
        )
        for name, window in zip("QR", windows):
            engine.add_query(name, window)
        most_files = 0
        for start in range(0, len(tuples), 16):
            engine.process_many(tuples[start : start + 16])
            if engine._spill_store is None:
                continue
            files = spill_files(engine)
            most_files = max(most_files, len(files))
            spilled = engine._chain.memory_bytes(engine._tuple_bytes)[1]
            on_disk = sum(os.path.getsize(path) for path in files)
            # A segment ends within a record of 2 KiB.
            assert spilled <= on_disk <= spilled + 2 * (2048 + 128), window_kind
        store = engine._spill_store
        assert store.segments_written > 10 * most_files, window_kind  # files were retired all along
        assert all(type(column.log) is spill.SpillLog for column in engine._chain._columns)
        engine.close()


def test_every_way_out_releases_the_log(monkeypatch):
    """``drop_tail_slice``, a reload (``ChainColumn.load``: keyed extract and
    ingest), query teardown and ``close()`` each delete the files of the rows
    they discard or re-materialize."""
    monkeypatch.setattr(spill, "LOG_SEGMENT_BYTES", 512)  # 16 of its 32 B records a file
    engine = StreamEngine(
        EquiJoinCondition("join_key", "join_key", key_domain=4),
        memory_budget_bytes=1024,
    )
    tuples = interleaved(300)

    def refill():
        for name, window in (("Q", 2.0), ("R", 0.5)):
            if name not in {query.name for query in engine.queries()}:
                engine.add_query(name, window)
        engine.process_many(tuples)
        engine.flush()
        assert len(spill_files(engine)) > 20 and engine.state_size() > 100

    refill()
    engine.remove_query("Q")  # drop-tail: what stays is the 0.5 s head
    assert all(column.cuts == [0] for column in engine._chain._columns)
    spilled = engine._chain.memory_bytes(engine._tuple_bytes)[1]
    assert spilled <= sum(map(os.path.getsize, spill_files(engine))) <= spilled + 2 * (512 + 128)
    assert len(spill_files(engine)) < 12
    state = engine.extract_keyed_state()  # the export cut of a reshard
    assert spill_files(engine) == [] and engine.state_size() == 0
    assert engine.ingest_keyed_state(state) == sum(map(len, state[0].values()))
    assert spill_files(engine) == []  # loaded hot; the next batch evicts again
    engine.remove_query("R")  # teardown
    assert engine._chain is None and spill_files(engine) == []
    tuples = [StreamTuple(t.stream, t.timestamp + 10.0, t.values) for t in tuples]
    refill()
    directory = engine._spill_store._directory
    engine.close()
    assert not os.path.exists(directory)


def test_budgeted_and_unbudgeted_sessions_build_the_same_chain():
    condition = EquiJoinCondition("join_key", "join_key", key_domain=4)
    for window_kind in ("time", "count"):
        chains = []
        for budget in (None, 4096):
            engine = StreamEngine(condition, window_kind=window_kind, memory_budget_bytes=budget)
            engine.add_query("Q", 1.0)
            chains.append(type(engine._chain))
            engine.close()
        assert chains[0] is chains[1] is CHAIN_KINDS[window_kind]
        assert issubclass(chains[0], CursorChain)


def test_reshard_export_cut_releases_every_retiring_log():
    """A reshard extracts the retiring shards' state as tuples (read through
    ``slices()``) and closes them: no file of the old generation survives,
    and the new generation evicts into stores of its own."""
    condition = EquiJoinCondition("join_key", "join_key", key_domain=8)
    tuples = interleaved(300, key_domain=8)
    reference = StreamEngine(condition)
    sharded = ShardedStreamEngine(condition, shards=2, memory_budget_bytes=4096)
    for engine in (reference, sharded):
        engine.add_query("Q", 1.5)
        engine.process_many(tuples[:400])
    sharded.flush()
    retiring = [engine._spill_store._directory for engine in shard_engines(sharded)]
    assert all(os.listdir(directory) for directory in retiring)
    sharded.reshard(3)
    assert not any(os.path.exists(directory) for directory in retiring)
    for engine in (reference, sharded):
        engine.process_many(tuples[400:])
        engine.flush()
    assert sorted((j.left.seqno, j.right.seqno) for j in sharded.results("Q")) == sorted(
        (j.left.seqno, j.right.seqno) for j in reference.results("Q")
    )
    assert any(engine._spill_store is not None for engine in shard_engines(sharded))
    sharded.close()


def test_a_reshard_export_counts_the_cold_rows_it_reads():
    """The export cut reads every cold row of the retiring shards back into
    tuples; the session's merged snapshot counts those reads as
    ``spill.cold_reads``, as it counts a batch's (the counter lives in each
    shard's collector, and the retired collectors are folded in)."""
    condition = EquiJoinCondition("join_key", "join_key", key_domain=8)
    sharded = ShardedStreamEngine(condition, shards=2, memory_budget_bytes=4096)
    sharded.add_query("Q", 1.5)
    sharded.process_many(interleaved(200, key_domain=8))
    before = sharded.merged_snapshot().get("observations.spill.cold_reads", 0.0)
    cold = sum(
        column._refs[column._head :].count(columns._COLD)
        for engine in shard_engines(sharded)
        for column in engine._chain._columns
    )
    assert cold > 0
    sharded.reshard(3)
    assert sharded.merged_snapshot().get("observations.spill.cold_reads", 0.0) == before + cold
    sharded.close()
