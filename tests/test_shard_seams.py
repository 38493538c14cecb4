"""Tests for the seams of the sharded runtime that carry no shard mode.

* :func:`repro.runtime.shard_worker.run_command` — the one command table
  both shard handles execute: every command is driven directly against a
  plain :class:`StreamEngine`, plus the unknown-command error and the
  ``("ok" | "error", …)`` wire form of :func:`reply_to`.
* :func:`repro.runtime.partition.repartition` — the data half of a live
  reshard, property-tested as a pure function: donors at different
  lazy-purge depths in; tuples preserved, correctly bucketed and correctly
  layered out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import ExecutionError
from repro.engine.metrics import MetricsSnapshot
from repro.query.predicates import EquiJoinCondition, attribute_gt
from repro.runtime.engine import EngineStats
from repro.runtime.partition import repartition, shard_for_key
from repro.runtime.shard_worker import COMMANDS, ShardConfig, reply_to, run_command
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import make_tuple

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=24)
DATA = generate_join_workload(rate_a=30, rate_b=30, duration=4.0, seed=5)


def pairs(results):
    return sorted((j.left.seqno, j.right.seqno) for j in results)


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------
def test_run_command_covers_the_whole_table():
    config = ShardConfig(condition=CONDITION)
    engine = config.build()
    reference = config.build()
    exercised = set()

    def run(command, payload=None):
        exercised.add(command)
        return run_command(engine, command, payload)

    selection = attribute_gt("value", 0.4, selectivity=0.6)
    assert run("add", ("big", 3.0, None, None)) is None
    assert run("state", "boundaries") == (0.0, 3.0)
    assert run("add", ("small", 1.0, selection, None)) is None
    assert run("state", "boundaries") == (0.0, 1.0, 3.0)
    reference.add_query("big", 3.0)
    reference.add_query("small", 1.0, left_filter=selection)
    half = len(DATA.tuples) // 2
    engine.process_many(DATA.tuples[:half])
    reference.process_many(DATA.tuples[:half])

    # results / pop / pop_all drain buffered arrivals and agree with the engine API
    assert pairs(run("results", "big")) == pairs(reference.results("big"))
    assert pairs(run("pop", "big")) == pairs(reference.pop_results("big"))
    assert run("results", "big") == []
    popped = run("pop_all", ["big", "small"])
    assert popped["big"] == []
    assert pairs(popped["small"]) == pairs(reference.pop_results("small"))

    # sync / snapshot / state are barriers: the buffered tail is ingested first
    engine.process_many(DATA.tuples[half : half + 5])
    reference.process_many(DATA.tuples[half : half + 5])
    reference.flush()
    assert run("sync") is None
    snapshot = run("snapshot")
    assert isinstance(snapshot, MetricsSnapshot)
    assert snapshot["ingested.total"] == half + 5
    stats = run("state", "stats")
    assert isinstance(stats, EngineStats) and stats.arrivals == half + 5
    assert run("state", "boundaries") == (0.0, 1.0, 3.0)
    assert run("state", "slice_count") == 2
    assert run("state", "state_size") == reference.state_size() > 0
    assert run("state", "states_are_disjoint") is True
    assert run("state", "describe") == reference.describe()
    with pytest.raises(ExecutionError, match="unknown shard state field"):
        run("state", "_pending")

    # remove hands back the results; the removal shrank the chain
    engine.process_many(DATA.tuples[half + 5 :])
    reference.process_many(DATA.tuples[half + 5 :])
    removed = run("remove", "small")
    assert pairs(removed) == pairs(reference.remove_query("small"))
    assert run("state", "boundaries") == reference.boundaries == (0.0, 3.0)

    # export strips the engine; the admissions + ingest rebuild it elsewhere
    export = run("export", ["big"])
    assert set(export) == {"state", "results", "stats", "snapshot"}
    assert pairs(export["results"]["big"]) == pairs(reference.pop_results("big"))
    assert engine.state_size() == 0
    heir = config.build()
    assert run_command(heir, "add", ("big", 3.0, None, None)) is None
    assert run_command(heir, "state", "boundaries") == (0.0, 3.0)
    run_command(heir, "ingest", export["state"])
    exercised.add("ingest")
    assert heir.state_size() == reference.state_size()

    assert exercised == set(COMMANDS), "a command of the table was not driven"
    assert len(COMMANDS) == 10


def test_unknown_command_and_the_wire_form_of_errors():
    engine = ShardConfig(condition=CONDITION).build()
    with pytest.raises(ExecutionError, match="unknown shard command 'frobnicate'"):
        run_command(engine, "frobnicate")
    assert reply_to(engine, "frobnicate") == (
        "error",
        "ExecutionError: unknown shard command 'frobnicate'",
    )
    assert reply_to(engine, "add", ("Q", 2.0, None, None)) == ("ok", None)
    status, text = reply_to(engine, "add", ("Q", 2.0, None, None))
    assert status == "error" and text.startswith("QueryError: ")
    status, text = reply_to(engine, "pop", "missing")
    assert status == "error" and "no registered query named 'missing'" in text


# ---------------------------------------------------------------------------
# repartition(): the keyed re-bucketing of a live reshard
# ---------------------------------------------------------------------------
STREAMS = ("A", "B")
KEY_ATTRS = {"A": "join_key", "B": "join_key"}


def order_key(tup):
    return (tup.timestamp, tup.seqno)


@st.composite
def donor_generations(draw):
    """Donor shards of one generation, each at its own lazy-purge depth.

    Every donor's state is internally consistent (each slice's tuples in
    arrival order, every tuple of slice k+1 older than every tuple of slice
    k), but *where* a donor cut its timeline into slices is drawn per donor
    and stream — one donor may still hold in slice 0 what another has long
    purged down to slice 2.
    """
    donors = draw(st.integers(min_value=1, max_value=4))
    slice_count = draw(st.integers(min_value=1, max_value=4))
    arrivals = draw(
        st.lists(
            st.tuples(
                st.sampled_from(STREAMS),
                st.integers(min_value=0, max_value=40),  # timestamp ticks (ties allowed)
                st.integers(min_value=0, max_value=15),  # join key
            ),
            max_size=60,
        )
    )
    tuples = [
        make_tuple(stream, tick / 4.0, join_key=key, value=0.5)
        for stream, tick, key in sorted(arrivals, key=lambda a: a[1])
    ]
    exports = []
    for donor in range(donors):
        state = [{stream: [] for stream in STREAMS} for _ in range(slice_count)]
        for stream in STREAMS:
            mine = [
                tup
                for tup in tuples
                if tup.stream == stream
                and shard_for_key(tup["join_key"], donors) == donor
            ]
            # slice_count - 1 cut positions over the oldest-first timeline:
            # the oldest run is the deepest slice.
            cuts = sorted(
                draw(st.integers(min_value=0, max_value=len(mine)))
                for _ in range(slice_count - 1)
            )
            bounds = [0, *cuts, len(mine)]
            for rank in range(slice_count):
                depth = slice_count - 1 - rank
                state[depth][stream] = mine[bounds[rank] : bounds[rank + 1]]
        exports.append(state)
    target = draw(st.integers(min_value=1, max_value=5))
    return exports, target, slice_count


@settings(max_examples=120, deadline=None)
@given(donor_generations())
def test_repartition_preserves_buckets_and_layers(generation):
    exports, target, slice_count = generation
    donor_of = {}
    depth_of = {}
    for donor, state in enumerate(exports):
        for depth, entry in enumerate(state):
            for tuples in entry.values():
                for tup in tuples:
                    donor_of[tup.seqno] = donor
                    depth_of[tup.seqno] = depth

    buckets, moved, resident = repartition(exports, target, KEY_ATTRS, STREAMS)

    assert len(buckets) == target
    assert all(len(bucket) == slice_count for bucket in buckets)
    placed = {}
    for index, bucket in enumerate(buckets):
        for depth, entry in enumerate(bucket):
            assert set(entry) == set(STREAMS)
            for stream, tuples in entry.items():
                for tup in tuples:
                    assert tup.seqno not in placed, "a tuple was duplicated"
                    placed[tup.seqno] = (index, depth)
                    assert tup.stream == stream
                    # every tuple sits in the bucket its key hashes to
                    assert index == shard_for_key(tup["join_key"], target)
                    # pulled shallower at most, never pushed deeper
                    assert depth <= depth_of[tup.seqno]
    # the multiset of tuples is preserved
    assert sorted(placed) == sorted(donor_of)
    assert resident == len(donor_of)
    assert moved == sum(
        1 for seqno, (index, _) in placed.items() if index != donor_of[seqno]
    )
    # the layering invariant: within a slice arrival order, and all of slice
    # k+1 older than all of slice k
    for bucket in buckets:
        for stream in STREAMS:
            oldest_first = [
                tup for depth in reversed(range(slice_count)) for tup in bucket[depth][stream]
            ]
            assert oldest_first == sorted(oldest_first, key=order_key)


def test_repartition_of_an_idle_generation_is_empty():
    buckets, moved, resident = repartition([[], []], 3, KEY_ATTRS, STREAMS)
    assert buckets == [[], [], []]
    assert (moved, resident) == (0, 0)
