"""What a session asks of its chain kind, pinned for both kinds.

``window_kind`` picks a chain class once (``repro.runtime.engine.CHAIN_KINDS``);
window validation and push-down are facts of that class.  These tests
drive a time and a count session through the calls that used to branch on
the string and pin what each answers — including every count-session
refusal and its message — and hold every session kind to the one chain it
may have: the Mem-Opt chain of its registered windows.  A sharded session
is time-window only and takes no ``window_kind``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import QueryError
from repro.query.predicates import EquiJoinCondition, attribute_gt
from repro.runtime import ShardConfig, ShardedStreamEngine, StreamEngine
from repro.streams.generators import generate_join_workload
from tests.conftest import shard_engines

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=12)
DATA = generate_join_workload(rate_a=20, rate_b=20, duration=4.0, seed=5)
SELECTION = attribute_gt("value", 0.4, selectivity=0.6)

SESSIONS = {
    "time": lambda: StreamEngine(CONDITION),
    "count": lambda: StreamEngine(CONDITION, window_kind="count"),
    "sharded": lambda: ShardedStreamEngine(CONDITION, shards=2),
}


def pairs(results):
    return sorted((j.left.seqno, j.right.seqno) for j in results)


# ---------------------------------------------------------------------------
# Window validation: one rule per chain kind, QueryError only
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", SESSIONS)
@pytest.mark.parametrize(
    "window",
    [float("nan"), float("inf"), float("-inf"), 0, -1.0, -3]
    # ... and what ``float()`` itself rejects (ValueError, TypeError, OverflowError)
    + ["abc", None, pytest.param([4], id="list"), pytest.param(10**400, id="huge-int")],
)
def test_unusable_windows_are_refused_with_query_error(kind, window):
    session = SESSIONS[kind]()
    with pytest.raises(QueryError, match="'bad'"):
        session.add_query("bad", window)
    assert session.queries() == []
    assert session.boundaries == ()


def test_window_refusal_messages():
    time, count = SESSIONS["time"](), SESSIONS["count"]()
    with pytest.raises(QueryError, match="query 'q' has non-positive window -1.0"):
        time.add_query("q", -1)
    with pytest.raises(QueryError, match="query 'q' has non-finite window nan"):
        time.add_query("q", float("nan"))
    for window in (2.5, 0, float("inf")):
        with pytest.raises(
            QueryError, match="query 'q' needs a positive integer count window, got"
        ):
            count.add_query("q", window)
    with pytest.raises(QueryError, match="query 'q' has non-numeric window 'abc'"):
        time.add_query("q", "abc")
    with pytest.raises(
        QueryError, match="query 'q' needs a positive integer count window, got None"
    ):
        count.add_query("q", None)
    assert count.add_query("q", 4.0).window == 4  # whole floats are counts
    with pytest.raises(QueryError, match="window_kind must be 'time' or 'count'"):
        StreamEngine(CONDITION, window_kind="rows")


@pytest.mark.parametrize("kind", SESSIONS)
def test_rejected_admission_leaves_the_session_intact(kind):
    """A refused window reaches no chain (and no shard): the boundaries stay,
    and later admissions and answers are those of a session that never saw it."""
    session, clean = SESSIONS[kind](), SESSIONS[kind]()
    for target in (session, clean):
        target.add_query("Q1", 8)
        target.process_many(DATA.tuples[:60])
    before = session.boundaries
    for window in (float("nan"), float("inf"), -2):
        with pytest.raises(QueryError):
            session.add_query("bad", window)
    assert session.boundaries == before == clean.boundaries
    for target in (session, clean):
        target.add_query("Q2", 4)
        target.process_many(DATA.tuples[60:])
    assert session.boundaries == clean.boundaries == (0, 4, 8)
    assert [query.name for query in session.queries()] == ["Q2", "Q1"]
    for name in ("Q1", "Q2"):
        assert pairs(session.results(name)) == pairs(clean.results(name)) != []
    if kind == "sharded":
        assert session.shard_boundaries() == [(0.0, 4.0, 8.0)] * 2


# ---------------------------------------------------------------------------
# admit -> link_filters -> remove -> describe
# ---------------------------------------------------------------------------
def test_time_session_walk():
    engine = SESSIONS["time"]()
    engine.add_query("Q1", 4.0)
    engine.add_query("Q2", 2.0, left_filter=SELECTION)
    engine.process_many(DATA.tuples[:80])
    assert engine.boundaries == (0.0, 2.0, 4.0)
    # Q1 has no selection, so nothing can be pushed below any slice ...
    assert engine.link_filters() == [(None, None)] * 2
    engine.remove_query("Q1")
    # ... and once every remaining query filters, the entry link does.
    assert engine.boundaries == (0.0, 2.0)
    assert engine.link_filters()[0][0] is not None
    assert engine.describe() == "StreamEngine (Q2[2s]σ) chain: [0, 2)"


def test_count_session_walk_pins_the_refusals():
    engine = SESSIONS["count"]()
    engine.add_query("Q1", 8)
    engine.add_query("Q2", 3, left_filter=SELECTION)
    engine.process_many(DATA.tuples[:80])
    assert engine.boundaries == (0, 3, 8)
    # Selections filter a count query's answers; none is ever pushed down.
    assert all(pair == (None, None) for pair in engine.link_filters())
    engine.remove_query("Q1")
    assert all(pair == (None, None) for pair in engine.link_filters())
    assert engine.describe() == "StreamEngine (Q2[3 rows]σ) chain: [0,3)"


def test_count_sessions_are_refused_more_than_one_shard():
    """A sharded session is time-window only: ``window_kind=`` is no
    argument of it or of its shards' config, whatever the kind."""
    for kind in ("count", "time", "rows"):
        with pytest.raises(TypeError, match="window_kind"):
            ShardedStreamEngine(CONDITION, shards=1, window_kind=kind)
        with pytest.raises(TypeError, match="window_kind"):
            ShardConfig(CONDITION, window_kind=kind)
    assert ShardedStreamEngine(CONDITION, shards=1).reshard(2).new_shards == 2


# ---------------------------------------------------------------------------
# A session's chain is the Mem-Opt chain: admission and removal are the only
# things that move a boundary
# ---------------------------------------------------------------------------
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 6)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("batch"), st.integers(1, 40)),
        st.tuples(st.just("reshard"), st.integers(1, 3)),
    ),
    max_size=14,
)


@pytest.mark.parametrize("kind", SESSIONS)
@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_a_sessions_chain_is_the_mem_opt_chain_of_its_windows(kind, steps):
    """After any sequence of admissions, removals, batches (and reshards of
    the sharded session): one boundary per distinct registered window on the
    session and on every shard, every slice routed to exactly the queries
    whose window reaches its end — no route re-checks a window — and nothing
    ever charged to ``comparisons.route``."""
    session = SESSIONS[kind]()
    sharded = kind == "sharded"
    windows: dict[str, int] = {}
    admitted = fed = 0
    for step, argument in steps:
        if step == "add":
            admitted += 1
            windows[f"Q{admitted}"] = argument
            filtered = SELECTION if admitted % 2 else None
            session.add_query(f"Q{admitted}", argument, left_filter=filtered)
        elif step == "remove" and windows:
            name = sorted(windows)[argument % len(windows)]
            del windows[name]
            session.remove_query(name)
        elif step == "batch":
            session.process_many(DATA.tuples[fed : fed + argument])
            fed += argument
        elif step == "reshard" and sharded:
            session.reshard(argument)
        expected = (0, *sorted(set(windows.values()))) if windows else ()
        assert session.boundaries == expected
        if sharded:
            assert session.shard_boundaries() == [expected] * session.shards
        for engine in shard_engines(session) if sharded else [session]:
            taps = [tap for family_taps, _left, _right in engine._routing for tap in family_taps]
            for index, end in enumerate(expected[1:]):
                tapping = [name for name, last in taps if last >= index]
                assert sorted(tapping) == sorted(
                    name for name, window in windows.items() if window >= end
                )
    snapshot = session.merged_snapshot() if sharded else session.metrics.snapshot()
    assert snapshot.get("comparisons.route", 0.0) == 0
    session.close()
