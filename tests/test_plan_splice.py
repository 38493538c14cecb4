"""An admission is a splice: the selection placement and the routing a
session keeps equal a full re-derivation after every step.

``StreamEngine`` updates the σ' of a link, and the residuals behind it, only
where a migration changed the distinct filters reaching that link.  The
reference below is the re-derivation the engine ran after every admission
and removal before: a :class:`~repro.query.query.QueryWorkload` of the
registered queries, ``slice_filter`` per link and ``residual_predicate`` per
(family, slice).  Seeded and Hypothesis schedules of admissions and removals
hold every session kind to it; a counted gate holds the work of one
admission to what it changed, at 192 queries.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.engine as engine_module
from repro.core.pushdown import residual_predicate
from repro.query.predicates import (
    ComparisonPredicate,
    EquiJoinCondition,
    FalsePredicate,
    OrPredicate,
    TruePredicate,
    attribute_gt,
    selectivity_filter,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.streams.generators import generate_join_workload
from tests.conftest import shard_engines

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=12)
DATA = generate_join_workload(rate_a=20, rate_b=20, duration=6.0, seed=11)


# ---------------------------------------------------------------------------
# The reference: the full re-derivation
# ---------------------------------------------------------------------------
def reference_pushed(engine) -> list[tuple] | None:
    """Per link, the ``(left, right)`` σ' of ``QueryWorkload.slice_filter``;
    ``None`` where nothing is pushed (a count chain, or no selection)."""
    chain = engine._chain
    if not chain.pushes_selections or not any(q.has_selection for q in engine._queries.values()):
        return None
    workload = QueryWorkload(
        ContinuousQuery(q.name, q.window, engine.condition, q.left_filter, q.right_filter,
                        engine.left_stream, engine.right_stream)
        for q in engine._queries.values()
    )
    return [
        (workload.slice_filter(start, side="left"), workload.slice_filter(start, side="right"))
        for start in chain.boundaries[:-1]
    ]


def reference_links(engine) -> list[tuple]:
    pushed = reference_pushed(engine)
    if pushed is None:
        return [(None, None)] * engine.slice_count()
    return [tuple(None if isinstance(p, TruePredicate) else p for p in pair) for pair in pushed]


def reference_routing(engine) -> list[tuple]:
    chain = engine._chain
    trivial = TruePredicate()
    pushed = reference_pushed(engine) or [(trivial, trivial)] * chain.slice_count()
    ends = chain.boundaries[1:]
    families: dict = {}
    for query in engine._queries.values():
        families.setdefault((id(query.left_filter), id(query.right_filter)), []).append(query)

    def residual(query_filter, sigma):
        kept = residual_predicate(query_filter, sigma)
        return None if isinstance(kept, TruePredicate) else kept

    return [
        (
            [(q.name, bisect_right(ends, q.window + 1e-9) - 1) for q in members],
            [residual(members[0].left_filter, left) for left, _ in pushed],
            [residual(members[0].right_filter, right) for _, right in pushed],
        )
        for members in families.values()
    ]


def form(predicate):
    """A σ' as compared: an ``OrPredicate`` by its disjuncts, in order (its
    own ``==`` is identity)."""
    if isinstance(predicate, OrPredicate):
        return ("OR", predicate.children)
    return predicate


def assert_matches_reference(session) -> None:
    engines = shard_engines(session) if isinstance(session, ShardedStreamEngine) else [session]
    for engine in engines:
        if not engine._queries:
            assert engine.link_filters() == [] and engine._routing == []
            continue
        installed = [tuple(map(form, pair)) for pair in engine.link_filters()]
        assert installed == [tuple(map(form, pair)) for pair in reference_links(engine)]
        assert engine._routing == reference_routing(engine)


# ---------------------------------------------------------------------------
# Random schedules
# ---------------------------------------------------------------------------
HOT, WARM = attribute_gt("value", 0.7, selectivity=0.3), attribute_gt("value", 0.4, selectivity=0.6)
#: Filter choices: none, shared objects, an equal copy (made one object by the
#: session), an explicit TRUE (kept apart from "none") and a FALSE.
FILTERS = (
    lambda: None,
    lambda: None,
    lambda: HOT,
    lambda: WARM,
    lambda: attribute_gt("value", 0.7, selectivity=0.3),
    lambda: TruePredicate(),
    lambda: FalsePredicate(),
)
TIME_WINDOWS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
COUNT_WINDOWS = (2, 4, 6, 8, 12)


def run_schedule(session, steps: list[tuple], windows) -> None:
    """Apply ``(op, a, b, c)`` steps; check against the reference after each."""
    live: dict[str, float] = {}
    fed = ordinal = 0
    for op, a, b, c in steps:
        if op == "add" or not live:
            name = f"q{ordinal}"
            ordinal += 1
            window = windows[a % len(windows)]
            session.add_query(name, window, left_filter=FILTERS[b % len(FILTERS)](),
                              right_filter=FILTERS[c % len(FILTERS)]())
            live[name] = window
        elif op == "remove":
            names = sorted(live, key=lambda n: (live[n], n))
            # Half the removals take the largest window (a drop-tail when it
            # is the only one at the chain end).
            name = names[-1] if b % 2 else names[a % len(names)]
            del live[name]
            session.remove_query(name)
        elif op == "teardown":
            for name in list(live):
                session.remove_query(name)
            live.clear()
        else:
            session.process_many(DATA.tuples[fed : fed + 8])
            fed += 8
        assert_matches_reference(session)


def random_steps(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    ops = ["add"] * 5 + ["remove"] * 4 + ["batch"] * 2 + ["teardown"]
    return [(rng.choice(ops), *(rng.randrange(64) for _ in range(3))) for _ in range(count)]


SESSIONS = {
    "engine": (lambda: StreamEngine(CONDITION), TIME_WINDOWS),
    "count-engine": (lambda: StreamEngine(CONDITION, window_kind="count"), COUNT_WINDOWS),
    "2-shards": (lambda: ShardedStreamEngine(CONDITION, shards=2), TIME_WINDOWS),
}


@pytest.mark.parametrize("kind", SESSIONS)
@pytest.mark.parametrize("seed", range(6))
def test_seeded_schedules_match_the_full_rederivation(kind, seed):
    make, windows = SESSIONS[kind]
    session = make()
    try:
        run_schedule(session, random_steps(seed, 60), windows)
    finally:
        session.close()


STEP = st.tuples(
    st.sampled_from(["add", "add", "add", "remove", "remove", "batch", "teardown"]),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, max_size=30))
def test_any_schedule_matches_the_full_rederivation(steps):
    session = StreamEngine(CONDITION)
    run_schedule(session, steps, TIME_WINDOWS)


def test_disjuncts_follow_window_order_not_admission_order():
    """A σ' lists its filters by their first carrier past the link's start,
    ``(window, name)`` ascending: admitting a smaller window with a filter
    already present elsewhere reorders a link whose set did not change."""
    engine = StreamEngine(CONDITION)
    engine.add_query("big", 4.0, left_filter=HOT)
    engine.add_query("mid", 3.0, left_filter=WARM)
    assert form(engine.link_filters()[0][0]) == ("OR", (WARM, HOT))
    engine.add_query("small", 2.0, left_filter=HOT)
    assert form(engine.link_filters()[0][0]) == ("OR", (HOT, WARM))
    assert_matches_reference(engine)
    engine.remove_query("small")
    assert form(engine.link_filters()[0][0]) == ("OR", (WARM, HOT))
    assert_matches_reference(engine)


def test_an_unchanged_link_keeps_its_installed_filter():
    """Only the links whose σ' changed get a new ``StreamFilter``."""
    engine = StreamEngine(CONDITION)
    for index, window in enumerate((1.0, 2.0, 3.0, 4.0)):
        engine.add_query(f"q{index}", window, left_filter=HOT if index % 2 else WARM)
    before = list(engine._chain._filters)
    engine.add_query("tail", 5.0, left_filter=WARM)  # a new filter only behind 3 s
    after = engine._chain._filters
    assert [a is b for a, b in zip(before, after)] == [True, True, True, False]
    assert_matches_reference(engine)


def test_an_equal_unhashable_filter_is_shared():
    """A filter that does not hash is found among the registered ones by ``==``."""
    engine = StreamEngine(CONDITION)
    first = ComparisonPredicate("value", ">", [0.5])
    engine.add_query("a", 1.0, left_filter=first)
    engine.add_query("b", 2.0, left_filter=ComparisonPredicate("value", ">", [0.5]))
    assert engine.query("b").left_filter is first
    assert_matches_reference(engine)


# ---------------------------------------------------------------------------
# The counted gate: one admission's work is what it changed
# ---------------------------------------------------------------------------
def shared_pattern(count: int) -> list[tuple]:
    """``equi_shared``'s filter pattern over ``count`` windows evenly spaced up
    to 16 s: a 0.5 left filter on every second query, a 0.2 right filter on
    every fourth."""
    left, right = selectivity_filter(0.5), selectivity_filter(0.2)
    return [
        (f"q{index:03d}", 16.0 * (index + 1) / count, left if index % 2 else None,
         right if index % 4 == 3 else None)
        for index in range(count)
    ]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls a splice may make: ``disjunction``,
    ``residual_predicate`` and every predicate ``__eq__``."""
    counts = dict.fromkeys(("disjunction", "residual_predicate", "__eq__"), 0)

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return call

    for name in ("disjunction", "residual_predicate"):
        monkeypatch.setattr(engine_module, name, counted(name, getattr(engine_module, name)))
    for cls in (ComparisonPredicate, TruePredicate):
        monkeypatch.setattr(cls, "__eq__", counted("__eq__", cls.__eq__))
    return counts


def changed_links(before: dict, engine) -> int:
    """Links whose installed σ' pair is new or differs, matched by start."""
    after = dict(zip(engine.boundaries, [tuple(map(form, p)) for p in engine.link_filters()]))
    return sum(1 for start, pair in after.items() if before.get(start, ()) != pair)


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_one_admission_costs_what_it_changed(calls, order):
    queries = shared_pattern(192)
    if order == "shuffled":
        random.Random(3).shuffle(queries)
    engine = StreamEngine(EquiJoinCondition("join_key", "join_key"))
    colours: set = set()
    per_admission = []
    for name, window, left, right in queries:
        before = dict(zip(engine.boundaries, [tuple(map(form, p)) for p in engine.link_filters()]))
        start = dict(calls)
        engine.add_query(name, window, left_filter=left, right_filter=right)
        spent = {key: calls[key] - start[key] for key in calls}
        new = {(0, id(left)), (1, id(right))} - colours
        colours |= new
        # A residual per (distinct filter of a side, changed link), plus a
        # whole residual list per filter a side sees for the first time.
        work = changed_links(before, engine) + 1
        assert spent["disjunction"] <= 2 * work
        assert spent["residual_predicate"] <= 2 * 2 * work + len(new) * engine.slice_count()
        assert spent["__eq__"] <= spent["residual_predicate"] + 2
        if not new:
            per_admission.append(sum(spent.values()))
    assert engine.slice_count() == 192
    # No term grows with the query count: an admission that brings no new
    # filter stays under a constant.
    assert max(per_admission) <= 40, per_admission
    for name, window, *_ in sorted(queries, key=lambda q: q[1])[::24]:
        start = sum(calls.values())
        engine.add_query("probe", window * 0.99)
        engine.remove_query("probe")
        assert sum(calls.values()) - start <= 40
    assert_matches_reference(engine)
