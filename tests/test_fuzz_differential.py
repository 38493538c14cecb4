"""Differential fuzzing of the StreamEngine against an unshared baseline.

Each seeded scenario draws a random query set — windows (time- or
count-based), per-stream selection predicates, an equi- or non-equi join
condition, a probe algorithm and a feeding quantum — plus a random add/remove
schedule, runs it through one shared :class:`~repro.runtime.StreamEngine`
session, and asserts that every query's delivered results are *identical*
to an independent per-query unshared baseline: a brute-force evaluation of
that query alone over the full stream, restricted to the results whose
completing tuple arrived while the query was registered.

Exactness discipline
--------------------
A query admitted mid-stream sees the history already retained by the
shared chain.  For the shared results to be *provably* equal to the
unshared baseline, that history must be complete — nothing the new query
needs may have been dropped before its admission.  Every scenario therefore
contains an **umbrella query**, registered before the first arrival and
never removed, whose window is the scenario's largest and whose per-side
predicate is the *weakest* in the scenario (the disjunction pushed in front
of any slice then always admits every tuple any query can need, and the
chain end never shrinks below any admissible window).  Within that
discipline the schedules, predicates, windows, quanta and probe
algorithms are unconstrained — and the pushed-down filters still drop
tuples no query needs, so the selection push-down machinery is exercised
for real (scenarios whose weakest predicate is non-trivial shed state;
see ``test_pushed_filters_do_drop_state``).

The suite runs 220 scenarios (140 time-window, 80 count-window), seeded and
deterministic, plus 60 sharded and 40 resharded scenarios (see below).
Slice state has one in-core representation (``repro.engine.columns``) and
one cold one (``repro.engine.spill``); every scenario draws the probe
algorithm and a memory budget, so the oracle covers the vectorized mask,
the key index and the segment index, and in the sharded and resharded
families the two engines draw them independently.

Sharded family
--------------
The key-partitioned :class:`~repro.runtime.ShardedStreamEngine` is fuzzed
*against the single engine* (not the brute-force baseline): an equi-join
scenario is run through one unsharded session and one 2-4-shard session —
each with an independently drawn quantum and probe algorithm — and every
query's delivered pairs must agree.  The umbrella discipline applies here
too, for a subtler reason: what a mid-stream admission sees of the past is
whatever the chain *happens to retain*, and retention is purge-driven —
lazy, and lazier still per shard (a shard only purges when one of its own
keys arrives).  Under the umbrella, retained history is complete on both
sides, so both engines equal the brute-force answer and hence each other;
without it they would differ exactly by purge-timing artifacts.

A deterministic subset of the sharded scenarios (``seed % 7 == 3``) runs
the sharded engine in ``shard_mode="process"`` — real worker processes fed
through the shared-memory arrival rings — so the ring transport, the
columnar wire encoding, and the batched result pulls face the same
differential oracle as the serial driver.

Resharded family
----------------
The live-reshard primitive (:meth:`ShardedStreamEngine.reshard`) is fuzzed
the same way: each scenario interleaves the add/remove schedule with a
mid-stream reshard schedule containing at least one *grow* and one *shrink*
(to a target drawn from 1-5 shards, 1 being the degenerate single engine),
and every query's delivered pairs — including results delivered *before* a
reshard, which cross the generation change through the carryover view —
must equal the never-resharded single engine's.  The umbrella discipline is
load-bearing here for a third reason: repartitioning merges donor shards at
*different* lazy-purge progress, so retention after a reshard is exactly as
lazy as the laziest donor.

Right after its first reshard every resharded scenario also admits a *late*
query whose left filter no other query has, so its verdict bit is new: the
rows it meets — ingested by the reshard, arrived before it, or cold under
a drawn budget — get their verdicts at first need, and its results are
checked against the unshared baseline as well as the single engine.
"""

from __future__ import annotations

import random

import pytest

from repro.query.predicates import (
    ComparisonPredicate,
    CrossProductCondition,
    EquiJoinCondition,
    ModularMatchCondition,
    Predicate,
    selectivity_join,
)
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.streams.tuples import StreamTuple, make_tuple

TIME_SCENARIOS = 140
COUNT_SCENARIOS = 80
SHARDED_SCENARIOS = 60
RESHARDED_SCENARIOS = 40

TIME_WINDOWS = (1.0, 1.5, 2.0, 3.0, 4.0)
COUNT_WINDOWS = (2, 3, 5, 8, 12)
THRESHOLDS = (0.15, 0.3, 0.5, 0.7, 0.85)
#: Arrivals between two ``flush`` calls: where a scenario's batches end.
QUANTA = (1, 2, 5, 16, 64)
#: The late query of the resharded family (see the module docstring):
#: stronger than every drawable threshold, so the umbrella implies it.
LATE_FILTER = ComparisonPredicate("value", ">", 0.9, selectivity=0.1)
#: Per-engine in-core state budgets: unbudgeted, tight (a few tuples stay
#: resident — almost everything spills to the disk tier), and mid (spilling
#: starts only when several windows' state piles up).  Every scenario draws
#: one per engine, composing the spill path with admission/removal
#: schedules, both probe algorithms and reshards.
MEMORY_BUDGETS = (None, 2048, 32768)
ARRIVALS = 110
FOREVER = 10**9


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------
def make_stream(rng: random.Random, key_domain: int) -> list[StreamTuple]:
    """A dense two-stream arrival sequence with controllable key density."""
    tuples = []
    timestamp = 0.0
    for _ in range(ARRIVALS):
        timestamp += rng.expovariate(8.0)
        tuples.append(
            make_tuple(
                rng.choice("AB"),
                timestamp,
                join_key=rng.randrange(key_domain),
                value=rng.random(),
            )
        )
    return tuples


def draw_condition(rng: random.Random):
    kind = rng.choice(("equi", "equi", "modular", "wrapping", "cross"))
    if kind == "equi":
        domain = rng.choice((3, 5, 8))
        return EquiJoinCondition("join_key", "join_key", key_domain=domain), domain
    if kind == "modular":
        return selectivity_join(rng.choice((0.2, 0.35))), 10
    if kind == "wrapping":
        # Keys below 10 modulo 7: stored residues differ from the keys and
        # key sums wrap, which the domain-1000 arm above never does.
        return ModularMatchCondition(threshold=rng.choice((1, 3)), domain=7), 10
    return CrossProductCondition(), 10


def draw_filter(rng: random.Random) -> Predicate | None:
    if rng.random() < 0.4:
        return None
    threshold = rng.choice(THRESHOLDS)
    return ComparisonPredicate("value", ">", threshold, selectivity=1 - threshold)


def weakest(filters: list[Predicate | None]) -> Predicate | None:
    """The umbrella predicate: implied by every per-query predicate."""
    if any(predicate is None for predicate in filters):
        return None
    threshold = min(predicate.constant for predicate in filters)
    return ComparisonPredicate("value", ">", threshold, selectivity=1 - threshold)


def draw_schedule(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Per-query (admission, removal) arrival indexes; removal may be never."""
    schedule = []
    for _ in range(count):
        admit = rng.randrange(0, ARRIVALS - 20)
        remove = (
            rng.randrange(admit + 1, ARRIVALS) if rng.random() < 0.5 else FOREVER
        )
        schedule.append((admit, remove))
    return schedule


# ---------------------------------------------------------------------------
# Unshared per-query baselines (brute force over the full stream)
# ---------------------------------------------------------------------------
def baseline_time(tuples, condition, window, left_filter, right_filter, interval):
    """All pairs a time-window join delivers while the query is registered."""
    pairs = set()
    lefts = [(i, t) for i, t in enumerate(tuples) if t.stream == "A"]
    rights = [(i, t) for i, t in enumerate(tuples) if t.stream == "B"]
    for ia, a in lefts:
        for ib, b in rights:
            if abs(a.timestamp - b.timestamp) >= window:
                continue
            if not condition.matches(a, b):
                continue
            if left_filter is not None and not left_filter.matches(a):
                continue
            if right_filter is not None and not right_filter.matches(b):
                continue
            completing = max(ia, ib)
            if interval[0] <= completing < interval[1]:
                pairs.add((a.seqno, b.seqno))
    return pairs


def baseline_count(tuples, condition, count, left_filter, right_filter, interval):
    """All pairs a count-window join delivers while the query is registered.

    Window semantics of the engine: an arriving tuple joins the ``count``
    most recent tuples of the opposite stream (selections filter the
    answers, not the ranks — see the count-window notes of repro.runtime.engine).
    """
    pairs = set()
    seen = {"A": [], "B": []}
    for index, tup in enumerate(tuples):
        other = "B" if tup.stream == "A" else "A"
        for candidate in seen[other][-count:]:
            left, right = (
                (tup, candidate) if tup.stream == "A" else (candidate, tup)
            )
            if not condition.matches(left, right):
                continue
            if left_filter is not None and not left_filter.matches(left):
                continue
            if right_filter is not None and not right_filter.matches(right):
                continue
            if interval[0] <= index < interval[1]:
                pairs.add((left.seqno, right.seqno))
        seen[tup.stream].append(tup)
    return pairs


# ---------------------------------------------------------------------------
# One scenario
# ---------------------------------------------------------------------------
def run_scenario(seed: int, window_kind: str, **pinned) -> None:
    """One seeded scenario; ``pinned`` overrides drawn arguments
    (``quantum=``, ``memory_budget_bytes=``) after the draw, so the rest
    of the scenario is the seed's own."""
    rng = random.Random(seed)
    condition, key_domain = draw_condition(rng)
    tuples = make_stream(rng, key_domain)
    windows = TIME_WINDOWS if window_kind == "time" else COUNT_WINDOWS
    baseline = baseline_time if window_kind == "time" else baseline_count

    query_count = rng.randint(2, 4)
    satellite_windows = [rng.choice(windows) for _ in range(query_count)]
    left_filters = [draw_filter(rng) for _ in range(query_count)]
    right_filters = [draw_filter(rng) for _ in range(query_count)]
    schedule = draw_schedule(rng, query_count)

    # The umbrella query (see the module docstring): largest window of the
    # scenario, weakest predicate per side, registered throughout.
    umbrella_window = max(max(satellite_windows), windows[-1])
    umbrella_left = weakest(left_filters)
    umbrella_right = weakest(right_filters)

    if isinstance(condition, EquiJoinCondition):
        probe = rng.choice(("nested_loop", "hash", "auto"))
    else:
        probe = rng.choice(("nested_loop", "auto"))
    quantum = pinned.get("quantum", rng.choice(QUANTA))
    memory_budget = pinned.get("memory_budget_bytes", rng.choice(MEMORY_BUDGETS))

    engine = StreamEngine(
        condition,
        window_kind=window_kind,
        probe=probe,
        memory_budget_bytes=memory_budget,
    )
    engine.add_query(
        "umbrella",
        umbrella_window,
        left_filter=umbrella_left,
        right_filter=umbrella_right,
    )
    admissions = {}
    removals = {}
    for qi, (admit, remove) in enumerate(schedule):
        admissions.setdefault(admit, []).append(qi)
        if remove < FOREVER:
            removals.setdefault(remove, []).append(qi)

    delivered: dict[str, list] = {}
    for index, tup in enumerate(tuples):
        for qi in removals.get(index, ()):
            delivered[f"Q{qi}"] = engine.remove_query(f"Q{qi}")
        for qi in admissions.get(index, ()):
            engine.add_query(
                f"Q{qi}",
                satellite_windows[qi],
                left_filter=left_filters[qi],
                right_filter=right_filters[qi],
            )
        engine.process(tup)
        if (index + 1) % quantum == 0:
            engine.flush()
    engine.flush()
    assert engine.states_are_disjoint(), f"seed {seed}: overlapping slice states"
    delivered["umbrella"] = engine.results("umbrella")
    for qi, (admit, remove) in enumerate(schedule):
        if remove >= FOREVER:
            delivered[f"Q{qi}"] = engine.results(f"Q{qi}")

    specs = [("umbrella", umbrella_window, umbrella_left, umbrella_right, (0, FOREVER))]
    specs.extend(
        (
            f"Q{qi}",
            satellite_windows[qi],
            left_filters[qi],
            right_filters[qi],
            schedule[qi],
        )
        for qi in range(query_count)
    )
    label = (
        f"seed {seed} [{window_kind}] cond={condition.describe()} "
        f"probe={probe} quantum={quantum} budget={memory_budget}"
    )
    for name, window, left_filter, right_filter, interval in specs:
        got = [(j.left.seqno, j.right.seqno) for j in delivered[name]]
        assert len(got) == len(set(got)), f"{label}: {name} delivered duplicates"
        expected = baseline(
            tuples, condition, window, left_filter, right_filter, interval
        )
        assert set(got) == expected, (
            f"{label}: {name} (window {window:g}, interval {interval}) "
            f"delivered {len(got)} pairs, baseline has {len(expected)}; "
            f"missing={sorted(expected - set(got))[:5]} "
            f"extra={sorted(set(got) - expected)[:5]}"
        )


# ---------------------------------------------------------------------------
# Sharded scenarios: sharded engine ≡ single engine
# ---------------------------------------------------------------------------
def run_sharded_scenario(seed: int) -> None:
    rng = random.Random(seed)
    domain = rng.choice((3, 5, 8, 16))
    condition = EquiJoinCondition("join_key", "join_key", key_domain=domain)
    tuples = make_stream(rng, domain)

    query_count = rng.randint(2, 4)
    satellite_windows = [rng.choice(TIME_WINDOWS) for _ in range(query_count)]
    left_filters = [draw_filter(rng) for _ in range(query_count)]
    right_filters = [draw_filter(rng) for _ in range(query_count)]
    schedule = draw_schedule(rng, query_count)
    umbrella_window = max(max(satellite_windows), TIME_WINDOWS[-1])
    umbrella_left = weakest(left_filters)
    umbrella_right = weakest(right_filters)

    shards = rng.choice((2, 3, 4))
    # A deterministic subset exercises the process driver (shared-memory
    # rings + worker processes); the rest stay serial for speed.
    shard_mode = "process" if seed % 7 == 3 else "serial"
    quanta = {"single": rng.choice(QUANTA)}
    engines = {
        "single": StreamEngine(
            condition,
            probe=rng.choice(("nested_loop", "hash", "auto")),
            memory_budget_bytes=rng.choice(MEMORY_BUDGETS),
        ),
    }
    quanta["sharded"] = rng.choice(QUANTA)
    engines["sharded"] = ShardedStreamEngine(
        condition,
        shards=shards,
        shard_mode=shard_mode,
        probe=rng.choice(("nested_loop", "hash", "auto")),
        memory_budget_bytes=rng.choice(MEMORY_BUDGETS),
    )
    admissions: dict[int, list[int]] = {}
    removals: dict[int, list[int]] = {}
    for qi, (admit, remove) in enumerate(schedule):
        admissions.setdefault(admit, []).append(qi)
        if remove < FOREVER:
            removals.setdefault(remove, []).append(qi)

    delivered: dict[str, dict[str, list]] = {name: {} for name in engines}
    for engine in engines.values():
        engine.add_query(
            "umbrella",
            umbrella_window,
            left_filter=umbrella_left,
            right_filter=umbrella_right,
        )
    for index, tup in enumerate(tuples):
        for qi in removals.get(index, ()):
            for name, engine in engines.items():
                delivered[name][f"Q{qi}"] = engine.remove_query(f"Q{qi}")
        for qi in admissions.get(index, ()):
            for engine in engines.values():
                engine.add_query(
                    f"Q{qi}",
                    satellite_windows[qi],
                    left_filter=left_filters[qi],
                    right_filter=right_filters[qi],
                )
        for name, engine in engines.items():
            engine.process(tup)
            if (index + 1) % quanta[name] == 0:
                engine.flush()
    for name, engine in engines.items():
        engine.flush()
        delivered[name]["umbrella"] = engine.results("umbrella")
        for qi, (admit, remove) in enumerate(schedule):
            if remove >= FOREVER:
                delivered[name][f"Q{qi}"] = engine.results(f"Q{qi}")

    sharded = engines["sharded"]
    assert sharded.states_are_disjoint(), f"seed {seed}: overlapping shard slices"
    assert sharded.shard_boundaries() == (
        [sharded.boundaries] * shards
    ), f"seed {seed}: shards diverged"
    label = f"seed {seed} [sharded x{shards} {shard_mode}] domain={domain}"
    for query_name, single_results in delivered["single"].items():
        expected = [(j.left.seqno, j.right.seqno) for j in single_results]
        got = [(j.left.seqno, j.right.seqno) for j in delivered["sharded"][query_name]]
        assert len(got) == len(set(got)), f"{label}: {query_name} duplicates"
        assert sorted(got) == sorted(expected), (
            f"{label}: {query_name} delivered {len(got)} pairs vs "
            f"{len(expected)} unsharded; "
            f"missing={sorted(set(expected) - set(got))[:5]} "
            f"extra={sorted(set(got) - set(expected))[:5]}"
        )
    sharded.close()


# ---------------------------------------------------------------------------
# Resharded scenarios: mid-stream grow/shrink ≡ never-resharded single engine
# ---------------------------------------------------------------------------
def draw_reshard_schedule(
    rng: random.Random, start_shards: int
) -> list[tuple[int, int]]:
    """(arrival index, target N) pairs with at least one grow and one shrink."""
    points = sorted(rng.sample(range(10, ARRIVALS - 10), rng.randint(2, 3)))
    grow = rng.randint(start_shards + 1, 5)
    targets = [grow, rng.randint(1, grow - 1)]
    while len(targets) < len(points):
        targets.append(rng.randint(1, 5))
    return list(zip(points, targets))


def run_resharded_scenario(seed: int) -> None:
    rng = random.Random(seed)
    domain = rng.choice((3, 5, 8, 16))
    condition = EquiJoinCondition("join_key", "join_key", key_domain=domain)
    tuples = make_stream(rng, domain)

    query_count = rng.randint(2, 4)
    satellite_windows = [rng.choice(TIME_WINDOWS) for _ in range(query_count)]
    left_filters = [draw_filter(rng) for _ in range(query_count)]
    right_filters = [draw_filter(rng) for _ in range(query_count)]
    schedule = draw_schedule(rng, query_count)
    umbrella_window = max(max(satellite_windows), TIME_WINDOWS[-1])
    umbrella_left = weakest(left_filters)
    umbrella_right = weakest(right_filters)

    start_shards = rng.choice((1, 2, 3, 4))
    reshard_schedule = draw_reshard_schedule(rng, start_shards)
    reshards = dict(reshard_schedule)
    quanta = {"single": rng.choice(QUANTA)}
    engines = {
        "single": StreamEngine(
            condition,
            probe=rng.choice(("nested_loop", "hash", "auto")),
            memory_budget_bytes=rng.choice(MEMORY_BUDGETS),
        ),
    }
    quanta["resharded"] = rng.choice(QUANTA)
    engines["resharded"] = ShardedStreamEngine(
        condition,
        shards=start_shards,
        probe=rng.choice(("nested_loop", "hash", "auto")),
        memory_budget_bytes=rng.choice(MEMORY_BUDGETS),
    )
    late_at = reshard_schedule[0][0]
    admissions: dict[int, list[int]] = {}
    removals: dict[int, list[int]] = {}
    for qi, (admit, remove) in enumerate(schedule):
        admissions.setdefault(admit, []).append(qi)
        if remove < FOREVER:
            removals.setdefault(remove, []).append(qi)

    delivered: dict[str, dict[str, list]] = {name: {} for name in engines}
    for engine in engines.values():
        engine.add_query(
            "umbrella",
            umbrella_window,
            left_filter=umbrella_left,
            right_filter=umbrella_right,
        )
    sharded = engines["resharded"]
    for index, tup in enumerate(tuples):
        if index in reshards:
            sharded.reshard(reshards[index])
        if index == late_at:
            for engine in engines.values():
                engine.add_query("late", TIME_WINDOWS[1], left_filter=LATE_FILTER)
        for qi in removals.get(index, ()):
            for name, engine in engines.items():
                delivered[name][f"Q{qi}"] = engine.remove_query(f"Q{qi}")
        for qi in admissions.get(index, ()):
            for engine in engines.values():
                engine.add_query(
                    f"Q{qi}",
                    satellite_windows[qi],
                    left_filter=left_filters[qi],
                    right_filter=right_filters[qi],
                )
        for name, engine in engines.items():
            engine.process(tup)
            if (index + 1) % quanta[name] == 0:
                engine.flush()
    for name, engine in engines.items():
        engine.flush()
        delivered[name]["umbrella"] = engine.results("umbrella")
        for qi, (admit, remove) in enumerate(schedule):
            if remove >= FOREVER:
                delivered[name][f"Q{qi}"] = engine.results(f"Q{qi}")
        delivered[name]["late"] = engine.results("late")
        late = {(j.left.seqno, j.right.seqno) for j in delivered[name]["late"]}
        assert late == baseline_time(
            tuples, condition, TIME_WINDOWS[1], LATE_FILTER, None, (late_at, FOREVER)
        ), f"seed {seed}: the late query of {name} differs from its unshared baseline"

    assert sharded.shards == reshard_schedule[-1][1]
    effective = 0  # a target equal to the current count is an unrecorded no-op
    current = start_shards
    for _, n in reshard_schedule:
        effective += n != current
        current = n
    assert len(sharded.reshard_events) == effective
    assert sharded.states_are_disjoint(), f"seed {seed}: overlapping shard slices"
    assert sharded.shard_boundaries() == (
        [sharded.boundaries] * sharded.shards
    ), f"seed {seed}: shards diverged"
    label = (
        f"seed {seed} [resharded {start_shards}"
        f"->{'->'.join(str(n) for _, n in reshard_schedule)}] domain={domain}"
    )
    for query_name, single_results in delivered["single"].items():
        expected = [(j.left.seqno, j.right.seqno) for j in single_results]
        got = [
            (j.left.seqno, j.right.seqno) for j in delivered["resharded"][query_name]
        ]
        assert len(got) == len(set(got)), f"{label}: {query_name} duplicates"
        assert sorted(got) == sorted(expected), (
            f"{label}: {query_name} delivered {len(got)} pairs vs "
            f"{len(expected)} unresharded; "
            f"missing={sorted(set(expected) - set(got))[:5]} "
            f"extra={sorted(set(got) - set(expected))[:5]}"
        )


# ---------------------------------------------------------------------------
# The suites: >= 200 seeded scenarios in total
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(14))
def test_fuzz_time_window_sessions(chunk):
    for seed in range(chunk * 10, chunk * 10 + 10):
        run_scenario(seed, "time")


def test_fuzz_batch_size_one_sessions_on_the_cursor_chain():
    """One-arrival batches on the default (unbudgeted) session: the
    block kernel of PR 15 made this shape 2x slower and nothing but a
    benchmark row said so; its *answers* are pinned here, its rate is
    recorded in ``docs/benchmarks.md``."""
    for seed in range(4000, 4020):
        run_scenario(seed, "time", quantum=1, memory_budget_bytes=None)


@pytest.mark.parametrize("chunk", range(8))
def test_fuzz_count_window_sessions(chunk):
    for seed in range(1000 + chunk * 10, 1000 + chunk * 10 + 10):
        run_scenario(seed, "count")


@pytest.mark.parametrize("chunk", range(6))
def test_fuzz_sharded_sessions(chunk):
    for seed in range(2000 + chunk * 10, 2000 + chunk * 10 + 10):
        run_sharded_scenario(seed)


@pytest.mark.parametrize("chunk", range(4))
def test_fuzz_resharded_sessions(chunk):
    for seed in range(3000 + chunk * 10, 3000 + chunk * 10 + 10):
        run_resharded_scenario(seed)


def test_scenario_space_is_large_enough():
    """The fuzz must cover >= 200 scenarios (acceptance gate of PR 2),
    plus >= 40 mid-stream reshard scenarios (acceptance gate of PR 5)."""
    assert TIME_SCENARIOS + COUNT_SCENARIOS >= 200
    assert TIME_SCENARIOS == 14 * 10
    assert COUNT_SCENARIOS == 8 * 10
    assert SHARDED_SCENARIOS == 6 * 10
    assert RESHARDED_SCENARIOS == 4 * 10 and RESHARDED_SCENARIOS >= 40


def test_reshard_schedules_cover_grow_and_shrink():
    """Every drawable reshard schedule contains a grow and a shrink."""
    for seed in range(3000, 3000 + RESHARDED_SCENARIOS):
        rng = random.Random(seed)
        for start in (1, 2, 3, 4):
            schedule = draw_reshard_schedule(rng, start)
            counts = [start] + [n for _, n in schedule]
            points = [i for i, _ in schedule]
            assert points == sorted(points) and len(set(points)) == len(points)
            assert any(b > a for a, b in zip(counts, counts[1:])), f"seed {seed}"
            assert any(b < a for a, b in zip(counts, counts[1:])), f"seed {seed}"


def test_pushed_filters_do_drop_state():
    """At least some scenarios exercise non-trivial pushed-down filters.

    A time-window session whose weakest predicate is non-trivial must store
    strictly less state than an unfiltered session over the same stream —
    i.e. the differential equality above is not vacuous for the push-down
    path.
    """
    rng = random.Random(424242)
    tuples = make_stream(rng, 5)
    condition = EquiJoinCondition("join_key", "join_key", key_domain=5)
    strong = ComparisonPredicate("value", ">", 0.5, selectivity=0.5)

    filtered = StreamEngine(condition)
    filtered.add_query("Q", 4.0, left_filter=strong, right_filter=strong)
    filtered.process_many(tuples)
    filtered.flush()

    unfiltered = StreamEngine(condition)
    unfiltered.add_query("Q", 4.0)
    unfiltered.process_many(tuples)
    unfiltered.flush()

    assert filtered.state_size() < unfiltered.state_size()
    assert all(
        left is not None and right is not None
        for left, right in filtered.link_filters()
    )
