"""Cursor chain (batched) ≡ operator chain (per-item ``process()``).

``SlicedJoinChain`` keeps one time-ordered column per stream for the whole
chain and one cursor per slice boundary; ``OperatorJoinChain`` is the literal
Definition-2 pipeline of ``SlicedBinaryJoin`` operators, whose per-item path
is the paper's Figure 9 comparison for comparison.  The properties here feed
both the same arrivals — the cursor chain in batches, the operator chain one
tuple at a time — and demand equal per-slice results *in order*, equal
``state_tuples`` per slice and stream, and equal counters: every
``comparisons.*``, ``emitted.*``, ``ingested.*`` and ``invocations.*`` key
and ``total_invocations``.

Under migrations the stateful variant compares ``total_invocations`` and not
the per-name ``invocations.*``: an operator keeps the name it was built with
(``slice[1,2)`` after a split shrank it to ``[1, 1.433)``) while the cursor
chain names a slice by its current bounds.

Between batches both properties also draw a budget and call the cursor
chain's ``evict_cold`` with it (the disk tier: the oldest rows of each column
keep timestamp and key in core and their payload in a log), down to "nothing
stays hot" and "the cold rows' metadata alone exceeds the budget" — every
equality above must hold whatever is cold.

The count chain (``CountSlicedJoinChain``: the same columns, cursors placed
by rank arithmetic) has its own family below: a count *session* in drawn
batches, with drawn budgets, against the static plan of
``CountSlicedBinaryJoin`` operators executed one tuple at a time — equal
results per registered count, equal ``PROBE`` and ``PURGE`` totals — and one
test that its migrations move no row.

The hazards found while prototyping the kernel, and then the tier, are pinned
one by one below the properties; each of those tests fails on the naive
version it names.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain import CursorChain, SlicedJoinChain
from repro.core.chain_operators import OperatorJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.core.plan_builder import build_state_slice_plan
from repro.engine import columns
from repro.engine.executor import execute_plan
from repro.engine.spill import ROW_METADATA_BYTES, SpillStore
from repro.query.predicates import (
    ComparisonPredicate,
    CrossProductCondition,
    EquiJoinCondition,
    ModularMatchCondition,
    Predicate,
    ThetaJoinCondition,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import StreamEngine
from repro.streams.tuples import StreamTuple, make_tuple
from tests.conftest import result_keys
from tests.test_columnar_equivalence import BLOCK_BATCH_SIZES, WEIRD_KEYS, slicings
from tests.test_slice_state_protocol import MISSING, LooseEqui

#: Keys a float64 column cannot hold exactly, that still add and compare.
HOSTILE_NUMBERS = [0, 1, 2, 3, 3.5, -1, True, False, 2**53 + 1, 2**53 + 2, -(2**40) - 7]

#: kind -> (condition, join keys to draw from).
KINDS = {
    "equi": (
        lambda: EquiJoinCondition("join_key", "join_key", key_domain=7),
        WEIRD_KEYS[:6] * 3 + WEIRD_KEYS,
    ),
    "modular": (
        lambda: ModularMatchCondition(threshold=3, domain=7, attribute="join_key"),
        HOSTILE_NUMBERS[:4] * 4 + HOSTILE_NUMBERS,
    ),
    "cross": (lambda: CrossProductCondition(), WEIRD_KEYS),
    "theta": (
        lambda: ThetaJoinCondition(lambda a, b: a["join_key"] <= b["join_key"]),
        HOSTILE_NUMBERS,
    ),
    # A tuple without the join attribute (MISSING: none is set) equals only
    # another such tuple; its key invalidates a column's key mask.
    "loose": (
        lambda: LooseEqui("join_key", "join_key", key_domain=7),
        [0, 1, 2, MISSING] * 3 + WEIRD_KEYS[:6],
    ),
}


@st.composite
def scenarios(draw, max_events: int = 140):
    """A condition kind and timestamp-ordered arrivals (ties allowed) whose
    ``value`` the link filters select on."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    make_condition, keys = KINDS[kind]
    count = draw(st.integers(min_value=2, max_value=max_events))
    now = 0.0
    tuples = []
    for _ in range(count):
        now += draw(st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.3, 0.6]))
        stream, key = draw(st.sampled_from("AB")), draw(st.sampled_from(keys))
        values = {} if key is MISSING else {"join_key": key}
        tuples.append(make_tuple(stream, now, value=draw(st.integers(0, 4)), **values))
    return make_condition, tuples


#: ``evict_cold`` budgets at ``TUPLE_BYTES`` a hot tuple (a cold row: 32 B):
#: none, nothing hot, metadata alone over budget, a hot head of a few rows or
#: of most rows.
TUPLE_BYTES = 100
BUDGETS = [None, None, 0, 200, 1500, 6000]


def evict(chain, store, budget):
    """Enforce a drawn budget on the cursor chain, then recount the tier: the
    cold prefix holds the shared cold mark or nothing, the hot rows tuples or nothing, and
    the estimate's terms are what a row-by-row count finds."""
    if budget is not None:
        resident, _ = chain.evict_cold(store, budget, TUPLE_BYTES)
        rows = sum(len(column) for column in chain._columns)
        assert resident <= max(budget, ROW_METADATA_BYTES * rows)
    for column in chain._columns:
        live = column._refs[column._head :]
        cold, hot = live[: column.cold], live[column.cold :]
        assert all(ref is None or ref is columns._COLD for ref in cold)
        assert all(ref is None or type(ref) is StreamTuple for ref in hot)
        assert column._cold_dead == cold.count(None)
        assert column.tiers()[:2] == (sum(ref is not None for ref in hot), len(cold))


def at_least(floor):
    return ComparisonPredicate("value", ">=", floor)


def link_filters(floors, slices):
    """One ``value >= floor`` pair per link; floor 0 passes everything (the
    drawn floors repeat when the chain has more links than pairs)."""
    return [
        (at_least(floors[2 * i % len(floors)]), at_least(floors[(2 * i + 1) % len(floors)]))
        for i in range(slices)
    ]


def tagged(results):
    return [(index, joined.left.seqno, joined.right.seqno) for index, joined in results]


def feed(cursor, operators, batch):
    """One batch through both chains; the results must agree slice by slice,
    in order (per-item results re-grouped slice-major, stably)."""
    reference = [pair for tup in batch for pair in operators.process(tup)]
    reference.sort(key=lambda pair: pair[0])
    assert tagged(cursor.process_batch(batch)) == tagged(reference)


def counters(chain):
    return {
        key: value
        for key, value in chain.metrics.snapshot().items()
        if key.split(".")[0] in ("comparisons", "invocations", "emitted", "ingested")
    }


def assert_same_state(cursor, operators):
    assert cursor.boundaries == operators.boundaries
    for stream in "AB":
        assert cursor.state_tuples(stream) == operators.state_tuples(stream)
    assert cursor.state_sizes() == operators.state_sizes()
    assert cursor.state_size() == operators.state_size()
    assert cursor.link_filters() == operators.link_filters()


# ---------------------------------------------------------------------------
# The differential properties
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", BLOCK_BATCH_SIZES)
@settings(max_examples=30, deadline=None)
@given(
    scenario=scenarios(),
    boundaries=slicings(),
    floors=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    budgets=st.lists(st.sampled_from(BUDGETS), min_size=1, max_size=12),
)
def test_cursor_chain_equals_per_item_operator_chain(
    batch_size, scenario, boundaries, floors, budgets
):
    make_condition, tuples = scenario
    cursor, operators = (
        cls(boundaries, make_condition()) for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    for chain in (cursor, operators):
        chain.set_link_filters(link_filters(floors, len(boundaries) - 1))
    store = SpillStore()
    for batch, start in enumerate(range(0, len(tuples), batch_size)):
        feed(cursor, operators, tuples[start : start + batch_size])
        evict(cursor, store, budgets[batch % len(budgets)])
    assert_same_state(cursor, operators)
    assert counters(cursor) == counters(operators)
    assert cursor.metrics.total_invocations == operators.metrics.total_invocations
    assert cursor.states_are_disjoint()
    store.close()


OPERATIONS = ["split", "merge", "merge0", "append", "drop", "filters", "extract"]


def migrate(chain, operation, fraction, floors):
    """Apply one drawn operation if it is legal now; says whether it was."""
    bounds = chain.boundaries
    slices = len(bounds) - 1
    index = min(int(fraction * slices), slices - 1)
    if operation == "split":
        chain.split_slice(index, bounds[index] + (bounds[index + 1] - bounds[index]) * 0.433)
    elif operation in ("merge", "merge0"):
        index = 0 if operation == "merge0" else index
        if index >= slices - 1:
            return False
        chain.merge_slices(index)
    elif operation == "append":
        chain.append_slice(bounds[-1] + 0.7)
    elif operation == "drop":
        if slices < 2:
            return False
        chain.drop_tail_slice()
    elif operation == "filters":
        chain.set_link_filters(link_filters(floors, slices))
    else:
        state = chain.extract_keyed_state()
        assert chain.state_size() == 0
        # Back in two parts, the second into a non-empty column.
        for part in (True, False):
            share = [
                {
                    stream: [tup for tup in tuples if (tup.seqno % 3 == index % 3) == part]
                    for stream, tuples in entry.items()
                }
                for entry in state
            ]
            assert chain.ingest_keyed_state(share) == sum(
                len(tuples) for entry in share for tuples in entry.values()
            )
        return state
    return True


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@settings(max_examples=30, deadline=None)
@given(
    scenario=scenarios(),
    boundaries=slicings(),
    schedule=st.lists(
        st.tuples(
            st.sampled_from(OPERATIONS),
            st.floats(0.0, 0.999),
            st.lists(st.integers(0, 3), min_size=16, max_size=16),
        ),
        min_size=1,
        max_size=12,
    ),
    budgets=st.lists(st.sampled_from(BUDGETS), min_size=1, max_size=12),
)
def test_cursor_chain_equals_operator_chain_under_migrations(
    batch_size, scenario, boundaries, schedule, budgets
):
    """Between batches: split / merge (including index 0) / append /
    drop-tail / ``set_link_filters`` / keyed extract + ingest, on both chains.
    Boundaries and every slice state agree after each step, results after
    each batch, comparison counters and ``total_invocations`` at the end (see
    the module docstring for why not the per-name invocations).  A drawn
    budget is enforced before each step, so every migration also runs over a
    partly or wholly cold column."""
    make_condition, tuples = scenario
    cursor, operators = (
        cls(boundaries, make_condition()) for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    store = SpillStore()
    steps = iter(schedule)
    for batch, start in enumerate(range(0, len(tuples), batch_size)):
        feed(cursor, operators, tuples[start : start + batch_size])
        evict(cursor, store, budgets[batch % len(budgets)])
        step = next(steps, None)
        if step is not None:
            done = [migrate(chain, *step) for chain in (cursor, operators)]
            if isinstance(done[0], list):  # the same tuples left, slice by slice
                assert done[0] == done[1]
            assert_same_state(cursor, operators)
            evict(cursor, store, None)  # the step left the tier accounted
    assert_same_state(cursor, operators)
    assert cursor.states_are_disjoint()
    for key in ("comparisons.probe", "comparisons.purge", "comparisons.select"):
        assert cursor.metrics.snapshot()[key] == operators.metrics.snapshot()[key], key
    assert cursor.metrics.total_invocations == operators.metrics.total_invocations
    store.close()


# ---------------------------------------------------------------------------
# The count chain: rank ranges of the same columns
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    scenario=scenarios(),
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
    batch_size=st.integers(1, 32),
    budgets=st.lists(st.sampled_from(BUDGETS), min_size=1, max_size=12),
)
def test_count_session_equals_the_per_item_count_operator_plan(
    scenario, counts, batch_size, budgets
):
    """A count session (cursor chain, drawn batch size, a drawn budget
    enforced between batches) against ``CountSlicedBinaryJoin`` operators run
    one tuple at a time: the same results per registered count and, count
    for count, the same ``PROBE`` and ``PURGE`` totals — whatever is cold."""
    make_condition, tuples = scenario
    condition = make_condition()
    workload = QueryWorkload(
        [ContinuousQuery(f"Q{count}", window=count, join_condition=condition) for count in counts]
    )
    report = execute_plan(build_state_slice_plan(workload, window_kind="count"), tuples)
    engine = StreamEngine(condition, window_kind="count")
    for query in workload:
        engine.add_query(query.name, query.window)
    chain = engine._chain
    assert type(chain) is CountSlicedJoinChain
    store = SpillStore()
    for batch, start in enumerate(range(0, len(tuples), batch_size)):
        engine.process_many(tuples[start : start + batch_size])
        engine.flush()
        evict(chain, store, budgets[batch % len(budgets)])
        assert chain.states_are_disjoint()
        assert chain.state_size() <= 2 * max(counts)
    assert result_keys({query.name: engine.results(query.name) for query in workload}) == result_keys(
        report.results
    )
    session, reference = engine.metrics.snapshot(), report.metrics.snapshot()
    for key in ("comparisons.probe", "comparisons.purge"):
        assert session[key] == reference[key], key
    store.close()


def test_count_migrations_move_no_row():
    """Membership is the rank: a split, a merge and an append insert or delete
    a boundary and nothing else — the column holds the same objects in the
    same order, regrouped — and only a drop-tail frees rows."""
    chain = CountSlicedJoinChain([0, 4, 10], EQUI)
    rows = [arrival("AB"[step % 2], 0.1 * step, key=step % 3) for step in range(30)]
    chain.process_batch(rows)
    a_rows = rows[0::2][-10:]  # the ten newest of stream A, oldest first

    def stored():
        return [list(column._refs[column._head :]) for column in chain._columns]

    def by_rank(bounds):
        return [a_rows[len(a_rows) - end : len(a_rows) - start] for start, end in zip(bounds, bounds[1:])]

    before = stored()
    assert all(len(refs) == 10 for refs in before)
    assert chain.state_tuples("A") == by_rank([0, 4, 10])
    for migrate, bounds in (
        (lambda: chain.split_slice(1, 7), [0, 4, 7, 10]),
        (lambda: chain.split_slice(0, 1), [0, 1, 4, 7, 10]),
        (lambda: chain.merge_slices(1), [0, 1, 7, 10]),
        (lambda: chain.append_slice(12), [0, 1, 7, 10, 12]),
        (lambda: chain.merge_slices(0), [0, 7, 10, 12]),
    ):
        migrate()
        assert chain.boundaries == bounds
        assert all(kept is was for now, then in zip(stored(), before) for kept, was in zip(now, then))
        assert [len(refs) for refs in stored()] == [10, 10]
        assert chain.state_tuples("A") == by_rank(bounds)
        assert chain.states_are_disjoint()
    chain.drop_tail_slice()
    chain.drop_tail_slice()
    assert chain.boundaries == [0, 7] and chain.state_tuples("A") == [a_rows[-7:]]
    assert stored() == [refs[-7:] for refs in before]
    # The posting lists never noticed: probing still finds rank 0..6 only.
    found = chain.process_batch([arrival("B", 9.0, key=1)])
    assert [joined.left for _, joined in found] == [tup for tup in a_rows[-7:] if tup["join_key"] == 1]


# ---------------------------------------------------------------------------
# Kernel hazards, one regression test each
# ---------------------------------------------------------------------------
EQUI = EquiJoinCondition("join_key", "join_key", key_domain=7)


def arrival(stream, timestamp, value=1, key=1):
    return make_tuple(stream, timestamp, join_key=key, value=value)


def test_a_row_leaving_a_slice_mid_batch_stays_visible_to_the_earlier_males():
    """(a) One batch purges ``b`` from slice 0 to slice 1 and then off the
    chain's end; the males before each move still see it where it was.
    Freeing at purge time loses both results."""
    chain = SlicedJoinChain([0, 1, 2], EQUI)
    b = arrival("B", 0.0)
    chain.process_batch([b])
    males = [arrival("A", 0.5), arrival("A", 1.5), arrival("A", 2.5)]
    assert tagged(chain.process_batch(males)) == [
        (0, males[0].seqno, b.seqno),
        (1, males[1].seqno, b.seqno),
    ]
    assert chain.state_tuples("B") == [[], []]


def test_a_row_filtered_at_a_link_mid_batch_is_judged_by_each_males_own_cuts():
    """(a) ``b`` fails link 1's filter when the second male purges it there:
    the first male of the same batch still joins it in slice 0, the second
    must not see it in slice 1 (applying the death at once loses the first
    result; never applying it invents the second)."""
    chain = SlicedJoinChain([0, 1, 2], EQUI)
    chain.set_link_filters([(None, None), (None, at_least(2))])
    b = arrival("B", 0.0, value=1)
    chain.process_batch([b])
    males = [arrival("A", 0.5), arrival("A", 1.5)]
    assert tagged(chain.process_batch(males)) == [(0, males[0].seqno, b.seqno)]
    assert chain.state_size() == 2  # b's payload went with the batch; the males stay
    assert chain.state_tuples("B") == [[], []]


def test_a_female_meets_the_filter_installed_when_it_crosses_uncharged():
    """(b) A row that arrived before a filter was installed has no verdict
    for it, and ``set_link_filters`` judges nothing: the filter a row meets
    is the one installed when it crosses the link, judged then from its
    tuple, and only male copies are charged ``SELECT``."""
    calls = []

    class Spy(Predicate):
        def matches(self, tup):
            calls.append(tup.seqno)
            return tup["value"] >= 2

    spy = Spy()
    chain = SlicedJoinChain([0, 1, 2], EQUI)
    rows = [arrival("B", 0.0, value=1), arrival("B", 0.1, value=3)]
    chain.process_batch(rows)
    chain.set_link_filters([(None, None), (None, spy)])
    assert calls == []  # resident rows are not re-evaluated at a migration
    assert chain.state_size() == 2
    chain.process_batch([arrival("A", 1.5)])
    assert calls == [rows[0].seqno, rows[1].seqno]  # when they crossed link 1
    assert chain.metrics.comparisons["select"] == 0  # females ride uncharged
    assert chain.state_tuples("B") == [[], [rows[1]]]
    assert chain.state_size() == 2  # the filtered row dropped its payload at once


def test_deeper_sweeps_skip_a_filtered_row_uncounted():
    """(b) A dead row keeps its place in the column but costs no purge or
    probe comparison in any deeper slice."""
    cursor, operators = (cls([0, 1, 2, 3], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, at_least(2)), (None, None)])
    batches = [
        [arrival("B", 0.0, value=1), arrival("B", 0.1, value=1), arrival("B", 0.2, value=3)],
        [arrival("A", 1.5)],
        [arrival("A", 2.5), arrival("A", 3.05)],
    ]
    for batch in batches:
        feed(cursor, operators, batch)
        assert counters(cursor) == counters(operators)
        assert_same_state(cursor, operators)
    assert cursor._columns[1].dead == [0, 0, 1]  # one filtered row left, in the tail


@pytest.mark.parametrize("operation", ["merge0", "split0"])
def test_migrations_do_not_resurrect_rows_filtered_at_a_link(operation):
    """(c) Rows filtered at link 1 stay dead when ``merge_slices(0)`` removes
    that link (a "died at link k" code renumbered by the merge would read
    them as alive) and when a split inserts a link in front of them."""
    cursor, operators = (cls([0, 1, 2], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, at_least(2))])
    feed(cursor, operators, [arrival("B", 0.0, value=1), arrival("B", 0.2, value=3)])
    feed(cursor, operators, [arrival("A", 1.3)])
    for chain in (cursor, operators):
        if operation == "merge0":
            chain.merge_slices(0)
        else:
            chain.split_slice(0, 0.5)
        chain.set_link_filters([(None, None)] * chain.slice_count())
    assert_same_state(cursor, operators)
    feed(cursor, operators, [arrival("A", 1.4), arrival("A", 1.9)])
    assert_same_state(cursor, operators)
    assert counters(cursor)["comparisons.probe"] == counters(operators)["comparisons.probe"]


def test_slices_no_dead_row_has_reached_are_counted_by_cursor_arithmetic():
    """(d) Only the slices behind a filtering link ever hold dead rows; the
    others keep ``dead == 0`` and are counted as ``stop - cut``."""
    chain = SlicedJoinChain([0, 1, 2, 3], EQUI)
    chain.set_link_filters([(None, None), (None, None), (None, at_least(2))])
    for step in range(40):
        chain.process_batch([arrival("B", step * 0.1, value=step % 3), arrival("A", step * 0.1)])
    left, right = chain._columns
    assert left.dead == [0, 0, 0]
    assert right.dead[:2] == [0, 0] and right.dead[2] > 0
    assert right.sizes()[2] == len(chain.state_tuples("B")[2])


def test_a_block_is_bounded_by_the_minimum_over_its_males(monkeypatch):
    """(e) Males of one block differ in depth (a filter on their own stream
    stops some at link 1), so the deepest visible row is not monotone in j:
    with blocks of a few males each, a block bounded by its *first* male's
    low row loses the deeper males' hits."""
    monkeypatch.setattr(columns, "_BLOCK_ELEMENTS", 64)
    cursor, operators = (cls([0, 1, 4], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (at_least(2), None)])
    feed(cursor, operators, [arrival("B", step * 0.1) for step in range(30)])
    # Shallow males (value 1) and deep ones (value 3) alternate.
    feed(cursor, operators, [arrival("A", 3.0 + step * 0.01, value=1 + 2 * (step % 2)) for step in range(12)])
    assert counters(cursor) == counters(operators)


def test_compaction_rebases_nothing():
    """(f) The extend may compact the column in the middle of a run: cursors
    and dead-row offsets count from the oldest stored row, which compaction
    does not change."""
    cursor, operators = (
        cls([0, 0.5, 1.0, 2.0], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, None), (at_least(1), at_least(2))])
    compactions = 0
    for step in range(60):
        batch = [
            arrival("AB"[(step + i) % 2], step * 0.2 + i * 0.02, value=(step + i) % 4, key=i % 3)
            for i in range(10)
        ]
        storage = [len(column._refs) for column in cursor._columns]
        feed(cursor, operators, batch)
        compactions += any(
            len(column._refs) < before for column, before in zip(cursor._columns, storage)
        )
        assert_same_state(cursor, operators)
    assert compactions >= 2
    assert counters(cursor) == counters(operators)
    for column in cursor._columns:
        assert column._gone > 100  # rows did leave off the end


def test_a_state_that_is_not_time_layered_is_refused():
    """What makes the concatenated column time-ordered is slice layering
    (``docs/invariants.md``); a donor state that breaks it is an error, not
    a silently mis-purged column."""
    from repro.engine.errors import MigrationError

    chain = SlicedJoinChain([0, 1, 2], EQUI)
    young, old = arrival("A", 5.0), arrival("A", 1.0)
    with pytest.raises(MigrationError, match="time-layered"):
        chain.ingest_keyed_state([{"A": [old]}, {"A": [young]}])


# ---------------------------------------------------------------------------
# Tier hazards, one regression test each
# ---------------------------------------------------------------------------
@pytest.fixture
def store():
    store = SpillStore()
    yield store
    store.close()


def freeze(chain, store):
    """Every stored row cold (a budget nothing fits in)."""
    chain.evict_cold(store, 0, TUPLE_BYTES)
    assert [column.cold for column in chain._columns] == [len(column) for column in chain._columns]


def test_a_cold_row_is_judged_at_a_link_through_the_tier_and_never_reported_again(store):
    """(g) A cold row crossing a filtering link meets it by the verdict bits
    taken when it arrived: the tier is read only for the hit the crossing
    male reports (judging by reading ``low`` and ``high`` back reads three
    rows; skipping the cold rows keeps ``low`` alive); the row that fails
    drops its place in the log's accounting with its payload and no later
    male reads it."""
    cursor, operators = (cls([0, 1, 2], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, at_least(2))])
    low, high = arrival("B", 0.0, value=1), arrival("B", 0.1, value=3)
    feed(cursor, operators, [low, high])
    freeze(cursor, store)
    reads = store.cold_reads
    feed(cursor, operators, [arrival("A", 1.5)])  # both cross link 1; ``low`` fails it
    assert store.cold_reads == reads + 1  # ``high``, for its hit
    assert cursor.state_tuples("B") == [[], [high]]
    column = cursor._columns[1]
    assert column._refs[column._head : column._head + 2] == [None, columns._COLD]
    evict(cursor, store, None)
    reads = store.cold_reads
    feed(cursor, operators, [arrival("A", 1.6), arrival("A", 1.7)])
    assert store.cold_reads == reads + 1  # ``high``, once for the batch; ``low`` never
    assert_same_state(cursor, operators)
    assert counters(cursor) == counters(operators)


def test_a_stale_cold_row_is_read_back_once_to_be_judged_at_a_link(store):
    """(g') The stale twin of (g): the filter is installed after the rows
    went cold, so they have no verdict for it.  The crossing reads each row
    back once, judges it as a tuple and keeps the verdict."""
    cursor, operators = (cls([0, 1, 2], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    low, high = arrival("B", 0.0, value=1), arrival("B", 0.1, value=3)
    feed(cursor, operators, [low, high])
    freeze(cursor, store)
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, at_least(2))])
    reads = store.cold_reads
    feed(cursor, operators, [arrival("A", 1.5, key=2)])  # both cross link 1, no hit
    assert store.cold_reads == reads + 2
    assert cursor._columns[1]._died[cursor._columns[1]._head + 1] == columns._LIVE  # ``high``'s verdict kept
    assert_same_state(cursor, operators)
    assert counters(cursor) == counters(operators)


@pytest.mark.parametrize("hostile", [False, True])
def test_the_scalar_check_reads_cold_rows_back(store, hostile):
    """(h) Without an exact mask — a condition that has none, or an equi-join
    whose key column a string just invalidated — the bound scalar check needs
    payloads: handed a cold mark it raises, and skipping cold rows loses their
    matches."""
    condition = EQUI if hostile else ThetaJoinCondition(lambda a, b: a["join_key"] <= b["join_key"])
    cursor, operators = (cls([0, 1, 2], condition) for cls in (SlicedJoinChain, OperatorJoinChain))
    feed(cursor, operators, [arrival("B", 0.1 * step, key=step % 3) for step in range(12)])
    freeze(cursor, store)
    batch = [arrival("A", 1.25, key=1), arrival("A", 1.3, key=2)]
    if hostile:
        batch.insert(1, arrival("B", 1.27, key="red"))
    feed(cursor, operators, batch)
    feed(cursor, operators, [arrival("B", 1.4, key=2), arrival("A", 1.5, key=2)])
    assert_same_state(cursor, operators)
    assert counters(cursor) == counters(operators)


def test_keyed_extract_and_ingest_over_a_half_cold_column(store):
    """(i) ``extract_keyed_state()`` reads cold rows back as tuples and
    empties the column (the log's files go); ``ingest`` merges into a
    non-empty column that is half cold again.  Taking cold marks for tuples
    raises; reloading without releasing the log leaks its files."""
    cursor, operators = (cls([0, 1, 2], EQUI) for cls in (SlicedJoinChain, OperatorJoinChain))
    rows = [arrival("AB"[step % 2], 0.1 * step, key=step % 3) for step in range(24)]
    feed(cursor, operators, rows)
    cursor.evict_cold(store, 12 * TUPLE_BYTES, TUPLE_BYTES)
    assert all(0 < column.cold < len(column) for column in cursor._columns)
    assert len(os.listdir(store._directory)) == 2  # one log per stream
    moved = [chain.extract_keyed_state() for chain in (cursor, operators)]
    assert moved[0] == moved[1] and all(entry["A"] and entry["B"] for entry in moved[0])
    assert os.listdir(store._directory) == [] and cursor.state_size() == 0
    assert_same_state(cursor, operators)
    refill = [arrival("AB"[step % 2], 2.32 + 0.01 * step, key=step % 3) for step in range(8)]
    feed(cursor, operators, refill)
    cursor.evict_cold(store, 6 * TUPLE_BYTES, TUPLE_BYTES)
    assert all(0 < column.cold < len(column) for column in cursor._columns)
    for chain, state in zip((cursor, operators), moved):
        assert chain.ingest_keyed_state(state) == sum(
            len(tuples) for entry in state for tuples in entry.values()
        )
    assert os.listdir(store._directory) == []
    assert_same_state(cursor, operators)
    feed(cursor, operators, [arrival("A", 2.45, key=1), arrival("B", 2.5, key=2)])
    assert_same_state(cursor, operators)


def test_introspection_leaves_the_tier_as_it_found_it(store):
    """(j) ``state_tuples`` / ``states_are_disjoint`` read cold rows without
    re-warming them: same cursor, same cold marks in ``refs``, same files, and
    the estimate a budget is held to does not move."""
    chain, hot = (SlicedJoinChain([0, 1, 2], EQUI) for _ in range(2))
    rows = [arrival("AB"[step % 2], 0.1 * step) for step in range(16)]
    for twin in (chain, hot):
        twin.process_batch(rows)
    chain.evict_cold(store, 12 * TUPLE_BYTES, TUPLE_BYTES)
    assert [column.cold for column in chain._columns] == [3, 3]

    def tier():
        return (
            [(column.cold, list(column._refs)) for column in chain._columns],
            sorted(os.listdir(store._directory)),
            chain.memory_bytes(TUPLE_BYTES),
        )

    before = tier()
    assert [chain.state_tuples(stream) for stream in "AB"] == [hot.state_tuples(stream) for stream in "AB"]
    assert chain.states_are_disjoint()
    assert chain.state_sizes() == hot.state_sizes()
    assert tier() == before


def test_a_cold_row_comes_back_exactly(store):
    """(k) Stream, timestamp (its type included), values and seqno round-trip
    through the log: a result built from a cold row equals the one built from
    the tuple that arrived."""
    condition = CrossProductCondition()
    chain = SlicedJoinChain([0, 10], condition, left_stream="L", right_stream="R")
    stored = [
        StreamTuple("R", 0, {"join_key": 2**70, "tags": ("x", None), "nested": {"a": [1.5]}}),
        StreamTuple("R", 0.5, {}),
        StreamTuple("R", 1.0, {"join_key": "red", "value": float("inf")}, seqno=-7),
    ]
    chain.process_batch(stored)
    freeze(chain, store)
    male = StreamTuple("L", 2.0, {"join_key": 1})
    found = [joined.right for _, joined in chain.process_batch([male])]
    assert found == stored and all(a is not b for a, b in zip(found, stored))
    assert [type(tup.timestamp) for tup in found] == [int, float, float]
    assert chain.state_tuples("R") == [stored]


def test_a_batch_learns_the_links_only_after_they_change(monkeypatch):
    """``CursorChain._register`` rebuilds every column's filter list: a batch
    calls it only when ``set_link_filters`` or a migration changed the links
    since the last, and the columns then hold the installed links."""
    registered = []
    register = CursorChain._register
    monkeypatch.setattr(CursorChain, "_register", lambda chain: registered.append(1) or register(chain))
    chain = SlicedJoinChain([0, 1, 2], EQUI)
    clock = iter(0.1 * step for step in range(100))

    def batch():
        chain.process_batch([arrival("B", next(clock), value=1), arrival("A", next(clock), value=3)])
        return len(registered)

    assert [batch(), batch()] == [1, 1]  # the first batch learns the links, the next nothing
    chain.set_link_filters([(None, None), (None, at_least(2))])
    assert [batch(), batch()] == [2, 2]
    chain.split_slice(0, 0.5)
    assert [batch(), batch()] == [3, 3]
    chain.merge_slices(0)
    chain.append_slice(3)
    assert [batch(), batch()] == [4, 4]
    assert chain._columns[1].links == [None, [0], None]  # link 1 keeps its filter, the new link has none
