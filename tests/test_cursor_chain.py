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

The hazards found while prototyping the kernel are pinned one by one below
the properties; each of those tests fails on the naive version it names.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain import SlicedJoinChain
from repro.core.chain_operators import OperatorJoinChain
from repro.engine import columns
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    FunctionPredicate,
    ModularMatchCondition,
    ThetaJoinCondition,
    attribute_ge,
)
from repro.streams.tuples import make_tuple
from tests.test_columnar_equivalence import BLOCK_BATCH_SIZES, WEIRD_KEYS, slicings

#: Keys a float64 column cannot hold exactly, that still add and compare.
HOSTILE_NUMBERS = [0, 1, 2, 3, 3.5, -1, True, False, 2**53 + 1, 2**53 + 2, -(2**40) - 7]

#: kind -> (condition, join keys to draw from, probe kinds that are legal).
KINDS = {
    "equi": (
        lambda: EquiJoinCondition("join_key", "join_key", key_domain=7),
        WEIRD_KEYS[:6] * 3 + WEIRD_KEYS,
        ["nested_loop", "hash"],
    ),
    "modular": (
        lambda: ModularMatchCondition(threshold=3, domain=7, attribute="join_key"),
        HOSTILE_NUMBERS[:4] * 4 + HOSTILE_NUMBERS,
        ["nested_loop"],
    ),
    "cross": (lambda: CrossProductCondition(), WEIRD_KEYS, ["nested_loop"]),
    "theta": (
        lambda: ThetaJoinCondition(lambda a, b: a["join_key"] <= b["join_key"]),
        HOSTILE_NUMBERS,
        ["nested_loop"],
    ),
}


@st.composite
def scenarios(draw, max_events: int = 140):
    """A condition kind, a legal probe kind and timestamp-ordered arrivals
    (ties allowed) whose ``value`` the link filters select on."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    make_condition, keys, probes = KINDS[kind]
    count = draw(st.integers(min_value=2, max_value=max_events))
    now = 0.0
    tuples = []
    for _ in range(count):
        now += draw(st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.3, 0.6]))
        tuples.append(
            make_tuple(
                draw(st.sampled_from("AB")),
                now,
                join_key=draw(st.sampled_from(keys)),
                value=draw(st.integers(0, 4)),
            )
        )
    return make_condition, draw(st.sampled_from(probes)), tuples


def link_filters(floors, slices):
    """One ``value >= floor`` pair per link; floor 0 passes everything."""
    return [
        (attribute_ge("value", floors[2 * i]), attribute_ge("value", floors[2 * i + 1]))
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
    assert cursor.head_state_sizes() == operators.head_state_sizes()
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
)
def test_cursor_chain_equals_per_item_operator_chain(batch_size, scenario, boundaries, floors):
    make_condition, probe, tuples = scenario
    cursor, operators = (
        cls(boundaries, make_condition(), probe=probe)
        for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    for chain in (cursor, operators):
        chain.set_link_filters(link_filters(floors, len(boundaries) - 1))
    for start in range(0, len(tuples), batch_size):
        feed(cursor, operators, tuples[start : start + batch_size])
    assert_same_state(cursor, operators)
    assert counters(cursor) == counters(operators)
    assert cursor.metrics.total_invocations == operators.metrics.total_invocations
    assert cursor.states_are_disjoint()


OPERATIONS = ["split", "merge", "merge0", "append", "drop", "filters", "extract", "extract_all"]


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
        predicate = None if operation == "extract_all" else (lambda tup: tup.seqno % 3 == index % 3)
        state = chain.extract_keyed_state(predicate)
        if predicate is not None:
            assert all(predicate(tup) for entry in state for tuples in entry.values() for tup in tuples)
        assert chain.ingest_keyed_state(state) == sum(
            len(tuples) for entry in state for tuples in entry.values()
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
)
def test_cursor_chain_equals_operator_chain_under_migrations(
    batch_size, scenario, boundaries, schedule
):
    """Between batches: split / merge (including index 0) / append /
    drop-tail / ``set_link_filters`` / keyed extract + ingest, on both chains.
    Boundaries and every slice state agree after each step, results after
    each batch, comparison counters and ``total_invocations`` at the end (see
    the module docstring for why not the per-name invocations)."""
    make_condition, probe, tuples = scenario
    cursor, operators = (
        cls(boundaries, make_condition(), probe=probe)
        for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    steps = iter(schedule)
    for start in range(0, len(tuples), batch_size):
        feed(cursor, operators, tuples[start : start + batch_size])
        step = next(steps, None)
        if step is not None:
            done = [migrate(chain, *step) for chain in (cursor, operators)]
            if isinstance(done[0], list):  # the same tuples left, slice by slice
                assert done[0] == done[1]
            assert_same_state(cursor, operators)
    assert_same_state(cursor, operators)
    assert cursor.states_are_disjoint()
    for key in ("comparisons.probe", "comparisons.purge", "comparisons.select"):
        assert cursor.metrics.snapshot()[key] == operators.metrics.snapshot()[key], key
    assert cursor.metrics.total_invocations == operators.metrics.total_invocations


# ---------------------------------------------------------------------------
# Kernel hazards, one regression test each
# ---------------------------------------------------------------------------
EQUI = EquiJoinCondition("join_key", "join_key", key_domain=7)


def arrival(stream, timestamp, value=1, key=1):
    return make_tuple(stream, timestamp, join_key=key, value=value)


@pytest.mark.parametrize("probe", ["nested_loop", "hash"])
def test_a_row_leaving_a_slice_mid_batch_stays_visible_to_the_earlier_males(probe):
    """(a) One batch purges ``b`` from slice 0 to slice 1 and then off the
    chain's end; the males before each move still see it where it was.
    Freeing at purge time loses both results."""
    chain = SlicedJoinChain([0, 1, 2], EQUI, probe=probe)
    b = arrival("B", 0.0)
    chain.process_batch([b])
    males = [arrival("A", 0.5), arrival("A", 1.5), arrival("A", 2.5)]
    assert tagged(chain.process_batch(males)) == [
        (0, males[0].seqno, b.seqno),
        (1, males[1].seqno, b.seqno),
    ]
    assert chain.state_tuples("B") == [[], []]


@pytest.mark.parametrize("probe", ["nested_loop", "hash"])
def test_a_row_filtered_at_a_link_mid_batch_is_judged_by_each_males_own_cuts(probe):
    """(a) ``b`` fails link 1's filter when the second male purges it there:
    the first male of the same batch still joins it in slice 0, the second
    must not see it in slice 1 (applying the death at once loses the first
    result; never applying it invents the second)."""
    chain = SlicedJoinChain([0, 1, 2], EQUI, probe=probe)
    chain.set_link_filters([(None, None), (None, attribute_ge("value", 2))])
    b = arrival("B", 0.0, value=1)
    chain.process_batch([b])
    males = [arrival("A", 0.5), arrival("A", 1.5)]
    assert tagged(chain.process_batch(males)) == [(0, males[0].seqno, b.seqno)]
    assert chain.state_size() == 2  # b's payload went with the batch; the males stay
    assert chain.state_tuples("B") == [[], []]


def test_a_female_meets_the_filter_installed_when_it_crosses_uncharged():
    """(b) Nothing is evaluated at arrival or at ``set_link_filters``: the
    filter a row meets is the one installed when it crosses the link, and
    only male copies are charged ``SELECT``."""
    calls = []
    spy = FunctionPredicate(lambda tup: calls.append(tup.seqno) or tup["value"] >= 2)
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
        chain.set_link_filters([(None, None), (None, attribute_ge("value", 2)), (None, None)])
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
        chain.set_link_filters([(None, None), (None, attribute_ge("value", 2))])
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
    chain.set_link_filters([(None, None), (None, None), (None, attribute_ge("value", 2))])
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
        chain.set_link_filters([(None, None), (attribute_ge("value", 2), None)])
    feed(cursor, operators, [arrival("B", step * 0.1) for step in range(30)])
    # Shallow males (value 1) and deep ones (value 3) alternate.
    feed(cursor, operators, [arrival("A", 3.0 + step * 0.01, value=1 + 2 * (step % 2)) for step in range(12)])
    assert counters(cursor) == counters(operators)


@pytest.mark.parametrize("probe", ["nested_loop", "hash"])
def test_compaction_rebases_nothing_and_posting_lists_survive_it(probe):
    """(f) The extend may compact the column in the middle of a run: cursors
    and dead-row offsets count from the oldest stored row, and posting lists
    hold row ids that neither compaction nor a drop off the end changes."""
    cursor, operators = (
        cls([0, 0.5, 1.0, 2.0], EQUI, probe=probe) for cls in (SlicedJoinChain, OperatorJoinChain)
    )
    for chain in (cursor, operators):
        chain.set_link_filters([(None, None), (None, None), (attribute_ge("value", 1), attribute_ge("value", 2))])
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
        if probe == "hash":
            live = [row for rows in column._index.values() for row in rows]
            assert len(live) == sum(column.sizes())
            assert all(column._refs[column._head + row - column._gone] is not None for row in live)


def test_a_state_that_is_not_time_layered_is_refused():
    """What makes the concatenated column time-ordered is slice layering
    (``docs/invariants.md``); a donor state that breaks it is an error, not
    a silently mis-purged column."""
    from repro.engine.errors import MigrationError

    chain = SlicedJoinChain([0, 1, 2], EQUI)
    young, old = arrival("A", 5.0), arrival("A", 1.0)
    with pytest.raises(MigrationError, match="time-layered"):
        chain.ingest_keyed_state([{"A": [old]}, {"A": [young]}])
