"""Model test of the slice-state protocol itself.

The sliced joins keep only the male/female protocol of Figure 9; everything
about *how* a slice's tuples are stored and probed lives behind one small
protocol — ``append``, ``purge(now, end) -> (purged, comparisons)``,
``probe(probing) -> (matches, comparisons)``, ``candidates``, the
deque-compatible read surface, ``load`` — answered by
:class:`~repro.engine.columns.ColumnarState` (plain and key-indexed) in
core and :class:`~repro.engine.spill.SpilledState` on the disk tier.

One hypothesis schedule of ``append`` / ``purge`` / ``probe`` / ``popleft``
/ ``load`` drives all three against a plain Python list, asserting
contents, order, matches and comparison counts after every step.  Keys
include everything a float64 key column cannot hold — ``"red"``, ``True``,
``2**53 + 1``, a missing attribute — so the vectorized mask, its
invalidation, the bound scalar fallback, the key index and the segment
index all face the same oracle.

The block entry point, ``sweep(females, males, preceding, end)``, is held
to that scalar schedule in turn: a random interleaving of appends and male
visits, cut into blocks, must give the same purged runs, matches and both
comparison counts through ``sweep`` as call by call — followed by the
regression tests of the hazards the vectorized kernel has to survive
(mid-block compaction, the 2-D block cap, keys vetted before the first
mutation).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import columns
from repro.engine.columns import ColumnarState, ProbeBinding, replay_sweep
from repro.engine.spill import SpilledState, SpillStore
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    JoinCondition,
    ModularMatchCondition,
    ThetaJoinCondition,
)
from repro.streams.tuples import StreamTuple

MISSING = object()


class LooseEqui(EquiJoinCondition):
    """An equi-join that tolerates a missing attribute (absent equals only absent)."""

    def matches(self, left, right):
        return left.values.get(self.left_attribute, MISSING) == right.values.get(
            self.right_attribute, MISSING
        )

    # The generic bindings call ``matches``; the parent's read the payload directly.
    bind_left = JoinCondition.bind_left
    bind_right = JoinCondition.bind_right


#: The left side reads ``ka`` and the right side ``kb``, so a state bound to
#: the wrong side of the condition cannot pass by accident.
CONDITIONS = {
    "equi": LooseEqui("ka", "kb", key_domain=5),
    "modular": ModularMatchCondition(threshold=3, domain=7, attribute="ka"),
    "cross": CrossProductCondition(),
    "theta": ThetaJoinCondition(lambda a, b: str(a.get("ka")) <= str(b.get("kb"))),
}

HOSTILE_KEYS = [0, 1, 2, 3.0, True, "red", 2**53 + 1, MISSING]
#: Modular matching adds the two keys, so they must at least be numbers.
NUMERIC_KEYS = [0, 1, 2, 5, True, 3.5, 2**53 + 1, 2**40 + 1]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 7), st.floats(0.0, 0.5)),
        st.tuples(st.just("append"), st.integers(0, 7), st.floats(0.0, 0.5)),
        st.tuples(st.just("probe"), st.integers(0, 7), st.just(0.0)),
        st.tuples(st.just("purge"), st.floats(0.0, 1.0), st.floats(0.1, 2.0)),
        st.tuples(st.just("popleft"), st.just(0), st.just(0.0)),
        st.tuples(st.just("load"), st.integers(0, 255), st.just(0.0)),
    ),
    min_size=6,
    max_size=80,
)


def make(stream, timestamp, attribute, key):
    values = {"seq": timestamp}
    if key is not MISSING:
        values[attribute] = key
    return StreamTuple(stream, timestamp, values)


def seqnos(tuples):
    return [tup.seqno for tup in tuples]


def setting(kind, stores_left):
    """One parametrization: the condition, the key pool, who stores and who probes."""
    keys = NUMERIC_KEYS if kind == "modular" else HOSTILE_KEYS
    stored_stream, probing_stream = ("A", "B") if stores_left else ("B", "A")
    own, other = ("ka", "kb") if stores_left else ("kb", "ka")
    if kind == "modular":
        own = other = "ka"
    return CONDITIONS[kind], keys, stored_stream, probing_stream, own, other


def states_of(kind, stores_left, store):
    """Every state kind that answers the protocol for this condition."""
    condition, equi = CONDITIONS[kind], kind == "equi"
    states = {"plain": ColumnarState(ProbeBinding(condition, stores_left, equi=equi))}
    states["spilled"] = SpilledState(
        store, ProbeBinding(condition, stores_left, equi=equi), flush_rows=4
    )
    if equi:
        states["indexed"] = ColumnarState(
            ProbeBinding(condition, stores_left, indexed=True, equi=True)
        )
    return states


@pytest.mark.parametrize("stores_left", [True, False], ids=["stores-left", "stores-right"])
@pytest.mark.parametrize("kind", sorted(CONDITIONS))
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_states_agree_with_a_plain_list(kind, stores_left, ops):
    condition, keys, stored_stream, probing_stream, own, other = setting(kind, stores_left)
    equi = kind == "equi"
    store = SpillStore()
    states = states_of(kind, stores_left, store)
    model: list[StreamTuple] = []
    clock = 0.0

    def oriented(probing, candidate):
        return (candidate, probing) if stores_left else (probing, candidate)

    try:
        for op, number, amount in ops:
            if op == "append":
                clock += amount
                tup = make(stored_stream, clock, own, keys[number])
                model.append(tup)
                for state in states.values():
                    state.append(tup)
            elif op == "probe":
                probing = make(probing_stream, clock, other, keys[number])
                key = probing.values.get(other, MISSING)
                want = seqnos(t for t in model if condition.matches(*oriented(probing, t)))
                bucket = sum(1 for t in model if t.values.get(own, MISSING) == key)
                for name, state in states.items():
                    if not equi or (name == "spilled" and key is MISSING):
                        scanned = len(model)  # no usable key: every row is a candidate
                    else:
                        scanned = len(model) if name == "plain" else bucket
                    matches, comparisons = state.probe(probing)
                    assert (seqnos(matches), comparisons) == (want, scanned), name
                    assert len(state.candidates(probing)) == scanned, name
            elif op == "purge":
                now, end = clock + number, amount
                cut = 0
                while cut < len(model) and now - model[cut].timestamp >= end:
                    cut += 1
                want, model = seqnos(model[:cut]), model[cut:]
                for name, state in states.items():
                    purged, comparisons = state.purge(now, end)
                    assert seqnos(purged) == want, name
                    assert comparisons == cut + (1 if model else 0), name
            elif op == "popleft":
                if not model:
                    continue
                want = model.pop(0).seqno
                for name, state in states.items():
                    assert state.popleft().seqno == want, name
            else:  # load: keep the rows the bitmask selects, in order
                model = [t for i, t in enumerate(model) if number >> (i % 8) & 1]
                for state in states.values():
                    state.load(model)
            for name, state in states.items():
                assert len(state) == len(model), name
                assert seqnos(state) == seqnos(model), name
                if model:
                    assert state[0].seqno == model[0].seqno, name
                    assert state[-1].seqno == model[-1].seqno, name
    finally:
        store.close()


# ---------------------------------------------------------------------------
# The block entry point: sweep == the scalar schedule it stands for
# ---------------------------------------------------------------------------
#: Mostly keys the float64 column holds, so whole blocks stay vectorized, with
#: the occasional hostile one arriving (or probing) in the middle of a block.
key_numbers = st.one_of(st.integers(0, 4), st.integers(0, 4), st.integers(0, 7))

events = st.lists(
    st.tuples(
        st.sampled_from(["female", "female", "male"]),
        key_numbers,
        st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.7]),  # equal timestamps are common
        st.booleans(),  # the block ends after this event
    ),
    min_size=4,
    max_size=120,
)


def blocks_of(events, keys, stored_stream, probing_stream, own, other):
    """Cut the event list into ``(females, males, preceding)`` blocks."""
    clock = 0.0
    females, males, preceding = [], [], []
    for kind, number, gap, cut in events:
        clock += gap
        if kind == "female":
            females.append(make(stored_stream, clock, own, keys[number]))
        else:
            males.append(make(probing_stream, clock, other, keys[number]))
            preceding.append(len(females))
        if cut:
            yield females, males, preceding
            females, males, preceding = [], [], []
    yield females, males, preceding


@pytest.mark.parametrize("stores_left", [True, False], ids=["stores-left", "stores-right"])
@pytest.mark.parametrize("kind", sorted(CONDITIONS))
@settings(max_examples=60, deadline=None)
@given(events=events, end=st.sampled_from([0.1, 0.5, 2.0]), block_elements=st.sampled_from([4, 32768]))
def test_sweep_equals_the_scalar_schedule(kind, stores_left, events, end, block_elements):
    condition, keys, stored_stream, probing_stream, own, other = setting(kind, stores_left)
    stores = [SpillStore(), SpillStore()]
    swept, scalar = (states_of(kind, stores_left, store) for store in stores)
    model: list[StreamTuple] = []
    with pytest.MonkeyPatch.context() as patch:
        # A cap of 4 elements splits nearly every block of males.
        patch.setattr(columns, "_BLOCK_ELEMENTS", block_elements)
        for females, males, preceding in blocks_of(
            events, keys, stored_stream, probing_stream, own, other
        ):
            # The plain-list oracle of what every state must purge and match.
            want_purged, want_matches, fed = [], [], 0
            for male, count in zip(males, preceding):
                model.extend(females[fed:count])
                fed = count
                cut = 0
                while cut < len(model) and male.timestamp - model[cut].timestamp >= end:
                    cut += 1
                want_purged.append(seqnos(model[:cut]))
                del model[:cut]
                pair = (lambda t: (t, male)) if stores_left else (lambda t: (male, t))
                want_matches.append(seqnos(t for t in model if condition.matches(*pair(t))))
            model.extend(females[fed:])
            for name, state in swept.items():
                purged, matches, purges, probes = state.sweep(females, males, preceding, end)
                assert [seqnos(run) for run in purged] == want_purged, name
                assert [seqnos(found) for found in matches] == want_matches, name
                # Comparison counts differ by state kind (bucket vs scan): the
                # reference is the same kind of state, driven call by call.
                twin = scalar[name]
                assert (purges, probes) == replay_sweep(twin, females, males, preceding, end)[2:], name
                assert seqnos(state) == seqnos(twin) == seqnos(model), name
            plain, twin = swept["plain"], scalar["plain"]
            assert (plain._keys is None, plain._key_level) == (twin._keys is None, twin._key_level)
        assert (stores[0].cold_reads, stores[0].segments_written) == (
            stores[1].cold_reads,
            stores[1].segments_written,
        )
    for store in stores:
        store.close()


# -- hazards of the vectorized kernel -----------------------------------------
EQUI = LooseEqui("k", "k", key_domain=5)


def equi_state(tuples=()):
    return ColumnarState(ProbeBinding(EQUI, stores_left=True, equi=True), tuples)


def row(stream, timestamp, key):
    return make(stream, float(timestamp), "k", key)


def test_sweep_survives_compaction_in_the_middle_of_a_block():
    """Appending a block's females may compact the columns — rows shift and
    ``_head`` resets — so a male's visible range has to be relative to the live
    rows, not to the absolute positions read before the append."""
    resident = [row("A", t, t % 3) for t in range(64)]
    state, twin = equi_state(resident), equi_state(resident)
    for state_ in (state, twin):
        state_.take(40)  # a consumed prefix too short for take() itself to compact
    assert state._head == 40 and state._ts.shape[0] == 64  # and no room left
    females = [row("A", 64 + i, i % 3) for i in range(8)]
    males = [row("B", 64.5 + i, i % 3) for i in range(8)]
    preceding = list(range(1, 9))
    got = state.sweep(females, males, preceding, 20.0)
    assert state._head < 40  # the extend did compact
    want = replay_sweep(twin, females, males, preceding, 20.0)
    assert [seqnos(run) for run in got[0]] == [seqnos(run) for run in want[0]]
    assert [seqnos(found) for found in got[1]] == [seqnos(found) for found in want[1]]
    assert any(got[0]) and any(got[1]) and got[2:] == want[2:]
    assert seqnos(state) == seqnos(twin)


def test_sweep_caps_its_two_dimensional_mask():
    """16 males against 8k rows must not allocate a 16 x 8000 temporary: the
    block of males shrinks until males x visible rows fits the cap."""
    shapes = []

    class Spy(EquiJoinCondition):
        def match_mask(self, probe_key, keys, int_keys):
            shapes.append((probe_key.shape[0], keys.shape[1]))
            return super().match_mask(probe_key, keys, int_keys)

    condition = Spy("k", "k", key_domain=5)
    resident = [row("A", t, t % 5) for t in range(8000)]
    state = ColumnarState(ProbeBinding(condition, stores_left=True, equi=True), resident)
    males = [row("B", 8000 + i, i % 5) for i in range(16)]
    _, matches, _, probes = state.sweep([], males, [0] * 16, 1e9)
    assert probes == 16 * 8000 and [len(found) for found in matches] == [1600] * 16
    assert len(shapes) == 4 and all(m * n <= columns._BLOCK_ELEMENTS for m, n in shapes)


@pytest.mark.parametrize("hostile", ["red", 2**53 + 1, MISSING], ids=["str", "huge-int", "missing"])
@pytest.mark.parametrize("where", ["female", "male"])
def test_sweep_vets_every_key_before_it_mutates(where, hostile, monkeypatch):
    """A hostile key anywhere in the block sends the *whole* block through the
    scalar schedule, which must start from the untouched state: nothing is
    appended or purged before the last key of the block has been looked at."""
    resident = [row("A", t, t % 3) for t in range(40)]
    state, twin = equi_state(resident), equi_state(resident)
    seen = []
    real = columns.replay_sweep

    def spy(state_, *args):
        seen.append(seqnos(state_))
        return real(state_, *args)

    monkeypatch.setattr(columns, "replay_sweep", spy)

    females = [row("A", 40 + i, hostile if (where, i) == ("female", 5) else i % 3) for i in range(6)]
    males = [row("B", 40.5 + i, hostile if (where, i) == ("male", 5) else i % 3) for i in range(6)]
    preceding = list(range(1, 7))
    got = state.sweep(females, males, preceding, 10.0)
    assert seen == [seqnos(resident)]  # replayed, and from the state as it was
    want = real(twin, females, males, preceding, 10.0)
    assert [seqnos(run) for run in got[0]] == [seqnos(run) for run in want[0]]
    assert [seqnos(found) for found in got[1]] == [seqnos(found) for found in want[1]]
    assert any(got[0]) and got[2:] == want[2:] and seqnos(state) == seqnos(twin)


def test_a_block_without_males_is_one_bulk_extend(monkeypatch):
    """The chain port hands a later slice whole batches of purged females: on
    a valid key column they go in with one ``_extend``, not tuple by tuple —
    and still replay when one of their keys would invalidate the column."""
    resident = [row("A", t, t % 3) for t in range(10)]
    state = equi_state(resident)
    monkeypatch.setattr(ColumnarState, "append", None)  # any per-tuple append fails
    females = [row("A", 10 + i, float(i)) for i in range(30)]  # outgrows the columns
    assert state.sweep(females, [], [], 5.0) == ((), (), 0, 0)
    assert seqnos(state) == seqnos(resident + females) and state._key_level == 1
    found, comparisons = state.probe(row("B", 40, 2))
    assert seqnos(found) == seqnos(t for t in resident + females if t["k"] == 2)
    assert comparisons == 40
    monkeypatch.undo()
    state.sweep([row("A", 41, "red")], [], [], 5.0)
    assert state._keys is None and len(state) == 41
