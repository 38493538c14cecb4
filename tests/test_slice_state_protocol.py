"""Model test of the disk tier's per-slice state protocol.

:class:`~repro.engine.spill.SpilledState` answers a small slice-state
protocol — ``append``, ``purge(now, end) -> (purged, comparisons)``,
``probe(probing) -> (matches, comparisons)``, ``candidates``, the
deque-compatible read surface, ``load`` — over segment files and an
in-core tail.  One hypothesis schedule of ``append`` / ``purge`` /
``probe`` / ``popleft`` / ``load`` drives it against a plain Python list,
asserting contents, order, matches and comparison counts after every step.
Keys include everything a segment's key index must not trip over —
``"red"``, ``True``, ``2**53 + 1``, a missing attribute — so the index,
the full scans and the bound scalar check all face the same oracle.  (The
cursor chain's columns are held to the per-item operator chain, whose
states are deques, by ``tests/test_cursor_chain.py``.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columns import ProbeBinding
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


@pytest.mark.parametrize("stores_left", [True, False], ids=["stores-left", "stores-right"])
@pytest.mark.parametrize("kind", sorted(CONDITIONS))
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_states_agree_with_a_plain_list(kind, stores_left, ops):
    condition, keys, stored_stream, probing_stream, own, other = setting(kind, stores_left)
    equi = kind == "equi"
    store = SpillStore()
    state = SpilledState(store, ProbeBinding(condition, stores_left, equi=equi), flush_rows=4)
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
                state.append(tup)
            elif op == "probe":
                probing = make(probing_stream, clock, other, keys[number])
                key = probing.values.get(other, MISSING)
                want = seqnos(t for t in model if condition.matches(*oriented(probing, t)))
                if not equi or key is MISSING:
                    scanned = len(model)  # no usable key: every row is a candidate
                else:
                    scanned = sum(1 for t in model if t.values.get(own, MISSING) == key)
                matches, comparisons = state.probe(probing)
                assert (seqnos(matches), comparisons) == (want, scanned)
                assert len(state.candidates(probing)) == scanned
            elif op == "purge":
                now, end = clock + number, amount
                cut = 0
                while cut < len(model) and now - model[cut].timestamp >= end:
                    cut += 1
                want, model = seqnos(model[:cut]), model[cut:]
                purged, comparisons = state.purge(now, end)
                assert seqnos(purged) == want
                assert comparisons == cut + (1 if model else 0)
            elif op == "popleft":
                if not model:
                    continue
                assert state.popleft().seqno == model.pop(0).seqno
            else:  # load: keep the rows the bitmask selects, in order
                model = [t for i, t in enumerate(model) if number >> (i % 8) & 1]
                state.load(model)
            assert len(state) == len(model)
            assert seqnos(state) == seqnos(model)
            if model:
                assert state[0].seqno == model[0].seqno
                assert state[-1].seqno == model[-1].seqno
    finally:
        store.close()
