"""Property tests: hash probing ≡ nested-loop probing.

With ``probe="hash"`` both cursor chains (``SlicedJoinChain``,
``CountSlicedJoinChain``) keep, per stream, per-key posting lists of row
numbers over the one time-ordered column (``repro.engine.columns``),
maintained under insert and expire and untouched by slice split/merge
migrations, which move cursors only.  These properties assert that for *any*
arrival sequence and *any* migration schedule the hash path produces join
outputs identical — same pairs, same order — to the nested-loop path, that
the batch kernel's bucket probe agrees with the per-item path, and that the
index always agrees with the rows it mirrors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import SlicedJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.engine.errors import PlanError
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.query.predicates import EquiJoinCondition, selectivity_join
from repro.streams.tuples import make_tuple

CONDITION = EquiJoinCondition("key", "key", key_domain=4)


def build_tuples(spec):
    """Materialize a (stream_is_a, key, gap) spec list into arrivals."""
    tuples = []
    timestamp = 0.0
    for is_a, key, gap in spec:
        timestamp += gap
        tuples.append(make_tuple("A" if is_a else "B", timestamp, key=key))
    return tuples


arrival_specs = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.01, max_value=1.2),
    ),
    min_size=4,
    max_size=60,
)


def chain_pair(kind, boundaries):
    cls = SlicedJoinChain if kind == "time" else CountSlicedJoinChain
    return (
        cls(boundaries, CONDITION, probe="nested_loop"),
        cls(boundaries, CONDITION, probe="hash"),
    )


def tagged(results):
    return [(index, joined.left.seqno, joined.right.seqno) for index, joined in results]


def postings_agree_with_column(column):
    """A chain column's posting lists hold exactly its live rows, by key, in order."""
    rows = {
        column._gone + offset: tup
        for offset, tup in enumerate(column._refs[column._head :])
        if tup is not None
    }
    listed = [row for bucket in column._index.values() for row in bucket]
    if sorted(listed) != sorted(rows) or not all(column._index.values()):
        return False  # every live row once; empty buckets are deleted eagerly
    attribute = column.binding.key_attribute
    return all(
        bucket == sorted(bucket) and all(rows[row][attribute] == key for row in bucket)
        for key, bucket in column._index.items()
    )


def index_agrees(chain):
    return all(postings_agree_with_column(column) for column in chain._columns)


class TestInsertExpire:
    """Equivalence under plain execution (insert + cross-purge/evict)."""

    @settings(max_examples=60, deadline=None)
    @given(arrival_specs)
    def test_time_chain_outputs_identical(self, spec):
        tuples = build_tuples(spec)
        nested, hashed = chain_pair("time", [0.0, 1.5, 4.0])
        assert tagged(nested.process_all(tuples)) == tagged(hashed.process_all(tuples))
        assert index_agrees(hashed)

    @settings(max_examples=60, deadline=None)
    @given(arrival_specs)
    def test_count_chain_outputs_identical(self, spec):
        tuples = build_tuples(spec)
        nested, hashed = chain_pair("count", [0, 3, 9])
        assert tagged(nested.process_all(tuples)) == tagged(hashed.process_all(tuples))
        assert index_agrees(hashed)

    @settings(max_examples=40, deadline=None)
    @given(arrival_specs)
    def test_batched_equals_per_tuple(self, spec):
        tuples = build_tuples(spec)
        for kind, boundaries in (("time", [0.0, 2.0, 4.0]), ("count", [0, 4, 8])):
            _, per_tuple = chain_pair(kind, boundaries)
            _, batched = chain_pair(kind, boundaries)
            want = sorted(tagged(per_tuple.process_all(tuples)))
            got = sorted(tagged(batched.process_batch(tuples)))
            assert want == got
            # One comparison per bucket entry on both paths.
            assert per_tuple.metrics.comparisons == batched.metrics.comparisons


migration_schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=59), st.sampled_from("smad")),
    min_size=1,
    max_size=6,
)


def apply_migration(chain, op, kind):
    """Apply one migration op if currently legal; returns True when applied."""
    boundaries = chain.boundaries
    if op == "s":  # split the widest slice at its midpoint
        widths = [
            (end - start, index)
            for index, (start, end) in enumerate(zip(boundaries, boundaries[1:]))
        ]
        width, index = max(widths)
        middle = boundaries[index] + width / 2
        if kind == "count":
            middle = int(middle)
            if not boundaries[index] < middle < boundaries[index + 1]:
                return False
        chain.split_slice(index, middle)
        return True
    if op == "m":  # merge the first two slices
        if chain.slice_count() < 2:
            return False
        chain.merge_slices(0)
        return True
    if op == "a":  # append a tail slice
        end = boundaries[-1] * 2 if kind == "time" else int(boundaries[-1]) + 3
        chain.append_slice(end)
        return True
    if chain.slice_count() < 2:  # "d": drop the tail slice
        return False
    chain.drop_tail_slice()
    return True


class TestMigrations:
    """Equivalence across split/merge/append/drop migrations.

    The same arrival sequence and the same migration schedule are applied
    to a nested-loop chain and a hash chain; outputs must stay identical
    and the posting lists must still mirror the column afterwards.
    """

    @settings(max_examples=60, deadline=None)
    @given(arrival_specs, migration_schedules)
    def test_time_chain_migrations(self, spec, schedule):
        self._run("time", [0.0, 2.0], spec, schedule)

    @settings(max_examples=60, deadline=None)
    @given(arrival_specs, migration_schedules)
    def test_count_chain_migrations(self, spec, schedule):
        self._run("count", [0, 4], spec, schedule)

    def _run(self, kind, boundaries, spec, schedule):
        tuples = build_tuples(spec)
        nested, hashed = chain_pair(kind, boundaries)
        plan = {}
        for at, op in schedule:
            plan.setdefault(at % len(tuples), []).append(op)
        nested_out = []
        hashed_out = []
        for index, tup in enumerate(tuples):
            for op in plan.get(index, ()):
                if apply_migration(nested, op, kind):
                    applied = apply_migration(hashed, op, kind)
                    assert applied, "migration legality must not depend on probe"
            nested_out.extend(nested.process(tup))
            hashed_out.extend(hashed.process(tup))
        assert tagged(nested_out) == tagged(hashed_out)
        assert nested.boundaries == hashed.boundaries
        assert hashed.states_are_disjoint()
        assert index_agrees(hashed)


class TestValidation:
    def test_hash_requires_equi_join(self):
        with pytest.raises(PlanError):
            SlicedBinaryJoin(0.0, 2.0, selectivity_join(0.5), probe="hash")

    def test_auto_resolves_by_condition(self):
        equi = SlicedBinaryJoin(0.0, 2.0, CONDITION, probe="auto")
        theta = SlicedBinaryJoin(0.0, 2.0, selectivity_join(0.5), probe="auto")
        assert equi.probe == "hash"
        assert theta.probe == "nested_loop"

    def test_unknown_probe_rejected(self):
        with pytest.raises(PlanError):
            SlicedBinaryJoin(0.0, 2.0, CONDITION, probe="btree")
