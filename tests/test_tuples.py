"""Unit tests for the stream tuple model."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.streams.tuples import (
    FEMALE,
    MALE,
    JoinedTuple,
    Punctuation,
    RefTuple,
    StreamTuple,
    build_all,
    make_tuple,
)


class TestStreamTuple:
    def test_make_tuple_sets_stream_and_timestamp(self):
        tup = make_tuple("A", 3.5, x=1, y="v")
        assert tup.stream == "A"
        assert tup.timestamp == 3.5
        assert tup["x"] == 1
        assert tup["y"] == "v"

    def test_getitem_missing_attribute_raises(self):
        tup = make_tuple("A", 0.0, x=1)
        with pytest.raises(KeyError):
            tup["missing"]

    def test_get_with_default(self):
        tup = make_tuple("A", 0.0, x=1)
        assert tup.get("x") == 1
        assert tup.get("missing", 42) == 42

    def test_sequence_numbers_are_unique_and_increasing(self):
        first = make_tuple("A", 0.0, x=1)
        second = make_tuple("A", 0.0, x=1)
        assert second.seqno > first.seqno

    def test_age_relative_to_clock(self):
        tup = make_tuple("A", 2.0, x=1)
        assert tup.age(5.0) == pytest.approx(3.0)


class TestJoinedTuple:
    def test_timestamp_is_max_of_components(self):
        a = make_tuple("A", 1.0, x=1)
        b = make_tuple("B", 4.0, x=1)
        assert JoinedTuple(a, b).timestamp == 4.0
        assert JoinedTuple(b, a).timestamp == 4.0

    def test_values_are_prefixed_with_stream_names(self):
        a = make_tuple("A", 1.0, x=1)
        b = make_tuple("B", 2.0, y=7)
        joined = JoinedTuple(a, b)
        assert joined.values == {"A.x": 1, "B.y": 7}

    def test_key_identifies_the_pair(self):
        a = make_tuple("A", 1.0, x=1)
        b = make_tuple("B", 2.0, x=1)
        assert JoinedTuple(a, b).key() == (a.seqno, b.seqno)


class TestRefTuple:
    def test_male_and_female_share_the_base_tuple(self):
        base = make_tuple("A", 1.0, x=1)
        male = RefTuple(base, MALE)
        female = RefTuple(base, FEMALE)
        assert male.is_male() and male.gender == MALE
        assert not female.is_male() and female.gender == FEMALE
        assert male.base is female.base
        assert male.timestamp == female.timestamp == 1.0
        assert male.stream == "A"
        assert male.seqno == base.seqno

    def test_values_delegate_to_base(self):
        base = make_tuple("A", 1.0, x=5)
        assert RefTuple(base, MALE).values["x"] == 5


class TestPunctuation:
    def test_carries_timestamp_and_source(self):
        punct = Punctuation(4.5, source="slice_2")
        assert punct.timestamp == 4.5
        assert punct.source == "slice_2"

    def test_default_source_is_empty(self):
        assert Punctuation(1.0).source == ""


class FrozenValues(dict):
    """A payload that hashes, so the records holding it do."""

    def __hash__(self):
        return hash(frozenset(self.items()))


def hashed(record):
    """``hash(record)``, or the type of the error hashing raises."""
    try:
        return hash(record)
    except TypeError as error:
        return type(error)


class TestBuildAll:
    """``build_all`` makes, in bulk, the records the constructor makes."""

    @pytest.mark.parametrize("payload", [dict, FrozenValues])
    @pytest.mark.parametrize("kind", [StreamTuple, JoinedTuple])
    def test_records_equal_hash_and_pickle_as_constructed_and_stay_frozen(self, kind, payload):
        a = StreamTuple("A", 1.0, payload(k=1, v="x"), 7)
        b = StreamTuple("B", 2.5, payload(k=1), 8)
        rows = [(a.stream, a.timestamp, a.values, a.seqno), (b.stream, b.timestamp, b.values, b.seqno)]
        if kind is JoinedTuple:
            rows = [(a, b), (b, a)]
        built = build_all(kind, len(rows), *zip(*rows))
        made = [kind(*row) for row in rows]
        assert built == made and [type(record) for record in built] == [kind, kind]
        for record, reference in zip(built, made):
            assert hashed(record) == hashed(reference)
            assert hashed(record) is not TypeError or payload is dict
            assert pickle.dumps(record) == pickle.dumps(reference)
            assert pickle.loads(pickle.dumps(record)) == reference
            with pytest.raises(FrozenInstanceError):
                setattr(record, kind.__slots__[0], None)

    def test_no_rows_no_columns(self):
        assert build_all(StreamTuple, 0) == []

    def test_a_built_record_takes_no_default(self):
        """Every field comes from its column: a stream tuple's seqno is not
        drawn from the counter."""
        (built,) = build_all(StreamTuple, 1, ["A"], [0.0], [{}], [-3])
        assert built.seqno == -3 and built == StreamTuple("A", 0.0, {}, -3)
