"""Unit tests for the shared-memory SPSC ring (PR 6).

The sharded engine's process driver rests on this transport; these tests
pin its record framing, wrap-around behavior, backpressure and oversize
signaling in isolation, where a counterexample is a few bytes instead of a
diverged join answer.
"""

from __future__ import annotations

import pytest

from repro.engine.ring import DEFAULT_RING_CAPACITY, SpscRing


def _drain(ring):
    out = []
    while (record := ring.try_pop()) is not None:
        out.append(record)
    return out


def test_fifo_roundtrip_and_empty_pop():
    ring = SpscRing(256)
    try:
        assert ring.try_pop() is None
        records = [b"alpha", b"", b"b" * 40, b"last"]
        for record in records:
            assert ring.try_push(record)
        assert _drain(ring) == records
        assert ring.try_pop() is None
        assert len(ring) == 0
    finally:
        ring.close()
        ring.unlink()


def test_wrap_around_preserves_record_order():
    ring = SpscRing(64)
    try:
        payloads = [bytes([i]) * (5 + (i * 7) % 23) for i in range(200)]
        popped = []
        for payload in payloads:
            while not ring.try_push(payload):
                popped.append(ring.try_pop())
            # interleave pops so the offsets lap the capacity many times
            if len(payload) % 3 == 0:
                record = ring.try_pop()
                if record is not None:
                    popped.append(record)
        popped.extend(_drain(ring))
        assert popped == payloads
    finally:
        ring.close()
        ring.unlink()


def test_full_ring_reports_backpressure_not_loss():
    ring = SpscRing(64)
    try:
        pushed = 0
        while ring.try_push(b"x" * 10):
            pushed += 1
        assert pushed > 0
        assert not ring.try_push(b"x" * 10)  # no space right now
        assert ring.try_pop() == b"x" * 10
        assert ring.try_push(b"x" * 10)  # space reclaimed
        assert len(_drain(ring)) == pushed
    finally:
        ring.close()
        ring.unlink()


def test_oversize_record_raises_for_pipe_fallback():
    ring = SpscRing(64)
    try:
        with pytest.raises(ValueError):
            ring.try_push(b"y" * 64)  # could never fit: caller must use the pipe
    finally:
        ring.close()
        ring.unlink()


def test_attach_sees_existing_records_and_capacity():
    ring = SpscRing(128)
    try:
        ring.try_push(b"handoff")
        other = SpscRing.attach(ring.name)
        assert other.capacity == 128
        assert other.try_pop() == b"handoff"
        other.close()
    finally:
        ring.close()
        ring.unlink()


def test_capacity_validation_and_default():
    with pytest.raises(ValueError):
        SpscRing(32)
    assert DEFAULT_RING_CAPACITY >= 1 << 16


def test_half_ring_record_is_pushed_or_refused_for_good_at_every_offset():
    """A record of more than half the ring used to be refused *forever* at an
    unlucky write offset, even by an empty ring (the contiguous restart needs
    ``tail + needed`` free bytes), so a live worker's producer spun; it now
    raises like any record that cannot fit.  The largest admitted record goes
    through at every one of the 256 offsets."""
    capacity = 256
    fits = b"f" * (capacity // 2 - 4)
    # A record starts at 0 or at least 4 bytes after one: 1..3 cannot be reached.
    for offset in [0, *range(4, capacity)]:
        ring = SpscRing(capacity)
        try:
            # Walk the write offset there in admissible steps; leave the ring empty.
            remaining = offset
            while remaining:
                step = 100 if remaining > capacity // 2 else remaining
                assert ring.try_push(b"s" * (step - 4))
                assert ring.try_pop() is not None
                remaining -= step
            assert ring._write == offset and len(ring) == 0
            with pytest.raises(ValueError):
                ring.try_push(fits + b"!")
            assert ring.try_push(fits), offset
            assert ring.try_pop() == fits
        finally:
            ring.close()
            ring.unlink()
