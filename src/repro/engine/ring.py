"""Single-producer single-consumer ring over ``multiprocessing.shared_memory``.

The sharded engine's process mode historically round-tripped every batch
through a pickled pipe *call* — one send, one reply, one wakeup per batch —
which left worker processes slower than the serial baseline.
:class:`SpscRing` replaces the arrival direction with a lock-free byte ring
in shared memory: the parent pushes length-prefixed records (columnar batch
encodings, see :func:`repro.streams.tuples.encode_batch`), the worker drains
them without any syscall or copy of the parent's Python objects.

Layout
------
The segment starts with a 24-byte header of little-endian ``u64`` fields::

    [0:8)    write_pos  — monotonically increasing byte offset (producer-owned)
    [8:16)   read_pos   — monotonically increasing byte offset (consumer-owned)
    [16:24)  capacity   — size of the data region in bytes (set at creation)

followed by ``capacity`` bytes of data region.  A record is a ``u32`` length
prefix plus payload, stored contiguously: when a record does not fit in the
tail of the region, the producer writes a ``0xFFFFFFFF`` wrap marker (when
at least 4 tail bytes exist) and restarts at offset 0; the consumer skips
tails shorter than 4 bytes unconditionally.  ``capacity`` travels in the
header because the kernel may round the segment itself up to a page size,
and both sides must agree on the modulus.

Correctness model: one producer and one consumer, each caching its own
offset locally and reading the other side's from the header.  Offsets are
aligned 8-byte stores (atomic on every platform CPython runs on), the
producer publishes ``write_pos`` only after the payload bytes are in place,
and the sharded engine additionally orders ring traffic against pipe
commands (a command is only executed after the worker drained the ring), so
the ring never needs locks.  Stale reads of the opposite offset are safe:
they only under-estimate the available space/data.

Rings are picklable by segment name, so a ring created in the parent can be
handed to a worker through ``multiprocessing.Process`` args under any start
method; the attached copy initialises its local offset caches from the
header.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

__all__ = ["SpscRing", "DEFAULT_RING_CAPACITY"]

#: Default data-region size (bytes) of one arrival ring.
DEFAULT_RING_CAPACITY = 1 << 20

_HEADER = 24
_WRAP = 0xFFFFFFFF
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class SpscRing:
    """A lock-free SPSC byte ring in a shared-memory segment."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 64:
            raise ValueError(f"ring capacity must be at least 64 bytes, got {capacity}")
        self._shm = shared_memory.SharedMemory(create=True, size=_HEADER + capacity)
        buf = self._shm.buf
        _U64.pack_into(buf, 0, 0)
        _U64.pack_into(buf, 8, 0)
        _U64.pack_into(buf, 16, capacity)
        self.capacity = capacity
        self._write = 0
        self._read = 0

    @classmethod
    def attach(cls, name: str) -> "SpscRing":
        """Attach to an existing ring by shared-memory segment name."""
        ring = cls.__new__(cls)
        ring._shm = shared_memory.SharedMemory(name=name)
        buf = ring._shm.buf
        ring.capacity = _U64.unpack_from(buf, 16)[0]
        ring._write = _U64.unpack_from(buf, 0)[0]
        ring._read = _U64.unpack_from(buf, 8)[0]
        return ring

    def __reduce__(self):
        return (SpscRing.attach, (self._shm.name,))

    @property
    def name(self) -> str:
        return self._shm.name

    # -- producer side --------------------------------------------------------
    def try_push(self, payload: bytes) -> bool:
        """Append one record; ``False`` when the ring lacks space right now.

        Raises :class:`ValueError` for a record, prefix included, of more
        than half the capacity, so the caller falls back to its oversize
        transport (the pipe) instead of spinning: records are contiguous, and
        past half the ring there are write offsets where restarting at 0
        (``tail + needed`` free bytes) fails for good even on an empty ring.
        """
        buf = self._shm.buf
        capacity = self.capacity
        length = len(payload)
        needed = 4 + length
        if needed > capacity // 2:
            raise ValueError(
                f"record of {length} bytes cannot always fit a ring of {capacity} bytes"
            )
        write = self._write
        read = _U64.unpack_from(buf, 8)[0]
        free = capacity - (write - read)
        pos = write - (write // capacity) * capacity
        tail = capacity - pos
        if tail < needed:
            if tail + needed > free:
                return False
            if tail >= 4:
                _U32.pack_into(buf, _HEADER + pos, _WRAP)
            write += tail
            pos = 0
        elif needed > free:
            return False
        _U32.pack_into(buf, _HEADER + pos, length)
        start = _HEADER + pos + 4
        buf[start : start + length] = payload
        write += needed
        self._write = write
        # Publishing the offset *after* the payload is what makes the record
        # visible-atomically to the consumer.
        _U64.pack_into(buf, 0, write)
        return True

    # -- consumer side --------------------------------------------------------
    def try_pop(self) -> bytes | None:
        """Remove and return the oldest record, or ``None`` when empty."""
        buf = self._shm.buf
        capacity = self.capacity
        read = self._read
        write = _U64.unpack_from(buf, 0)[0]
        if read == write:
            return None
        pos = read - (read // capacity) * capacity
        tail = capacity - pos
        if tail < 4:
            read += tail
            pos = 0
        elif _U32.unpack_from(buf, _HEADER + pos)[0] == _WRAP:
            read += tail
            pos = 0
        length = _U32.unpack_from(buf, _HEADER + pos)[0]
        start = _HEADER + pos + 4
        payload = bytes(buf[start : start + length])
        read += 4 + length
        self._read = read
        _U64.pack_into(buf, 8, read)
        return payload

    def __len__(self) -> int:
        """Bytes currently enqueued (including framing), from either side."""
        buf = self._shm.buf
        return _U64.unpack_from(buf, 0)[0] - _U64.unpack_from(buf, 8)[0]

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (both sides call this)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exported memoryview still alive
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator calls this exactly once)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already destroyed
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<SpscRing {self._shm.name} capacity={self.capacity}>"
