"""Disk tier for cold window state (memory-budgeted sessions).

The lazy-purge sliced chain stratifies its state by age, so "cold" is simply
*the oldest rows*.  This module provides the cold half:

* :class:`SpillStore` — one per engine: a lazily-created temporary
  directory holding append-only segment files, plus the session-wide spill
  counters (segments written, evictions, cold rows decoded).
* :class:`SpillLog` — the tier of every session, time or count windows: per
  stream, the payloads of a :class:`~repro.engine.columns.ChainColumn`'s cold
  prefix, one pickled record per row.  Timestamps and keys of cold rows stay
  in the column, so purges, cursors and the probe mask never touch the log; it
  is read by row id, for the rows a batch reports (``docs/architecture.md``,
  *The disk tier*).
* :class:`SpilledState` / :class:`SpillableJoinMixin` — PR 8's per-slice tier
  (a slice operator's state as mmap'd segment files behind the slice-state
  protocol).  No session, chain or operator uses it any more; see the note
  above :class:`_Segment` for why it is still here.

Everything that leaves the tier is decoded back to the original
:class:`~repro.streams.tuples.StreamTuple` (stream, timestamp, payload and
seqno round-trip exactly), so answers never depend on the tier a row happens
to live in.
"""

from __future__ import annotations

import mmap
import os
import pickle
import shutil
import sys
import tempfile
import weakref
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Iterable, Iterator, Sequence

from repro.engine.columns import ProbeBinding
from repro.streams.tuples import StreamTuple, decode_batch, encode_batch

__all__ = [
    "SpillStore",
    "SpillLog",
    "SpilledState",
    "SpillableJoinMixin",
    "estimate_tuple_bytes",
    "parse_memory_budget",
    "DEFAULT_FLUSH_ROWS",
    "LOG_SEGMENT_BYTES",
    "ROW_METADATA_BYTES",
]

_ABSENT = object()

#: Appends buffered in core before a spilled state flushes them to a new
#: segment.  Bounds the resident overhead of one spilled slice to roughly
#: ``DEFAULT_FLUSH_ROWS * tuple_bytes`` per stream.
DEFAULT_FLUSH_ROWS = 128

#: Estimated in-core bytes per spilled row kept as metadata (one float64
#: timestamp, one int64 offset, key / index slots).
ROW_METADATA_BYTES = 32

#: A :class:`SpillLog` starts a new segment file once the current one holds
#: this many bytes: what the files on disk may exceed the live rows by.
LOG_SEGMENT_BYTES = 256 * 1024

_SUFFIXES = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}


def parse_memory_budget(text: str | int | None) -> int | None:
    """Parse a ``--memory-budget`` value: plain bytes or ``64K/64M/1G``."""
    if text is None:
        return None
    if isinstance(text, int):
        budget = text
    else:
        raw = str(text).strip().upper()
        if raw.endswith("B"):
            raw = raw[:-1]
        suffix = raw[-1:] if raw[-1:] in ("K", "M", "G") else ""
        try:
            budget = int(float(raw[: len(raw) - len(suffix)] or "x") * _SUFFIXES[suffix])
        except (ValueError, OverflowError):
            raise ValueError(f"unparseable memory budget {text!r}") from None
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return budget


def estimate_tuple_bytes(tup: StreamTuple) -> int:
    """Shallow in-core byte estimate of one resident stream tuple.

    Counts the tuple record, its payload dict and the payload entries
    (attribute names are usually interned and shared, so this slightly
    overestimates — the safe direction for a budget).
    """
    values = tup.values
    size = sys.getsizeof(tup) + sys.getsizeof(values) + 64  # container slot + ts/seqno
    for key, value in values.items():
        size += sys.getsizeof(key) + sys.getsizeof(value)
    return size


class SpillStore:
    """Holder of one engine's spill segments and spill counters.

    The backing directory is created lazily on the first segment write and
    removed by :meth:`close` (or by garbage collection, via a finalizer —
    segments are an execution-time cache, never a persistence layer).
    """

    def __init__(self) -> None:
        self._directory: str | None = None
        self._finalizer: weakref.finalize | None = None
        self._sequence = 0
        #: Segment files written over the store's lifetime (monotone).
        self.segments_written = 0
        #: Moves to the disk tier by budget enforcement (monotone): rows whose
        #: payload went to a :class:`SpillLog`.
        self.evictions = 0
        #: Rows decoded back from segment files (monotone).
        self.cold_reads = 0

    @property
    def directory(self) -> str | None:
        """The backing directory, or ``None`` before the first write."""
        return self._directory

    def _ensure_directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro-spill-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._directory, True
            )
        return self._directory

    def new_segment_path(self) -> str:
        self._sequence += 1
        self.segments_written += 1
        return os.path.join(self._ensure_directory(), f"seg-{self._sequence:08d}.bin")

    def close(self) -> None:
        """Delete every segment of this store (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._directory = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<SpillStore dir={self._directory!r} segments={self.segments_written} "
            f"cold_reads={self.cold_reads}>"
        )



class SpillLog:
    """One stream's cold payloads: an append-only log of one record per row,
    cut into segment files of :data:`LOG_SEGMENT_BYTES`.

    A row is named by the id its :class:`~repro.engine.columns.ChainColumn`
    gives it; ids are consecutive, so a record is found by arithmetic.  Row
    boundaries live in memory (a store is process-local), a read is one
    ``pread`` of exactly one record (nothing is mapped, so cold bytes never
    count as resident), and a file is unlinked once every row in it is freed.
    """

    __slots__ = ("store", "_segments")

    def __init__(self, store: SpillStore) -> None:
        self.store = store
        #: Oldest first, ``(first row, offsets, file)``: record ``i`` of a
        #: segment is row ``first + i``, bytes ``[offsets[i], offsets[i + 1])``.
        self._segments: list[tuple[int, array, Any]] = []

    def append(self, row: int, tuples: Iterable[StreamTuple | None]) -> None:
        """Write the records of rows ``row``, ``row + 1``, … — ``None`` (a
        row filtered at a link: no payload) as an empty record."""
        records = [
            b"" if tup is None else pickle.dumps(
                (tup.stream, tup.timestamp, tup.values, tup.seqno), pickle.HIGHEST_PROTOCOL
            )
            for tup in tuples
        ]
        segments = self._segments
        done = 0
        while done < len(records):
            if not segments or segments[-1][1][-1] >= LOG_SEGMENT_BYTES:
                path = self.store.new_segment_path()
                segments.append((row + done, array("q", [0]), open(path, "w+b", buffering=0)))
            _, offsets, file = segments[-1]
            ends = list(accumulate(map(len, records[done:]), initial=offsets[-1]))[1:]
            fit = bisect_left(ends, LOG_SEGMENT_BYTES) + 1  # up to the record that fills it
            offsets.extend(ends[:fit])
            file.write(b"".join(records[done : done + fit]))
            done += fit

    def read(self, rows: Sequence[int]) -> list[StreamTuple]:
        """The tuples of ``rows`` (ascending ids of rows with a payload)."""
        self.store.cold_reads += len(rows)
        tuples: list[StreamTuple] = []
        segments = iter(self._segments)
        end = -1  # the row the segment in hand ends before
        for row in rows:
            while row >= end:
                first, offsets, file = next(segments)
                fd, end = file.fileno(), first + len(offsets) - 1
            start = offsets[row - first]
            record = os.pread(fd, offsets[row - first + 1] - start, start)
            tuples.append(StreamTuple(*pickle.loads(record)))
        return tuples

    def free(self, row: float) -> None:
        """Every row below ``row`` is gone: unlink the files holding no other."""
        segments = self._segments
        while segments and segments[0][0] + len(segments[0][1]) - 1 <= row:
            file = segments.pop(0)[2]
            file.close()
            try:
                os.unlink(file.name)
            except OSError:
                pass

    def live_bytes(self, row: int) -> int:
        """Bytes of the records from ``row``, the oldest row kept, on."""
        first, offsets, _ = self._segments[0]
        return sum(segment[1][-1] for segment in self._segments) - offsets[row - first]


# From here to the end of the module: the per-slice tier count sessions ran
# until they moved onto the cold prefix.  Nothing under ``src/`` calls it; it
# stays, with its tests, because ``bench/trace.py`` wraps ``SpilledState.probe``
# / ``purge`` / ``flush`` and ``SpillableJoinMixin.spill`` by name and
# ``bench/`` may only change in a ``benchmark`` PR, which deletes both
# (ROADMAP, "One benchmark harness").
class _Segment:
    """One immutable append-only run of encoded rows, oldest first.

    The file holds the concatenated per-row :func:`encode_batch` payloads;
    row boundaries, the timestamp column and the optional key index live in
    memory (a store is process-local, so nothing needs to be recoverable
    from the bytes alone).
    """

    __slots__ = ("path", "offsets", "timestamps", "index", "consumed", "_mmap", "_file")

    def __init__(
        self,
        path: str,
        rows: list[StreamTuple],
        key_attribute: str | None,
    ) -> None:
        self.path = path
        offsets = array("q", [0])
        timestamps = array("d")
        index: dict[Any, array] | None = {} if key_attribute is not None else None
        with open(path, "wb") as handle:
            position = 0
            for ordinal, tup in enumerate(rows):
                payload = encode_batch((tup,))
                handle.write(payload)
                position += len(payload)
                offsets.append(position)
                timestamps.append(tup.timestamp)
                if index is not None:
                    key = tup.values.get(key_attribute, _ABSENT)
                    try:
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = bucket = array("q")
                        bucket.append(ordinal)
                    except TypeError:
                        # Unhashable key: the whole segment falls back to
                        # full scans (probes re-check the condition anyway).
                        index = None
        self.offsets = offsets
        self.timestamps = timestamps
        self.index = index
        self.consumed = 0
        self._mmap: mmap.mmap | None = None
        self._file = None

    def __len__(self) -> int:
        return len(self.timestamps) - self.consumed

    @property
    def total_rows(self) -> int:
        return len(self.timestamps)

    def remaining_bytes(self) -> int:
        return self.offsets[-1] - self.offsets[self.consumed]

    def _view(self) -> mmap.mmap:
        if self._mmap is None:
            self._file = open(self.path, "rb")
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        return self._mmap

    def row(self, ordinal: int) -> StreamTuple:
        view = self._view()
        return decode_batch(view[self.offsets[ordinal] : self.offsets[ordinal + 1]])[0]

    def rows(self, start: int, stop: int) -> list[StreamTuple]:
        view = self._view()
        offsets = self.offsets
        return [
            decode_batch(view[offsets[i] : offsets[i + 1]])[0]
            for i in range(start, stop)
        ]

    def purge_cut(self, now: float, end: float) -> int:
        """Rows past the head with ``now - t >= end`` (exact scalar predicate).

        The column is timestamp-ordered, so the predicate is monotone and a
        binary search finds the same cut the in-core state's forward scan
        would.
        """
        timestamps = self.timestamps
        head = self.consumed
        n = len(timestamps)
        if n - head <= 32:
            i = head
            while i < n and now - timestamps[i] >= end:
                i += 1
            return i - head
        lo, hi = head, n
        while lo < hi:
            mid = (lo + hi) // 2
            if now - timestamps[mid] >= end:
                lo = mid + 1
            else:
                hi = mid
        return lo - head

    def release(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None
        try:
            os.unlink(self.path)
        except OSError:
            pass


class SpilledState:
    """One stream's slice state living (mostly) on the disk tier.

    Deque-compatible for everything that materializes state (iteration,
    keyed extract, migrations) and offering :meth:`purge` / :meth:`probe`
    for the joins' hot path.  Rows keep global arrival order: segments
    oldest-first, then the resident tail buffer.
    """

    __slots__ = ("store", "binding", "key_attribute", "flush_rows", "_segments", "_tail", "_length")

    def __init__(
        self,
        store: SpillStore,
        binding: ProbeBinding,
        tuples: Iterable[StreamTuple] = (),
        flush_rows: int = DEFAULT_FLUSH_ROWS,
    ) -> None:
        self.store = store
        self.binding = binding
        #: Attribute of the per-segment key index.  Only a plain equi-join
        #: may use the equality index (its dict-lookup semantics are exactly
        #: those of the in-core hash probe); any other condition — including
        #: value-based ones that expose key attributes — gets full scans,
        #: with the bound predicate doing the matching.
        self.key_attribute = binding.key_attribute if binding.equi else None
        self.flush_rows = int(flush_rows)
        self._segments: list[_Segment] = []
        self.load(tuples)

    def load(self, tuples: Iterable[StreamTuple]) -> None:
        """Replace the resident set: one new segment holding ``tuples``."""
        self.release()
        self._tail = list(tuples)
        self._length = len(self._tail)
        self.flush()

    # -- deque-compatible surface --------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[StreamTuple]:
        read = 0
        for segment in self._segments:
            remaining = len(segment)
            if remaining:
                read += remaining
                yield from segment.rows(segment.consumed, segment.total_rows)
        if read:
            self.store.cold_reads += read
        yield from self._tail

    def __getitem__(self, index: int) -> StreamTuple:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("state index out of range")
        for segment in self._segments:
            remaining = len(segment)
            if index < remaining:
                self.store.cold_reads += 1
                return segment.row(segment.consumed + index)
            index -= remaining
        return self._tail[index]

    def append(self, tup: StreamTuple) -> None:
        self._tail.append(tup)
        self._length += 1
        if len(self._tail) >= self.flush_rows:
            self.flush()

    def popleft(self) -> StreamTuple:
        if not self._length:
            raise IndexError("pop from an empty state")
        self._length -= 1
        segments = self._segments
        while segments:
            segment = segments[0]
            if len(segment):
                self.store.cold_reads += 1
                tup = segment.row(segment.consumed)
                segment.consumed += 1
                if not len(segment):
                    segment.release()
                    del segments[0]
                return tup
            segment.release()
            del segments[0]
        return self._tail.pop(0)

    # -- the slice-state protocol ----------------------------------------------
    def purge(self, now: float, end: float) -> tuple[list[StreamTuple], int]:
        """Expel every head tuple with ``now - t >= end``.

        Returns ``(purged tuples oldest-first, comparison count)``; the
        count reproduces the in-core scan loop exactly (one per purged head
        plus the failing check when tuples remain).
        """
        purged: list[StreamTuple] = []
        segments = self._segments
        while segments:
            segment = segments[0]
            cut = segment.purge_cut(now, end)
            if cut:
                self.store.cold_reads += cut
                purged.extend(segment.rows(segment.consumed, segment.consumed + cut))
                segment.consumed += cut
            if len(segment):
                break
            segment.release()
            del segments[0]
        else:
            tail = self._tail
            drop = 0
            while drop < len(tail) and now - tail[drop].timestamp >= end:
                drop += 1
            if drop:
                purged.extend(tail[:drop])
                del tail[:drop]
        self._length -= len(purged)
        comparisons = len(purged) + (1 if self._length else 0)
        return purged, comparisons

    def candidates(self, probing: StreamTuple) -> list[StreamTuple]:
        """Decode the tuples a probe by ``probing`` must examine, in arrival order.

        With a key index (equi-joins) only the probing key's rows of each
        segment are decoded; a probing tuple without the attribute (or an
        unindexable key) falls back to a full scan.  Candidates may
        over-select — :meth:`probe` re-checks every one with the join
        condition's bound predicate, exactly like the in-core bucket probe.
        """
        attribute = self.key_attribute
        key = (
            probing.values.get(self.binding.probe_attribute, _ABSENT)
            if attribute is not None
            else _ABSENT
        )
        use_index = key is not _ABSENT
        candidates: list[StreamTuple] = []
        read = 0
        for segment in self._segments:
            if not len(segment):
                continue
            index = segment.index if use_index else None
            if index is not None:
                try:
                    bucket = index.get(key)
                except TypeError:
                    bucket = None
                    index = None
                if index is not None:
                    if bucket:
                        consumed = segment.consumed
                        live = [o for o in bucket if o >= consumed]
                        if live:
                            read += len(live)
                            candidates.extend(segment.row(o) for o in live)
                    continue
            read += len(segment)
            candidates.extend(segment.rows(segment.consumed, segment.total_rows))
        if read:
            self.store.cold_reads += read
        tail = self._tail
        if tail:
            if use_index:
                candidates.extend(
                    tup
                    for tup in tail
                    if tup.values.get(attribute, _ABSENT) == key
                )
            else:
                candidates.extend(tail)
        return candidates

    def probe(self, probing: StreamTuple) -> tuple[list[StreamTuple], int]:
        """The resident tuples matching ``probing``, oldest first.

        Returns ``(matches, comparison count)``: every decoded candidate is
        one comparison, re-checked with the bound scalar predicate.
        """
        candidates = self.candidates(probing)
        if not candidates:
            return candidates, 0
        check = self.binding.bind(probing)
        return [tup for tup in candidates if check(tup)], len(candidates)

    # -- tiering management ----------------------------------------------------
    def flush(self) -> None:
        """Move the resident tail buffer into a new segment file."""
        if not self._tail:
            return
        path = self.store.new_segment_path()
        self._segments.append(_Segment(path, self._tail, self.key_attribute))
        self._tail = []

    def release(self) -> None:
        """Delete every segment of this state (called when it is replaced)."""
        for segment in self._segments:
            segment.release()
        self._segments = []
        self._tail = []
        self._length = 0

    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """``(resident, spilled)`` byte estimate.

        Resident is the tail buffer plus per-row segment metadata; spilled
        is the bytes of live (unconsumed) rows on the disk tier.
        """
        rows = self._length - len(self._tail)
        return (
            int(len(self._tail) * tuple_bytes) + rows * ROW_METADATA_BYTES,
            sum(segment.remaining_bytes() for segment in self._segments),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<SpilledState rows={self._length} segments={len(self._segments)} "
            f"tail={len(self._tail)}>"
        )


class SpillableJoinMixin:
    """Tiering surface shared by the time- and count-sliced binary joins.

    Assumes the host class keeps its per-stream slice states in
    ``self._states`` — the same duck surface
    :class:`~repro.operators.sliced_join.KeyedStateMixin` relies on.
    """

    def is_spilled(self) -> bool:
        return any(isinstance(state, SpilledState) for state in self._states.values())

    def spill(self, store: SpillStore) -> None:
        """Move both stream states of this slice to the disk tier.

        The cold states inherit the in-core states' probe bindings; a
        resident key index is simply dropped with the state it belonged to
        (it would pin every spilled tuple in core — the per-segment key
        index replaces it, and ``load_state`` rebuilds it on
        re-materialization).
        """
        if self.is_spilled():
            return
        for stream, state in self._states.items():
            self._states[stream] = SpilledState(store, state.binding, state)

    def spill_flush(self) -> None:
        """Flush the resident tail buffers of every spilled state."""
        for state in self._states.values():
            if isinstance(state, SpilledState):
                state.flush()

    def release_spill(self) -> None:
        """Delete this slice's segments (the slice is being discarded)."""
        for state in self._states.values():
            state.release()

    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """(resident, spilled) byte estimate of this slice's states."""
        resident = 0
        spilled = 0
        for state in self._states.values():
            state_resident, state_spilled = state.memory_bytes(tuple_bytes)
            resident += state_resident
            spilled += state_spilled
        return resident, spilled
