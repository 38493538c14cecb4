"""Disk tier for cold window state (memory-budgeted sessions).

The lazy-purge sliced chain stratifies its state by age, so "cold" is simply
*the oldest rows*.  This module provides the cold half:

* :class:`SpillStore` — one per engine: a lazily-created temporary
  directory holding append-only segment files.  Its counters (segments
  written, evictions, cold rows decoded) are ``spill.*`` observations of the
  engine's :class:`~repro.engine.metrics.MetricsCollector`.
* :class:`SpillLog` — the tier of every session, time or count windows: per
  stream, the payloads of a :class:`~repro.engine.columns.ChainColumn`'s cold
  prefix, one record per row.  Timestamps and keys of cold rows stay in the
  column, so purges, cursors and the probe mask never touch the log; it is
  read by row id, for the rows a batch reports (``docs/architecture.md``,
  *The disk tier*).  A row of the layout the log learns from its first
  ``int`` / ``float`` row is a fixed-width record ``timestamp, seqno,
  value…`` (32 B for ``join_key, value``): its offset is arithmetic, and a
  read takes a batch's rows of a segment in spans of at most
  :data:`READ_SPAN_BYTES`, one ``pread`` and one numpy gather each, and
  builds their payloads and tuples in bulk.  Any other row (another stream or
  attribute order, a ``bool`` / ``str`` / huge-int / nested value, a
  non-``dict`` payload) is a pickled record in a segment of that format,
  read one ``pread`` each.  The column keeps no object per cold row: its
  ``refs`` entry is one shared mark, and the row id is arithmetic too.
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
from collections import deque
from itertools import accumulate, compress, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.engine.columns import ProbeBinding, pack_records, unpack_records
from repro.engine.metrics import MetricsCollector
from repro.streams.tuples import StreamTuple, build_all, decode_batch, encode_batch

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

#: A read of fixed-width records coalesces the wanted rows of a segment into
#: spans of at most this many bytes, one ``pread`` and one gather each: its
#: scratch stays bounded however much of the log one batch reports.
READ_SPAN_BYTES = 64 * 1024

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_STREAM, _TIMESTAMP, _SEQNO, _VALUES = map(attrgetter, ("stream", "timestamp", "seqno", "values"))

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


def _observed(name: str) -> property:
    """A store counter kept only as the ``name`` observation of the store's
    collector: reading it reads the observation, ``+=`` adds to it."""

    def read(store: "SpillStore") -> int:
        return int(store.metrics.observations.get(name, 0))

    def add(store: "SpillStore", value: int) -> None:
        store.metrics.observe(name, value - read(store))

    return property(read, add)


class SpillStore:
    """Holder of one engine's spill segments.

    The backing directory is created lazily on the first segment write and
    removed by :meth:`close` (or by garbage collection, via a finalizer —
    segments are an execution-time cache, never a persistence layer).
    """

    #: Segment files written over the store's lifetime (monotone).
    segments_written = _observed("spill.segments")
    #: Moves to the disk tier by budget enforcement (monotone): rows whose
    #: payload went to a :class:`SpillLog`.
    evictions = _observed("spill.evictions")
    #: Rows decoded back from segment files (monotone).
    cold_reads = _observed("spill.cold_reads")

    def __init__(self) -> None:
        self._directory: str | None = None
        self._finalizer: weakref.finalize | None = None
        self._sequence = 0
        #: Where the counters above live: a session sets its own collector
        #: here, so they are observations of its snapshot as they happen.
        self.metrics = MetricsCollector()

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



class _LogFile:
    """One segment file of a :class:`SpillLog`: rows ``[first, end)`` in
    ``size`` bytes, as fixed-width records (``offsets`` is ``None``) or as
    pickled ones (record ``i`` is bytes ``[offsets[i], offsets[i + 1])``)."""

    __slots__ = ("first", "end", "size", "offsets", "file")

    def __init__(self, path: str, first: int, fixed: bool) -> None:
        self.first = self.end = first
        self.size = 0
        self.offsets = None if fixed else array("q", [0])
        self.file = open(path, "w+b", buffering=0)


def _shape(tup: StreamTuple) -> tuple | None:
    """What a fixed-width layout fixes of a row: its stream, its attribute
    names in order and each field's exact type, timestamp and seqno first
    (``None``: the payload is no ``dict``)."""
    values = tup.values
    if type(values) is not dict:
        return None
    return tup.stream, (*values,), type(tup.timestamp), type(tup.seqno), *map(type, values.values())


class SpillLog:
    """One stream's cold payloads: an append-only log of one record per row,
    cut into segment files of :data:`LOG_SEGMENT_BYTES`.

    A row is named by the id its :class:`~repro.engine.columns.ChainColumn`
    gives it; ids are consecutive.  The first row whose fields are all plain
    ``int`` / ``float`` fixes the log's *layout* — its stream, attribute
    names in order and field types: a row of that layout (ints within int64)
    is a fixed-width record ``timestamp, seqno, value…`` of 8-byte words,
    found by arithmetic and read in bulk (:meth:`read`).  Any other row —
    another stream or attribute order, a non-``dict`` payload, a ``bool`` /
    ``str`` / huge-int / nested value — is a pickled record, in a segment of
    that format; a change of format starts a new segment.  Nothing is mapped
    (reads are positional, ``pread`` / ``preadv``, so cold bytes never count
    as resident), and a file is unlinked once every row in it is freed.
    """

    __slots__ = ("store", "_segments", "_shape", "_floats", "_empty", "_scratch")

    def __init__(self, store: SpillStore) -> None:
        self.store = store
        #: Oldest first, each one's ``first`` the previous one's ``end``.
        self._segments: list[_LogFile] = []
        #: The layout once a row fixes it: the row's :func:`_shape`, which
        #: words are floats, and an empty payload in attribute order.
        self._shape: tuple | None = None
        self._floats: frozenset[int] = frozenset()
        self._empty: dict[str, None] = {}
        #: What a span is read into, allocated at the first read (a fresh
        #: buffer per span would leave the heap fragmented).
        self._scratch: memoryview | None = None

    def append(self, row: int, tuples: Sequence[StreamTuple | None]) -> None:
        """Write the records of rows ``row``, ``row + 1``, … — ``None`` (a
        row filtered at a link: no payload) as an empty record, of the
        format in hand."""
        tuples = list(tuples)
        fixed, words = self._pack(tuples)
        done = 0
        for fits, run in groupby(None if tup is None else fits for tup, fits in zip(tuples, fixed)):
            stop = done + len(list(run))
            if fits is None:
                fits = self._segments[-1].offsets is None if self._segments else self._shape is not None
            while done < stop:
                done += self._write(row + done, fits, words[done:stop], tuples[done:stop])

    def _pack(self, tuples: list[StreamTuple | None]) -> tuple[list[bool], Any]:
        """Per row, whether it is a record of the layout (fixed by the first
        row that can be one), and the records as rows of int64 words (zeros
        for the other rows)."""
        if self._shape is None:
            for shape in map(_shape, filter(None, tuples)):
                if shape is not None and all(kind in (int, float) for kind in shape[2:]):
                    self._shape, self._empty = shape, dict.fromkeys(shape[1])
                    self._floats = frozenset(k for k, kind in enumerate(shape[2:]) if kind is float)
                    break
            else:
                return [False] * len(tuples), pack_records([], self._floats, [False] * len(tuples))
        fixed = [tup is not None for tup in tuples]
        fields = self._fields(list(compress(tuples, fixed)))
        if fields is None:  # a row of another shape among them: judge them one by one
            fixed = [tup is not None and _shape(tup) == self._shape for tup in tuples]
            fields = self._fields(list(compress(tuples, fixed)))
        ints = [field for k, field in enumerate(fields) if k not in self._floats and field]
        if any(min(field) < _INT64_MIN or max(field) > _INT64_MAX for field in ints):
            at = list(compress(range(len(tuples)), fixed))
            for field in ints:  # a row holding an int beyond int64 is pickled
                for i, value in zip(at, field):
                    fixed[i] = fixed[i] and _INT64_MIN <= value <= _INT64_MAX
            fields = self._fields(list(compress(tuples, fixed)))
        return fixed, pack_records(fields, self._floats, fixed)

    def _fields(self, rows: list[StreamTuple]) -> list[list[Any]] | None:
        """Per field of the layout (timestamp, seqno, each attribute) its values
        in ``rows``, or ``None`` unless every row is of the layout: a bulk check,
        a set per property."""
        stream, names, *kinds = self._shape
        payloads = list(map(_VALUES, rows))
        if not (
            {*map(_STREAM, rows)} <= {stream}
            and {*map(type, payloads)} <= {dict}
            and {*map(tuple, payloads)} <= {names}
        ):
            return None
        fields = [list(map(_TIMESTAMP, rows)), list(map(_SEQNO, rows))]
        fields += [list(map(itemgetter(name), payloads)) for name in names]
        return fields if all({*map(type, field)} <= {kind} for field, kind in zip(fields, kinds)) else None

    def _write(self, row: int, fixed: bool, words: Any, tuples: list[StreamTuple | None]) -> int:
        """Write records of rows ``row``, … (all of one format) to the segment
        in hand, or to a new one if it is full or of the other format; returns
        how many went (up to the record that fills the segment)."""
        segments = self._segments
        last = segments[-1] if segments else None
        if last is None or (last.offsets is None) is not fixed or last.size >= LOG_SEGMENT_BYTES:
            segments.append(_LogFile(self.store.new_segment_path(), row, fixed))
        segment = segments[-1]
        if fixed:
            width = words.shape[1] * 8
            count = min(len(words), -(-(LOG_SEGMENT_BYTES - segment.size) // width))
            segment.file.write(words[:count])
            segment.size += count * width
        else:
            records = [
                b"" if tup is None else pickle.dumps(
                    (tup.stream, tup.timestamp, tup.values, tup.seqno), pickle.HIGHEST_PROTOCOL
                )
                for tup in tuples
            ]
            ends = list(accumulate(map(len, records), initial=segment.size))[1:]
            count = min(len(records), bisect_left(ends, LOG_SEGMENT_BYTES) + 1)
            segment.offsets.extend(ends[:count])
            segment.file.write(b"".join(records[:count]))
            segment.size = ends[count - 1]
        segment.end += count
        return count

    def read(self, rows: Any) -> list[StreamTuple]:
        """The tuples of ``rows`` (an intp array of ascending distinct ids of
        rows with a payload)."""
        self.store.cold_reads += len(rows)
        segments = self._segments
        ends = rows.searchsorted([segment.end for segment in segments]).tolist()
        tuples: list[StreamTuple] = []
        for segment, low, high in zip(segments, [0, *ends], ends):
            if high > low:
                part = rows[low:high] - segment.first
                tuples += (self._gather if segment.offsets is None else self._unpickle)(segment, part)
        return tuples

    def _gather(self, segment: _LogFile, part: Any) -> list[StreamTuple]:
        """The fixed-width records ``part`` (ascending rows of ``segment``): per
        span of at most :data:`READ_SPAN_BYTES` one ``pread`` and one gather,
        then a list per field and the tuples built in bulk."""
        shape, count, words = self._shape, len(part), len(self._shape) - 2
        if self._scratch is None:
            self._scratch = memoryview(bytearray(READ_SPAN_BYTES))
        span, fd, first = READ_SPAN_BYTES // (8 * words), segment.file.fileno(), 0
        stamps, seqnos, *fields = columns = [[] for _ in range(words)]
        while first < count:
            low = int(part[first])
            last = int(part.searchsorted(low + span))
            data = self._scratch[: (int(part[last - 1]) + 1 - low) * 8 * words]
            os.preadv(fd, [data], low * 8 * words)
            unpacked = unpack_records(data, part[first:last] - low, words, self._floats)
            for column, values in zip(columns, unpacked):
                column += values
            first = last
        payloads = list(map(dict.copy, repeat(self._empty, count)))
        for name, values in zip(shape[1], fields):
            deque(map(dict.__setitem__, payloads, repeat(name, count), values), maxlen=0)
        return build_all(StreamTuple, count, repeat(shape[0], count), stamps, payloads, seqnos)

    @staticmethod
    def _unpickle(segment: _LogFile, part: Any) -> list[StreamTuple]:
        """The pickled records ``part`` of ``segment``: a ``pread`` each."""
        fd, offsets = segment.file.fileno(), segment.offsets
        records = [os.pread(fd, offsets[i + 1] - offsets[i], offsets[i]) for i in part.tolist()]
        return build_all(StreamTuple, len(part), *zip(*map(pickle.loads, records)))

    def free(self, row: float) -> None:
        """Every row below ``row`` is gone: unlink the files holding no other."""
        segments = self._segments
        while segments and segments[0].end <= row:
            file = segments.pop(0).file
            file.close()
            try:
                os.unlink(file.name)
            except OSError:
                pass

    def live_bytes(self, row: int) -> int:
        """Bytes of the records from ``row``, the oldest row kept, on."""
        oldest = self._segments[0]
        skipped = row - oldest.first
        if oldest.offsets is None:
            skipped *= 8 * (len(self._shape) - 2)
        else:
            skipped = oldest.offsets[skipped]
        return sum(segment.size for segment in self._segments) - skipped


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
        #: may use the equality index (a dict lookup by its key); any other
        #: condition — including value-based ones that expose key
        #: attributes — gets full scans, with the bound predicate doing the
        #: matching.
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
