"""The in-core window state: columnar (struct-of-arrays) blocks.

:class:`ColumnarState` is one stream's state in one slice *operator* — the
static plans and the per-item reference chain — behind the scalar slice-state
protocol (``append``, ``purge``, ``probe``, ``candidates``, the
deque-compatible read surface, ``load``), so the join operators keep only the
male/female protocol of Figure 9 and never ask what a state is.
:class:`ChainColumn` is the same columns holding one stream's state for a
*whole* cursor chain — what every session runs, time or count windows — its
slices row ranges between cursors and, under a memory budget, its oldest
rows' payloads in a log on disk.  Either is a timestamp-ordered container of
parallel columns —

* ``timestamps`` — a ``float64`` array, used by cross-purging.  The purge
  is a forward sweep from the head, a slice's cursor or the previous male's
  cut, evaluating the *exact* scalar expression ``now - t >= end`` of the
  tuple-at-a-time path on Python floats: purge decisions are bit-identical.
* ``keys`` — a ``float64`` array of the join-key attribute, used by
  vectorized probing (see ``match_mask`` in :mod:`repro.query.predicates`).
  Only values whose Python comparison semantics are exactly representable in
  a double go into the column (bools, ints with ``|v| <= 2**53``, floats);
  the first value outside that set permanently invalidates the column and
  probing falls back to per-tuple checks, so correctness never depends on
  lossy conversions.  Built for ``probe="hash"``, a state keeps a per-key
  index instead (``key -> resident tuples``, or ``key -> row numbers`` in a
  chain column), maintained by every call that adds or removes rows.
* ``refs`` — the parallel Python list of the resident
  :class:`~repro.streams.tuples.StreamTuple` payload references.  Columns
  are an internal acceleration structure: everything that leaves the state
  (purged tuples, join outputs, extracted keyed state) is materialized from
  ``refs``, and state always crosses migration boundaries as plain tuple
  lists (see ``docs/invariants.md``).

The block kernel lives in :class:`ChainColumn` only: ``sweep`` / ``probe``
take a whole batch over every slice, vectorized when every key involved has
an exact float64 form and otherwise the bound scalar check over the same row
ranges.  A :class:`ColumnarState` is driven one call at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import accumulate
from operator import lt as _lt
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.errors import MigrationError

__all__ = [
    "ChainColumn",
    "ColumnarState",
    "ProbeBinding",
    "key_level",
    "INT_EXACT_MAX",
    "FLOAT_EXACT_MAX",
]

#: Integers up to this magnitude survive float64 *arithmetic* (modular
#: matching adds two keys and reduces mod the domain) without rounding.
INT_EXACT_MAX = 2**40
#: Integers up to this magnitude are exactly representable in a float64,
#: which is all equality probing needs.
FLOAT_EXACT_MAX = 2**53

#: Initial column capacity (entries).
_MIN_CAPACITY = 16
#: Compact the consumed prefix away once it is this long and at least half
#: of the backing storage.
_COMPACT_AT = 64

#: Timestamps the forward purge sweep converts to Python floats at a time.
_PURGE_CHUNK = 32
#: Cap on the elements of one 2-D probe mask (males x visible rows): a
#: block's temporaries stay within a few hundred KiB however long the slice.
_BLOCK_ELEMENTS = 32768

_MISSING = object()
#: What purging or probing an empty state returns (shared, never mutated).
_NOTHING = ((), 0)


def key_level(value: Any) -> int:
    """Classify a join-key value for columnar storage.

    Returns ``0`` when the value is an int/bool small enough for exact
    float64 *arithmetic* (safe for modular matching), ``1`` when it is only
    safe for exact float64 *equality* (floats, larger ints), and ``2`` when
    it must not enter a float column at all (strings, huge ints, arbitrary
    objects) — level 2 invalidates the key column and forces per-tuple
    probing.
    """
    kind = type(value)
    if kind is bool:
        return 0
    if kind is int:
        if -INT_EXACT_MAX <= value <= INT_EXACT_MAX:
            return 0
        if -FLOAT_EXACT_MAX <= value <= FLOAT_EXACT_MAX:
            return 1
        return 2
    if kind is float:
        return 1
    return 2


class ProbeBinding:
    """One stream's side of a join condition, as its slice state sees it.

    Fixed per stream when a join (re)configures its probe, so nothing about
    orientation is re-derived per tuple: a state storing the condition's
    *left* tuples keeps the left attribute as its key, reads the right
    attribute off the probing tuple and binds the scalar fallback with
    ``bind_right`` (and the mirror image for a state of right tuples).

    ``indexed`` asks the in-core state for a per-key index in place of the
    key column (``probe="hash"``); ``equi`` says the condition is a plain
    equi-join, the only kind whose dict-lookup semantics an equality index
    reproduces — read only by the per-slice tier kept in
    :mod:`repro.engine.spill`, which indexes its segments on it regardless of
    ``indexed``; no chain or join sets it.
    """

    __slots__ = (
        "key_attribute", "probe_attribute", "all_match", "match_mask", "mask_level", "bind",
        "indexed", "equi",
    )

    def __init__(
        self,
        condition: Any,
        stores_left: bool,
        indexed: bool = False,
        equi: bool = False,
    ) -> None:
        own, other = condition.columnar_attributes or (None, None)
        if not stores_left:
            own, other = other, own
        self.key_attribute = own
        self.probe_attribute = other
        self.all_match = condition.columnar_all_match
        self.match_mask = condition.match_mask
        self.mask_level = condition.mask_level
        self.bind = condition.bind_right if stores_left else condition.bind_left
        self.indexed = indexed
        self.equi = equi


class ColumnarState:
    """A timestamp-ordered slice state stored as parallel columns.

    Parameters
    ----------
    binding:
        The :class:`ProbeBinding` of the stream this state stores: which
        attribute to keep as the key column (none when the condition has no
        columnar form — probing then uses the per-tuple fallback) or to
        index on, and how a probing tuple is matched against it.
    tuples:
        Initial resident tuples, oldest first.
    """

    __slots__ = ("binding", "_refs", "_ts", "_keys", "_head", "_key_level", "_index")

    def __init__(self, binding: ProbeBinding, tuples: Iterable[Any] = ()) -> None:
        self.binding = binding
        self.load(tuples)

    # -- bulk (re)build -------------------------------------------------------
    def load(self, tuples: Iterable[Any]) -> None:
        """Replace the resident set, rebuilding every column in one pass."""
        refs = list(tuples)
        self._refs = refs
        self._head = 0
        n = len(refs)
        capacity = max(_MIN_CAPACITY, n)
        ts = np.empty(capacity, dtype=np.float64)
        if n:
            ts[:n] = [ref.timestamp for ref in refs]
        self._ts = ts
        self._keys = None
        self._key_level = 0
        self._index = None
        attribute = self.binding.key_attribute
        if self.binding.indexed:
            # The index supplies the candidates, so a key column would go
            # unused.
            self._index = self._build_index(refs)
            return
        if attribute is None:
            return
        level = 0
        values: list[float] = []
        for ref in refs:
            value = ref.values.get(attribute, _MISSING)
            value_level = key_level(value)
            if value_level > level:
                level = value_level
                if level >= 2:
                    return  # column stays invalid (self._keys is None)
            values.append(float(value))
        keys = np.empty(capacity, dtype=np.float64)
        if n:
            keys[:n] = values
        self._keys = keys
        self._key_level = level

    def _build_index(self, refs: list[Any]) -> Any:
        """``key -> resident tuples`` (oldest first) over freshly loaded rows."""
        index = defaultdict(deque)
        attribute = self.binding.key_attribute
        for ref in refs:
            index[ref.values.get(attribute, _MISSING)].append(ref)
        return index

    # -- deque-compatible surface --------------------------------------------
    def __len__(self) -> int:
        return len(self._refs) - self._head

    def __iter__(self) -> Iterator[Any]:
        return iter(self._refs[self._head :])

    def __getitem__(self, index: int) -> Any:
        if index < 0:
            index += len(self)
        position = self._head + index
        if position < self._head or position >= len(self._refs):
            raise IndexError("state index out of range")
        return self._refs[position]

    def append(self, ref: Any) -> None:
        refs = self._refs
        n = len(refs)
        if n == self._ts.shape[0]:
            self._ensure_room()
            refs = self._refs
            n = len(refs)
        refs.append(ref)
        self._ts[n] = ref.timestamp
        keys = self._keys
        if keys is not None:
            value = ref.values.get(self.binding.key_attribute, _MISSING)
            value_level = key_level(value)
            if value_level >= 2:
                self._keys = None
            else:
                if value_level > self._key_level:
                    self._key_level = value_level
                keys[n] = value
        elif self._index is not None:
            self._index[ref.values.get(self.binding.key_attribute, _MISSING)].append(ref)

    def popleft(self) -> Any:
        head = self._head
        refs = self._refs
        if head >= len(refs):
            raise IndexError("pop from an empty state")
        ref = refs[head]
        refs[head] = None
        self._head = head + 1
        if self._index is not None:
            self._unindex((ref,))
        self._maybe_compact()
        return ref

    # -- the slice-state protocol ----------------------------------------------
    def purge(self, now: float, end: float) -> tuple[Any, int]:
        """Expel every head tuple with ``now - t >= end``.

        Returns ``(purged tuples oldest-first, comparison count)``: one
        comparison per purged head, plus the failing check when tuples
        remain — the count of the literal scan loop.
        """
        size = len(self._refs) - self._head
        if not size:
            return _NOTHING
        (cut,) = self.purge_cut((now,), (size,), end)
        return self.take(cut), cut + (cut < size)

    def candidates(self, probing: Any) -> Any:
        """The resident tuples a scalar probe by ``probing`` must examine.

        Every resident tuple, or the probing key's bucket when indexed —
        what the literal per-item Figure-9 path walks candidate by candidate.
        """
        if self._index is None:
            return self._refs[self._head :]
        key = probing.values.get(self.binding.probe_attribute, _MISSING)
        return self._index.get(key, ())

    def probe(self, probing: Any) -> tuple[Any, int]:
        """The resident tuples matching ``probing``, oldest first.

        Returns ``(matches, comparison count)`` — the count is the number of
        candidates a scalar probe would have examined.  One vectorized mask
        over the key column when the condition and both keys have an exact
        columnar form; the index bucket when indexed; otherwise (float64-
        hostile keys, conditions without a columnar form) the condition's
        pre-bound scalar predicate, bound only when this fallback runs.
        """
        refs = self._refs
        head = self._head
        n = len(refs)
        if n == head:
            return _NOTHING
        binding = self.binding
        keys = self._keys
        if keys is not None:
            probe_key = probing.values.get(binding.probe_attribute, _MISSING)
            level = max(self._key_level, key_level(probe_key))
            if level <= binding.mask_level:
                sel = binding.match_mask(float(probe_key), keys[head:n], level == 0)
                hits = np.nonzero(sel)[0]
                if head:
                    hits += head
                return [refs[row] for row in hits.tolist()], n - head
        elif binding.all_match:
            return refs[head:], n - head
        candidates = self.candidates(probing)
        if not candidates:
            return _NOTHING
        check = binding.bind(probing)
        return [tup for tup in candidates if check(tup)], len(candidates)

    # -- columnar accessors ---------------------------------------------------
    def purge_cut(
        self, nows: Sequence[float], stops: Sequence[int], end: float, start: int = 0
    ) -> list[int]:
        """Running purge cuts of a run of probing timestamps, one forward sweep.

        ``cuts[j]`` is the number of head rows expelled once probe ``j`` has
        purged, seeing the first ``stops[j]`` live rows.  Evaluates the
        *exact* scalar expression of the tuple-at-a-time purge loop, ``now -
        t >= end`` on Python floats, resuming at the previous probe's cut, so
        purge decisions are bit-identical.  Removes nothing (:meth:`take`).
        ``start`` is the live row the sweep begins at: a slice boundary of a
        :class:`ChainColumn`, the head of a one-slice state.
        """
        ts = self._ts
        head = self._head
        cuts: list[int] = []
        cut = base = start
        chunk: list[float] = []
        for now, stop in zip(nows, stops):
            while cut < stop:
                offset = cut - base
                if offset >= len(chunk):
                    # Timestamps reach the loop as Python floats, a chunk at
                    # a time: a numpy scalar per comparison costs ~10x more.
                    base = cut
                    chunk = ts[head + cut : head + cut + _PURGE_CHUNK].tolist()
                    offset = 0
                if now - chunk[offset] < end:
                    break
                cut += 1
            cuts.append(cut)
        return cuts

    def take(self, count: int) -> list[Any]:
        """Remove and return the ``count`` oldest resident tuples."""
        if count <= 0:
            return []
        head = self._head
        refs = self._refs
        taken = refs[head : head + count]
        for i in range(head, head + count):
            refs[i] = None
        self._head = head + count
        if self._index is not None:
            self._unindex(taken)
        self._maybe_compact()
        return taken

    def _unindex(self, oldest: Iterable[Any]) -> None:
        """Drop departing head tuples (oldest first) from the key index."""
        index = self._index
        attribute = self.binding.key_attribute
        for ref in oldest:
            if ref is not None:  # a chain column's filtered row left the index then
                key = ref.values.get(attribute, _MISSING)
                bucket = index[key]
                del bucket[0]
                if not bucket:
                    del index[key]  # empty buckets are deleted eagerly

    # -- storage management ---------------------------------------------------
    def _maybe_compact(self) -> None:
        head = self._head
        if head >= _COMPACT_AT and head * 2 >= len(self._refs):
            self._compact()

    def _compact(self) -> None:
        head = self._head
        if not head:
            return
        n = len(self._refs)
        live = n - head
        del self._refs[:head]
        self._ts[:live] = self._ts[head:n].copy()
        if self._keys is not None:
            self._keys[:live] = self._keys[head:n].copy()
        self._head = 0

    def _ensure_room(self, extra: int = 1) -> None:
        n = len(self._refs)
        if n + extra <= self._ts.shape[0]:
            return
        head = self._head
        if head and head * 2 >= n:
            self._compact()
            n -= head
            if n + extra <= self._ts.shape[0]:
                return
        capacity = max(_MIN_CAPACITY, 2 * self._ts.shape[0], n + extra)
        ts = np.empty(capacity, dtype=np.float64)
        ts[:n] = self._ts[:n]
        self._ts = ts
        if self._keys is not None:
            keys = np.empty(capacity, dtype=np.float64)
            keys[:n] = self._keys[:n]
            self._keys = keys

    def _extend(self, tuples: Sequence[Any], keys: Sequence[Any], level: int) -> None:
        """Bulk :meth:`append` of tuples whose keys were vetted at ``level``
        (``keys=None``: there is no key column to fill)."""
        if not tuples:
            return
        self._ensure_room(len(tuples))  # may compact: offsets stay, positions move
        refs = self._refs
        n = len(refs)
        refs.extend(tuples)
        self._ts[n : len(refs)] = [tup.timestamp for tup in tuples]
        if keys is not None:
            self._keys[n : len(refs)] = keys
            self._key_level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ColumnarState key={self.binding.key_attribute!r} size={len(self)}>"


class ChainColumn(ColumnarState):
    """One stream's state for a whole cursor chain: slices are row ranges.

    ``cuts[i]`` is the live row slice ``i`` starts at — slice ``i`` is
    ``[cuts[i], cuts[i - 1])``, slice 0 ends at the newest row — so a
    cross-purge advances a cursor and moves nothing.  Offsets count from the
    oldest stored row, which compaction does not change; rows leave storage
    off the chain's end only (:meth:`settle`), and that step rebases every
    cursor at once.  A row filtered at a link keeps its place and drops its
    payload (``None`` in ``refs``); ``dead[i]`` counts such rows inside slice
    ``i``, and a slice without any is counted by cursor arithmetic alone.
    With ``probe="hash"`` the index maps a key to the *row ids* of its live
    rows — rows ever dropped (``_gone``) plus offset, which nothing moves.

    Under a memory budget the oldest live rows ``[0, cold)`` are *cold*: they
    keep their timestamp and key, so purging, cursor arithmetic and the probe
    mask run over them as over any row, but their payload lives in ``log``
    (a :class:`~repro.engine.spill.SpillLog`) and their ``refs`` entry is the
    row id to read it by.  Only rows that are reported are read back
    (:meth:`_thaw`): the placed hits of a batch, rows meeting a link filter,
    :meth:`slices`; an indexed column also reads the rows it unindexes.

    One batch is ``extend`` → ``sweep`` → ``probe`` → ``settle``; a count
    chain, whose cursors are arithmetic on row counts, sets ``cuts`` itself
    and skips the sweep (it carries no link filters: ``dead`` stays zero).  A
    row that leaves a slice during the batch (purged deeper, filtered at a link,
    purged off the end) stays visible in its old slice to the males before
    the one that moved it: a hit is judged by its own male's cuts, a link
    death is kept as ``row -> link`` in ``_died`` until :meth:`settle`, and
    nothing is freed before the batch's hits are out.
    """

    __slots__ = ("cuts", "dead", "_died", "_gone", "log", "cold", "_cold_dead")

    def __init__(self, binding: ProbeBinding, slices: Sequence[Sequence[Any]]) -> None:
        #: The cold rows' payloads; set by the chain before the first ``evict``.
        self.log: Any = None
        super().__init__(binding, slices)

    def load(self, slices: Sequence[Sequence[Any]]) -> None:
        """Replace the resident set by per-slice tuple lists, head slice first
        (every row hot: the log is emptied)."""
        if self.log is not None:
            self.log.free(float("inf"))
        #: Live rows ``[0, cold)`` are cold; ``_cold_dead`` of them hold no payload.
        self.cold = self._cold_dead = 0
        self._gone = 0
        self._died: dict[int, int] = {}
        super().load([tup for tuples in reversed(slices) for tup in tuples])
        stamps = self._ts[: len(self._refs)]
        if (stamps[1:] < stamps[:-1]).any():
            raise MigrationError("slice states are not time-layered: a deeper slice holds a younger tuple")
        offset = len(self._refs)
        self.cuts = [offset := offset - len(tuples) for tuples in slices]
        self.dead = [0] * len(slices)

    def _build_index(self, refs: list[Any]) -> Any:
        index = defaultdict(list)
        attribute = self.binding.key_attribute
        for row, ref in enumerate(refs):
            index[ref.values.get(attribute, _MISSING)].append(row)
        return index

    def slices(self) -> list[list[Any]]:
        """The live tuples of every slice, head slice first, oldest first
        (cold rows read from the log, which stays as it was)."""
        refs, head = self._refs, self._head
        if self.cold:
            refs, head = self._thaw(refs[head:]), 0
        tops = [len(refs) - head, *self.cuts]
        return [
            [ref for ref in refs[head + cut : head + top] if ref is not None]
            for top, cut in zip(tops, self.cuts)
        ]

    def sizes(self) -> list[int]:
        """Live tuples per slice."""
        tops = [len(self), *self.cuts]
        return [top - cut - dead for top, cut, dead in zip(tops, self.cuts, self.dead)]

    def extend(self, tuples: Sequence[Any]) -> int:
        """Append a batch's arrivals; returns the live rows there were before.
        The first key without an exact float64 form invalidates the key
        column (probing then takes the scalar check) until the next ``load``."""
        size = len(self)
        attribute = self.binding.key_attribute
        keys, level = None, 0
        if self._keys is not None and tuples:
            keys = [tup.values.get(attribute, _MISSING) for tup in tuples]
            level = max(self._key_level, *map(key_level, keys))
            if level >= 2:
                self._keys = keys = None
        self._extend(tuples, keys, level)
        if self._index is not None:
            for row, tup in enumerate(tuples, self._gone + size):
                self._index[tup.values.get(attribute, _MISSING)].append(row)
        return size

    def sweep(
        self,
        size: int,
        nows: Sequence[float],
        stops: Sequence[int],
        reach: Sequence[Sequence[int]],
        ends: Sequence[float],
        predicates: Sequence[Any],
    ) -> tuple[list[list[int]], list[tuple[int, int]], int, int]:
        """One batch's cross-purges: per slice one forward sweep.

        ``size`` live rows preceded the batch's own; male ``j`` (timestamp
        ``nows[j]``) sees the first ``stops[j]`` rows and purges, with
        ``ends[k]``, every slice ``k`` with ``j in reach[k]`` (``reach[0]`` is
        every male; a deeper entry that *is* ``reach[0]`` says so without a
        copy).  A live row that crosses link ``k`` meets ``predicates[k]`` (a
        callable or ``None``) as installed now and, failing it, is dead from
        slice ``k`` on.  Returns ``(cuts, crossed, purge comparisons, probe
        comparisons)``: per swept slice the running cut of each of its males,
        per link the live rows that ``(arrived, passed)``, and both counts as
        the operator chain charges them — a purge comparison per live row
        expelled plus each male's failing check, a probe comparison per live
        row in a male's range (0 for an indexed column: :meth:`probe` counts).
        """
        cursors, dead, died = self.cuts, self.dead, self._died
        refs, head = self._refs, self._head
        everyone = reach[0]
        swept: list[list[int]] = []
        crossed = [(0, 0)]
        purge = probe = 0
        # Rows ``[top, new_top)`` entered the slice in this batch; ``alive``
        # flags them, ``None`` standing for "all of them".
        top, new_top, alive = size, len(refs) - head, None
        for k, who in enumerate(reach):
            start = cursors[k]
            if k:
                arrived = passed = new_top - top if alive is None else sum(alive)
                predicate = predicates[k]
                if predicate is not None and arrived:
                    if alive is None:
                        alive = [True] * arrived
                    crossing = refs[head + top : head + new_top]
                    if top < self.cold:
                        crossing = self._thaw(crossing)  # judged through the tier
                    for offset, ref in enumerate(crossing):
                        if alive[offset] and not predicate(ref):
                            alive[offset] = False
                            died[top + offset] = k
                    passed = sum(alive)
                crossed.append((arrived, passed))
            entered_dead = 0 if alive is None else len(alive) - sum(alive)
            if not who:
                dead[k] += entered_dead
                break
            if who is not everyone:
                nows_k = [nows[j] for j in who]
                stops_k = [stops[j] for j in who]
            else:
                nows_k, stops_k = nows, stops
            cuts = self.purge_cut(nows_k, stops_k, ends[k], start)
            final = cuts[-1]
            if not (dead[k] or entered_dead):
                # No dead row in sight: both counts are cursor arithmetic.
                purge += final - start + sum(map(_lt, cuts, stops_k))
                if self._index is None:
                    probe += sum(stops_k) - sum(cuts)
                leaving = None
            else:
                leaving = [
                    ref is not None and row not in died
                    for row, ref in enumerate(refs[head + start : head + final], start)
                ]
                left = [0, *accumulate(leaving)]
                entered = None if alive is None else [0, *accumulate(alive)]
                live_before = top - start - dead[k]
                gone = 0
                for cut, stop in zip(cuts, stops_k):
                    expelled = left[cut - start]
                    live = live_before - expelled + (
                        stop - top if entered is None else entered[stop - top]
                    )
                    purge += expelled - gone + (live > 0)
                    if self._index is None:
                        probe += live
                    gone = expelled
                dead[k] += entered_dead - (final - start - left[-1])
            swept.append(cuts)
            if who is not everyone:
                stops = list(stops)
                for j, cut in zip(who, cuts):
                    stops[j] = cut
            else:
                stops = cuts
            top, new_top, alive = start, final, leaving
            cursors[k] = final
        return swept, crossed, purge, probe

    def probe(
        self, males: Sequence[Any], cuts: Sequence[Sequence[int]], stops: Sequence[int]
    ) -> tuple[list[tuple[int, int, Any]], int]:
        """The hits of a swept batch, by male, then by row.

        ``cuts[j]`` are male ``j``'s own cuts, deepest slice first (so
        ascending): it sees the live rows ``[cuts[j][0], stops[j])``, a row
        in the slice that the number of its cuts above the row names.
        Returns ``([(male, slice, stored tuple)], comparisons)`` — those of
        an indexed column, one per bucket entry in a male's range (else 0:
        :meth:`sweep` counted rows).  With a valid key column and every key
        within the condition's ``mask_level``: one 2-D ``match_mask`` per
        block of males (at most ``_BLOCK_ELEMENTS``, sized by the widest range
        of the block), only the hit pairs placed; otherwise the same row
        ranges meet the condition's bound scalar check.
        """
        binding = self.binding
        refs, head, died = self._refs, self._head, self._died
        hits: list[tuple[int, int, Any]] = []

        def place(j: int, row: int) -> int:
            """The slice male ``j`` sees live row ``row`` in, or -1."""
            own = cuts[j]
            if row < own[0] or row >= stops[j] or refs[head + row] is None:
                return -1
            k = len(own) - bisect_right(own, row)
            return -1 if died and died.get(row, k + 1) <= k else k

        if self._index is not None:
            comparisons = 0
            for j, male in enumerate(males):
                bucket = self._index.get(male.values.get(binding.probe_attribute, _MISSING))
                if not bucket:
                    continue
                first = bisect_left(bucket, self._gone + cuts[j][0])
                found = []
                for row in bucket[first : bisect_left(bucket, self._gone + stops[j], first)]:
                    k = place(j, row - self._gone)
                    if k >= 0:
                        found.append((j, k, refs[head + row - self._gone]))
                if found:
                    comparisons += len(found)
                    check = binding.bind(male)
                    hits.extend(hit for hit in self._warm(found) if check(hit[2]))
            return hits, comparisons
        probe_keys = [male.values.get(binding.probe_attribute, _MISSING) for male in males]
        level = -1 if self._keys is None else max(self._key_level, *map(key_level, probe_keys))
        if not 0 <= level <= binding.mask_level:
            # No exact mask: the same row ranges, row by row (a scalar check
            # reads payloads, so every cold row is read once per batch).
            if self.cold:
                refs, head = self._thaw(refs[head:]), 0
            for j, male in enumerate(males):
                check = None
                for row in range(cuts[j][0], stops[j]):
                    k = place(j, row)
                    if k >= 0:
                        check = check or binding.bind(male)
                        if check(refs[head + row]):
                            hits.append((j, k, refs[head + row]))
            return hits, 0
        lows = [own[0] for own in cuts]
        keys = self._keys[None, head : head + stops[-1]]
        probes = np.array(probe_keys, dtype=np.float64)[:, None]
        first = 0
        while first < len(males):
            # Males of one block differ in depth, so the deepest visible row
            # is not monotone in j: size and bound the block by the minimum.
            width = max(1, stops[-1] - min(lows[first:]))
            last = min(len(males), first + max(1, _BLOCK_ELEMENTS // width))
            lo, hi = min(lows[first:last]), stops[last - 1]
            if hi > lo:
                sel = binding.match_mask(probes[first:last], keys[:, lo:hi], level == 0)
                rows, cols = divmod(np.flatnonzero(sel), hi - lo)
                for j, row in zip(rows.tolist(), cols.tolist()):
                    # place(), inlined: this loop runs once per mask hit.
                    j += first
                    row += lo
                    own = cuts[j]
                    ref = refs[head + row]
                    if row < own[0] or row >= stops[j] or ref is None:
                        continue
                    k = len(own) - bisect_right(own, row)
                    if not died or died.get(row, k + 1) > k:
                        hits.append((j, k, ref))
            first = last
        return self._warm(hits), 0

    def _warm(self, hits: list[tuple[int, int, Any]]) -> list[tuple[int, int, Any]]:
        """Placed ``hits`` with the cold rows among them read back."""
        if not self.cold:
            return hits
        refs = self._thaw([hit[2] for hit in hits])
        return [(j, k, ref) for (j, k, _), ref in zip(hits, refs)]

    def _thaw(self, refs: list[Any]) -> list[Any]:
        """``refs`` with every cold entry (a row id) replaced by that row's
        tuple, each distinct row read from the log once."""
        rows = sorted({ref for ref in refs if type(ref) is int})
        if not rows:
            return refs
        warm = dict(zip(rows, self.log.read(rows)))
        return [warm[ref] if type(ref) is int else ref for ref in refs]

    def evict(self, count: int) -> int:
        """Make the ``count`` oldest hot rows cold: their payloads go to the
        log, their ``refs`` entries become row ids.  Returns how many payloads
        were written (a row filtered at a link has none)."""
        start = self._head + self.cold
        run = self._refs[start : start + count]
        row = self._gone + self.cold
        self.log.append(row, run)
        marks = [None if ref is None else mark for mark, ref in enumerate(run, row)]
        self._refs[start : start + len(run)] = marks
        dead = marks.count(None)
        self.cold += len(run)
        self._cold_dead += dead
        return len(run) - dead

    def tiers(self) -> tuple[int, int, int]:
        """``(hot tuples, cold rows, log bytes)``: the terms of a budget estimate."""
        live = len(self) - sum(self.dead)
        if not self.cold:
            return live, 0, 0
        return live - (self.cold - self._cold_dead), self.cold, self.log.live_bytes(self._gone)

    def release(self) -> None:
        """Delete the log; a state that was partly on it is discarded whole."""
        if self.cold:
            self.load([[] for _ in self.cuts])
        self.log = None

    def settle(self) -> None:
        """End of a batch: free what left — the payloads of rows filtered at
        a link, and every row purged off the chain's end."""
        refs, head, cold = self._refs, self._head, self.cold
        count = self.cuts[-1]
        if cold and self._index is not None:
            # The index is keyed by payload: read back the rows about to leave it.
            rows = [*{*range(min(count, cold)), *(row for row in self._died if row < cold)}]
            for row, ref in zip(rows, self._thaw([refs[head + row] for row in rows])):
                refs[head + row] = ref
        for row in self._died:
            if self._index is not None:
                key = refs[head + row].values.get(self.binding.key_attribute, _MISSING)
                bucket = self._index[key]
                del bucket[bisect_left(bucket, self._gone + row)]
                if not bucket:
                    del self._index[key]
            refs[head + row] = None
        if cold:
            self._cold_dead += sum(row < cold for row in self._died)
        self._died.clear()
        if count:
            taken = self.take(count)
            self._gone += count
            self.cuts = [cut - count for cut in self.cuts]
            if cold:
                self._cold_dead -= taken[:cold].count(None)
                self.cold = max(0, cold - count)
                self.log.free(self._gone)
