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
* ``keys`` — a ``float64`` array of the join-key attribute in the form the
  condition compares it in (its ``column_key``: the key itself, or its
  residue for a modular match), computed once per row as it enters and used
  by vectorized probing (see ``match_mask`` in :mod:`repro.query.predicates`).
  Only values whose Python comparison semantics are exactly representable in
  a double go into the column (bools, ints with ``|v| <= 2**53``, floats);
  the first value outside that set permanently invalidates the column and
  probing falls back to per-tuple checks, so correctness never depends on
  lossy conversions.
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

from itertools import accumulate, compress, repeat
from operator import lt as _lt
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.errors import MigrationError
from repro.streams.tuples import JoinedTuple, StreamTuple

__all__ = [
    "ChainColumn",
    "ColumnarState",
    "HitBlock",
    "ProbeBinding",
    "RouteTable",
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
_EMPTY = np.zeros(0, np.intp)


def _rounded(values: Any, fill: int) -> np.ndarray:
    """``values``, then ``fill`` up to a multiple of 64 entries, as intp.  A
    batch's per-hit arrays take that length: numpy keeps freed buffers under
    1 KiB by exact size, so arrays of every hit count would pin a few each."""
    out = np.full(-(-len(values) // 64) * 64, fill, np.intp)
    out[: len(values)] = values
    return out


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
    ``bind_right`` (and the mirror image for a state of right tuples).  It
    also keeps the condition's ``column_key``, the form the key column stores.

    ``equi`` says the condition is a plain equi-join, the only kind whose
    dict-lookup semantics an equality index reproduces — read only by the
    per-slice tier kept in :mod:`repro.engine.spill`, which indexes its
    segments on it; no chain or join sets it.
    """

    __slots__ = (
        "key_attribute", "probe_attribute", "all_match", "match_mask", "mask_level",
        "column_key", "bind", "equi",
    )

    def __init__(self, condition: Any, stores_left: bool, equi: bool = False) -> None:
        own, other = condition.columnar_attributes or (None, None)
        if not stores_left:
            own, other = other, own
        self.key_attribute = own
        self.probe_attribute = other
        self.all_match = condition.columnar_all_match
        self.match_mask = condition.match_mask
        self.mask_level = condition.mask_level
        self.column_key = condition.column_key
        self.bind = condition.bind_right if stores_left else condition.bind_left
        self.equi = equi


class ColumnarState:
    """A timestamp-ordered slice state stored as parallel columns.

    Parameters
    ----------
    binding:
        The :class:`ProbeBinding` of the stream this state stores: which
        attribute to keep as the key column (none when the condition has no
        columnar form — probing then uses the per-tuple fallback) and how a
        probing tuple is matched against it.
    tuples:
        Initial resident tuples, oldest first.
    """

    __slots__ = ("binding", "_refs", "_ts", "_keys", "_head", "_key_level")
    #: The numpy columns parallel to ``_refs`` (one left ``None`` is skipped).
    _ARRAYS = ("_ts", "_keys")

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
        attribute = self.binding.key_attribute
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
            if self.binding.column_key is not None:
                keys[:n] = self.binding.column_key(keys[:n])
        self._keys = keys
        self._key_level = level

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
                if self.binding.column_key is not None:
                    keys[n] = self.binding.column_key(keys[n])

    def popleft(self) -> Any:
        head = self._head
        refs = self._refs
        if head >= len(refs):
            raise IndexError("pop from an empty state")
        ref = refs[head]
        refs[head] = None
        self._head = head + 1
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
        """The resident tuples a scalar probe by ``probing`` must examine:
        every one — what the literal per-item Figure-9 path walks candidate
        by candidate."""
        return self._refs[self._head :]

    def probe(self, probing: Any) -> tuple[Any, int]:
        """The resident tuples matching ``probing``, oldest first.

        Returns ``(matches, comparison count)`` — the count is the number of
        candidates a scalar probe would have examined.  One vectorized mask
        over the key column when the condition and both keys have an exact
        columnar form; otherwise (float64-hostile keys, conditions without a
        columnar form) the condition's pre-bound scalar predicate, bound only
        when this fallback runs.
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
        check = binding.bind(probing)
        return [tup for tup in refs[head:] if check(tup)], n - head

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
        self._maybe_compact()
        return taken

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
        for name in self._ARRAYS:
            array = getattr(self, name)
            if array is not None:
                array[:live] = array[head:n].copy()
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
        for name in self._ARRAYS:
            array = getattr(self, name)
            if array is not None:
                grown = np.empty((capacity, *array.shape[1:]), dtype=array.dtype)
                grown[:n] = array[:n]
                setattr(self, name, grown)

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
    A row's id is rows ever dropped (``_gone``) plus its offset, which
    nothing moves.

    Under a memory budget the oldest live rows ``[0, cold)`` are *cold*: they
    keep their timestamp and key, so purging, cursor arithmetic and the probe
    mask run over them as over any row, but their payload lives in ``log``
    (a :class:`~repro.engine.spill.SpillLog`) and their ``refs`` entry is the
    row id to read it by.  Only rows that are reported are read back
    (:meth:`_thaw`): the placed hits of a batch, rows meeting a link filter,
    :meth:`slices`.

    One batch is ``extend`` → ``sweep`` → ``probe`` → ``settle``; a count
    chain, whose cursors are arithmetic on row counts, sets ``cuts`` itself
    and skips the sweep (it carries no link filters: ``dead`` stays zero).  A
    row that leaves a slice during the batch (purged deeper, filtered at a link,
    purged off the end) stays visible in its old slice to the males before
    the one that moved it: a hit is judged by its own male's cuts, a link
    death is kept as ``row -> link`` in ``_died`` until :meth:`settle`, and
    nothing is freed before the batch's hits are out.

    A row's verdicts (``_verdicts``, a column per filter) say which of
    ``filters`` it passes (:meth:`assign_filters`), valid unless ``_stale``:
    filled at :meth:`extend`, else at the row's first hit — never by a pass
    over the rows, which would read the cold prefix back.
    """

    __slots__ = ("cuts", "dead", "_died", "_gone", "log", "cold", "_cold_dead", "filters",
                 "_verdicts", "_stale")
    _ARRAYS = ("_ts", "_keys", "_verdicts", "_stale")

    def __init__(self, binding: ProbeBinding, slices: Sequence[Sequence[Any]]) -> None:
        #: The cold rows' payloads; set by the chain before the first ``evict``.
        self.log: Any = None
        self.filters: list[Any] = []  # per verdict column
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
        self._forget()

    def _forget(self) -> None:
        """Every row's verdicts stale."""
        capacity = self._ts.shape[0]
        self._verdicts = np.zeros((capacity, max(1, len(self.filters))), bool)
        self._stale = np.ones(capacity, bool)

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

    def assign_filters(self, filters: list[Any]) -> None:
        """Keep a verdict column per filter, in this order; a change makes
        every row stale."""
        if list(map(id, filters)) != list(map(id, self.filters)):
            self.filters = filters
            self._forget()

    def judge(self, tuples: Sequence[Any]) -> np.ndarray:
        """The verdicts of ``tuples``, a row each."""
        verdicts = np.zeros((len(tuples), self._verdicts.shape[1]), bool)
        for bit, predicate in enumerate(self.filters):
            verdicts[:, bit] = list(map(predicate.matches, tuples))
        return verdicts

    def extend(self, tuples: Sequence[Any], verdicts: np.ndarray) -> int:
        """Append a batch's arrivals with their verdict bits (:meth:`judge`);
        returns the live rows there were before.  The first key without an
        exact float64 form invalidates the key column (probing then takes the
        scalar check) until the next ``load``."""
        size = len(self)
        if not tuples:
            return size
        attribute = self.binding.key_attribute
        self._ensure_room(len(tuples))  # may compact: offsets stay, positions move
        n = len(self._refs)
        self._refs.extend(tuples)
        rows = slice(n, len(self._refs))
        self._ts[rows] = [tup.timestamp for tup in tuples]
        self._verdicts[rows] = verdicts
        self._stale[rows] = False
        if self._keys is not None:
            keys = [tup.values.get(attribute, _MISSING) for tup in tuples]
            self._key_level = max(self._key_level, *map(key_level, keys))
            if self._key_level >= 2:
                self._keys = None
            else:
                self._keys[rows] = keys
                if self.binding.column_key is not None:
                    self._keys[rows] = self.binding.column_key(self._keys[rows])
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
        comparisons)``: per swept slice the running cut of every male (one
        that stopped short keeps its deepest),
        per link the live rows that ``(arrived, passed)``, and both counts as
        the operator chain charges them — a purge comparison per live row
        expelled plus each male's failing check, a probe comparison per live
        row in a male's range.
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
                    probe += live
                    gone = expelled
                dead[k] += entered_dead - (final - start - left[-1])
            if who is not everyone:
                stops = list(stops)
                for j, cut in zip(who, cuts):
                    stops[j] = cut
            else:
                stops = cuts
            swept.append(stops)
            top, new_top, alive = start, final, leaving
            cursors[k] = final
        return swept, crossed, purge, probe

    def probe(
        self, males: Sequence[Any], cuts: Sequence[Sequence[int]], stops: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, list[Any], np.ndarray]:
        """A swept batch's candidate hits by male, then row: ``(males,
        slices, stored tuples, their verdicts)``, of a :func:`_rounded`
        length; a candidate in slice ``len(cuts)`` is no hit.  Male ``j``
        sees rows ``[cuts[-1][j], stops[j])``, ``cuts[k][j]`` its cut of
        slice ``k`` (:meth:`sweep`).  One 2-D ``match_mask`` per block of
        males when every key has an exact float64 form, else the bound
        scalar check."""
        binding, lows, depth = self.binding, cuts[-1], len(self.cuts)
        keys = [male.values.get(binding.probe_attribute, _MISSING) for male in males]
        level = -1 if self._keys is None else max(self._key_level, *map(key_level, keys))
        scalar = not 0 <= level <= binding.mask_level
        js, rows = [], []
        if scalar:  # every row of each male's range
            for j, (low, stop) in enumerate(zip(lows, stops)):
                js += [j] * (stop - low)
                rows += range(low, stop)
        else:
            column, first = self._keys[None, self._head :], 0
            probes = np.array(keys, np.float64)[:, None]
            while first < len(males):
                # Males of one block differ in depth: size and bound it by the minimum.
                width = max(1, stops[-1] - min(lows[first:]))
                last = min(len(males), first + max(1, _BLOCK_ELEMENTS // width))
                lo, hi = min(lows[first:last]), stops[last - 1]
                if hi > lo:
                    sel = binding.match_mask(probes[first:last], column[:, lo:hi], level == 0)
                    block_js, block_rows = divmod(np.flatnonzero(sel), hi - lo)
                    js.append(block_js + first)
                    rows.append(block_rows + lo)
                first = last
            js, rows = (np.concatenate(a) if a else _EMPTY for a in (js, rows))
        # Place each candidate: its slice is how many of its male's cuts lie
        # above the row, unless the row is not live in a slice the male sees
        # (before its range, or filtered at a link at or above it).  No tuple
        # is read for a non-hit; cold payloads are read back.
        js, rows = _rounded(js, 0), _rounded(rows, -1)  # row -1: before every cut
        swept = len(cuts)
        ks = np.full(len(js), swept)
        for slice_cuts in np.array(cuts, np.intp):
            ks[slice_cuts[js] <= rows] -= 1
        valid = (ks < swept) & (rows < np.array(stops)[js])
        if self._died:  # a row is in no slice from the link it died at on
            valid &= np.array([self._died.get(row, swept) for row in rows.tolist()]) > ks
        refs, head = self._refs, self._head
        found = [refs[head + row] if ok else None for row, ok in zip(rows.tolist(), valid.tolist())]
        ks[[ref is None for ref in found]] = depth  # a miss, or filtered at a link earlier
        found = self._thaw(found) if self.cold else found
        if scalar:
            checks = list(map(binding.bind, males))
            failed = [ref is not None and not checks[j](ref) for j, ref in zip(js.tolist(), found)]
            ks[failed] = depth
        # The hits' verdicts; a stale row's are computed now and kept.
        at = rows + self._head
        verdicts = self._verdicts[at]
        stale = np.flatnonzero((ks < depth) & self._stale[at])
        if len(stale) and self.filters:
            verdicts[stale] = self.judge([found[i] for i in stale.tolist()])
            self._verdicts[at[stale]] = verdicts[stale]
            self._stale[at[stale]] = False
        return js, ks, found, verdicts

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
        for row in self._died:
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


class HitBlock:
    """A batch's results as arrays: entry ``i`` joins ``lefts[i]`` and
    ``rights[i]`` in slice ``slices[i]`` at its male's time ``stamps[i]``,
    with (left, right) ``seqnos`` and verdicts ``bits`` and the male's batch
    ``places``; an entry in slice ``depth`` is no result.  Built from per
    probed column ``(side, probe result, males, their verdicts, their
    places)``, side 0 the left stream's column.  Iterated: ``(slice,
    JoinedTuple)`` pairs slice-major, in arrival order."""

    __slots__ = ("depth", "slices", "stamps", "places", "seqnos", "bits", "lefts", "rights")

    def __init__(self, depth: int, parts: Sequence[tuple] = ()) -> None:
        self.depth, self.lefts, self.rights = depth, [], []
        arrays: list[list[np.ndarray]] = [[] for _ in range(7)]
        for side, (js, ks, found, bits), males, male_bits, places in parts:
            mine = list(map(males.__getitem__, js.tolist()))
            male = (mine, np.array([male.seqno for male in males])[js], male_bits[js])
            seqnos = map(getattr, found, repeat("seqno"), repeat(0))  # 0: no hit
            stored = (found, np.array(list(seqnos)), bits)
            left, right = (male, stored) if side else (stored, male)
            self.lefts += left[0]
            self.rights += right[0]
            stamps = np.array([male.timestamp for male in males])[js]
            at = np.array(places)[js]
            for column, values in zip(arrays, (ks, stamps, at, *left[1:], *right[1:])):
                column.append(values)
        self.slices, self.stamps, self.places, lseq, lbits, rseq, rbits = (
            np.concatenate(a) if a else _EMPTY for a in arrays
        )
        self.seqnos, self.bits = (lseq, rseq), (lbits, rbits)

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        slices = self.slices.tolist()
        for i in np.lexsort((self.places, self.slices)).tolist():
            if slices[i] == self.depth:
                break
            yield slices[i], JoinedTuple(self.lefts[i], self.rights[i])


class RouteTable:
    """A session's routing as arrays, built from its ``routing``: per family
    of queries asking the same checks, ``(taps, left residuals, right
    residuals)`` — the members as ``(name, last slice tapped)``, a residual
    per slice or ``None``.  ``filters``: per stream, the residuals whose
    verdicts the routing reads, in verdict column order.  Entry ``depth`` of a
    table is the slice of the entries that are no result."""

    __slots__ = ("families", "filters")

    def __init__(self, routing: Sequence[tuple], depth: int) -> None:
        self.families, self.filters = [], ([], [])
        for taps, *residuals in routing:
            tapping = [sum(k <= last for _, last in taps) for k in range(depth + 1)]
            checks = []  # per checked stream: its verdict column, where not, and SELECT per entry
            for side, residual in enumerate(residuals):
                checked = next((r for r in residual if r is not None), None)
                if checked is not None:  # a family's residual is its query filter
                    if checked not in self.filters[side]:
                        self.filters[side].append(checked)
                    bit = self.filters[side].index(checked)
                    free = [r is None for r in residual] + [True]
                    charge = [0 if skip else members for skip, members in zip(free, tapping)]
                    checks.append((side, bit, np.array(free), np.array(charge)))
            self.families.append((taps, max(last for _, last in taps), checks))

    def route(self, block: HitBlock) -> tuple[list[tuple[str, list[Any]]], int]:
        """``([(query, results)], SELECT comparisons)``: results in
        ``(timestamp, left seqno, right seqno)`` order, one shared
        :class:`JoinedTuple` each; ``SELECT`` as per-result checks charge it."""
        if not len(block.slices):
            return [], 0
        order = np.lexsort((block.seqnos[1], block.seqnos[0], block.stamps))
        slices = block.slices[order]
        bits = [side[order] for side in block.bits]
        select, passes, anyone = 0, [], np.zeros(len(order), bool)
        for _, deepest, checks in self.families:
            passed = slices <= deepest
            for side, bit, free, charge in checks:
                select += int(charge[slices][passed].sum())
                passed &= free[slices] | bits[side][:, bit]
            anyone |= passed
            passes.append(passed)
        where = np.flatnonzero(anyone)
        picked = order[where].tolist()
        lefts, rights = map(block.lefts.__getitem__, picked), map(block.rights.__getitem__, picked)
        joined = list(map(JoinedTuple, lefts, rights))
        where = _rounded(where, 0)  # the padding lies past ``joined``: compress stops there
        received, deliveries = slices[where], []
        for (taps, _, _), passed in zip(self.families, passes):
            passed = passed[where]
            for name, last in taps:
                mine = list(compress(joined, ((received <= last) & passed).tolist()))
                if mine:
                    deliveries.append((name, mine))
        return deliveries, select


def _map_kernels() -> None:
    """Route a one-entry block once, at import.  numpy maps a routine's
    machine code (64–128 KiB of it) at its first call; this charges the
    routing's routines to the import, not to the first session's growth."""
    tup, flag, verdict = StreamTuple("", 0.0, {}, 0), object(), np.ones((1, 1), bool)
    hit = (np.zeros(1, np.intp), np.zeros(1, np.intp), [tup], verdict)
    table = RouteTable([([("", 0)], [flag], [None])], 1)
    table.route(HitBlock(1, [(1, hit, [tup], verdict, [0])]))


_map_kernels()
