"""The in-core window state of a cursor chain: columnar (struct-of-arrays) blocks.

:class:`ChainColumn` holds one stream's state for a *whole* cursor chain —
what every session runs, time or count windows — its slices row ranges
between cursors and, under a memory budget, its oldest rows' payloads in a
log on disk.  :class:`ColumnarState` is its storage base: the columns, their
bulk ``load``, the forward purge sweep (``purge_cut``), ``take`` and
compaction.  No slice operator uses either (an operator keeps a deque of
tuples, Figure 9).  The state is a timestamp-ordered container of parallel
columns —

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

The block kernel is :class:`ChainColumn`'s: ``sweep`` / ``probe`` take a
whole batch over every slice, vectorized when every key involved has an exact
float64 form and otherwise the bound scalar check over the same row ranges.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate, compress
from operator import attrgetter, lt as _lt
from typing import Any, Container, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.errors import ChainError, MigrationError
from repro.query.predicates import EquiJoinCondition, ModularMatchCondition, TruePredicate
from repro.streams.tuples import JoinedTuple, StreamTuple, build_all

__all__ = [
    "ChainColumn",
    "ColumnarState",
    "HitBlock",
    "ProbeBinding",
    "RouteTable",
    "key_level",
    "pack_records",
    "unpack_records",
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
_SEQNO, _TIMESTAMP = attrgetter("seqno"), attrgetter("timestamp")
_EMPTY = np.zeros(0, np.intp)
#: ``_died`` of a live row whose verdicts are valid / stale (any other value: a dead row).
_LIVE, _STALE = 65535, 65534
#: The ``refs`` entry of every cold row with a payload: its id, the record's
#: name in the log, is ``_gone`` plus its offset.
_COLD = type("Cold", (), {"__slots__": (), "__repr__": lambda self: "<cold>"})()


def _rounded(values: Any, fill: int, size: int | None = None) -> np.ndarray:
    """``values``, then ``fill`` up to a multiple of 64 entries (``size`` at least), as
    intp.  A batch's per-hit arrays take that length: numpy keeps freed buffers
    under 1 KiB by exact size, so arrays of every hit count would pin a few each."""
    out = np.full(-(-max(len(values), size or 0) // 64) * 64, fill, np.intp)
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
        "key_attribute", "probe_attribute", "match_mask", "mask_level", "column_key", "bind", "equi",
    )

    def __init__(self, condition: Any, stores_left: bool, equi: bool = False) -> None:
        own, other = condition.columnar_attributes or (None, None)
        if not stores_left:
            own, other = other, own
        self.key_attribute = own
        self.probe_attribute = other
        self.match_mask = condition.match_mask
        self.mask_level = condition.mask_level
        self.column_key = condition.column_key
        self.bind = condition.bind_right if stores_left else condition.bind_left
        self.equi = equi


class ColumnarState:
    """A timestamp-ordered state stored as parallel columns: the storage of
    a :class:`ChainColumn`.

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
        keys = np.empty(capacity, dtype=np.float64)
        level = 0
        if n:
            values = [ref.values.get(attribute, _MISSING) for ref in refs]
            if set(map(type, values)) == {int}:  # plain ints: the extremes say it
                level = max(key_level(min(values)), key_level(max(values)))
            else:
                level = max(map(key_level, values))
            if level >= 2:
                return  # column stays invalid (self._keys is None)
            keys[:n] = values
            if self.binding.column_key is not None:
                keys[:n] = self.binding.column_key(keys[:n])
        self._keys = keys
        self._key_level = level

    def __len__(self) -> int:
        return len(self._refs) - self._head

    # -- columnar accessors ---------------------------------------------------
    def purge_cut(
        self, nows: Sequence[float], stops: Sequence[int], end: float, start: int
    ) -> list[int]:
        """Running purge cuts of a run of probing timestamps, one forward sweep.

        ``cuts[j]`` is the number of head rows expelled once probe ``j`` has
        purged, seeing the first ``stops[j]`` live rows.  Evaluates the
        *exact* scalar expression of the tuple-at-a-time purge loop, ``now -
        t >= end`` on Python floats, resuming at the previous probe's cut, so
        purge decisions are bit-identical.  Removes nothing (:meth:`take`).
        ``start`` is the live row the sweep begins at: a slice's cursor.
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
    cursor at once.  A row filtered at a link keeps its place, is marked in
    ``_died`` and drops its payload (``None`` in ``refs``); ``dead[i]``
    counts such rows inside slice ``i``, and a slice without any is counted
    by cursor arithmetic alone.  A row's id is rows ever dropped (``_gone``)
    plus its offset, which nothing moves.

    Under a memory budget the oldest live rows ``[0, cold)`` are *cold*: they
    keep their timestamp and key, so purging, cursor arithmetic and the probe
    mask run over them as over any row, but their payload lives in ``log``
    (a :class:`~repro.engine.spill.SpillLog`) under their row id, and their
    ``refs`` entry is the one shared ``_COLD`` (no object per row).  Only rows
    that are reported are read back
    (:meth:`_thaw`): the placed hits of a batch, :meth:`slices` — and a row
    whose verdicts are stale, once, to be judged.

    One batch is ``extend`` → ``sweep`` → ``probe`` → ``settle``; a count
    chain, whose cursors are arithmetic on row counts, sets ``cuts`` itself
    and skips the sweep (it carries no link filters: ``dead`` stays zero).  A
    row that leaves a slice during the batch (purged deeper, filtered at a link,
    purged off the end) stays visible in its old slice to the males before
    the one that moved it: a hit is judged by its own male's cuts, a link
    death is kept in ``_died`` as the link's index until :meth:`settle`
    makes it 0, and nothing is freed before the batch's hits are out.

    A row's verdicts (``_verdicts``, a column per filter) say which of
    ``filters`` it passes (:meth:`assign_filters`), valid unless its
    ``_died`` is ``_STALE``: filled at :meth:`extend`, else when the row
    first crosses a filtered link or is hit.  They are the only place a
    filter meets a row: link ``k`` passes a row if any of its columns
    ``links[k]`` does (:meth:`passes`).
    """

    __slots__ = ("cuts", "dead", "_died", "_fresh", "_gone", "log", "cold", "_cold_dead",
                 "filters", "links", "_verdicts")
    _ARRAYS = ("_ts", "_keys", "_verdicts", "_died")

    def __init__(self, binding: ProbeBinding, slices: Sequence[Sequence[Any]]) -> None:
        #: The cold rows' payloads; set by the chain before the first ``evict``.
        self.log: Any = None
        self.filters: list[Any] = []  # per verdict column
        self.links: list[Any] = []  # per link: the verdict columns it ORs, or None
        super().__init__(binding, slices)

    def load(self, slices: Sequence[Sequence[Any]]) -> None:
        """Replace the resident set by per-slice tuple lists, head slice first
        (every row hot: the log is emptied)."""
        if self.log is not None:
            self.log.free(float("inf"))
        #: Live rows ``[0, cold)`` are cold; ``_cold_dead`` of them hold no payload.
        self.cold = self._cold_dead = 0
        self._gone, self._fresh = 0, []  # _fresh: per link crossed, the rows it filtered this batch
        super().load([tup for tuples in reversed(slices) for tup in tuples])
        self._died = np.full(self._ts.shape[0], _STALE, np.uint16)
        stamps = self._ts[: len(self._refs)]
        if (stamps[1:] < stamps[:-1]).any():
            raise MigrationError("slice states are not time-layered: a deeper slice holds a younger tuple")
        offset = len(self._refs)
        self.cuts = [offset := offset - len(tuples) for tuples in slices]
        self.dead = [0] * len(slices)
        self._forget()

    def load_increasing(self, slices: Sequence[Sequence[Any]]) -> bool:
        """:meth:`load` ``slices``; whether their timestamps strictly increase
        (no two tie: a ``(timestamp, seqno)`` sort would keep them as given)."""
        try:
            self.load(slices)
        except MigrationError:
            return False
        stamps = self._ts[: len(self._refs)]
        return int(np.count_nonzero(stamps[:-1] < stamps[1:])) >= len(stamps) - 1

    def _forget(self) -> None:
        """Every row's verdicts stale."""
        self._verdicts = np.zeros((self._ts.shape[0], max(1, len(self.filters))), bool)
        self._died[self._died == _LIVE] = _STALE

    def slices(self) -> list[list[Any]]:
        """The live tuples of every slice, head slice first, oldest first
        (cold rows read from the log, which stays as it was)."""
        refs, head = self._refs, self._head
        if self.cold:
            refs, head = refs[head:], 0
            held = np.flatnonzero([ref is _COLD for ref in refs[: self.cold]])
            warm = [_COLD] * len(held)
            self._thaw(held, warm)
            deque(map(refs.__setitem__, held.tolist(), warm), maxlen=0)
        tops = [len(refs) - head, *self.cuts]
        return [
            [ref for ref in refs[head + cut : head + top] if ref is not None]
            for top, cut in zip(tops, self.cuts)
        ]

    def sizes(self) -> list[int]:
        """Live tuples per slice."""
        tops = [len(self), *self.cuts]
        return [top - cut - dead for top, cut, dead in zip(tops, self.cuts, self.dead)]

    def assign_filters(self, filters: list[Any], links: list[Any]) -> None:
        """Keep a verdict column per filter, in this order (a change makes
        every row stale), and per link the columns it ORs (``None``: no filter)."""
        self.links = links
        if list(map(id, filters)) != list(map(id, self.filters)):
            self.filters = filters
            self._forget()

    def judge(self, tuples: Sequence[Any]) -> np.ndarray:
        """The verdicts of ``tuples``, a row each."""
        verdicts = np.zeros((len(tuples), self._verdicts.shape[1]), bool)
        for bit, predicate in enumerate(self.filters):
            verdicts[:, bit] = list(map(predicate.matches, tuples))
        return verdicts

    def passes(self, verdicts: np.ndarray, link: int) -> np.ndarray | None:
        """Per row of ``verdicts``, whether it passes ``link`` (``None``: no filter)."""
        bits = self.links[link]
        return None if bits is None else verdicts[:, bits].any(axis=1)

    def extend(self, tuples: Sequence[Any], verdicts: np.ndarray) -> int:
        """Append a batch's arrivals with their verdict bits (:meth:`judge`);
        returns the live rows there were before."""
        size = len(self)
        if not tuples:
            return size
        self._ensure_room(len(tuples))  # may compact: offsets stay, positions move
        n = len(self._refs)
        self._refs.extend(tuples)
        rows = slice(n, len(self._refs))
        self._ts[rows] = [tup.timestamp for tup in tuples]
        self._verdicts[rows] = verdicts
        self._died[rows] = _LIVE
        if self._keys is not None:
            keys = [tup.values.get(self.binding.key_attribute, _MISSING) for tup in tuples]
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
    ) -> tuple[list[list[int]], list[tuple[int, int]], int, int]:
        """One batch's cross-purges: per slice one forward sweep.

        ``size`` live rows preceded the batch's own; male ``j`` (timestamp
        ``nows[j]``) sees the first ``stops[j]`` rows and purges, with
        ``ends[k]``, every slice ``k`` with ``j in reach[k]`` (``reach[0]`` is
        every male; a deeper entry that *is* ``reach[0]`` says so without a
        copy).  A live row that crosses link ``k`` passes it or not by its
        verdicts (:meth:`_cross`) and, failing, is dead from slice ``k`` on.
        Returns ``(cuts, crossed, purge comparisons, probe comparisons)``:
        per swept slice the running cut of every male (one that stopped
        short keeps its deepest), per link the live rows that ``(arrived,
        passed)``, and both counts as the operator chain charges them — a
        purge comparison per live row expelled plus each male's failing
        check, a probe comparison per live row in a male's range.
        """
        cursors, dead, head = self.cuts, self.dead, self._head
        everyone = reach[0]
        swept: list[list[int]] = []
        crossed = [(0, 0)]
        purge = probe = 0
        # Rows ``[top, new_top)`` entered the slice in this batch; ``alive``
        # flags them, ``None`` standing for "all of them".
        top, new_top, alive = size, len(self._refs) - head, None
        for k, who in enumerate(reach):
            start = cursors[k]
            if k:
                arrived = passed = new_top - top if alive is None else int(np.count_nonzero(alive))
                if self.links[k] is not None and arrived:
                    alive = self._cross(k, top, new_top, alive)
                    passed = int(np.count_nonzero(alive))
                crossed.append((arrived, passed))
            entered_dead = 0 if alive is None else len(alive) - passed
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
                leaving = self._died[head + start : head + final] >= _STALE
                left = [0, *accumulate(leaving.tolist())]
                entered = None if alive is None else [0, *accumulate(alive.tolist())]
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

    def _cross(self, link: int, top: int, new_top: int, alive: np.ndarray | None) -> np.ndarray:
        """Which rows ``[top, new_top)`` (``alive`` ones; ``None``: all) pass ``link`` by their
        verdicts (a stale row judged from its tuple, read back if cold); marks the others dead."""
        if link >= _STALE:
            raise ChainError(f"a filtered chain holds at most {_STALE - 1} links")
        rows = slice(self._head + top, self._head + new_top)
        alive = np.ones(new_top - top, bool) if alive is None else alive
        at = np.flatnonzero((self._died[rows] == _STALE) & alive) + rows.start
        stale = list(map(self._refs.__getitem__, at.tolist()))
        if self.cold:
            self._thaw(at - self._head, stale)
        self._verdicts[at] = self.judge(stale)
        self._died[at] = _LIVE
        passing = self.passes(self._verdicts[rows], link)
        fails = alive & ~passing
        self._died[rows][fails] = link
        self._fresh.append(np.flatnonzero(fails) + top)
        return alive & passing

    def probe(
        self, males: Sequence[Any], cuts: Sequence[Sequence[int]], stops: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, list[Any], np.ndarray]:
        """A swept batch's hits by male, then row: ``(males, slices, stored
        tuples, their verdicts)``, the arrays of a :func:`_rounded` length
        (padding: male 0 in slice ``len(self.cuts)``), a stored tuple per
        hit.  Male ``j`` sees rows ``[cuts[-1][j], stops[j])``, ``cuts[k][j]``
        its cut of slice ``k`` (:meth:`sweep`).  One 2-D ``match_mask`` per
        block of males when every key has an exact float64 form, else the
        bound scalar check."""
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
        # (before its range, or filtered at a link at or above it).
        count, swept, refs, head = len(js), len(cuts), self._refs, self._head
        js, rows = _rounded(js, 0, count + 1), _rounded(rows, -1, count + 1)  # row -1 pads
        cut, ks = np.array(cuts, np.intp), np.empty(len(js), np.intp)
        step = max(1, _BLOCK_ELEMENTS // swept)  # candidates per 2-D comparison with the cuts
        for i in range(0, len(js), step):
            np.sum(cut[:, js[i : i + step]] > rows[i : i + step], axis=0, out=ks[i : i + step])
        # A row is in no slice from the link it died at on (0: a batch before).
        valid = (ks < swept) & (rows < np.array(stops)[js]) & (self._died[rows + head] > ks)
        hits = np.flatnonzero(valid)
        found = list(map(refs.__getitem__, (rows[hits] + head).tolist()))
        if self.cold:  # no tuple is read for a non-hit
            self._thaw(rows[hits], found)
        if scalar:
            checks = list(map(binding.bind, males))
            passed = [bool(checks[j](ref)) for j, ref in zip(js[hits].tolist(), found)]  # a mask
            hits, found = hits[passed], list(compress(found, passed))
        hits = _rounded(hits, count)
        js, ks, at = js[hits], ks[hits], rows[hits] + head
        ks[len(found) :] = depth
        # The hits' verdicts; a stale row's are computed now and kept.
        stale = np.flatnonzero((ks < depth) & (self._died[at] == _STALE))
        self._verdicts[at[stale]] = self.judge([found[i] for i in stale.tolist()])
        self._died[at[stale]] = _LIVE
        return js, ks, found, self._verdicts[at]

    def _thaw(self, rows: np.ndarray, found: list[Any]) -> None:
        """Put in ``found``, in place of each cold one of ``rows`` (live rows with
        a payload, ``found`` their ``refs`` entries), its tuple: each distinct
        row read from the log once."""
        cold = np.flatnonzero(rows < self.cold)
        if len(cold):
            ids, where = np.unique(rows[cold], return_inverse=True)
            tuples = self.log.read(ids + self._gone)
            deque(map(found.__setitem__, cold.tolist(), map(tuples.__getitem__, where.tolist())), maxlen=0)

    def evict(self, count: int) -> int:
        """Make the ``count`` oldest hot rows cold: their payloads go to the
        log, their ``refs`` entries become ``_COLD``.  Returns how many payloads
        were written (a row filtered at a link has none)."""
        start = self._head + self.cold
        run = self._refs[start : start + count]
        self.log.append(self._gone + self.cold, run)
        dead = run.count(None)
        self._refs[start : start + len(run)] = [None if ref is None else _COLD for ref in run]
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
        fresh, self._fresh = np.concatenate(self._fresh) if self._fresh else _EMPTY, []
        self._died[fresh + head] = 0
        self._cold_dead += int(np.count_nonzero(fresh < cold))
        for row in fresh.tolist():
            refs[head + row] = None
        if count:
            taken = self.take(count)
            self._gone += count
            self.cuts = [cut - count for cut in self.cuts]
            if cold:
                self._cold_dead -= taken[:cold].count(None)
                self.cold = max(0, cold - count)
                self.log.free(self._gone)


def pack_records(fields: Sequence[list[Any]], floats: Container[int], rows: list[bool]) -> np.ndarray:
    """The fixed-width records of a :class:`~repro.engine.spill.SpillLog`:
    an int64 word per field (``floats``: those stored as float64 bits) and a
    row per entry of ``rows``, holding the values of ``fields`` at the true
    entries, in order, and zeros at the others."""
    words = np.zeros((len(rows), len(fields)), np.int64)
    reals, at = words.view(np.float64), np.flatnonzero(rows)
    for k, field in enumerate(fields):
        (reals if k in floats else words)[at, k] = field
    return words


def unpack_records(data: bytes, at: np.ndarray, width: int, floats: Container[int]) -> list[list[Any]]:
    """Per field, the values of records ``at`` of ``data``, records of ``width``
    words that :func:`pack_records` wrote."""
    gathered = np.frombuffer(data, np.int64).reshape(-1, width)[at]
    reals = gathered.view(np.float64)
    return [(reals if k in floats else gathered)[:, k].tolist() for k in range(width)]


class HitBlock:
    """A batch's results as arrays: entry ``i`` joins ``tuples[pairs[0][i]]`` and
    ``tuples[pairs[1][i]]`` (per probed column its males, then its hits) in slice
    ``slices[i]`` at its male's time ``stamps[i]``, with (left, right) ``seqnos``
    and verdicts ``bits`` and the male's batch ``places``; an entry in slice
    ``depth`` is no result.  Built from per probed column ``(side, probe result,
    males, their verdicts, their places)``, side 0 the left stream's column.
    Iterated: ``(slice, JoinedTuple)`` pairs slice-major, in arrival order."""

    __slots__ = ("depth", "slices", "stamps", "places", "seqnos", "bits", "tuples", "pairs")

    def __init__(self, depth: int, parts: Sequence[tuple] = ()) -> None:
        self.depth, self.tuples = depth, []
        arrays: list[list[np.ndarray]] = [[] for _ in range(9)]
        for side, (js, ks, found, bits), males, male_bits, places in parts:
            base = len(self.tuples)  # of the males, then of the hits
            self.tuples += [*males, *found]
            male = (js + base, np.array(list(map(_SEQNO, males)))[js], male_bits[js])
            seqnos = _rounded(list(map(_SEQNO, found)), 0, len(js))
            stored = (np.arange(len(js)) + (base + len(males)), seqnos, bits)
            left, right = (male, stored) if side else (stored, male)
            stamps = np.array(list(map(_TIMESTAMP, males)))[js]
            for column, values in zip(arrays, (ks, stamps, np.array(places)[js], *left, *right)):
                column.append(values)
        columns = [np.concatenate(a) if a else _EMPTY for a in arrays]
        self.slices, self.stamps, self.places, *sides = columns
        self.pairs, self.seqnos, self.bits = sides[::3], sides[1::3], sides[2::3]

    def joined(self, entries: np.ndarray) -> list[JoinedTuple]:
        """The :class:`JoinedTuple` of each of ``entries``, built in bulk."""
        sides = (map(self.tuples.__getitem__, at[entries].tolist()) for at in self.pairs)
        return build_all(JoinedTuple, len(entries), *sides)

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        hits = int(np.count_nonzero(self.slices < self.depth))
        order = np.lexsort((self.places, self.slices))[:hits]
        return zip(self.slices[order].tolist(), self.joined(order))


class RouteTable:
    """A session's routing as arrays, built from its ``routing``: per family
    of queries asking the same checks, ``(taps, left residuals, right
    residuals)`` — the members as ``(name, last slice tapped)``, a residual
    per slice or ``None``.  ``filters``: per stream, the residuals whose
    verdicts the routing reads, in verdict column order; ``names``: every
    family's members, in order.  Entry ``depth`` of a table is the slice of
    the entries that are no result."""

    __slots__ = ("families", "filters", "names")

    def __init__(self, routing: Sequence[tuple], depth: int) -> None:
        self.families, self.filters, self.names = [], ([], []), []
        for taps, *residuals in routing:
            lasts = [last for _, last in taps]
            ending = Counter(lasts)  # members by last slice; tapping[k]: by slice k or deeper
            tapping = list(accumulate(ending[k] for k in range(depth, -1, -1)))[::-1]
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
            self.names += [name for name, _ in taps]
            self.families.append((np.array(lasts, np.intp)[:, None], max(lasts), checks))

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
        for lasts, deepest, checks in self.families:
            passed = slices <= deepest
            for side, bit, free, charge in checks:
                select += int(charge[slices][passed].sum())
                passed &= free[slices] | bits[side][:, bit]
            anyone |= passed
            passes.append((slices <= lasts) & passed)  # a row per member
        where = np.flatnonzero(anyone)
        joined = block.joined(order[where])
        # Per member a row: which of ``joined`` it receives (the padding past it: none).
        receives = np.concatenate(passes)[:, _rounded(where, 0)]
        receives[:, len(joined) :] = False
        member_entry = np.flatnonzero(receives)
        delivered = list(map(joined.__getitem__, (member_entry % receives.shape[1]).tolist()))
        ends = np.cumsum(np.count_nonzero(receives, axis=1)).tolist()
        return [
            (name, delivered[start:end])
            for name, start, end in zip(self.names, [0, *ends], ends) if end > start
        ], select


def _map_kernels() -> None:
    """Probe a one-row column, by an equi mask, a modular mask and the scalar
    check, and route and iterate its hit once, at import.  numpy maps a
    routine's machine code (64–128 KiB of it) at its first call; this charges
    the kernel's routines to the import, not to the first session's growth."""
    equi, flag, verdict = EquiJoinCondition("k", "k"), TruePredicate(), np.ones((1, 1), bool)
    # A string key leaves the column no key column: the scalar check.
    for condition, key in ((equi, 0), (equi, ""), (ModularMatchCondition(1, 2, "k"), 0)):
        tup = StreamTuple("", 0.0, {"k": key}, 0)
        column = ChainColumn(ProbeBinding(condition, True), [[tup]])
        column.assign_filters([flag], [None])
        block = HitBlock(1, [(0, column.probe([tup], [[0]], [1]), [tup], verdict, [0])])
        RouteTable([([("", 0)], [flag], [None])], 1).route(block)
        list(block)
    # ... the cold path's: records packed, a span of them gathered, a batch's
    # cold hits deduped (numpy sorts 8 or more entries out of order with code
    # of its own) and found in the log's segments ...
    rows = np.arange(8)[::-1]
    unpack_records(pack_records([[0.0] * 8, [0] * 8], {0}, [True] * 8).tobytes(), rows, 2, {0})
    ids, _ = np.unique(rows[np.flatnonzero(rows < 8)], return_inverse=True)
    ids.searchsorted([4, 8]), ids.searchsorted(4)
    # ... and a sweep's: a link's pass mask over the bits, the marks in ``_died``.
    passing, died = verdict[:, [0]].any(axis=1), np.full(1, _LIVE, np.uint16)
    died[passing & ~passing] = 1
    np.count_nonzero(died[np.zeros(1, np.intp)] > np.zeros(1, np.intp)) + np.count_nonzero(died >= _STALE)
    died[died == _LIVE] = _STALE


_map_kernels()
