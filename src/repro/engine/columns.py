"""The in-core slice state: columnar (struct-of-arrays) blocks.

:class:`ColumnarState` is the only in-core representation of one stream's
slice state (its cold counterpart is
:class:`~repro.engine.spill.SpilledState`; both answer the same protocol —
``sweep``, ``append``, ``purge``, ``probe``, ``candidates``, the
deque-compatible read surface, ``load``, ``memory_bytes``, ``release`` — so
the join operators keep only the male/female protocol of Figure 9 and never
ask what a state is).  It is a timestamp-ordered container laid out as
parallel columns —

* ``timestamps`` — a ``float64`` array, used by cross-purging.  The purge
  is a forward sweep from the head (or, within a block, from the previous
  male's cut) evaluating the *exact* scalar expression ``now - t >= end``
  the tuple-at-a-time path evaluates, on Python floats, so purge decisions
  are bit-identical.
* ``keys`` — a ``float64`` array of the join-key attribute, used by
  vectorized probing (see ``match_mask`` in :mod:`repro.query.predicates`).
  Only values whose Python comparison semantics are exactly representable in
  a double go into the column (bools, ints with ``|v| <= 2**53``, floats);
  the first value outside that set permanently invalidates the column and
  probing falls back to per-tuple checks, so correctness never depends on
  lossy conversions.  A state built for ``probe="hash"`` keeps, instead of
  this column, a ``key -> resident tuples`` index maintained by ``append``,
  ``popleft``, ``take`` and ``load``; an equi-probe is then one bucket
  lookup over the time-ordered rows.
* ``refs`` — the parallel Python list of the resident
  :class:`~repro.streams.tuples.StreamTuple` payload references.  Columns
  are an internal acceleration structure: everything that leaves the state
  (purged tuples, join outputs, extracted keyed state) is materialized from
  ``refs``, and state always crosses migration boundaries as plain tuple
  lists (see ``docs/invariants.md``).

The container is deque-compatible (``append``/``popleft``/``__getitem__``/
iteration) so the per-tuple execution path and the keyed-state migration
protocol work on it unchanged.  The batched join path hands a state one
whole batch through :meth:`ColumnarState.sweep`: vectorized when every key
involved has an exact float64 form, otherwise :func:`replay_sweep`, the
scalar ``append``/``purge``/``probe`` schedule it stands for (``probe``
picks the vectorized mask, the index bucket or the bound scalar fallback).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ColumnarState",
    "ProbeBinding",
    "replay_sweep",
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
    reproduces — the cold tier indexes its segments on it regardless of
    ``indexed``.
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
            index = self._index = defaultdict(deque)
            for ref in refs:
                index[ref.values.get(attribute, _MISSING)].append(ref)
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

    def sweep(
        self, females: Sequence[Any], males: Sequence[Any], preceding: Sequence[int], end: float
    ) -> tuple[Sequence[Any], Sequence[Any], int, int]:
        """One batch's traffic through this state, a block at a time.

        ``females`` are appended in order; ``males[j]`` cross-purges with
        ``end`` and probes once the first ``preceding[j]`` of them are in.
        Returns ``(purged runs, matches, purge comparisons, probe
        comparisons)``, one run and one match list per male — what
        :func:`replay_sweep` yields, and that is what runs when a vectorized
        answer could differ: an indexed or key-less state, a stored or
        probing key above the condition's ``mask_level``.  Otherwise male
        ``j`` sees the live rows ``[cut_j, end_j)`` — the rows at entry plus
        ``preceding[j]``, less the running purge cut: one bulk extend, one
        purge sweep, one 2-D mask per block of males whose *hit pairs* are
        held to their male's range, one ``take``.
        """
        binding = self.binding
        if self._keys is None:
            return replay_sweep(self, females, males, preceding, end)
        # Every key is vetted before the first mutation, so the replay never
        # starts from a half-applied block.
        female_keys = [tup.values.get(binding.key_attribute, _MISSING) for tup in females]
        probe_keys = [tup.values.get(binding.probe_attribute, _MISSING) for tup in males]
        stored_level = max([self._key_level, *map(key_level, female_keys)])
        level = max([stored_level, *map(key_level, probe_keys)])
        if level > binding.mask_level:
            return replay_sweep(self, females, males, preceding, end)
        # Offsets are relative to the live rows from here on: the extend may
        # compact the columns (rows shift, ``_head`` resets), and nothing is
        # purged until the single ``take`` at the end.
        size = len(self)
        self._extend(females, female_keys, stored_level)
        if not males:
            return (), (), 0, 0
        stops = [size + count for count in preceding]
        cuts = self.purge_cut([tup.timestamp for tup in males], stops, end)
        refs = self._refs
        head = self._head
        keys = self._keys[None, head : head + stops[-1]]
        probes = np.array(probe_keys, dtype=np.float64)[:, None]
        matches: list[list[Any]] = [[] for _ in males]
        # One 2-D mask per block of males over the rows any of them sees,
        # ``[lo, hi)``: the whole batch against a short slice, a few males
        # against a long one (sized by the widest range a later male could
        # see, so never over _BLOCK_ELEMENTS).
        first = 0
        while first < len(males):
            lo = cuts[first]
            last = min(len(males), first + max(1, _BLOCK_ELEMENTS // max(1, stops[-1] - lo)))
            hi = stops[last - 1]
            if hi > lo:
                sel = binding.match_mask(probes[first:last], keys[:, lo:hi], level == 0)
                rows, cols = np.nonzero(sel)
                for row, col in zip(rows.tolist(), cols.tolist()):
                    row += first
                    col += lo
                    if cuts[row] <= col < stops[row]:
                        matches[row].append(refs[head + col])
            first = last
        taken = self.take(cuts[-1])
        purged = [taken[start:stop] for start, stop in zip([0] + cuts, cuts)]
        # One comparison per purged head, plus each male's failing check.
        purge_count = cuts[-1] + sum(cut < stop for cut, stop in zip(cuts, stops))
        return purged, matches, purge_count, sum(stops) - sum(cuts)

    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """``(resident, spilled)`` byte estimate: everything is resident."""
        return int(len(self) * tuple_bytes), 0

    def release(self) -> None:
        """Nothing lives outside core, so a replaced state just goes away."""

    # -- columnar accessors ---------------------------------------------------
    def purge_cut(self, nows: Sequence[float], stops: Sequence[int], end: float) -> list[int]:
        """Running purge cuts of a run of probing timestamps, one forward sweep.

        ``cuts[j]`` is the number of head rows expelled once probe ``j`` has
        purged, seeing the first ``stops[j]`` live rows.  Evaluates the
        *exact* scalar expression of the tuple-at-a-time purge loop, ``now -
        t >= end`` on Python floats, resuming at the previous probe's cut, so
        purge decisions are bit-identical.  Removes nothing (:meth:`take`).
        """
        ts = self._ts
        head = self._head
        cuts: list[int] = []
        cut = 0
        base = 0
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
            key = ref.values.get(attribute, _MISSING)
            bucket = index[key]
            bucket.popleft()
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
        """Bulk :meth:`append` of tuples whose keys were vetted at ``level``."""
        if not tuples:
            return
        self._ensure_room(len(tuples))
        refs = self._refs
        n = len(refs)
        refs.extend(tuples)
        self._ts[n : len(refs)] = [tup.timestamp for tup in tuples]
        self._keys[n : len(refs)] = keys
        self._key_level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ColumnarState key={self.binding.key_attribute!r} size={len(self)}>"


def replay_sweep(
    state: Any, females: Sequence[Any], males: Sequence[Any], preceding: Sequence[int], end: float
) -> tuple[list[Any], list[Any], int, int]:
    """``sweep`` as the scalar schedule it stands for, call by call.

    Each male lets in the females that precede it, purges, then probes,
    through the state's own ``append``/``purge``/``probe`` — so an index, a
    disk tier's flush timing and cold reads, or an invalid key column behave
    exactly as under tuple-at-a-time delivery.  All of ``SpilledState.sweep``
    and the reference the vectorized sweep is tested against.
    """
    purged_runs: list[Any] = []
    matches: list[Any] = []
    purge_count = probe_count = 0
    fed = 0
    for male, count in zip(males, preceding):
        for female in females[fed:count]:
            state.append(female)
        fed = count
        purged, comparisons = state.purge(male.timestamp, end)
        purge_count += comparisons
        purged_runs.append(purged)
        matched, comparisons = state.probe(male)
        probe_count += comparisons
        matches.append(matched)
    for female in females[fed:]:
        state.append(female)
    return purged_runs, matches, purge_count, probe_count
