"""The in-core slice state: columnar (struct-of-arrays) blocks.

:class:`ColumnarState` is the only in-core representation of one stream's
slice state (its cold counterpart is
:class:`~repro.engine.spill.SpilledState`; both answer the same protocol —
``append``, ``purge``, ``probe``, ``candidates``, the deque-compatible read
surface, ``load``, ``memory_bytes``, ``release`` — so the join operators
keep only the male/female protocol of Figure 9 and never ask what a state
is).  It is a timestamp-ordered container laid out as parallel columns —

* ``timestamps`` — a ``float64`` array, used by cross-purging.  Because the
  state is timestamp-ordered, the purge predicate ``now - t >= end`` is
  monotone in ``t`` and the purge cut can be found by binary search over the
  column using the *exact* scalar expression the tuple-at-a-time path
  evaluates, so purge decisions are bit-identical.
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
protocol work on it unchanged; the batched join path uses :meth:`purge`
and :meth:`probe`, which decide between the vectorized mask, the index
bucket and the bound scalar fallback.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable, Iterator

import numpy as np

__all__ = [
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
        "key_attribute", "probe_attribute", "all_match", "match_mask", "bind", "indexed", "equi",
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

        Returns ``(purged tuples oldest-first, comparison count)``.  The cut
        is a binary search over the timestamp column; the count reproduces
        the scan loop exactly (one per purged head, plus the failing check
        when tuples remain).
        """
        size = len(self._refs) - self._head
        if not size:
            return _NOTHING
        cut = self.purge_cut(now, end)
        if not cut:
            return (), 1
        return self.take(cut), (cut + 1 if cut < size else cut)

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
            if probe_key is not _MISSING:
                sel = binding.match_mask(probe_key, keys[head:n], self._key_level == 0)
                if sel is not None:
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

    def memory_bytes(self, tuple_bytes: float) -> tuple[int, int]:
        """``(resident, spilled)`` byte estimate: everything is resident."""
        return int(len(self) * tuple_bytes), 0

    def release(self) -> None:
        """Nothing lives outside core, so a replaced state just goes away."""

    # -- columnar accessors ---------------------------------------------------
    def purge_cut(self, now: float, end: float) -> int:
        """Number of head tuples with ``now - t >= end``.

        Evaluates the *exact* scalar expression of the tuple-at-a-time purge
        loop at each probe point; the predicate is monotone in ``t`` over the
        timestamp-ordered column, so a binary search finds the same cut the
        linear scan would.
        """
        head = self._head
        n = len(self._refs)
        if head >= n:
            return 0
        ts = self._ts
        if n - head <= 32:
            i = head
            while i < n and now - ts[i] >= end:
                i += 1
            return i - head
        lo, hi = head, n
        while lo < hi:
            mid = (lo + hi) // 2
            if now - ts[mid] >= end:
                lo = mid + 1
            else:
                hi = mid
        return lo - head

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

    def _ensure_room(self) -> None:
        n = len(self._refs)
        if n < self._ts.shape[0]:
            return
        head = self._head
        if head and head * 2 >= n:
            self._compact()
            return
        capacity = max(_MIN_CAPACITY, 2 * self._ts.shape[0])
        ts = np.empty(capacity, dtype=np.float64)
        ts[:n] = self._ts[:n]
        self._ts = ts
        if self._keys is not None:
            keys = np.empty(capacity, dtype=np.float64)
            keys[:n] = self._keys[:n]
            self._keys = keys

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ColumnarState key={self.binding.key_attribute!r} size={len(self)}>"
