"""The partitioner of the sharded runtime: which shard owns which key.

Everything here is a pure function of its arguments — no session, no
transport, no shard mode.  :func:`shard_for_key` places an arrival,
:func:`unpartitionable_reason` says whether a join condition has a
partition key at all, :func:`repartition` re-buckets the exported window
state of one shard generation under a new modulus (the data half of
:meth:`~repro.runtime.sharding.ShardedStreamEngine.reshard`), and
:func:`relayer` regroups one shard's state when a query leaves after it
was taken (the base a crash recovery replays from).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from itertools import repeat
from operator import attrgetter, itemgetter, ne
from typing import Iterable, Mapping, Sequence

from repro.engine.errors import MigrationError
from repro.query.predicates import EquiJoinCondition, JoinCondition
from repro.streams.tuples import StreamTuple

__all__ = ["relayer", "repartition", "shard_for_key", "unpartitionable_reason"]

#: One shard's keyed window state: per slice (head first), per stream, the
#: resident tuples oldest first (``StreamEngine.extract_keyed_state``).
KeyedState = list[dict[str, list[StreamTuple]]]

_VALUES = attrgetter("values")
_STAMP = attrgetter("timestamp")
_SEQNO = attrgetter("seqno")


def shard_for_key(key: object, shards: int) -> int:
    """Stable shard index of a join-key value.

    Uses CRC-32 over a canonical string form, so the mapping is a pure
    function of ``(key, shards)`` — identical across interpreter runs,
    worker processes and machines (unlike built-in ``hash``, which salts
    strings per process).  Keys that compare equal must co-shard (the
    partitioning invariant behind answer preservation), so numeric types
    are canonicalized first: ``True == 1 == 1.0`` all shard as the integer
    ``1``, matching ``EquiJoinCondition``'s ``==`` semantics across mixed
    int/float/bool key sources.  CRC-32 mixes well enough that random key
    domains spread evenly; determinism, the cross-type invariant and the
    frequency bound are property-tested in ``tests/test_sharding.py``.
    """
    if shards <= 1:
        return 0
    if isinstance(key, bool):
        key = int(key)
    elif isinstance(key, float) and key.is_integer():
        key = int(key)
    data = key if isinstance(key, bytes) else str(key).encode("utf-8")
    return zlib.crc32(data) % shards


def unpartitionable_reason(condition: JoinCondition) -> str | None:
    """Why a session cannot run more than one shard, or ``None`` if it can.

    Sharding is answer-preserving only for equi-key workloads: a non-equi
    condition has no partition key.
    """
    if not isinstance(condition, EquiJoinCondition):
        return f"condition {condition.describe()!r} has no equi-key to partition on"
    return None


def repartition(
    exports: Sequence[KeyedState],
    target: int,
    key_attrs: Mapping[str, str] | None,
    streams: Sequence[str],
) -> tuple[list[KeyedState], int, int]:
    """Re-bucket the donors' window state under the modulus ``target``.

    ``exports[i]`` is donor shard ``i``'s keyed state; all donors share one
    slice count (the fan-out invariant).  Returns ``(buckets, moved,
    resident)``: one keyed state per new shard, how many tuples changed
    shards, and how many were repartitioned in total.

    Every tuple lands in the bucket its key hashes to, and the placement
    restores the chain's *layering invariant* — every tuple of slice k+1
    older than every tuple of slice k.  Purging is per-shard lazy, so one
    donor may retain a tuple shallowly that another donor has long pushed
    past; merged naively, a later cross-purge would append females out of
    timestamp order and an unchecked slice (end <= window) could emit a
    too-old pair.  Conflicts are resolved by pulling tuples *shallower*
    (walking oldest -> newest, depth only ever shrinks): a shallower slice
    re-purges the tuple on the next probe, whereas a deeper slice is not
    tapped by small-window queries and would lose results.

    Each stream is gathered once with every tuple's donor and depth, each
    distinct key is hashed once (:func:`_homes`), and one stable
    ``(timestamp, seqno)`` sort of the stream orders the walk that places
    it.  No container is allocated per tuple: enough of them set off a
    garbage collection over the session's whole heap inside the pause.
    """
    slice_count = max((len(state) for state in exports), default=0)
    buckets: list[KeyedState] = [
        [{stream: [] for stream in streams} for _ in range(slice_count)]
        for _ in range(target)
    ]
    memo: dict = {}  # per distinct key, its new shard
    moved = resident = 0
    for stream in streams:
        tuples, depths, donors = [], [], []  # per tuple: itself, its slice, its shard
        for donor, state in enumerate(exports):
            for depth, entry in enumerate(state):
                run = entry.get(stream, ())
                tuples += run
                depths += repeat(depth, len(run))
                donors += repeat(donor, len(run))
        if target > 1:
            homes = _homes(list(map(itemgetter(key_attrs[stream]), map(_VALUES, tuples))), target, memo)
        else:
            homes = [0] * len(tuples)
        resident += len(tuples)
        moved += sum(map(ne, homes, donors))
        # One stable (timestamp, seqno) sort of the stream, as two stable
        # passes over float / int keys: a bucket's tuples keep the order a
        # sort of that bucket alone gives them, ties in donor order.
        order = sorted(range(len(tuples)), key=list(map(_SEQNO, tuples)).__getitem__)
        order.sort(key=list(map(_STAMP, tuples)).__getitem__)
        lists = [[entry[stream] for entry in bucket] for bucket in buckets]
        floor = [slice_count] * target  # per bucket, oldest first: depth only shrinks
        for row in order:
            home, depth = homes[row], depths[row]
            if depth < floor[home]:
                floor[home] = depth
            lists[home][floor[home]].append(tuples[row])
    return buckets, moved, resident


def _homes(keys: list, target: int, memo: dict) -> list[int]:
    """``shard_for_key(key, target)`` per key, each distinct key hashed once
    into ``memo`` (exact: equal keys co-shard, so ``1``, ``1.0`` and ``True``
    share an entry); with an unhashable key, per key."""
    try:
        for key in set(keys).difference(memo):
            memo[key] = shard_for_key(key, target)
        return list(map(memo.__getitem__, keys))
    except TypeError:
        return [shard_for_key(key, target) for key in keys]


def relayer(
    state: KeyedState, base_windows: Iterable[float], windows: Iterable[float]
) -> KeyedState:
    """Regroup keyed state taken under the queries of ``base_windows`` onto
    the chain of those that remain, ``windows``.

    Both chains keep one boundary per distinct window, so every base slice
    lies inside exactly one current slice, or wholly beyond the current chain
    end (too old for every remaining query: dropped, as the removal that
    shortened the chain dropped it).  Base slices are concatenated shallow
    to deep; :meth:`StreamEngine.ingest_keyed_state` restores the
    ``(timestamp, seqno)`` order within a slice.

    Raises
    ------
    MigrationError
        If ``state`` is not one entry per distinct base window, or a
        remaining window is not a base window: its boundary would cut a base
        slice, and only a live purge can tell which rows lie on which side.
    """
    base_ends = sorted(set(base_windows))
    ends = sorted(set(windows))
    if len(state) != len(base_ends) or not set(ends) <= set(base_ends):
        raise MigrationError(
            f"cannot regroup {len(state)} slices taken under windows {base_ends} "
            f"onto windows {ends}"
        )
    layered: KeyedState = [{} for _ in ends]
    for base_end, entry in zip(base_ends, state):
        index = bisect_left(ends, base_end)  # the slice ending at or after it
        if index < len(layered):
            for stream, tuples in entry.items():
                layered[index].setdefault(stream, []).extend(tuples)
    return layered
