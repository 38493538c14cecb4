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
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from repro.engine.errors import MigrationError
from repro.query.predicates import EquiJoinCondition, JoinCondition
from repro.streams.tuples import StreamTuple

__all__ = ["relayer", "repartition", "shard_for_key", "unpartitionable_reason"]

#: One shard's keyed window state: per slice (head first), per stream, the
#: resident tuples oldest first (``StreamEngine.extract_keyed_state``).
KeyedState = list[dict[str, list[StreamTuple]]]


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
    """
    slice_count = max((len(state) for state in exports), default=0)
    tagged: dict[tuple[int, str], list[tuple[StreamTuple, int]]] = defaultdict(list)
    moved = 0
    resident = 0
    for old_index, state in enumerate(exports):
        for depth, entry in enumerate(state):
            for stream, tuples in entry.items():
                for tup in tuples:
                    resident += 1
                    new_index = (
                        shard_for_key(tup[key_attrs[stream]], target)
                        if target > 1
                        else 0
                    )
                    if new_index != old_index:
                        moved += 1
                    tagged[new_index, stream].append((tup, depth))
    buckets: list[KeyedState] = [
        [{stream: [] for stream in streams} for _ in range(slice_count)]
        for _ in range(target)
    ]
    for (new_index, stream), entries in tagged.items():
        entries.sort(key=lambda e: (e[0].timestamp, e[0].seqno))
        depth = slice_count  # oldest first; depth only shrinks
        for tup, donor_depth in entries:
            depth = min(depth, donor_depth)
            buckets[new_index][depth][stream].append(tup)
    return buckets, moved, resident


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
