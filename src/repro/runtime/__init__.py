"""Runtime layer: long-lived stream sessions with online query admission.

The static layers of the package (:mod:`repro.core`, :mod:`repro.engine`)
build a shared plan once, for a fixed workload, and execute it.  This
package adds the dynamic half of the paper's story (Section 5.3): a
:class:`StreamEngine` session owns a live shared sliced-join chain and lets
continuous queries register and deregister *while the stream is running*,
migrating the chain incrementally — splitting and merging window slices
in place — so no in-flight join state is lost or duplicated.  Admission
and removal are the only things that move a boundary: a session's chain is
always the Mem-Opt chain of its registered windows (the CPU-Opt search of
:mod:`repro.core.cpu_opt` prices static plans only).

:class:`ShardedStreamEngine` scales the session out: for equi-join
workloads both input streams are hash-partitioned on the join key across N
inner engines (serial or one worker process per shard), with admissions
fanned out to every shard and per-shard results merged into a
deterministic global order.  N is the caller's — the constructor's
``shards`` and every live ``reshard(n)``.
"""

from repro.runtime.engine import (
    CountStreamEngine,
    EngineStats,
    MigrationEvent,
    RegisteredQuery,
    StreamEngine,
)
from repro.runtime.sharding import (
    ReshardEvent,
    ShardConfig,
    ShardedStreamEngine,
    shard_for_key,
)

__all__ = [
    "CountStreamEngine",
    "EngineStats",
    "MigrationEvent",
    "RegisteredQuery",
    "ReshardEvent",
    "ShardConfig",
    "ShardedStreamEngine",
    "StreamEngine",
    "shard_for_key",
]
