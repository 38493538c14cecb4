"""Exception hierarchy for the repro DSMS.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single except clause while
still being able to distinguish configuration errors from runtime errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PlanError",
    "QueryError",
    "ExecutionError",
    "ChainError",
    "MigrationError",
    "ConfigurationError",
    "ShardingError",
    "check_arrival_order",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class PlanError(ReproError):
    """A query plan DAG is malformed (cycles, dangling ports, bad wiring)."""


class QueryError(ReproError):
    """A continuous-query specification is invalid."""


class ExecutionError(ReproError):
    """The executor encountered an inconsistent runtime condition."""


def check_arrival_order(timestamp: float, last: float) -> float:
    """``timestamp``, if an arrival stamped with it may follow the last
    accepted one (``last``; ``-inf`` before the first): only when
    ``timestamp >= last``, so a NaN timestamp is always refused.  Slice
    states are timestamp-ordered and purged from their head, which an
    out-of-order tuple would silently mis-cut."""
    if not timestamp >= last:
        raise ExecutionError(
            f"out-of-order arrival: timestamp {timestamp!r} does not follow "
            f"the last accepted one ({last!r})"
        )
    return timestamp


class ChainError(ReproError):
    """A sliced-join chain specification is invalid (bad slice boundaries)."""


class MigrationError(ReproError):
    """An online chain migration (split/merge) could not be applied."""


class ConfigurationError(ReproError):
    """An experiment or generator configuration is invalid."""


class ShardingError(ReproError):
    """A workload cannot be key-partitioned across engine shards.

    Hash partitioning both streams on the equi-join key is answer-preserving
    only when every query shares one equi-join condition over time-based
    windows; other workloads must run unsharded (``shards=1``)."""
