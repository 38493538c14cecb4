"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import signal

import pytest

from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import JoinedTuple, make_tuple


# ---------------------------------------------------------------------------
# Helpers usable from any test module
# ---------------------------------------------------------------------------
def joined_keys(items) -> list[tuple[int, int]]:
    """Canonical multiset representation of joined results for comparisons."""
    keys = []
    for item in items:
        if isinstance(item, JoinedTuple):
            keys.append((item.left.seqno, item.right.seqno))
    return sorted(keys)


def result_keys(results: dict) -> dict[str, list[tuple[int, int]]]:
    """Per-query canonical result sets."""
    return {name: joined_keys(items) for name, items in results.items()}


def prefix_results(chain, results, window) -> list[JoinedTuple]:
    """What a query whose window is a boundary of ``chain`` receives from the
    chain's tagged ``results``: those of the slices inside its window."""
    return [joined for index, joined in results if chain.boundaries[index + 1] <= window]


def shard_engines(session) -> list:
    """The engines of a serial-mode sharded session's shards."""
    return [shard.engine for shard in session._shards]


def regular_join_reference(
    tuples,
    window: float,
    condition,
    left_stream: str = "A",
    right_stream: str = "B",
    left_filter=None,
    right_filter=None,
) -> list[tuple[int, int]]:
    """Brute-force reference implementation of A[W] ⋈ B[W] with filters.

    Directly applies the semantics of Section 2: a pair (a, b) joins when
    |Ta - Tb| < W, the join condition holds and both filters accept their
    tuple.  Quadratic — for test-sized inputs only.
    """
    lefts = [t for t in tuples if t.stream == left_stream]
    rights = [t for t in tuples if t.stream == right_stream]
    if left_filter is not None:
        lefts = [t for t in lefts if left_filter.matches(t)]
    if right_filter is not None:
        rights = [t for t in rights if right_filter.matches(t)]
    pairs = []
    for a in lefts:
        for b in rights:
            if abs(a.timestamp - b.timestamp) < window and condition.matches(a, b):
                pairs.append((a.seqno, b.seqno))
    return sorted(pairs)


def make_stream(sequence, stream="A", start=0.0, gap=1.0, key="k"):
    """Build a list of tuples with the given join-key sequence."""
    return [
        make_tuple(stream, start + index * gap, **{key: value, "value": 0.5})
        for index, value in enumerate(sequence)
    ]


def kill_worker(session, index: int) -> None:
    """Kill the worker process behind shard ``index`` of a process-mode
    :class:`~repro.runtime.ShardedStreamEngine` and wait for it to be gone."""
    worker = session._shards[index].worker
    worker.terminate()
    worker.join(timeout=5)
    assert not worker.is_alive()


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
#: Seconds one test may run (the slowest takes ~3): a test left waiting on a
#: stuck worker process fails by name, with the stack it waited in, instead
#: of stalling the rest of the suite.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(Exception):
    """A test ran past :data:`TEST_TIME_LIMIT_S` (not an ``OSError``, so no
    transport error handler takes it for a dead worker)."""


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cross_condition():
    return CrossProductCondition()


@pytest.fixture
def equi_condition():
    return EquiJoinCondition("join_key", "join_key", key_domain=5)


@pytest.fixture
def small_stream_data():
    """A small deterministic Poisson two-stream workload."""
    return generate_join_workload(rate_a=15, rate_b=15, duration=6.0, seed=11)


@pytest.fixture
def two_query_workload():
    """The paper's motivating two-query example (Q1 unfiltered, Q2 filtered)."""
    condition = selectivity_join(0.2)
    return QueryWorkload(
        [
            ContinuousQuery("Q1", window=1.0, join_condition=condition),
            ContinuousQuery(
                "Q2",
                window=3.0,
                join_condition=condition,
                left_filter=selectivity_filter(0.4),
            ),
        ]
    )


@pytest.fixture
def three_query_workload_fixture():
    condition = selectivity_join(0.25)
    shared_filter = selectivity_filter(0.5)
    return QueryWorkload(
        [
            ContinuousQuery("Q1", window=0.8, join_condition=condition),
            ContinuousQuery(
                "Q2", window=1.6, join_condition=condition, left_filter=shared_filter
            ),
            ContinuousQuery(
                "Q3", window=2.8, join_condition=condition, left_filter=shared_filter
            ),
        ]
    )


@pytest.fixture
def rng():
    return random.Random(1234)
