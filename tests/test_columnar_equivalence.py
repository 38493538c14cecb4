"""Property tests: the columnar batch kernel is invisible in the output.

Slice state has one in-core representation (``repro.engine.columns``): a
session's cursor chain runs the block kernel over it (``ChainColumn.sweep`` /
``probe`` — forward purge cuts, vectorized mask, key index, bound scalar
fallback) while the operators' per-item ``process()`` path stays the literal
scalar Figure-9 loop over a state's deque surface (``condition.matches`` per
candidate).  The properties here hold the kernel to that reference and to
the independent ``repro.baselines.unshared`` oracle: same pairs, same
per-slice attribution, same resident state, same probe/purge comparison
counts — at every batch size, for every condition shape, and for payload
values the float64 key columns cannot represent exactly (strings, bools,
huge ints — the fallback paths).

These are the differential properties that make "byte-identical outputs"
a checked invariant instead of a code-review claim.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.unshared import build_unshared_plan
from repro.core.chain import SlicedJoinChain
from repro.core.chain_operators import OperatorJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.engine.executor import execute_plan
from repro.query.predicates import (
    CrossProductCondition,
    EquiJoinCondition,
    ModularMatchCondition,
    ThetaJoinCondition,
    attribute_ge,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import StreamEngine
from repro.streams.tuples import make_tuple

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
#: Join-key values deliberately hostile to a float64 key column: exact
#: doubles, strings, bools, and ints beyond 2**53 (not float-representable).
WEIRD_KEYS = [
    0,
    1,
    2,
    3.5,
    -1,
    True,
    False,
    "red",
    "blue",
    2**53 + 1,
    2**53 + 2,
    -(2**40) - 7,
]


@st.composite
def stream_events(draw, max_events: int = 48, keys=None, min_gap: float = 0.01):
    """A timestamp-ordered sequence of A/B arrivals (``min_gap=0`` allows ties)."""
    count = draw(st.integers(min_value=2, max_value=max_events))
    gaps = draw(
        st.lists(
            st.floats(min_value=min_gap, max_value=0.6, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    streams = draw(
        st.lists(st.sampled_from(["A", "B"]), min_size=count, max_size=count)
    )
    key_values = draw(
        st.lists(
            st.sampled_from(keys if keys is not None else list(range(7))),
            min_size=count,
            max_size=count,
        )
    )
    tuples = []
    now = 0.0
    for gap, stream, key in zip(gaps, streams, key_values):
        now += gap
        tuples.append(make_tuple(stream, now, join_key=key, value=now))
    return tuples


@st.composite
def slicings(draw, max_window: float = 3.0):
    cuts = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=max_window - 0.05, allow_nan=False),
            min_size=0,
            max_size=3,
            unique=True,
        )
    )
    return [0.0] + sorted(cuts) + [max_window]


CONDITIONS = {
    "equi": lambda: EquiJoinCondition("join_key", "join_key", key_domain=7),
    "modular": lambda: ModularMatchCondition(threshold=3, domain=7, attribute="join_key"),
    "cross": lambda: CrossProductCondition(),
    "theta": lambda: ThetaJoinCondition(
        lambda a, b: a.get("join_key", 0) <= b.get("join_key", 0)
    ),
}


BATCH_SIZES = [1, 3, 16, 64]


def _tagged(results):
    """Chain (slice, joined) emissions as order-free comparable evidence."""
    return sorted((index, j.left.seqno, j.right.seqno) for index, j in results)


def _batched(chain, tuples, batch_size):
    results = []
    for start in range(0, len(tuples), batch_size):
        results.extend(chain.process_batch(tuples[start : start + batch_size]))
    return results


def _unshared(condition, windows, tuples, window_kind="time"):
    """Per-query pairs of the independent no-sharing baseline plan."""
    workload = QueryWorkload(
        [ContinuousQuery(name, window, condition) for name, window in windows.items()]
    )
    report = execute_plan(build_unshared_plan(workload, window_kind=window_kind), tuples)
    return {
        name: sorted((j.left.seqno, j.right.seqno) for j in report.results[name])
        for name in windows
    }


def _evidence(chain, results):
    comparisons = chain.metrics.comparisons
    return (
        _tagged(results),
        chain.state_sizes(),
        comparisons.get("probe", 0),
        comparisons.get("purge", 0),
    )


# ---------------------------------------------------------------------------
# Chains: sliced (time) and count-sliced joins
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    tuples=stream_events(),
    boundaries=slicings(),
    kind=st.sampled_from(sorted(CONDITIONS)),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_sliced_chain_columnar_equals_tuple_path(tuples, boundaries, kind, batch_size):
    """Batch kernel ≡ per-item ``process()`` ≡ unshared baseline (time slices)."""
    condition = CONDITIONS[kind]()
    per_item = OperatorJoinChain(boundaries, condition)
    batched = SlicedJoinChain(boundaries, condition)
    reference = per_item.process_all(tuples)
    assert _evidence(batched, _batched(batched, tuples, batch_size)) == _evidence(
        per_item, reference
    )
    window = boundaries[-1]
    assert sorted(
        (j.left.seqno, j.right.seqno) for _, j in reference
    ) == _unshared(condition, {"Q": window}, tuples)["Q"]


#: Around the block kernel's shapes: one male per sweep, a pair, a run that
#: never divides the input evenly, the engine default, the whole input at once.
BLOCK_BATCH_SIZES = [1, 2, 7, 32, 128]


def _counters(chain):
    """Every additive counter of the chain's ``MetricsSnapshot``."""
    return {
        key: value
        for key, value in chain.metrics.snapshot().items()
        if key.split(".")[0] in ("comparisons", "invocations", "emitted", "ingested")
    }


@pytest.mark.parametrize("batch_size", BLOCK_BATCH_SIZES)
@settings(max_examples=20, deadline=None)
@given(
    tuples=stream_events(max_events=140, min_gap=0.0),
    boundaries=slicings(),
    kind=st.sampled_from(sorted(CONDITIONS)),
    floors=st.lists(st.integers(0, 4), min_size=8, max_size=8),
)
def test_block_kernel_equals_per_item_with_ties_bounds_and_link_filters(
    batch_size, tuples, boundaries, kind, floors
):
    """Equal timestamps, ``enforce_bounds`` and pushed-down link filters: the
    batch path returns the per-item results *and* the per-item counters."""
    condition = CONDITIONS[kind]()
    links = [
        (attribute_ge("join_key", floors[2 * i]), attribute_ge("join_key", floors[2 * i + 1]))
        for i in range(len(boundaries) - 1)
    ]
    chains = []
    for _ in range(2):
        chain = OperatorJoinChain(boundaries, condition)
        chain.set_link_filters(links)
        for join in chain.joins:
            join.enforce_bounds = True
        chains.append(chain)
    per_item, batched = chains
    reference = per_item.process_all(tuples)
    results = _batched(batched, tuples, batch_size)
    assert _evidence(batched, results) == _evidence(per_item, reference)
    assert _counters(batched) == _counters(per_item)
    assert batched.state_tuples("A") == per_item.state_tuples("A")
    assert batched.state_tuples("B") == per_item.state_tuples("B")


@settings(max_examples=40, deadline=None)
@given(
    tuples=stream_events(),
    ranks=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3, unique=True),
    kind=st.sampled_from(sorted(CONDITIONS)),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_count_chain_columnar_equals_tuple_path(tuples, ranks, kind, batch_size):
    """Batch kernel ≡ per-item ``process()`` ≡ unshared baseline (rank slices)."""
    boundaries = [0] + sorted(ranks)
    condition = CONDITIONS[kind]()
    per_item = CountSlicedJoinChain(boundaries, condition)
    batched = CountSlicedJoinChain(boundaries, condition)
    reference = per_item.process_all(tuples)
    assert _evidence(batched, _batched(batched, tuples, batch_size)) == _evidence(
        per_item, reference
    )
    assert sorted(
        (j.left.seqno, j.right.seqno) for _, j in reference
    ) == _unshared(condition, {"Q": boundaries[-1]}, tuples, "count")["Q"]


# ---------------------------------------------------------------------------
# Engine: full sessions, weird keys, every batch size
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    tuples=stream_events(keys=WEIRD_KEYS),
    batch_size=st.sampled_from(BATCH_SIZES),
    window_kind=st.sampled_from(["time", "count"]),
    probe=st.sampled_from(["nested_loop", "hash"]),
)
def test_engine_columnar_equals_tuple_path_on_weird_keys(
    tuples, batch_size, window_kind, probe
):
    """Engine sessions agree even when keys defeat the float64 columns.

    Strings, bools and ints past 2**53 all force the columnar layout's
    fallback behavior; the per-item chain path and the unshared baseline
    are the oracles.
    """
    condition = EquiJoinCondition("join_key", "join_key", key_domain=13)
    windows = {"Q1": 2.0, "Q2": 3.0} if window_kind == "time" else {"Q1": 3, "Q2": 5}
    engine = StreamEngine(
        condition, batch_size=batch_size, probe=probe, window_kind=window_kind
    )
    for name, window in windows.items():
        engine.add_query(name, window)
    engine.process_many(tuples)
    engine.flush()
    delivered = {
        name: sorted((j.left.seqno, j.right.seqno) for j in engine.results(name))
        for name in windows
    }
    assert delivered == _unshared(condition, windows, tuples, window_kind)

    chain_cls = SlicedJoinChain if window_kind == "time" else CountSlicedJoinChain
    chain = chain_cls([0, *windows.values()], condition, probe=probe)
    reference = chain.process_all(tuples)
    restrict = chain.results_for_window if window_kind == "time" else chain.results_for_count
    assert delivered == {
        name: sorted((j.left.seqno, j.right.seqno) for j in restrict(reference, window))
        for name, window in windows.items()
    }
