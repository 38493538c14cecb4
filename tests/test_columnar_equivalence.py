"""Property tests: the columnar batch kernel is invisible in the output.

A session's cursor chain runs the block kernel over one column per stream
(``repro.engine.columns``: ``ChainColumn.sweep`` / ``probe`` — forward purge
cuts, vectorized mask, bound scalar fallback) while the operators' per-item
``process()`` path stays the literal scalar Figure-9 loop over a deque of
tuples per slice and stream (the bound condition per candidate).  The
properties here hold the kernel to that reference and to the independent
``repro.baselines.unshared`` oracle: same pairs, same per-slice attribution,
same resident state, same probe/purge comparison counts — at every batch
size, for every condition shape, and for payload values the float64 key
columns cannot represent exactly (strings, bools, huge ints — the fallback
paths).

These are the differential properties that make "byte-identical outputs"
a checked invariant instead of a code-review claim.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.unshared import build_unshared_plan
from repro.core.chain import SlicedJoinChain
from repro.core.chain_operators import OperatorJoinChain
from repro.core.count_chain import CountSlicedJoinChain
from repro.engine.columns import ChainColumn, ProbeBinding
from repro.engine.executor import execute_plan
from repro.engine.spill import SpillLog, SpillStore
from repro.operators.count_join import CountWindowJoin
from repro.query.predicates import (
    ComparisonPredicate,
    CrossProductCondition,
    EquiJoinCondition,
    ModularMatchCondition,
    ThetaJoinCondition,
)
from repro.query.query import ContinuousQuery, QueryWorkload
from repro.runtime import StreamEngine
from repro.streams.tuples import make_tuple
from tests.conftest import prefix_results

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
    """Per-query pairs of independent regular joins: the no-sharing baseline
    plan for time windows, one :class:`CountWindowJoin` per count window."""
    if window_kind == "count":
        results = {}
        for name, count in windows.items():
            join = CountWindowJoin(count, count, condition)
            results[name] = [
                item
                for tup in tuples
                for _, item in join.process(tup, "left" if tup.stream == "A" else "right")
            ]
    else:
        workload = QueryWorkload(
            [ContinuousQuery(name, window, condition) for name, window in windows.items()]
        )
        results = execute_plan(build_unshared_plan(workload), tuples).results
    return {
        name: sorted((j.left.seqno, j.right.seqno) for j in results[name])
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
    """Equal timestamps and pushed-down link filters: the batch path returns
    the per-item results *and* the per-item counters."""
    condition = CONDITIONS[kind]()
    links = [
        (
            ComparisonPredicate("join_key", ">=", floors[2 * i]),
            ComparisonPredicate("join_key", ">=", floors[2 * i + 1]),
        )
        for i in range(len(boundaries) - 1)
    ]
    chains = []
    for _ in range(2):
        chain = OperatorJoinChain(boundaries, condition)
        chain.set_link_filters(links)
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
)
def test_engine_columnar_equals_tuple_path_on_weird_keys(tuples, batch_size, window_kind):
    """Engine sessions agree even when keys defeat the float64 columns.

    Strings, bools and ints past 2**53 all force the columnar layout's
    fallback behavior; the per-item chain path and the unshared baseline
    are the oracles.
    """
    condition = EquiJoinCondition("join_key", "join_key", key_domain=13)
    windows = {"Q1": 2.0, "Q2": 3.0} if window_kind == "time" else {"Q1": 3, "Q2": 5}
    engine = StreamEngine(condition, window_kind=window_kind)
    for name, window in windows.items():
        engine.add_query(name, window)
    for start in range(0, len(tuples), batch_size):
        engine.process_many(tuples[start : start + batch_size])
    delivered = {
        name: sorted((j.left.seqno, j.right.seqno) for j in engine.results(name))
        for name in windows
    }
    assert delivered == _unshared(condition, windows, tuples, window_kind)

    chain_cls = SlicedJoinChain if window_kind == "time" else CountSlicedJoinChain
    chain = chain_cls([0, *windows.values()], condition)
    reference = chain.process_all(tuples)
    assert delivered == {
        name: sorted(
            (j.left.seqno, j.right.seqno) for j in prefix_results(chain, reference, window)
        )
        for name, window in windows.items()
    }


# ---------------------------------------------------------------------------
# The modular mask over stored residues, through both probes
# ---------------------------------------------------------------------------
#: ``(domain, threshold)``: every threshold of the small domains, a spread of 1000's.
MODULAR_SHAPES = [(d, t) for d in (1, 2, 7) for t in range(d + 1)] + [
    (1000, t) for t in (0, 1, 25, 400, 999, 1000)
]


def modular_keys(domain: int):
    """Level-0 keys, many of them not their own residue: negative keys,
    multiples of the domain, the ±2**40 edge of exact arithmetic, bools."""
    return st.one_of(
        st.integers(-3 * domain - 5, 3 * domain + 5),
        st.integers(-4, 4).map(lambda k: k * domain),
        st.sampled_from([2**40, -(2**40), 2**40 - 1, 1 - 2**40, True, False]),
    )


@pytest.mark.parametrize("domain, threshold", MODULAR_SHAPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), promote=st.booleans())
def test_residue_mask_equals_modular_matches(domain, threshold, data, promote):
    """``ModularMatchCondition``'s residue mask ≡ its ``matches``, through a
    ``ChainColumn``'s 2-D block probe; residues enter at ``load`` and at
    ``extend``.  With ``promote`` a float key arrives after residues were
    stored: the column is level 1 and the probe answers through the scalar
    check."""
    condition = ModularMatchCondition(threshold=threshold, domain=domain)
    stored_keys = data.draw(st.lists(modular_keys(domain), min_size=1, max_size=40))
    male_keys = data.draw(st.lists(modular_keys(domain), min_size=1, max_size=12))
    if promote:
        stored_keys.append(data.draw(st.sampled_from([2.0, -7.5, float(domain)])))
    stored = [make_tuple("B", float(i), join_key=key) for i, key in enumerate(stored_keys)]
    males = [make_tuple("A", float(len(stored)), join_key=key) for key in male_keys]
    expected = [
        [tup.seqno for tup in stored if condition.matches(male, tup)] for male in males
    ]
    half = len(stored) // 2  # loaded; the rest (and any float key) extended

    column = ChainColumn(ProbeBinding(condition, stores_left=False), [stored[:half]])
    column.extend(stored[half:], column.judge(stored[half:]))
    js, ks, found, _ = column.probe(males, [[0] * len(males)], [len(stored)] * len(males))
    got = [[] for _ in males]
    for j, k, tup in zip(js.tolist(), ks.tolist(), found):
        if k == 0:
            got[j].append(tup.seqno)
    assert got == expected


#: Per probe path, a condition and stored keys: the equality mask, the residue
#: mask, and the scalar fallback (a string key leaves no key column).
PROBE_PATHS = {
    "equi": (EquiJoinCondition("join_key", "join_key"), [0, 1, 2, 1, 0, 2, 1, 1]),
    "modular": (ModularMatchCondition(threshold=3, domain=7), [0, 3, 5, 6, 1, 9, 4, 13]),
    "scalar": (EquiJoinCondition("join_key", "join_key"), ["red", 1, "red", 0, 1, "blue", 1, 0]),
}


@pytest.mark.parametrize("cold", [0, 5])
@pytest.mark.parametrize("path", sorted(PROBE_PATHS))
def test_probe_returns_the_hits_only(path, cold):
    """``ChainColumn.probe`` hands back a stored tuple per hit and none for a
    candidate that is no hit: ``len(found)`` is the count of ``ks < depth``,
    the arrays past it are padding (slice ``depth``), and each cold row hit
    is read back once."""
    condition, keys = PROBE_PATHS[path]
    stored = [make_tuple("B", 0.1 * i, join_key=key) for i, key in enumerate(keys)]
    column = ChainColumn(ProbeBinding(condition, stores_left=False), [stored[5:], stored[2:5], stored[:2]])
    store = SpillStore()
    if cold:
        column.log = SpillLog(store)
        column.evict(cold)
    males = [make_tuple("A", 1.0, join_key=key) for key in keys[:4]]
    stops = [4, 6, 7, 8]  # male j sees rows [0, stops[j]), arrival order; the cuts are 5, 2, 0
    hits = [
        (j, sum(cut > row for cut in column.cuts), row)
        for j, male in enumerate(males) for row in range(stops[j]) if condition.matches(male, stored[row])
    ]
    js, ks, found, verdicts = column.probe(males, [[cut] * len(males) for cut in column.cuts], stops)
    store.close()
    count = int(np.count_nonzero(ks < 3))
    assert len(found) == count == len(hits) > 0 and None not in found
    assert [(j, k, tup.seqno) for j, k, tup in zip(js.tolist(), ks.tolist(), found)] == [
        (j, k, stored[row].seqno) for j, k, row in hits
    ]
    assert len(js) == len(ks) == len(verdicts) and len(js) % 64 == 0 and set(ks[count:].tolist()) <= {3}
    assert store.cold_reads == len({row for _, _, row in hits if row < cold})


#: Feeds a ``bench/`` workload's session after its set-up and prints how many
#: KiB of numpy's core module's code became resident meanwhile.
MAPPED_CODE = """
import re, sys
from itertools import islice
from bench import workloads
from bench.driver import Run


def resident_kib():
    kib, mapping = 0, ""
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                mapping = line.split()[-1]
            elif line.startswith("Rss:") and "_multiarray_umath" in mapping:
                kib += int(line.split()[1])
    return kib


run = Run(workloads.WORKLOADS[sys.argv[1]])
run.setup()
stream, before = workloads.arrivals(3), resident_kib()
for _ in range(int(3 * workloads.ARRIVALS_PER_STREAM_SECOND) // workloads.QUANTUM):
    run.feed(list(islice(stream, workloads.QUANTUM)))
print(resident_kib() - before)
run.session.close()
"""


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs /proc/self/smaps")
@pytest.mark.parametrize("workload", ["equi_shared", "equi_spill", "theta_scan"])
def test_a_session_runs_no_numpy_routine_the_import_did_not_map(workload):
    """numpy maps a routine's machine code at its first call, and a session
    that calls one first after its set-up counts it as its own memory growth
    (``rss_growth_mb``).  ``columns._map_kernels`` probes, places, routes
    and iterates a hit at import, by an equi mask, a modular mask and the
    scalar check, and packs, gathers and dedupes cold records, so three
    stream-seconds of a session — filters, routing, a modular condition,
    cold rows written and read back — map no more of numpy's code."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", MAPPED_CODE, workload], capture_output=True, text=True, timeout=120,
        cwd=root, env={**os.environ, "PYTHONPATH": f"{root / 'src'}:{root}"},
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 0
