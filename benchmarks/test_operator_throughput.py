"""Supplementary micro-benchmarks (not a paper figure).

Wall-clock throughput of the main operator implementations on this machine:
the regular sliding-window join (nested-loop and hash), a sliced-join chain,
and the three executable shared plans.  These complement the simulated-cost
figures with honest Python-level numbers and catch performance regressions
in the operator implementations themselves.

The batch-size sweep additionally records the batched-executor speedup over
per-tuple execution in ``results/BENCH_batching.json`` so the performance
trajectory of the batch-aware runtime is tracked from PR 1 on.
"""

from __future__ import annotations

import os
import time

import pytest
from _bench_util import record_run

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.core.chain import SlicedJoinChain
from repro.core.plan_builder import build_state_slice_plan
from repro.engine.executor import execute_plan
from repro.operators.join import SlidingWindowJoin
from repro.query.predicates import EquiJoinCondition, selectivity_join
from repro.query.workload import build_workload
from repro.streams.generators import generate_join_workload

DATA = generate_join_workload(rate_a=60, rate_b=60, duration=6.0, seed=99)
WORKLOAD = build_workload(
    [0.5, 1.0, 1.5], join_selectivity=0.1, filter_selectivities=[1.0, 0.5, 0.5]
)

#: Arrival batch sizes swept by the batching benchmark (1 = per-tuple).
BATCH_SIZES = (1, 7, 32, 64, 128)


def _drive_binary_join(join):
    for tup in DATA.tuples:
        port = "left" if tup.stream == "A" else "right"
        join.process(tup, port)
    return join


def test_throughput_nested_loop_join(benchmark):
    condition = EquiJoinCondition("join_key", "join_key", key_domain=100)
    join = benchmark.pedantic(
        lambda: _drive_binary_join(SlidingWindowJoin(1.5, 1.5, condition)),
        rounds=3,
        iterations=1,
    )
    assert join.state_size() > 0


def test_throughput_hash_join(benchmark):
    condition = EquiJoinCondition("join_key", "join_key", key_domain=100)
    join = benchmark.pedantic(
        lambda: _drive_binary_join(
            SlidingWindowJoin(1.5, 1.5, condition, algorithm="hash")
        ),
        rounds=3,
        iterations=1,
    )
    assert join.state_size() > 0


def test_throughput_sliced_join_chain(benchmark):
    condition = selectivity_join(0.1)

    def run():
        chain = SlicedJoinChain([0.0, 0.5, 1.0, 1.5], condition)
        chain.process_all(DATA.tuples)
        return chain

    chain = benchmark.pedantic(run, rounds=3, iterations=1)
    assert chain.state_size() > 0


@pytest.mark.parametrize(
    "builder",
    [build_state_slice_plan, build_pullup_plan, build_pushdown_plan],
    ids=["state-slice", "selection-pullup", "selection-pushdown"],
)
def test_throughput_shared_plans(builder, benchmark):
    def run():
        return execute_plan(
            builder(WORKLOAD),
            DATA.tuples,
            retain_results=False,
            memory_sample_interval=16,
        )

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.metrics.total_emitted > 0


def _time_state_slice_run(batch_size: int, rounds: int = 3) -> float:
    """Best-of-N wall-clock seconds for one state-slice run."""
    best = float("inf")
    for _ in range(rounds):
        plan = build_state_slice_plan(WORKLOAD)
        start = time.perf_counter()
        execute_plan(
            plan,
            DATA.tuples,
            retain_results=False,
            memory_sample_interval=16,
            batch_size=batch_size,
        )
        best = min(best, time.perf_counter() - start)
    return best


def _probe_hot_path_entry(rounds: int = 3) -> dict:
    """Nested-loop probe micro-benchmark riding along with the sweep.

    Isolates the chain kernel (no executor, no routing: since PR 18 the
    cursor chain's one column per stream) so the trajectory shows hot-path
    changes separately from batching effects.  Successive runs in
    ``BENCH_batching.json`` are the before/after record.
    """
    condition = selectivity_join(0.1)
    best = float("inf")
    for _ in range(rounds):
        chain = SlicedJoinChain([0.0, 0.5, 1.0, 1.5], condition)
        start = time.perf_counter()
        chain.process_batch(DATA.tuples)
        best = min(best, time.perf_counter() - start)
    return {
        "chain_boundaries": [0.0, 0.5, 1.0, 1.5],
        "probe": "nested_loop",
        "seconds": round(best, 6),
        "tuples_per_sec": round(len(DATA.tuples) / best, 1),
    }


def test_throughput_batch_size_sweep(results_dir):
    """Sweep the executor batch size and record the perf trajectory.

    Acceptance gate of the batch-aware runtime: some batch size >= 32 must
    reach at least 1.3x the per-tuple tuples/sec, with outputs identical to
    batch size 1 (the output identity is asserted exhaustively by
    ``tests/test_batch_execution.py``; a spot check rides along here).

    The ratio is against the per-item ``process()`` path, the literal scalar
    Figure-9 reference.  The original 1.5x was set in PR 1 with the deque
    state on both sides; with the one columnar state and its per-male
    kernel the batched side measured 1.39-1.62x (median 1.45x over twelve
    runs).  PR 15's block kernel (one purge sweep and one 2-D probe per
    state-batch, ``ColumnarState.sweep``) moved the batched seconds and left
    the per-item side alone: best batch size >= 32 now measures 1.8-2.3x
    (twelve runs; batch 7 only 1.1-1.5x).  PR 18's cursor chain does not
    enter this ratio — a static plan is made of operators on both sides
    (re-measured 1.86-1.96x) — but it is what ``SlicedJoinChain`` below runs:
    the ``probe_hot_path`` entry went 39-41k -> 70-71k tuples/s.  The 1.3x
    floor stays.
    """
    reference = execute_plan(build_state_slice_plan(WORKLOAD), DATA.tuples)
    baseline_seconds = _time_state_slice_run(1)
    rows = []
    for batch_size in BATCH_SIZES:
        seconds = baseline_seconds if batch_size == 1 else _time_state_slice_run(batch_size)
        report = execute_plan(
            build_state_slice_plan(WORKLOAD), DATA.tuples, batch_size=batch_size
        )
        identical = all(
            [(j.left.seqno, j.right.seqno) for j in report.results[name]]
            == [(j.left.seqno, j.right.seqno) for j in reference.results[name]]
            for name in reference.results
        )
        rows.append(
            {
                "batch_size": batch_size,
                "seconds": round(seconds, 6),
                "tuples_per_sec": round(len(DATA.tuples) / seconds, 1),
                "speedup_vs_per_tuple": round(baseline_seconds / seconds, 3),
                "outputs_identical_to_per_tuple": identical,
            }
        )
    payload = {
        "benchmark": "batching_sweep",
        "plan": "state-slice (Mem-Opt)",
        "arrivals": len(DATA.tuples),
        "workload": {
            "windows": [0.5, 1.0, 1.5],
            "rate_per_stream": 60,
            "join_selectivity": 0.1,
            "filter_selectivities": [1.0, 0.5, 0.5],
        },
        "results": rows,
        "probe_hot_path": _probe_hot_path_entry(),
    }
    path = record_run(results_dir, "batching", payload)

    assert all(row["outputs_identical_to_per_tuple"] for row in rows)
    best_batched = max(
        row["speedup_vs_per_tuple"] for row in rows if row["batch_size"] >= 32
    )
    # Shared CI runners have noisy wall clocks; keep the full 1.3x gate for
    # local/dedicated runs and only sanity-check the direction on CI (the
    # measured trajectory is still recorded in BENCH_batching.json).
    threshold = 1.1 if os.environ.get("CI") else 1.3
    assert best_batched >= threshold, (
        f"batched executor reached only {best_batched:.2f}x per-tuple throughput "
        f"(threshold {threshold}x); see {path}"
    )
