"""Supplementary micro-benchmarks (not a paper figure).

Wall-clock throughput of the main operator implementations on this machine:
the regular sliding-window join (nested-loop and hash), a sliced-join chain,
and the three executable shared plans.  These complement the simulated-cost
figures with honest Python-level numbers and catch performance regressions
in the operator implementations themselves.
"""

from __future__ import annotations

import pytest

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
