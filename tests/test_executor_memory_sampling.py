"""Memory-sampling parity across sampling strides and execution modes.

The state size after the *final* arrival is always sampled even when the
arrival count is not a multiple of ``memory_sample_interval`` — otherwise
peak-memory numbers silently depend on the stride benchmarks pick for speed.
"""

from __future__ import annotations

import pytest

from repro.core.plan_builder import build_state_slice_plan
from repro.engine.executor import ImmediateExecutor
from repro.engine.metrics import MetricsCollector
from repro.query.workload import build_workload
from repro.streams.generators import generate_join_workload

WORKLOAD = build_workload([0.6, 1.2], join_selectivity=0.2)
# 173 arrivals: deliberately not a multiple of any stride used below.
DATA = generate_join_workload(rate_a=30, rate_b=30, duration=2.9, seed=21).tuples


def run_immediate(stride, batch_size=1):
    executor = ImmediateExecutor(
        build_state_slice_plan(WORKLOAD),
        metrics=MetricsCollector(),
        memory_sample_interval=stride,
        batch_size=batch_size,
    )
    report = executor.run(DATA)
    return executor, report


def run_batched(stride):
    # 173 arrivals leave a part-filled last batch as well as a ragged stride.
    return run_immediate(stride, batch_size=8)


@pytest.mark.parametrize("runner", [run_immediate, run_batched])
@pytest.mark.parametrize("stride", [4, 16, 50])
def test_final_state_always_sampled(runner, stride):
    assert len(DATA) % stride != 0, "fixture must exercise the ragged tail"
    executor, report = runner(stride)
    samples = report.metrics.memory_samples
    assert samples, "no memory samples recorded"
    last = samples[-1]
    assert last.timestamp == DATA[-1].timestamp
    assert last.tuples_in_state == executor.plan.total_state_size()


@pytest.mark.parametrize("runner", [run_immediate, run_batched])
def test_peak_memory_is_stride_independent(runner):
    _, exact = runner(1)
    for stride in (4, 16, 50):
        _, strided = runner(stride)
        assert (
            strided.metrics.memory_samples[-1].tuples_in_state
            == exact.metrics.memory_samples[-1].tuples_in_state
        )


@pytest.mark.parametrize("runner", [run_immediate])
def test_exact_stride_has_no_duplicate_final_sample(runner):
    """When the stride divides the arrival count, the final arrival's
    sample is the regular one — no duplicate is appended.  (Per-tuple mode
    only: a batched run samples at batch boundaries.)"""
    _, report = runner(1)
    samples = report.metrics.memory_samples
    assert len(samples) == len(DATA)
    assert samples[-1].timestamp == DATA[-1].timestamp
