"""Memory-sampling parity across sampling strides.

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


def run_immediate(stride):
    executor = ImmediateExecutor(
        build_state_slice_plan(WORKLOAD),
        metrics=MetricsCollector(),
        memory_sample_interval=stride,
    )
    report = executor.run(DATA)
    return executor, report


# ``runner`` has one value since the batched executor mode went; the
# parametrization stays so the test ids do.
@pytest.mark.parametrize("runner", [run_immediate])
@pytest.mark.parametrize("stride", [4, 16, 50])
def test_final_state_always_sampled(runner, stride):
    assert len(DATA) % stride != 0, "fixture must exercise the ragged tail"
    executor, report = runner(stride)
    samples = report.metrics.memory_samples
    assert samples, "no memory samples recorded"
    last = samples[-1]
    assert last.timestamp == DATA[-1].timestamp
    assert last.tuples_in_state == executor.plan.total_state_size()


@pytest.mark.parametrize("runner", [run_immediate])
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
    sample is the regular one — no duplicate is appended."""
    _, report = runner(1)
    samples = report.metrics.memory_samples
    assert len(samples) == len(DATA)
    assert samples[-1].timestamp == DATA[-1].timestamp


@pytest.fixture(scope="module")
def stream_data():
    return generate_join_workload(rate_a=40, rate_b=40, duration=8.0, seed=5)


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        [0.5, 1.0, 1.5], join_selectivity=0.1, filter_selectivities=[1.0, 0.5, 0.5]
    )


class TestMemorySamplingStride:
    def test_final_state_always_sampled(self, workload, stream_data):
        """The last sample must reflect the final state even with a stride
        that does not divide the arrival count."""
        count = len(stream_data.tuples)
        stride = 7
        assert count % stride != 0  # the scenario under test
        plan = build_state_slice_plan(workload)
        executor = ImmediateExecutor(plan, memory_sample_interval=stride)
        report = executor.run(stream_data.tuples)
        last = report.metrics.memory_samples[-1]
        assert last.timestamp == pytest.approx(stream_data.tuples[-1].timestamp)
        assert last.tuples_in_state == plan.total_state_size()

    def test_stride_larger_than_run_still_samples_once(self, workload, stream_data):
        plan = build_state_slice_plan(workload)
        report = ImmediateExecutor(plan, memory_sample_interval=10**9).run(
            stream_data.tuples
        )
        assert len(report.metrics.memory_samples) == 1
        assert report.metrics.memory_samples[0].tuples_in_state == (
            plan.total_state_size()
        )

    def test_exact_multiple_not_double_sampled(self, workload, stream_data):
        count = len(stream_data.tuples)
        plan = build_state_slice_plan(workload)
        report = ImmediateExecutor(plan, memory_sample_interval=count).run(
            stream_data.tuples
        )
        assert len(report.metrics.memory_samples) == 1
