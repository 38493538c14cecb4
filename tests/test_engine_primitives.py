"""Unit tests for the engine primitives: metrics, operator base."""

from __future__ import annotations

import pytest

from repro.engine.errors import PlanError
from repro.engine.metrics import CostCategory, MetricsCollector, RunReport
from repro.engine.operator import Operator, PassThrough
from repro.streams.tuples import make_tuple


class TestMetricsCollector:
    def test_counts_by_category(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 3)
        metrics.count(CostCategory.PURGE)
        metrics.count(CostCategory.PROBE)
        assert metrics.comparisons[CostCategory.PROBE] == 4
        assert metrics.total_comparisons == 5

    def test_zero_amount_not_recorded(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 0)
        assert metrics.total_comparisons == 0

    def test_cpu_cost_includes_system_overhead(self):
        metrics = MetricsCollector(system_overhead=0.5)
        metrics.count(CostCategory.PROBE, 10)
        metrics.record_invocation("op")
        metrics.record_invocation("op")
        assert metrics.cpu_cost() == pytest.approx(11.0)
        assert metrics.cpu_cost(system_overhead=0.0) == pytest.approx(10.0)

    def test_memory_statistics(self):
        metrics = MetricsCollector()
        for timestamp, size in [(1.0, 10), (2.0, 20), (3.0, 30), (4.0, 40)]:
            metrics.record_memory_sample(timestamp, size)
        assert metrics.average_state_memory() == pytest.approx(25.0)
        assert metrics.max_state_memory() == 40
        assert metrics.steady_state_memory(warmup_fraction=0.5) == pytest.approx(35.0)

    def test_memory_statistics_empty(self):
        metrics = MetricsCollector()
        assert metrics.average_state_memory() == 0.0
        assert metrics.max_state_memory() == 0
        assert metrics.steady_state_memory() == 0.0

    def test_service_rate(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 100)
        metrics.record_emission("Q1", 20)
        assert metrics.service_rate() == pytest.approx(0.2)

    def test_service_rate_zero_cost(self):
        assert MetricsCollector().service_rate() == 0.0

    def test_merge_folds_counters(self):
        first = MetricsCollector()
        first.count(CostCategory.PROBE, 5)
        first.record_emission("Q1", 2)
        second = MetricsCollector()
        second.count(CostCategory.PROBE, 7)
        second.record_invocation("op")
        second.record_memory_sample(1.0, 3)
        first.merge(second)
        assert first.comparisons[CostCategory.PROBE] == 12
        assert first.total_invocations == 1
        assert len(first.memory_samples) == 1
        assert first.max_state_memory() == 3

    def test_memory_gauges_are_constant_size(self):
        """A live session's per-batch readings must not accumulate.

        ``sample_memory`` folds each reading into running count/sum/max/last
        gauges, so a collector that absorbed 10**4 batches is no bigger than
        one that absorbed one, and ``snapshot()`` rescans nothing.
        """
        metrics = MetricsCollector()
        metrics.sample_memory(0.0, 1, resident_bytes=64.0)
        size_after_one = len(metrics.__dict__), len(metrics.memory_samples)
        for batch in range(1, 10**4):
            metrics.sample_memory(float(batch), batch % 97, batch % 89 * 64.0, batch % 5)
        assert (len(metrics.__dict__), len(metrics.memory_samples)) == size_after_one
        assert all(
            not isinstance(value, (list, dict)) or len(value) == 0
            for value in metrics.__dict__.values()
        )
        snapshot = metrics.snapshot()
        assert snapshot["memory.max"] == 96.0
        assert snapshot["memory.max_resident_bytes"] == 88 * 64.0
        assert snapshot["memory.resident_bytes"] == (10**4 - 1) % 89 * 64.0
        assert snapshot["memory.spilled_bytes"] == (10**4 - 1) % 5
        assert snapshot["memory.average"] == pytest.approx(
            (1 + sum(batch % 97 for batch in range(1, 10**4))) / 10**4
        )
        assert metrics.steady_state_memory() == 0.0  # a static-run figure

    def test_snapshot_contains_expected_keys(self):
        metrics = MetricsCollector()
        snapshot = metrics.snapshot()
        assert "comparisons.total" in snapshot
        assert "memory.average" in snapshot
        assert "service_rate" in snapshot

    def test_run_report_properties(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 10)
        metrics.record_emission("Q1", 3)
        report = RunReport(strategy="x", metrics=metrics, results={"Q1": [1, 2, 3]})
        assert report.total_output == 3
        assert report.output_counts() == {"Q1": 3}
        assert report.cpu_cost == 10
        assert report.summary()["output.total"] == 3.0


class TestOperatorBase:
    def test_names_are_unique_by_default(self):
        first = PassThrough()
        second = PassThrough()
        assert first.name != second.name

    def test_check_port_rejects_unknown_ports(self):
        operator = PassThrough(name="p")
        operator.check_port("in", "input")
        operator.check_port("out", "output")
        with pytest.raises(PlanError):
            operator.check_port("bogus", "input")
        with pytest.raises(PlanError):
            operator.check_port("bogus", "output")

    def test_process_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Operator(name="abstract").process(make_tuple("A", 0.0, x=1), "in")

    def test_passthrough_forwards_items(self):
        operator = PassThrough(name="p")
        tup = make_tuple("A", 0.0, x=1)
        assert operator.process(tup, "in") == [("out", tup)]

    def test_default_state_is_empty(self):
        operator = PassThrough(name="p")
        assert operator.state_size() == 0
        assert not operator.is_stateful()
        assert operator.flush() == []
