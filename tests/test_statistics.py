"""Tests for the snapshot/diff counter machinery of
:class:`~repro.engine.metrics.MetricsSnapshot`: windowed counter deltas
taken without resetting the collector."""

from __future__ import annotations

import pytest

from repro.engine.metrics import CostCategory, MetricsCollector


class TestSnapshotDiff:
    def test_snapshot_exposes_per_operator_and_per_stream_counters(self):
        metrics = MetricsCollector()
        metrics.record_invocation("join_1", 3)
        metrics.record_ingest(5, stream="A")
        metrics.record_ingest(2, stream="B")
        metrics.observe("chain.matches", 4)
        snapshot = metrics.snapshot()
        assert snapshot["invocations.join_1"] == 3.0
        assert snapshot["ingested.A"] == 5.0
        assert snapshot["ingested.B"] == 2.0
        assert snapshot["ingested.total"] == 7.0
        assert snapshot["observations.chain.matches"] == 4.0

    def test_diff_subtracts_counters_without_reset(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 100)
        metrics.record_ingest(10, stream="A")
        metrics.sample_memory(1.0, 5)
        before = metrics.snapshot()
        metrics.count(CostCategory.PROBE, 40)
        metrics.record_ingest(6, stream="A")
        metrics.sample_memory(3.0, 9)
        delta = metrics.snapshot().diff(before)
        assert delta["comparisons.probe"] == 40.0
        assert delta["ingested.A"] == 6.0
        assert delta["time.elapsed"] == pytest.approx(2.0)
        # The collector itself is untouched.
        assert metrics.comparisons[CostCategory.PROBE] == 140

    def test_diff_recomputes_windowed_service_rate(self):
        metrics = MetricsCollector()
        metrics.count(CostCategory.PROBE, 100)
        metrics.record_emission("Q1", 10)
        before = metrics.snapshot()
        metrics.count(CostCategory.PROBE, 50)
        metrics.record_emission("Q1", 25)
        delta = metrics.snapshot().diff(before)
        assert delta["service_rate"] == pytest.approx(25 / 50)

    def test_diff_keys_absent_earlier_count_from_zero(self):
        metrics = MetricsCollector()
        before = metrics.snapshot()
        metrics.record_invocation("late_op", 2)
        delta = metrics.snapshot().diff(before)
        assert delta["invocations.late_op"] == 2.0
