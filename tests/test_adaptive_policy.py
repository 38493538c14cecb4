"""Tests for the adaptive rebalance policy (runtime/adaptive.py).

Covers the three behavioural guarantees of the ISSUE: drift fires exactly
one rebalance per cooldown window, stable load never migrates, and the
online-estimated statistics converge to the generators' ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.chain import SlicedJoinChain
from repro.core.merge_graph import ChainCostParameters
from repro.core.statistics import StreamStatistics
from repro.query.predicates import selectivity_filter, selectivity_join
from repro.runtime import AdaptivePolicy, CountStreamEngine, StreamEngine
from repro.streams.generators import SelectivityValueGenerator, generate_join_workload
from repro.streams.tuples import StreamTuple
from tests.conftest import joined_keys


@dataclass
class ShiftedValues(SelectivityValueGenerator):
    """Payload generator whose ``value`` attribute is uniform on [low, 1).

    A predicate ``value > 1 - Sσ`` with ``1 - Sσ <= low`` then passes every
    tuple — the measured selection selectivity is 1 regardless of the
    declared estimate, which is the drift signal several tests rely on.
    """

    low: float = 0.8

    def generate(self, rng):
        payload = super().generate(rng)
        payload["value"] = self.low + payload["value"] * (1.0 - self.low)
        return payload


def shift_times(tuples, offset: float) -> list[StreamTuple]:
    """Rebase a tuple sequence ``offset`` stream-seconds later."""
    return [
        StreamTuple(stream=t.stream, timestamp=t.timestamp + offset, values=t.values)
        for t in tuples
    ]


def steady_stream(rate: float, duration: float, seed: int = 3, value_generator=None):
    return generate_join_workload(
        rate_a=rate,
        rate_b=rate,
        duration=duration,
        seed=seed,
        value_generator=value_generator,
    ).tuples


class _StubEngine:
    """Minimal engine surface for deterministic policy decision tests."""

    left_stream = "A"
    right_stream = "B"
    chain_class = SlicedJoinChain

    def __init__(self):
        from repro.engine.metrics import MetricsCollector

        self.metrics = MetricsCollector()
        self.rebalanced: list = []

    def rebalance(self, params, statistics=None):
        self.rebalanced.append((params, statistics))
        return (0.0, 1.0)


def _make_stub_policy(**overrides) -> AdaptivePolicy:
    defaults = dict(
        window=1.0,
        drift_threshold=0.5,
        min_arrivals=1,
        calibrate_first=False,
        smoothing=1.0,  # judge each window alone: pure decision logic
    )
    defaults.update(overrides)
    return AdaptivePolicy(**defaults)


def _feed_windows(engine: _StubEngine, policy: AdaptivePolicy, rates) -> None:
    """Synthesise one exact estimation window per rate value."""
    now = 0.0
    policy.on_batch(engine, now)  # opens the first window
    for rate in rates:
        now += 1.0
        for stream in ("A", "B"):
            engine.metrics.record_ingest(int(rate), stream=stream)
        engine.metrics.sample_memory(now, 0)
        policy.on_batch(engine, now)


class TestStableLoad:
    def test_stable_load_never_migrates(self):
        policy = AdaptivePolicy(
            window=1.5,
            drift_threshold=0.25,
            cooldown=4.0,
            hysteresis=2,
            min_arrivals=24,
            calibrate_first=False,
        )
        engine = StreamEngine(selectivity_join(0.1), batch_size=16, policy=policy)
        engine.add_query("Q1", 1.0)
        engine.add_query("Q2", 2.5, left_filter=selectivity_filter(0.4))
        admissions = len(engine.stats.migrations)
        engine.process_many(steady_stream(25, 20.0))
        engine.flush()
        assert len(policy.estimates) >= 3  # windows did close
        assert policy.rebalances == 0
        assert len(engine.stats.migrations) == admissions

    def test_calibrate_first_fires_at_most_once_and_preserves_results(self):
        policy = AdaptivePolicy(
            window=1.5, cooldown=4.0, min_arrivals=24, calibrate_first=True
        )
        engine = StreamEngine(selectivity_join(0.1), batch_size=16, policy=policy)
        reference = StreamEngine(selectivity_join(0.1), batch_size=16)
        for target in (engine, reference):
            target.add_query("Q1", 1.0)
            target.add_query("Q2", 2.5, left_filter=selectivity_filter(0.4))
        tuples = steady_stream(25, 16.0)
        engine.process_many(tuples)
        reference.process_many(tuples)
        engine.flush()
        reference.flush()
        calibrations = [e for e in policy.events if e.kind == "calibrate"]
        assert len(calibrations) == 1
        assert policy.rebalances == 0  # calibration is not counted as drift
        for name in ("Q1", "Q2"):
            assert joined_keys(engine.results(name)) == joined_keys(
                reference.results(name)
            )


class TestDrift:
    def _drifting_engine(self, cooldown: float, duration_per_rate=6.0):
        policy = AdaptivePolicy(
            window=1.2,
            drift_threshold=0.3,
            cooldown=cooldown,
            hysteresis=2,
            min_arrivals=16,
            calibrate_first=False,
        )
        engine = StreamEngine(selectivity_join(0.1), batch_size=16, policy=policy)
        engine.add_query("Q1", 0.5)
        engine.add_query("Q2", 1.5, left_filter=selectivity_filter(0.4))
        offset = 0.0
        for seed, rate in enumerate((10, 30, 80)):
            segment = steady_stream(rate, duration_per_rate, seed=seed + 1)
            engine.process_many(shift_times(segment, offset))
            offset += duration_per_rate
        engine.flush()
        return policy, engine

    def test_step_drift_fires_exactly_one_rebalance_with_long_cooldown(self):
        policy, _engine = self._drifting_engine(cooldown=1000.0)
        assert policy.rebalances == 1

    def test_rebalances_respect_the_cooldown_spacing(self):
        policy, _engine = self._drifting_engine(cooldown=4.0)
        stamps = [e.timestamp for e in policy.events if e.kind == "rebalance"]
        assert len(stamps) >= 2  # the ramp keeps drifting past each baseline
        for earlier, later in zip(stamps, stamps[1:]):
            assert later - earlier >= 4.0 - 1e-9

    def test_hysteresis_swallows_a_single_noisy_window(self):
        """Deterministic decision-logic check via a stub engine: one drifted
        window inside steady load must not trigger with hysteresis > 1."""
        policy = _make_stub_policy(hysteresis=3, cooldown=0.0)
        engine = _StubEngine()
        _feed_windows(engine, policy, rates=[10, 10, 10, 30, 10, 10, 10])
        assert policy.rebalances == 0
        assert engine.rebalanced == []

    def test_hysteresis_met_by_sustained_drift(self):
        policy = _make_stub_policy(hysteresis=3, cooldown=0.0)
        engine = _StubEngine()
        _feed_windows(engine, policy, rates=[10, 10, 30, 30, 30])
        assert policy.rebalances == 1

    def test_cooldown_blocks_back_to_back_rebalances(self):
        """Sustained oscillation far above threshold: rebalances are spaced
        by at least the cooldown, never more than one per cooldown window."""
        policy = _make_stub_policy(hysteresis=1, cooldown=3.0)
        engine = _StubEngine()
        # Every window alternates 4x up/down: drift vs each new baseline
        # stays far above threshold forever.
        _feed_windows(engine, policy, rates=[10] + [40, 10] * 8)
        stamps = [e.timestamp for e in policy.events if e.kind == "rebalance"]
        assert len(stamps) >= 2
        for earlier, later in zip(stamps, stamps[1:]):
            assert later - earlier >= 3.0 - 1e-9
        # One rebalance per elapsed cooldown window, no more.
        span = stamps[-1] - stamps[0]
        assert len(stamps) <= span / 3.0 + 1 + 1e-9


    def test_event_and_estimate_logs_keep_the_newest_256(self):
        """One entry per estimation window forever would be a slow leak."""
        policy = _make_stub_policy()
        engine = _StubEngine()
        _feed_windows(engine, policy, rates=[10] * 300)
        assert len(policy.events) == len(policy.estimates) == 256
        assert policy.events[-1].timestamp == 300.0
        assert [e.timestamp for e in policy.events[:2]] == [45.0, 46.0]  # plain lists


class TestConvergence:
    def test_online_estimates_match_ground_truth(self):
        engine = StreamEngine(
            selectivity_join(0.1), batch_size=16, collect_statistics=True
        )
        engine.add_query("Q1", 1.0)
        engine.add_query("Q2", 3.0, left_filter=selectivity_filter(0.3))
        before = engine.metrics.snapshot()
        engine.process_many(steady_stream(40, 25.0, seed=9))
        engine.flush()
        stats = engine.estimated_statistics(since=before)
        assert stats.rate("A") == pytest.approx(40.0, rel=0.10)
        assert stats.rate("B") == pytest.approx(40.0, rel=0.10)
        assert stats.join_selectivity == pytest.approx(0.1, rel=0.15)
        assert stats.selection_selectivity("Q2", "left") == pytest.approx(
            0.3, rel=0.15
        )

    def test_hash_probe_estimates_join_factor_from_opportunities(self):
        from repro.query.predicates import EquiJoinCondition

        condition = EquiJoinCondition("join_key", "join_key", key_domain=10)
        engine = StreamEngine(
            condition, batch_size=16, probe="hash", collect_statistics=True
        )
        engine.add_query("Q1", 2.0)
        engine.process_many(
            steady_stream(
                40,
                20.0,
                seed=4,
                value_generator=lambda: SelectivityValueGenerator(key_domain=10),
            )
        )
        engine.flush()
        stats = engine.estimated_statistics()
        # The hash probe only touches one bucket, yet the opportunity-based
        # estimator still recovers the true match probability (1/domain).
        assert stats.join_selectivity == pytest.approx(0.1, rel=0.2)


class TestOneSidedWindows:
    def test_window_seeing_one_stream_only_is_skipped(self):
        """A burst of one stream must not crash the policy (regression:
        chain_parameters needs both rates to price the cost model)."""
        policy = AdaptivePolicy(
            window=1.0, min_arrivals=8, hysteresis=1, calibrate_first=True
        )
        engine = StreamEngine(selectivity_join(0.2), batch_size=8, policy=policy)
        engine.add_query("Q1", 1.0)
        one_sided = [
            t for t in steady_stream(30, 6.0, seed=8) if t.stream == "A"
        ]
        engine.process_many(one_sided)
        engine.flush()
        assert policy.baseline is None  # no complete window: no action
        # Once both streams flow, calibration proceeds normally.
        engine.process_many(shift_times(steady_stream(30, 6.0, seed=9), 6.0))
        engine.flush()
        assert policy.baseline is not None


class TestCountSessions:
    def test_count_engine_recalibrates_without_migrating(self):
        policy = AdaptivePolicy(
            window=1.2,
            drift_threshold=0.3,
            cooldown=2.0,
            hysteresis=1,
            min_arrivals=16,
            calibrate_first=True,
        )
        engine = CountStreamEngine(selectivity_join(0.2), batch_size=8, policy=policy)
        engine.add_query("Q1", 10)
        engine.add_query("Q2", 25)
        admissions = len(engine.stats.migrations)
        offset = 0.0
        for seed, rate in enumerate((10, 40)):
            segment = steady_stream(rate, 6.0, seed=seed + 7)
            engine.process_many(shift_times(segment, offset))
            offset += 6.0
        engine.flush()
        kinds = [event.kind for event in policy.events]
        assert kinds.count("calibrate") == 1  # first baseline keeps its label
        assert "recalibrate" in kinds  # the rate drift re-baselined
        assert "rebalance" not in kinds
        assert policy.rebalances == 0
        assert len(engine.stats.migrations) == admissions  # Mem-Opt kept


class TestRebalanceWithStatistics:
    def test_measured_selectivity_changes_the_live_chain(self):
        """The tentpole loop at engine level: a session whose declared
        selection is ineffective in the data merges its boundary away once
        the measured statistics are supplied to rebalance()."""
        condition = selectivity_join(0.05)

        def build():
            engine = StreamEngine(condition, batch_size=16)
            engine.add_query("Q1", 0.2)
            # Declared Sσ = 0.2, but the shifted data passes everything.
            engine.add_query("Q2", 1.0, left_filter=selectivity_filter(0.2))
            return engine

        tuples = steady_stream(
            40, 8.0, seed=2, value_generator=lambda: ShiftedValues(low=0.8)
        )
        params = ChainCostParameters(
            arrival_rate_left=40, arrival_rate_right=40, system_overhead=0.5
        )
        declared = build()
        declared.process_many(tuples)
        declared.rebalance(params)
        assert len(declared.boundaries) == 3  # declared strong σ keeps the split

        measured = build()
        measured.process_many(tuples)
        stats = StreamStatistics(
            arrival_rates={"A": 40.0, "B": 40.0},
            join_selectivity=0.05,
            selection_selectivities={"Q2": (1.0, None)},
        )
        measured.rebalance(params, statistics=stats)
        assert len(measured.boundaries) == 2  # measured no-op σ merges it away
        # Outputs stay exact after the migration.
        remainder = shift_times(
            steady_stream(40, 4.0, seed=5, value_generator=lambda: ShiftedValues()),
            8.0,
        )
        reference = build()
        reference.process_many(tuples)
        for engine in (measured, reference):
            engine.process_many(remainder)
            engine.flush()
        for name in ("Q1", "Q2"):
            assert joined_keys(measured.results(name)) == joined_keys(
                reference.results(name)
            )
