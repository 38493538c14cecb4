"""Unit tests for synthetic stream generation."""

from __future__ import annotations

import random

import pytest

from repro.engine.errors import ConfigurationError
from repro.streams.generators import (
    JOIN_KEY_DOMAIN,
    PeriodicArrivals,
    PoissonArrivals,
    SelectivityValueGenerator,
    StreamGenerator,
    StreamSpec,
    generate_join_workload,
    interleave,
)
from repro.streams.tuples import make_tuple


class TestArrivalProcesses:
    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0)
        with pytest.raises(ConfigurationError):
            PeriodicArrivals(-1)

    def test_periodic_arrivals_are_evenly_spaced(self):
        process = PeriodicArrivals(rate=4.0)
        stamps = list(process.timestamps(random.Random(0), duration=2.0))
        assert stamps == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])

    def test_poisson_mean_rate_is_respected(self):
        process = PoissonArrivals(rate=50.0)
        stamps = list(process.timestamps(random.Random(3), duration=60.0))
        empirical_rate = len(stamps) / 60.0
        assert empirical_rate == pytest.approx(50.0, rel=0.15)

    def test_timestamps_stay_within_duration(self):
        process = PoissonArrivals(rate=20.0)
        stamps = list(process.timestamps(random.Random(1), duration=5.0))
        assert all(0 <= t < 5.0 for t in stamps)


class TestStreamGeneration:
    def test_generation_is_deterministic_for_a_seed(self):
        spec = StreamSpec("A", rate=25.0)
        first = StreamGenerator(spec, seed=5).generate(4.0)
        second = StreamGenerator(spec, seed=5).generate(4.0)
        assert [(t.timestamp, dict(t.values)) for t in first] == [
            (t.timestamp, dict(t.values)) for t in second
        ]

    def test_different_seeds_differ(self):
        spec = StreamSpec("A", rate=25.0)
        first = StreamGenerator(spec, seed=5).generate(4.0)
        second = StreamGenerator(spec, seed=6).generate(4.0)
        assert [t.timestamp for t in first] != [t.timestamp for t in second]

    def test_lazy_stream_matches_materialised(self):
        spec = StreamSpec("A", rate=10.0, arrivals="periodic")
        generator = StreamGenerator(spec, seed=1)
        assert [t.timestamp for t in generator.stream(3.0)] == [
            t.timestamp for t in generator.generate(3.0)
        ]

    def test_unknown_arrival_process_rejected(self):
        spec = StreamSpec("A", rate=10.0, arrivals="bursty")
        with pytest.raises(ConfigurationError):
            spec.arrival_process()

    def test_value_generator_produces_join_key_and_value(self):
        generator = SelectivityValueGenerator()
        payload = generator.generate(random.Random(0))
        assert 0 <= payload["join_key"] < JOIN_KEY_DOMAIN
        assert 0.0 <= payload["value"] < 1.0

    def test_value_generator_extra_attributes(self):
        generator = SelectivityValueGenerator(extra_attributes={"pad": "x"})
        payload = generator.generate(random.Random(0))
        assert payload["pad"] == "x"

    def test_join_workload_is_globally_ordered(self):
        workload = generate_join_workload(rate_a=30, rate_b=20, duration=5.0, seed=2)
        stamps = [t.timestamp for t in workload.tuples]
        assert stamps == sorted(stamps)
        assert workload.count("A") > 0
        assert workload.count("B") > 0

    def test_join_workload_rates_are_close_to_requested(self):
        workload = generate_join_workload(rate_a=40, rate_b=40, duration=30.0, seed=9)
        assert workload.rate("A") == pytest.approx(40, rel=0.2)
        assert workload.rate("B") == pytest.approx(40, rel=0.2)

    def test_split_partitions_by_stream(self):
        workload = generate_join_workload(rate_a=10, rate_b=10, duration=4.0, seed=0)
        per_stream = workload.split()
        assert set(per_stream) == {"A", "B"}
        assert len(per_stream["A"]) + len(per_stream["B"]) == len(workload.tuples)

    def test_interleave_merges_by_timestamp(self):
        a = [make_tuple("A", t, x=1) for t in (0.5, 2.5)]
        b = [make_tuple("B", t, x=1) for t in (1.0, 2.0)]
        merged = interleave(a, b)
        assert [t.timestamp for t in merged] == [0.5, 1.0, 2.0, 2.5]
