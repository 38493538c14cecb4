"""Synthetic stream generation.

The paper's performance study (Section 7) drives the CAPE engine with a
synthetic data stream generator producing Poisson arrivals whose join
selectivity ``S1`` and filter selectivity ``Sσ`` are controlled.  This
module provides an equivalent generator.

Two knobs matter for reproducing the evaluation:

* **Arrival process** — tuples arrive with exponential (Poisson process) or
  periodic inter-arrival times at a configured mean rate ``λ``.
* **Value distributions** — the attribute used by the equi-join is drawn so
  that the probability of two random tuples matching equals the requested
  join selectivity ``S1``; the attribute used by selections is drawn
  uniformly in ``[0, 1)`` so a predicate ``value > 1 - Sσ`` has selectivity
  exactly ``Sσ`` in expectation.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.errors import ConfigurationError
from repro.streams.schema import Attribute, Schema
from repro.streams.tuples import StreamTuple

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "PeriodicArrivals",
    "ValueGenerator",
    "SelectivityValueGenerator",
    "StreamSpec",
    "StreamGenerator",
    "TwoStreamWorkload",
    "equi_key_domain",
    "equi_value_generator",
    "generate_join_workload",
    "JOIN_KEY_DOMAIN",
]

#: Domain size of the synthetic join key.  The modular join condition used by
#: the experiment harness matches a pair of tuples when
#: ``(a.join_key + b.join_key) % JOIN_KEY_DOMAIN < S1 * JOIN_KEY_DOMAIN``,
#: which yields a join selectivity of exactly ``S1`` for keys uniform on the
#: domain while still being a deterministic, value-based predicate.
JOIN_KEY_DOMAIN = 1000


class ArrivalProcess:
    """Base class for arrival processes: yields inter-arrival gaps (seconds)."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)

    def gaps(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def timestamps(self, rng: random.Random, duration: float) -> Iterator[float]:
        """Yield absolute timestamps in ``[0, duration)``."""
        now = 0.0
        for gap in self.gaps(rng):
            now += gap
            if now >= duration:
                return
            yield now


class PoissonArrivals(ArrivalProcess):
    """Poisson arrival process: exponential inter-arrival times."""

    def gaps(self, rng: random.Random) -> Iterator[float]:
        mean_gap = 1.0 / self.rate
        while True:
            yield rng.expovariate(1.0 / mean_gap)


class PeriodicArrivals(ArrivalProcess):
    """Deterministic arrivals, one tuple every ``1/rate`` seconds."""

    def gaps(self, rng: random.Random) -> Iterator[float]:
        gap = 1.0 / self.rate
        while True:
            yield gap


class ValueGenerator:
    """Generates the payload of one tuple given an RNG."""

    def generate(self, rng: random.Random) -> dict[str, object]:
        raise NotImplementedError

    def schema(self, stream: str) -> Schema:
        raise NotImplementedError


@dataclass
class SelectivityValueGenerator(ValueGenerator):
    """Payload generator with controllable join and filter selectivity.

    Produces tuples with two attributes:

    * ``join_key`` — integer uniform on ``[0, JOIN_KEY_DOMAIN)``; used with the
      modular match condition to obtain join selectivity ``S1`` exactly.
    * ``value`` — float uniform on ``[0, 1)``; a filter ``value > 1 - Sσ`` has
      selectivity ``Sσ``.

    An optional ``extra_attributes`` mapping adds constant-valued padding
    attributes so that tuple sizes can be varied for memory experiments.
    """

    key_domain: int = JOIN_KEY_DOMAIN
    extra_attributes: dict[str, object] = field(default_factory=dict)

    def generate(self, rng: random.Random) -> dict[str, object]:
        payload: dict[str, object] = {
            "join_key": rng.randrange(self.key_domain),
            "value": rng.random(),
        }
        payload.update(self.extra_attributes)
        return payload

    def schema(self, stream: str) -> Schema:
        attributes = [Attribute("join_key", int, 4), Attribute("value", float, 8)]
        for name in self.extra_attributes:
            attributes.append(Attribute(name, object, 8))
        return Schema(stream=stream, attributes=tuple(attributes))


@dataclass
class StreamSpec:
    """Description of one synthetic stream."""

    name: str
    rate: float
    arrivals: str = "poisson"
    values: ValueGenerator = field(default_factory=SelectivityValueGenerator)

    def arrival_process(self) -> ArrivalProcess:
        if self.arrivals == "poisson":
            return PoissonArrivals(self.rate)
        if self.arrivals == "periodic":
            return PeriodicArrivals(self.rate)
        raise ConfigurationError(
            f"unknown arrival process {self.arrivals!r}; expected 'poisson' or 'periodic'"
        )


class StreamGenerator:
    """Generates the tuples of a single stream over a time horizon."""

    def __init__(self, spec: StreamSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def generate(self, duration: float) -> list[StreamTuple]:
        """Materialise all tuples arriving in ``[0, duration)`` seconds."""
        rng = random.Random(f"{self.seed}:{self.spec.name}")
        process = self.spec.arrival_process()
        tuples = []
        for timestamp in process.timestamps(rng, duration):
            payload = self.spec.values.generate(rng)
            tuples.append(
                StreamTuple(stream=self.spec.name, timestamp=timestamp, values=payload)
            )
        return tuples

    def stream(self, duration: float) -> Iterator[StreamTuple]:
        """Lazily yield tuples arriving in ``[0, duration)`` seconds."""
        rng = random.Random(f"{self.seed}:{self.spec.name}")
        process = self.spec.arrival_process()
        for timestamp in process.timestamps(rng, duration):
            payload = self.spec.values.generate(rng)
            yield StreamTuple(stream=self.spec.name, timestamp=timestamp, values=payload)


@dataclass
class TwoStreamWorkload:
    """A fully materialised two-stream workload, merged by timestamp.

    Attributes
    ----------
    tuples:
        All tuples of both streams, in global timestamp order.
    specs:
        The stream specs used to generate them (keyed by stream name).
    duration:
        Time horizon in seconds.
    """

    tuples: list[StreamTuple]
    specs: dict[str, StreamSpec]
    duration: float

    def count(self, stream: str) -> int:
        return sum(1 for t in self.tuples if t.stream == stream)

    def rate(self, stream: str) -> float:
        """Empirical arrival rate of ``stream`` over the workload duration."""
        if self.duration <= 0:
            return 0.0
        return self.count(stream) / self.duration

    def split(self) -> dict[str, list[StreamTuple]]:
        """Partition the merged sequence back into per-stream sequences."""
        per_stream: dict[str, list[StreamTuple]] = {name: [] for name in self.specs}
        for tup in self.tuples:
            per_stream.setdefault(tup.stream, []).append(tup)
        return per_stream


def _merge_by_timestamp(sequences: Sequence[list[StreamTuple]]) -> list[StreamTuple]:
    """Merge per-stream sequences into one globally ordered sequence.

    Ties on timestamp are broken by tuple sequence number so the result is a
    deterministic total order, as the paper assumes a global clock ordering.
    """
    return list(
        heapq.merge(*sequences, key=lambda tup: (tup.timestamp, tup.seqno))
    )


def generate_join_workload(
    rate_a: float,
    rate_b: float,
    duration: float,
    seed: int = 0,
    arrivals: str = "poisson",
    stream_a: str = "A",
    stream_b: str = "B",
    value_generator: Callable[[], ValueGenerator] | None = None,
) -> TwoStreamWorkload:
    """Generate the standard two-stream workload used throughout the repo.

    Parameters mirror the paper's Table 1: arrival rates of streams A and B,
    the run duration, and the arrival pattern.  Join and filter selectivity
    are properties of the *conditions* applied downstream (see
    :mod:`repro.query.predicates`), not of the data, so they are not
    parameters here.
    """
    make_values = value_generator or SelectivityValueGenerator
    spec_a = StreamSpec(name=stream_a, rate=rate_a, arrivals=arrivals, values=make_values())
    spec_b = StreamSpec(name=stream_b, rate=rate_b, arrivals=arrivals, values=make_values())
    tuples_a = StreamGenerator(spec_a, seed=seed).generate(duration)
    tuples_b = StreamGenerator(spec_b, seed=seed + 1).generate(duration)
    merged = _merge_by_timestamp([tuples_a, tuples_b])
    return TwoStreamWorkload(
        tuples=merged,
        specs={stream_a: spec_a, stream_b: spec_b},
        duration=duration,
    )


def equi_key_domain(join_selectivity: float) -> int:
    """Key-domain size whose uniform equi-keys match with probability S1.

    Sharding needs an equi-key, so sharded workloads approximate a
    requested join selectivity with ``1/domain``.  A consumer (the CLI
    runtime demo) uses this one helper for both the join condition *and*
    the data generator, so the executed S1 is the S1 it asked for.
    """
    if not 0.0 < join_selectivity <= 1.0:
        raise ConfigurationError(
            f"join selectivity must lie in (0, 1], got {join_selectivity}"
        )
    return max(1, round(1.0 / join_selectivity))


def equi_value_generator(domain: int) -> Callable[[], SelectivityValueGenerator]:
    """A value-generator factory drawing ``join_key`` from ``domain``."""

    def make() -> SelectivityValueGenerator:
        return SelectivityValueGenerator(key_domain=domain)

    return make


def interleave(*sequences: Iterable[StreamTuple]) -> list[StreamTuple]:
    """Merge arbitrary tuple sequences into global timestamp order."""
    return _merge_by_timestamp([list(seq) for seq in sequences])
