"""Stream substrate: tuple model and synthetic generators."""

from repro.streams.generators import (
    PeriodicArrivals,
    PoissonArrivals,
    SelectivityValueGenerator,
    StreamGenerator,
    StreamSpec,
    TwoStreamWorkload,
    generate_join_workload,
    interleave,
)
from repro.streams.tuples import (
    FEMALE,
    MALE,
    JoinedTuple,
    Punctuation,
    RefTuple,
    StreamTuple,
    make_tuple,
)

__all__ = [
    "StreamTuple",
    "JoinedTuple",
    "RefTuple",
    "Punctuation",
    "MALE",
    "FEMALE",
    "make_tuple",
    "PoissonArrivals",
    "PeriodicArrivals",
    "SelectivityValueGenerator",
    "StreamSpec",
    "StreamGenerator",
    "TwoStreamWorkload",
    "generate_join_workload",
    "interleave",
]
