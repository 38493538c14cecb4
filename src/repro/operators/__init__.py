"""Stream operators: selections, joins, sliced joins, unions, routers."""

from repro.operators.count_join import CountSlicedBinaryJoin, CountWindowJoin
from repro.operators.join import OneWayWindowJoin, SlidingWindowJoin
from repro.operators.router import Route, Router
from repro.operators.selection import Selection, StreamFilter
from repro.operators.sliced_join import SlicedBinaryJoin, SlicedOneWayJoin
from repro.operators.split import Split
from repro.operators.union import BagUnion, OrderedUnion

__all__ = [
    "Selection",
    "StreamFilter",
    "Split",
    "Route",
    "Router",
    "OneWayWindowJoin",
    "SlidingWindowJoin",
    "CountWindowJoin",
    "CountSlicedBinaryJoin",
    "SlicedOneWayJoin",
    "SlicedBinaryJoin",
    "OrderedUnion",
    "BagUnion",
]
