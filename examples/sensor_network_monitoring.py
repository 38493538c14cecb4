"""Sensor-network monitoring: the paper's example queries, all sharing
strategies, and a downstream alert count.

The scenario follows the paper's introduction: several monitoring
applications register similar continuous queries over temperature and
humidity sensor streams, differing in window length and in the temperature
threshold they care about.  In the paper's SQL dialect they read::

    SELECT A.* FROM Temperature A, Humidity B
    WHERE A.LocationId = B.LocationId
    WINDOW 30 sec;

    SELECT A.* FROM Temperature A, Humidity B
    WHERE A.LocationId = B.LocationId AND A.Value > 30
    WINDOW 60 sec;

    SELECT A.* FROM Temperature A, Humidity B
    WHERE A.LocationId = B.LocationId AND A.Value > 30
    WINDOW 120 sec

The script:

1. builds those three queries as :class:`~repro.query.query.ContinuousQuery`;
2. builds the shared plans for every sharing strategy;
3. replays the same synthetic sensor feed through each plan and reports the
   per-strategy state memory and CPU cost;
4. counts the "hot" matches the largest query delivered in the last minute —
   the kind of derived alert a monitoring application would maintain.

Run with:  python examples/sensor_network_monitoring.py
"""

from __future__ import annotations

import random

from repro import ContinuousQuery, QueryWorkload, execute_plan
from repro.baselines import build_pullup_plan, build_pushdown_plan, build_unshared_plan
from repro.core import build_state_slice_plan
from repro.query import EquiJoinCondition, TruePredicate, attribute_gt
from repro.streams import StreamTuple, interleave

LOCATIONS = 25
HOT_FRACTION = 0.3  # fraction of temperature readings above the threshold


def generate_sensor_feed(rate: float, duration: float, seed: int) -> list[StreamTuple]:
    """Synthetic temperature/humidity readings keyed by location."""
    rng = random.Random(seed)

    def readings(stream: str) -> list[StreamTuple]:
        tuples = []
        now = 0.0
        while True:
            now += rng.expovariate(rate)
            if now >= duration:
                return tuples
            location = rng.randrange(LOCATIONS)
            if stream == "Temperature":
                hot = rng.random() < HOT_FRACTION
                value = rng.uniform(31.0, 45.0) if hot else rng.uniform(10.0, 29.0)
            else:
                value = rng.uniform(20.0, 90.0)
            tuples.append(
                StreamTuple(stream, now, {"LocationId": location, "Value": value})
            )

    return interleave(readings("Temperature"), readings("Humidity"))


def main() -> None:
    join = EquiJoinCondition("LocationId", "LocationId", key_domain=LOCATIONS)
    hot = attribute_gt("Value", 30.0, HOT_FRACTION)
    workload = QueryWorkload(
        [
            ContinuousQuery(
                name, window, join, left_filter, left_stream="Temperature", right_stream="Humidity"
            )
            for name, window, left_filter in (
                ("Q1", 30.0, TruePredicate()),
                ("Q2", 60.0, hot),
                ("Q3", 120.0, hot),
            )
        ]
    )
    print("Registered continuous queries:")
    print(workload.describe())
    print()

    feed = generate_sensor_feed(rate=10.0, duration=240.0, seed=11)
    print(f"Sensor feed: {len(feed)} readings over 240 simulated seconds")
    print()

    strategies = {
        "state-slice": build_state_slice_plan(workload),
        "selection-pullup": build_pullup_plan(workload),
        "selection-pushdown": build_pushdown_plan(workload),
        "unshared": build_unshared_plan(workload),
    }
    reports = {}
    for name, plan in strategies.items():
        reports[name] = execute_plan(
            plan, feed, strategy=name, system_overhead=0.25, memory_sample_interval=8
        )

    counts = {name: report.output_counts() for name, report in reports.items()}
    assert all(c == counts["state-slice"] for c in counts.values()), "answers must agree"

    print(f"{'strategy':<22} {'avg state (tuples)':>20} {'CPU (comparisons)':>20}")
    for name, report in sorted(reports.items(), key=lambda kv: kv[1].steady_state_memory):
        print(
            f"{name:<22} {report.steady_state_memory:>20.1f} {report.cpu_cost:>20.0f}"
        )
    print()
    print(f"Per-query matches: {counts['state-slice']}")

    # Downstream alerting: hot-location matches of Q3 in the last minute.
    matches = reports["state-slice"].results["Q3"]
    if matches:
        latest = matches[-1].timestamp
        recent = sum(1 for joined in matches if latest - joined.timestamp < 60.0)
        print()
        print(f"Alert count (matches of Q3 in the last 60 s): {recent} at t={latest:.1f}s")


if __name__ == "__main__":
    main()
