"""Live resharding acceptance gate (PR 5, re-pointed in PR 13).

One CPU-bound equi-join session under a *drifting* load schedule: a calm
phase one shard handles comfortably, then a sustained burst at several
times the rate.  The static session keeps the shard count it was planned
with (N=1); the elastic session runs the same plan but lets a
:class:`ShardPlanner` watch the measured load and reshard mid-stream —
repartitioning the resident window state — once the burst crosses its
per-shard rate target.

What is gated is what a live reshard has to deliver: the planner does
resize the session — once, to the full ``MAX_SHARDS``, inside the burst, and
the cooldown holds it there — the repartition moves each resident tuple at
most once (the exact ``moved_tuples`` of the one event is pinned: the input
and the planner's clock are both deterministic), and the merged output stays
identical pair-for-pair.  Those are the properties the former wall-clock
floor (elastic ≥ 0.75× static tuples/sec, measured 0.96–1.00×) stood for —
a bounded number of bounded-size migrations.  The ratio is still recorded
but no longer gated: its denominator is the static single engine, which
PR 18's cursor chain made 2× faster, while the elastic run spends the burst
on 4 serial shards that divide nothing (2 serial shards = 0.93–0.97× a single
engine, ``bench/README.md``), so it reads 0.58–0.84× alone and 0.79–1.37×
inside three tier-1 runs on a ~40 ms run.  The measured trajectory is
appended to ``results/BENCH_resharding.json``.
"""

from __future__ import annotations

import random
import time

from _bench_util import record_run

from repro.query.predicates import EquiJoinCondition
from repro.runtime import ShardedStreamEngine, ShardPlanner
from repro.streams.tuples import make_tuple

CALM_RATE = 120  # tuples/s per stream, phase one
BURST_RATE = 450  # tuples/s per stream, phase two
CALM_SECONDS = 2.0
BURST_SECONDS = 3.5
KEY_DOMAIN = 180
WINDOW = 3.0
BATCH_SIZE = 64
MAX_SHARDS = 4
#: The one reshard the drift schedule must cause: 1 -> MAX_SHARDS at this
#: stream time, moving this many of the resident tuples.
EXPECTED_RESHARD = {"at_stream_time": 3.184, "moved_tuples": 1130, "resident_tuples": 1485}
PLAN_EVERY = 64  # arrivals between ShardPlanner.should_reshard calls

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)


def make_drifting_stream() -> list:
    """Two-phase arrival sequence: calm, then a sustained burst."""
    rng = random.Random(23)
    tuples = []
    timestamp = 0.0
    for rate, seconds in ((CALM_RATE, CALM_SECONDS), (BURST_RATE, BURST_SECONDS)):
        phase_end = timestamp + seconds
        while timestamp < phase_end:
            timestamp += rng.expovariate(2 * rate)
            tuples.append(
                make_tuple(
                    rng.choice("AB"),
                    timestamp,
                    join_key=rng.randrange(KEY_DOMAIN),
                    value=rng.random(),
                )
            )
    return tuples


DATA = make_drifting_stream()


def _pairs(results) -> list[tuple[int, int]]:
    return sorted((j.left.seqno, j.right.seqno) for j in results)


def _planner() -> ShardPlanner:
    return ShardPlanner(
        max_shards=MAX_SHARDS,
        # One shard absorbs the calm phase (2 * CALM_RATE total) with room to
        # spare; the burst (2 * BURST_RATE) recommends the full MAX_SHARDS.
        target_rate_per_shard=2.2 * CALM_RATE,
        window=0.4,
        hysteresis=2,
        cooldown=2.0,
        min_arrivals=64,
    )


def _run(elastic: bool, rounds: int = 3):
    best = float("inf")
    outputs = None
    final_shards = None
    events = []
    for _ in range(rounds):
        engine = ShardedStreamEngine(
            CONDITION, shards=1, batch_size=BATCH_SIZE, probe="nested_loop"
        )
        engine.add_query("Q", WINDOW)
        planner = _planner() if elastic else None
        events = []
        start = time.perf_counter()
        for index, tup in enumerate(DATA):
            engine.process(tup)
            if planner is not None and index % PLAN_EVERY == PLAN_EVERY - 1:
                event = planner.maybe_reshard(engine)
                if event is not None:
                    events.append(event)
        engine.flush()
        best = min(best, time.perf_counter() - start)
        outputs = _pairs(engine.results("Q"))
        final_shards = engine.shards
    return best, outputs, final_shards, events


def test_resharding_under_drift_is_exact_at_bounded_cost(results_dir):
    static_seconds, static_out, static_shards, _ = _run(elastic=False)
    elastic_seconds, elastic_out, elastic_shards, events = _run(elastic=True)

    # Answer preservation: resharding mid-burst changes nothing downstream.
    assert elastic_out == static_out, (
        "the resharded session's merged output diverged from the static one"
    )
    # The planner actually resized the session (otherwise the benchmark
    # silently measures two identical runs).
    assert static_shards == 1
    assert elastic_shards > 1, "the planner never resharded under the burst"

    arrivals = len(DATA)
    speedup = static_seconds / elastic_seconds
    payload = {
        "benchmark": "live_resharding_under_drift",
        "arrivals": arrivals,
        "workload": {
            "calm_rate_per_stream": CALM_RATE,
            "calm_seconds": CALM_SECONDS,
            "burst_rate_per_stream": BURST_RATE,
            "burst_seconds": BURST_SECONDS,
            "window_seconds": WINDOW,
            "equi_key_domain": KEY_DOMAIN,
            "batch_size": BATCH_SIZE,
            "probe": "nested_loop",
            "joined_pairs": len(static_out),
        },
        "results": [
            {
                "mode": "static (1 shard throughout)",
                "seconds": round(static_seconds, 6),
                "tuples_per_sec": round(arrivals / static_seconds, 1),
                "speedup_vs_static": 1.0,
            },
            {
                "mode": f"elastic (ShardPlanner, ends at {elastic_shards} shards)",
                "seconds": round(elastic_seconds, 6),
                "tuples_per_sec": round(arrivals / elastic_seconds, 1),
                "speedup_vs_static": round(speedup, 3),
                "reshards": [
                    {
                        "at_stream_time": round(event.stream_time, 3),
                        "shards": f"{event.old_shards}->{event.new_shards}",
                        "moved_tuples": event.moved_tuples,
                        "resident_tuples": event.resident_tuples,
                    }
                    for event in events
                ],
            },
        ],
        "speedup_elastic_vs_static": round(speedup, 3),
        "gate_kind": "one bounded reshard under drift (counted)",
    }
    record_run(results_dir, "resharding", payload)

    (event,) = events  # the cooldown bounds the reshard count to one
    assert (event.old_shards, event.new_shards) == (1, MAX_SHARDS) == (1, elastic_shards)
    assert CALM_SECONDS < event.stream_time < CALM_SECONDS + BURST_SECONDS
    assert event.moved_tuples <= event.resident_tuples
    assert {
        "at_stream_time": round(event.stream_time, 3),
        "moved_tuples": event.moved_tuples,
        "resident_tuples": event.resident_tuples,
    } == EXPECTED_RESHARD
