"""Process-mode transport-overhead gate (PR 6, re-pointed in PR 13).

Wall-clock throughput of one equi-join session, key-partitioned across 4
shards, driven two ways: *serial* (in-process engines, one core) versus
*process* (one worker process per shard fed through shared-memory arrival
rings, results pulled in one batched ``pop_results_all`` round-trip per
shard).  The workload is probe-dominated and low-selectivity — a sparse key
domain over a wide window — so almost all of the work is probing inside
the shards.

What is gated is the property the former wall-clock floor (process ≥ 0.35×
serial) stood for — *no per-batch pipe round-trip* — counted, not timed:
over the timed region every shipped batch is one ring push (``ceil(shard
arrivals / batch_size)`` per shard, none falling back to the pipe) and the
pipe carries exactly the two barriers the driver asks for (``flush`` and
``pop_results_all``: one reply per shard each), however many batches there
were.  The ratio itself is still recorded, ungated: 0.53–0.56× on 2 cores
before PR 18, 0.50–0.64× in three tier-1 runs since — its denominator, the
serial driver's in-shard work, is what the cursor chain halved (a ~25 ms
run now), while the workers' fixed wake-up cost stayed where it was, so a
floor on it measures the host's scheduler more than the transport.  Whether process mode
wins at all is the ``sharded_process`` row of ``bench/README.md`` (1.00×
serial at 2 shards) and ROADMAP's "win or delete" item.

The merged outputs must be pair-identical, worker startup is excluded from
the timed region, and the measured trajectory is appended to
``results/BENCH_process_scaleout.json``.
"""

from __future__ import annotations

import os
import random
import time

from _bench_util import record_run

from repro.engine.ring import SpscRing
from repro.query.predicates import EquiJoinCondition
from repro.runtime import ShardedStreamEngine, sharding
from repro.streams.tuples import make_tuple

RATE = 500  # tuples/s per stream
DURATION = 8.0
KEY_DOMAIN = 40_000  # sparse: probes scan, almost nothing joins
WINDOW = 6.0
BATCH_SIZE = 256
SHARDS = 4
#: Commands that cross the pipe in the timed region: one flush barrier and
#: one batched result pull, each answered once per shard.
BARRIERS = 2

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def make_stream() -> list:
    rng = random.Random(7)
    tuples = []
    timestamp = 0.0
    while timestamp < DURATION:
        timestamp += rng.expovariate(2 * RATE)
        tuples.append(
            make_tuple(
                rng.choice("AB"),
                timestamp,
                join_key=rng.randrange(KEY_DOMAIN),
                value=rng.random(),
            )
        )
    return tuples


DATA = make_stream()


def _pairs(results) -> dict[str, list[tuple[int, int]]]:
    return {name: [(j.left.seqno, j.right.seqno) for j in joined] for name, joined in results.items()}


def _run(mode: str, rounds: int = 3) -> tuple[float, dict]:
    best = float("inf")
    outputs = None
    for _ in range(rounds):
        kwargs: dict = dict(
            shards=SHARDS, batch_size=BATCH_SIZE, probe="nested_loop"
        )
        if mode == "process":
            kwargs["shard_mode"] = "process"
        with ShardedStreamEngine(CONDITION, **kwargs) as engine:
            engine.add_query("Q", WINDOW)
            # Workers (process mode) are already spawned: the timed region is
            # the steady-state stream, not process startup.
            start = time.perf_counter()
            engine.process_many(DATA)
            engine.flush()
            results = engine.pop_results_all()
            best = min(best, time.perf_counter() - start)
            outputs = _pairs(results)
    return best, outputs


def _count_transport(monkeypatch) -> dict[str, int]:
    """Count accepted ring pushes and pipe replies from here on."""
    counts = {"ring_pushes": 0, "pipe_replies": 0}
    try_push, recv = SpscRing.try_push, sharding._WorkerShard.recv

    def counted_push(ring, record):
        accepted = try_push(ring, record)
        counts["ring_pushes"] += bool(accepted)
        return accepted

    def counted_recv(shard):
        counts["pipe_replies"] += 1
        return recv(shard)

    monkeypatch.setattr(SpscRing, "try_push", counted_push)
    monkeypatch.setattr(sharding._WorkerShard, "recv", counted_recv)
    return counts


def test_process_scaleout_gate(results_dir, monkeypatch):
    cores = _usable_cores()
    serial_seconds, serial_out = _run("serial")
    process_seconds, process_out = _run("process")
    # One more process run, counted (admission happens before the counters
    # are read back to zero, so only the timed region's traffic is in them).
    counts = _count_transport(monkeypatch)
    with ShardedStreamEngine(
        CONDITION, shards=SHARDS, batch_size=BATCH_SIZE, probe="nested_loop", shard_mode="process"
    ) as engine:
        engine.add_query("Q", WINDOW)
        counts.update(ring_pushes=0, pipe_replies=0)
        engine.process_many(DATA)
        engine.flush()
        counted_out = _pairs(engine.pop_results_all())
        counts = dict(counts)  # the timed region ends here; reading totals is a command too
        ingested = engine.shard_ingest_totals()

    # Answer preservation: the ring transport and batched result pulls must
    # not change a single joined pair.
    assert process_out == serial_out == counted_out, (
        "process-mode merged output diverged from the serial driver"
    )

    arrivals = len(DATA)
    speedup = serial_seconds / process_seconds
    batches = sum(-(-count // BATCH_SIZE) for count in ingested)
    payload = {
        "benchmark": "process_scaleout_equi_join",
        "arrivals": arrivals,
        "usable_cores": cores,
        "workload": {
            "rate_per_stream": RATE,
            "duration_seconds": DURATION,
            "window_seconds": WINDOW,
            "equi_key_domain": KEY_DOMAIN,
            "batch_size": BATCH_SIZE,
            "shards": SHARDS,
            "probe": "nested_loop",
            "joined_pairs": sum(len(v) for v in serial_out.values()),
        },
        "results": [
            {
                "mode": "serial (4 in-process shards)",
                "seconds": round(serial_seconds, 6),
                "tuples_per_sec": round(arrivals / serial_seconds, 1),
                "speedup_vs_serial": 1.0,
            },
            {
                "mode": "process (4 workers, shared-memory rings)",
                "seconds": round(process_seconds, 6),
                "tuples_per_sec": round(arrivals / process_seconds, 1),
                "speedup_vs_serial": round(speedup, 3),
            },
        ],
        "speedup_process_vs_serial": round(speedup, 3),
        "transport": {"batches": batches, **counts},
        "gate_kind": "no per-batch pipe round-trip (counted)",
    }
    path = record_run(results_dir, "process_scaleout", payload)

    assert sum(ingested) == arrivals
    assert counts["ring_pushes"] == batches, (
        f"{batches} batches were shipped but the rings accepted "
        f"{counts['ring_pushes']} pushes; see {path}"
    )
    assert counts["pipe_replies"] == BARRIERS * SHARDS, (
        f"the pipe answered {counts['pipe_replies']} times for {batches} batches: "
        f"the transport is paying round-trips per batch, not per barrier; see {path}"
    )
