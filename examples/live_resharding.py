"""Live resharding: the caller resizes a running session when the load drifts.

The demo runs one key-partitioned session through a two-phase load — calm,
then a sustained burst — and reshards the *running* session from 1 to 4
shards when the burst starts: resident window state is repartitioned under
the new modulus, undelivered results are carried across, and the answers
stay exactly what a never-resharded single engine would deliver (the
property fuzzed by ``tests/test_fuzz_differential.py`` and pinned by
``tests/test_reshard_edge_cases.py``).  When to reshard, and to how many
shards, is the caller's decision; the session only carries it out.

Run with::

    PYTHONPATH=src python examples/live_resharding.py
"""

from __future__ import annotations

import random

from repro.query.predicates import EquiJoinCondition
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.streams.tuples import make_tuple

KEY_DOMAIN = 60
WINDOW = 2.5
CALM_SECONDS = 3.0


def drifting_stream():
    """Calm phase (80/s per stream), then a 4x burst."""
    rng = random.Random(11)
    tuples = []
    timestamp = 0.0
    for rate, seconds in ((80, CALM_SECONDS), (320, 3.0)):
        end = timestamp + seconds
        while timestamp < end:
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


def main() -> None:
    """Reshard the session at the burst and check it against a single engine."""
    tuples = drifting_stream()
    condition = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)

    session = ShardedStreamEngine(condition, shards=1)
    session.add_query("Q", WINDOW)
    reference = StreamEngine(condition)
    reference.add_query("Q", WINDOW)

    print(f"{len(tuples)} arrivals over {tuples[-1].timestamp:.1f} stream-seconds")
    for tup in tuples:
        if session.shards == 1 and tup.timestamp >= CALM_SECONDS:
            print(f"  burst at t={tup.timestamp:.2f}s: {session.reshard(4).describe()}")
        session.process(tup)
        reference.process(tup)
    session.flush()
    reference.flush()

    ours = sorted((j.left.seqno, j.right.seqno) for j in session.results("Q"))
    theirs = sorted((j.left.seqno, j.right.seqno) for j in reference.results("Q"))
    assert ours == theirs, "resharding must not change the answer"
    print(
        f"final: {session.shards} shards, {len(ours)} pairs "
        f"(identical to the single engine), "
        f"{len(session.reshard_events)} reshard(s); "
        f"per-shard arrivals since the reshard: {session.shard_ingest_totals()}"
    )


if __name__ == "__main__":
    main()
