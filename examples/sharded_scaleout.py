"""Sharded scale-out: key-partitioning one session across N engines.

Three short scenarios on top of :class:`repro.runtime.ShardedStreamEngine`
(see ``examples/runtime_sessions.py`` for the single-engine session API):

1. **Serial scale-out** — the same equi-join workload through 1, 2 and 4
   serial shards.  Each arrival probes only its key's shard, whose window
   state holds ~1/N of the resident tuples, so the nested-loop probe work
   drops by ~N *on one core* — and the merged answers stay identical.
2. **Admission fan-out** — queries register and deregister mid-stream; the
   migration runs on every shard, keeping all shard chains at identical
   boundaries.
3. **The planner** — a :class:`repro.runtime.ShardPlanner` reads the merged
   statistics view (per-shard counters aggregated into global rates), sizes
   the shard count for the measured load, and flags hot-key skew.

Run with:  python examples/sharded_scaleout.py
"""

from __future__ import annotations

import time

from repro.query.predicates import EquiJoinCondition, attribute_gt
from repro.runtime import ShardedStreamEngine, ShardPlanner
from repro.streams.generators import equi_value_generator, generate_join_workload
from repro.streams.tuples import make_tuple

KEY_DOMAIN = 100
CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)


def main() -> None:
    data = generate_join_workload(
        rate_a=120,
        rate_b=120,
        duration=6.0,
        seed=23,
        value_generator=equi_value_generator(KEY_DOMAIN),
    )
    tuples = data.tuples

    # -- 1. serial scale-out: same answer, ~1/N probe work ------------------
    print("Serial scale-out (same core, smaller per-shard state)")
    reference = None
    for shards in (1, 2, 4):
        engine = ShardedStreamEngine(CONDITION, shards=shards, batch_size=64)
        engine.add_query("Q", 3.0)
        start = time.perf_counter()
        engine.process_many(tuples)
        engine.flush()
        seconds = time.perf_counter() - start
        answers = [(j.left.seqno, j.right.seqno) for j in engine.results("Q")]
        if reference is None:
            reference = sorted(answers)
        assert sorted(answers) == reference, "sharding changed the join answer"
        print(
            f"  {shards} shard(s): {len(tuples) / seconds:8.0f} tuples/s, "
            f"{len(answers)} results, state {engine.state_size()} tuples"
        )

    # -- 2. admission fan-out: one logical session, N chains ----------------
    print("\nAdmission fan-out")
    session = ShardedStreamEngine(CONDITION, shards=4, batch_size=64)
    session.add_query("umbrella", 3.0)
    hot = attribute_gt("value", 0.7, selectivity=0.3)
    for index, tup in enumerate(tuples):
        if index == len(tuples) // 3:
            session.add_query("Qhot", 1.0, left_filter=hot)
            print(f"  +Qhot (σ, 1s)  shard boundaries {session.boundaries}")
        if index == 2 * len(tuples) // 3:
            delivered = session.remove_query("Qhot")
            print(
                f"  -Qhot after {len(delivered)} results  "
                f"shard boundaries {session.boundaries}"
            )
        session.process(tup)
    session.flush()
    print(f"  every shard identical: {session.shard_boundaries()}")

    # -- 3. the planner: merged statistics, sizing, skew --------------------
    print("\nShardPlanner on the merged statistics view")
    planner = ShardPlanner(max_shards=8, target_rate_per_shard=60.0)
    observed = ShardedStreamEngine(CONDITION, shards=2, batch_size=64)
    observed.add_query("Q", 2.0)
    observed.process_many(tuples)
    observed.flush()
    merged = observed.merged_statistics()
    plan = planner.plan(observed)
    print(f"  {merged.describe()}")
    print(f"  {plan.describe()}")
    print(f"  -> {plan.reason}")

    # A hot key concentrates the stream on one shard.
    skewed = ShardedStreamEngine(CONDITION, shards=4, batch_size=64)
    skewed.add_query("Q", 2.0)
    skewed.process_many(
        make_tuple(t.stream, t.timestamp, join_key=7, value=0.5)
        for t in tuples[: len(tuples) // 2]
    )
    skewed.flush()
    plan = planner.plan(skewed)
    print(f"  hot-key session: {plan.describe()}")
    print(f"  -> {plan.reason}")


if __name__ == "__main__":
    main()
