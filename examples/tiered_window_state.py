"""Tiered window state: a session holding 10x its memory budget.

A multi-window session accumulates far more window state than it is
allowed to keep in core.  With ``memory_budget_bytes`` set, the payloads of
the chain's oldest rows move to an append-only log on disk and only the
newest rows (plus per-row metadata: timestamp and key) stay resident:

* the join answer is **identical** to the unbudgeted session — cold rows
  stay live, purged and probed through their resident timestamps and keys,
  and read back only when a batch reports them;
* ``MetricsSnapshot`` splits the footprint into ``memory.resident_bytes``
  and ``memory.spilled_bytes`` so the trade is observable;
* sharded sessions split the budget per shard and re-split it on every
  ``reshard(n)`` — retired shards delete their segments on the way out.

Run with:  python examples/tiered_window_state.py
"""

from __future__ import annotations

from repro.query.predicates import EquiJoinCondition
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.streams.generators import generate_join_workload

CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=40)
WINDOWS = {"fast": 0.5, "mid": 2.0, "slow": 6.0}
DATA = generate_join_workload(rate_a=90, rate_b=90, duration=8.0, seed=7)
#: Arrivals per ``process_many`` call: a batch, after which the budget is enforced.
QUANTUM = 32


def feed(session, tuples) -> None:
    for start in range(0, len(tuples), QUANTUM):
        session.process_many(tuples[start : start + QUANTUM])


def run_session(memory_budget: int | None) -> tuple[list, dict]:
    engine = StreamEngine(CONDITION, memory_budget_bytes=memory_budget)
    for name, window in WINDOWS.items():
        engine.add_query(name, window)
    feed(engine, DATA.tuples)
    answers = [
        sorted((j.left.seqno, j.right.seqno) for j in engine.results(name))
        for name in WINDOWS
    ]
    snapshot = engine.metrics.snapshot()
    engine.close()
    return answers, snapshot


def main() -> None:
    # -- 1. unbudgeted baseline: the whole chain in core --------------------
    baseline, base_snap = run_session(None)
    peak = base_snap["memory.max_resident_bytes"]
    print(f"In-core session: peak resident {peak:,.0f} B, spilled 0 B")

    # -- 2. the same stream under a budget an order of magnitude smaller ----
    budget = int(peak // 12)
    answers, snap = run_session(budget)
    assert answers == baseline, "spilling must never change the answer"
    print(f"\nBudget {budget:,} B (peak state is {peak / budget:.0f}x that):")
    print(
        f"  resident {snap['memory.resident_bytes']:,.0f} B"
        f"  (peak {snap['memory.max_resident_bytes']:,.0f} B),"
        f"  spilled {snap['memory.spilled_bytes']:,.0f} B"
    )
    print(
        f"  {snap['observations.spill.segments']:.0f} segments written, "
        f"{snap['observations.spill.evictions']:.0f} rows evicted, "
        f"{snap['observations.spill.cold_reads']:.0f} cold rows read"
    )
    print("  answers identical to the in-core session across all three windows")

    # -- 3. sharded: the budget splits per shard and follows resharding -----
    session = ShardedStreamEngine(CONDITION, shards=2, memory_budget_bytes=budget)
    session.add_query("fast", WINDOWS["fast"])
    session.add_query("slow", WINDOWS["slow"])
    half = len(DATA.tuples) // 2
    feed(session, DATA.tuples[:half])
    print(
        f"\nSharded session: {budget:,} B total"
        f" -> {session.per_shard_memory_budget:,} B/shard at 2 shards"
    )
    session.reshard(4)
    print(f"  after reshard(4): {session.per_shard_memory_budget:,} B/shard")
    feed(session, DATA.tuples[half:])
    merged = session.merged_snapshot()
    print(
        f"  merged: resident {merged['memory.resident_bytes']:,.0f} B, "
        f"spilled {merged['memory.spilled_bytes']:,.0f} B, "
        f"{merged.get('observations.spill.segments', 0):.0f} segments"
    )
    sharded_answer = sorted(
        (j.left.seqno, j.right.seqno) for j in session.results("slow")
    )
    assert sharded_answer == baseline[list(WINDOWS).index("slow")]
    print("  sharded answer identical to the in-core session")
    session.close()


if __name__ == "__main__":
    main()
