"""Runtime sessions: selections and count windows.

Two short scenarios on top of :class:`repro.runtime.StreamEngine`, the
live session API (see ``examples/online_migration.py`` for the migration
basics):

1. **Selections** — queries carrying per-stream predicates register and
   deregister mid-stream; the engine re-derives the shared selection
   push-down (Section 6) on every migration, so the in-chain filters always
   hold exactly the disjunction of the *current* queries' predicates.
2. **Count windows** — the same admission protocol over rank-based slices
   ("the N most recent tuples of each stream").

Run with:  python examples/runtime_sessions.py
"""

from __future__ import annotations

from repro import StreamEngine, generate_join_workload
from repro.query.predicates import EquiJoinCondition, attribute_gt


def main() -> None:
    data = generate_join_workload(rate_a=25, rate_b=25, duration=20.0, seed=11)
    tuples = data.tuples
    condition = EquiJoinCondition("join_key", "join_key", key_domain=10)

    # -- 1. selections: shared push-down recomputed on admission/removal ----
    engine = StreamEngine(condition)
    warm = attribute_gt("value", 0.2, selectivity=0.8)
    hot = attribute_gt("value", 0.5, selectivity=0.5)
    very_hot = attribute_gt("value", 0.8, selectivity=0.2)
    engine.add_query("Qwarm", window=4.0, left_filter=warm)
    engine.add_query("Qhot", window=4.0, left_filter=hot)
    print("Selections")
    print(f"  session: {engine.describe()}")
    for index, tup in enumerate(tuples):
        if index == len(tuples) // 2:
            # Splits [0, 4) at 2 s *and* re-derives the pushed filters: the
            # front filter gains Qpeak's predicate in its disjunction.
            engine.add_query("Qpeak", window=2.0, left_filter=very_hot)
        engine.process(tup)
    engine.flush()
    for name in ("Qwarm", "Qhot", "Qpeak"):
        print(f"  {name}: {len(engine.results(name))} results")
    for index, (left, _right) in enumerate(engine.link_filters()):
        left_text = left.describe() if left is not None else "(none)"
        print(f"  pushed σ' in front of slice {index + 1}: {left_text}")

    # -- 2. count windows: rank-based slices, same migrations ---------------
    counts = StreamEngine(condition, window_kind="count")
    counts.add_query("C20", 20)
    print("\nCount windows")
    for index, tup in enumerate(tuples):
        if index == len(tuples) // 3:
            counts.add_query("C5", 5)  # splits the rank slice [0, 20)
        if index == 2 * len(tuples) // 3:
            counts.remove_query("C5")  # merges it back
        counts.process(tup)
    counts.flush()
    print(f"  session: {counts.describe()}")
    print(f"  C20: {len(counts.results('C20'))} results; "
          f"migrations {[e.kind for e in counts.stats.migrations]}")


if __name__ == "__main__":
    main()
