#!/usr/bin/env python3
"""How does one session scale with the number of queries on its chain?

``python3 scripts/many_queries.py [--queries 12 48 192] [--arrivals N]
[--warm N] [--seed S]`` builds, per query count Q, one time-window
``StreamEngine`` over ``bench/``'s equi join and stream pair and admits Q
queries whose windows are evenly spaced up to 16 s, in ascending order, with
``equi_shared``'s filter pattern (a 0.5 left filter on every second query, a
0.2 right filter on every fourth).  Q distinct windows make Q slices.  It
prints one Markdown row per Q:

* **set-up** — building the session and admitting the Q queries;
* **admit + remove** — one unfiltered query that splits the slice holding
  ``0.8125 × 16 s`` admitted and removed again, the mean of ``--cycles``
  back-to-back cycles against the warm session (``bench/``'s migration probe);
* **arrivals/s**, **results/arrival**, **µs/result** — ``--arrivals`` timed
  arrivals after ``--warm`` untimed ones, fed in 128-arrival quanta with
  every query popped after each quantum.

Each row is one run: a reading, not a claim (``docs/benchmarks.md``).
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import workloads  # noqa: E402
from repro.query.predicates import EquiJoinCondition, selectivity_filter  # noqa: E402
from repro.runtime import StreamEngine  # noqa: E402

#: The largest window, seconds; the others are evenly spaced below it.
MAX_WINDOW = 16.0


def queries(count: int) -> list[tuple]:
    """``(name, window, left filter, right filter)`` of ``count`` queries."""
    left, right = selectivity_filter(0.5), selectivity_filter(0.2)
    return [
        (f"q{index:03d}", MAX_WINDOW * (index + 1) / count, left if index % 2 else None,
         right if index % 4 == 3 else None)
        for index in range(count)
    ]


def measure(count: int, arrivals: int, warm: int, seed: int, cycles: int) -> dict[str, float]:
    """One session of ``count`` queries: set-up, admit + remove and the feed."""
    admitted = queries(count)
    start = perf_counter()
    condition = EquiJoinCondition("join_key", "join_key", key_domain=workloads.KEY_DOMAIN)
    session = StreamEngine(condition)
    for name, window, left, right in admitted:
        session.add_query(name, window, left_filter=left, right_filter=right)
    setup = perf_counter() - start
    names = [name for name, *_ in admitted]
    source = workloads.arrivals(seed)

    def feed(total: int) -> int:
        delivered = 0
        for _ in range(total // workloads.QUANTUM):
            session.process_many(islice(source, workloads.QUANTUM))
            delivered += sum(len(session.pop_results(name)) for name in names)
        return delivered

    feed(warm)
    start = perf_counter()
    for _ in range(cycles):
        session.add_query("probe", MAX_WINDOW * 0.8125)
        session.remove_query("probe")
    migration = (perf_counter() - start) / cycles
    start = perf_counter()
    results = feed(arrivals)
    wall = perf_counter() - start
    session.close()
    timed = arrivals // workloads.QUANTUM * workloads.QUANTUM
    return {
        "setup_ms": setup * 1e3,
        "migration_ms": migration * 1e3,
        "arrivals_per_s": timed / wall,
        "results_per_arrival": results / timed,
        "us_per_result": wall / results * 1e6 if results else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, nargs="+", default=[12, 48, 192])
    parser.add_argument("--arrivals", type=int, default=8192, help="timed arrivals")
    parser.add_argument("--warm", type=int, default=20480, help="untimed arrivals first")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--cycles", type=int, default=5, help="admit + remove cycles")
    args = parser.parse_args(argv)
    if min(args.queries) < 1 or args.arrivals < workloads.QUANTUM or args.cycles < 1:
        parser.error("--queries must be >= 1, --arrivals >= one quantum and --cycles >= 1")
    print("| Q (= slices) | set-up | one admit + remove | arrivals/s | results/arrival "
          "| µs/result |")
    print("| --- | --- | --- | --- | --- | --- |")
    for count in args.queries:
        row = measure(count, args.arrivals, args.warm, args.seed, args.cycles)
        print(
            f"| {count} | {row['setup_ms']:.1f} ms | {row['migration_ms']:.2f} ms "
            f"| {row['arrivals_per_s']:,.0f} | {row['results_per_arrival']:.1f} "
            f"| {row['us_per_result']:.2f} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
