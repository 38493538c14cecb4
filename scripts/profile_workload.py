#!/usr/bin/env python3
"""Where does a benchmark workload's steady-state time go, call by call?

``python3 scripts/profile_workload.py NAME [--arrivals N] [--seed S]`` builds
the session of ``bench.workloads.WORKLOADS[NAME]`` on constructor defaults
(exactly as ``bench/run.py`` does), admits its resident queries, feeds
``--warm-s`` stream-seconds untimed so every slice is at its steady size, and
then feeds ``N`` more arrivals in delivery quanta twice over:

* unprofiled, timing each quantum, and prints the fastest-decile quantum
  rate (the estimator ``bench/`` reports; see its README);
* under ``cProfile``, and prints the top rows by ``tottime``.

cProfile charges every Python-level call but none of the work inside numpy,
so it overstates call-heavy code: use it to *find* candidates and
``bench/run.py`` to *measure* them (``docs/benchmarks.md``).  A churn
schedule is not replayed — this profiles the resident query set.

Frames to look for: on a time-window session the chain is ``chain.py
(_slice_results)`` over ``columns.py (sweep)`` / ``(purge_cut)`` /
``(probe)`` / ``(settle)`` and the routing is ``engine.py (_run_batch)``
(since PR 18); a budgeted one (``equi_spill``) runs the same chain since
PR 19 and adds the tier — ``spill.py (read)`` under ``columns.py (_thaw)``
with ``posix.pread`` / ``_pickle.loads`` / the ``StreamTuple`` constructor
for the cold rows a batch reports, ``chain.py (evict_cold)`` over
``columns.py (evict)`` and ``spill.py (append)`` for the rows it makes cold.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import workloads  # noqa: E402
from bench.driver import Run, fast  # noqa: E402

#: cProfile rows printed.
TOP_ROWS = 20


def profile(name: str, arrivals: int, seed: int, warm_s: float) -> float:
    """Run both passes over workload ``name``; returns the fastest-decile rate."""
    run = Run(workloads.WORKLOADS[name])  # the benchmark's own session set-up and feed
    run.setup()
    try:
        stream = workloads.arrivals(seed)
        size = workloads.QUANTUM

        def quanta(count: int):
            for _ in range(-(-count // size)):
                yield list(islice(stream, size))

        for quantum in quanta(int(warm_s * workloads.ARRIVALS_PER_STREAM_SECOND)):
            run.feed(quantum)
        seconds = []
        for quantum in quanta(arrivals):
            start = perf_counter()
            run.feed(quantum)
            seconds.append(perf_counter() - start)
        rate = size / fast(seconds)
        print(
            f"# {name}: {len(seconds)} quanta of {size} after {warm_s:g} warm stream-seconds; "
            f"fastest-decile quantum rate {rate:.0f} arrivals/s"
        )
        profiler = cProfile.Profile()
        for quantum in quanta(arrivals):
            profiler.enable()
            run.feed(quantum)
            profiler.disable()
        pstats.Stats(profiler).strip_dirs().sort_stats("tottime").print_stats(TOP_ROWS)
        return rate
    finally:
        run.session.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--arrivals", type=int, default=6400, help="arrivals per pass")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--warm-s", type=float, default=20.0, help="untimed stream-seconds fed first"
    )
    args = parser.parse_args(argv)
    profile(args.workload, args.arrivals, args.seed, args.warm_s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
