#!/usr/bin/env python3
"""Where does a benchmark workload's steady-state time go, call by call?

``python3 scripts/profile_workload.py NAME [--arrivals N] [--seed S]`` builds
the session of ``bench.workloads.WORKLOADS[NAME]`` on constructor defaults
(exactly as ``bench/run.py`` does), admits its resident queries, feeds
``--warm-s`` stream-seconds untimed so every slice is at its steady size, and
then feeds ``N`` more arrivals in delivery quanta twice over (three times
with ``--stages``):

* unprofiled, timing each quantum, and prints the fastest-decile quantum
  rate (the estimator ``bench/`` reports; see its README);
* under ``cProfile``, and prints the top rows by ``tottime``.

cProfile charges every Python-level call but none of the work inside numpy,
so it overstates call-heavy code: use it to *find* candidates and
``bench/run.py`` to *measure* them (``docs/benchmarks.md``).

``--churn`` replays the workload's churn schedule (``Run.migrate()`` before
each quantum, as ``bench/driver.py`` does; the quantum rate still times the
feed alone) and prints, before the cProfile rows, the per-call wall time of a
reshard and of its stages over the timed pass: ``repartition``, each shard's
``ingest_keyed_state`` and each ``add_query`` of the admission replay.

``--stages`` feeds the ``N`` arrivals a third time with a wall-clock timer
around each method of ``KERNEL`` and prints, per method, the share of the
quanta's wall time spent inside it (summed over the pass, and the median of
the per-quantum shares) and its mean milliseconds a quantum, before the
cProfile rows.  Shares are inclusive and nest: ``purge_cut`` runs inside
``sweep``, ``SpillLog.read`` inside ``_thaw``, which runs inside ``probe``
(and ``slices``).  The timers cost a few tenths of a microsecond per call,
which the shares include.

Frames to look for: on a time-window session the chain is ``chain.py
(_slice_results)`` over ``columns.py (sweep)`` / ``(purge_cut)`` / ``(probe)``
(which places the candidates, keeps the hits and gathers their tuples and
verdicts) / ``(settle)`` and ``columns.py (__init__)`` of the ``HitBlock``;
the routing is ``columns.py (route)`` under ``engine.py (_run_batch)``, with
``columns.py (joined)`` over ``tuples.py (build_all)`` building the delivered
``JoinedTuple``s; a budgeted one (``equi_spill``) runs the same chain and adds
the tier — ``spill.py (read)`` under ``columns.py (_thaw)`` with
``spill.py (_gather)`` over ``posix.preadv`` / ``columns.py (unpack_records)``
/ ``tuples.py (build_all)`` for the cold
rows a batch reports, ``chain.py (evict_cold)`` over ``columns.py (evict)``
and ``spill.py (append)`` for the rows it makes cold.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import workloads  # noqa: E402
from bench.driver import Run, fast  # noqa: E402
from repro.engine.columns import ChainColumn, ColumnarState, HitBlock, RouteTable  # noqa: E402
from repro.engine.spill import SpillLog  # noqa: E402
from repro.runtime import StreamEngine, sharding  # noqa: E402

#: cProfile rows printed.
TOP_ROWS = 20
#: What ``--churn`` times per call: ``(label, owner, method)``; every stage
#: but the reshard only while a reshard runs.
STAGES = (
    ("reshard", sharding.ShardedStreamEngine, "reshard"),
    ("repartition", sharding, "repartition"),
    ("ingest_keyed_state", StreamEngine, "ingest_keyed_state"),
    ("admission replay (add_query)", StreamEngine, "add_query"),
)
#: What ``--stages`` times in every call: a batch's kernel, from the purge
#: sweep to the routed deliveries, and the disk tier's read-back.
KERNEL = (
    ("sweep", ChainColumn, "sweep"),
    ("purge_cut", ColumnarState, "purge_cut"),
    ("probe", ChainColumn, "probe"),
    ("HitBlock.__init__", HitBlock, "__init__"),
    ("RouteTable.route", RouteTable, "route"),
    ("_thaw", ChainColumn, "_thaw"),
    ("SpillLog.read", SpillLog, "read"),
)


@contextmanager
def stage_timers(stages=STAGES, gated: bool = True):
    """Wrap every method of ``stages``; yields ``{label: [wall seconds per
    call]}``.  ``gated``: time a stage only while a reshard runs (the
    reshard itself always)."""
    seconds: dict[str, list[float]] = {label: [] for label, _, _ in stages}
    reshards: list[None] = []  # one entry per reshard running

    def timed(label, original):
        def call(*args, **kwargs):
            outermost = label == "reshard"
            if outermost:
                reshards.append(None)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                if reshards or not gated:
                    seconds[label].append(perf_counter() - start)
                if outermost:
                    reshards.pop()

        return call

    originals = [getattr(owner, method) for _, owner, method in stages]
    for (label, owner, method), original in zip(stages, originals):
        setattr(owner, method, timed(label, original))
    try:
        yield seconds
    finally:
        for (_, owner, method), original in zip(stages, originals):
            setattr(owner, method, original)


def print_stages(seconds: dict[str, list[float]]) -> None:
    for label, samples in seconds.items():
        if samples:
            ms = sorted(1e3 * sample for sample in samples)
            print(
                f"# {label}: {len(ms)} calls, median {median(ms):.2f} ms "
                f"(min {ms[0]:.2f}, max {ms[-1]:.2f}), {sum(ms):.1f} ms in all"
            )
        else:
            print(f"# {label}: no call in the timed pass")


def print_shares(quanta: list[float], inside: list[dict[str, float]]) -> None:
    """Per ``KERNEL`` method, its share of the quanta's wall time: ``quanta``
    holds each quantum's seconds, ``inside`` the seconds each method took in it."""
    total = sum(quanta)
    for label, _, _ in KERNEL:
        spent = [stages[label] for stages in inside]
        shares = [100 * part / whole for part, whole in zip(spent, quanta)]
        print(
            f"# stage {label}: {100 * sum(spent) / total:.1f} % of the quanta's wall time "
            f"(median per quantum {median(shares):.1f} %, {1e3 * sum(spent) / len(quanta):.3f} ms a quantum)"
        )


def profile(
    name: str, arrivals: int, seed: int, warm_s: float, churn: bool = False, stages: bool = False
) -> float:
    """Run every pass over workload ``name``; returns the fastest-decile rate."""
    run = Run(workloads.WORKLOADS[name])  # the benchmark's own session set-up and feed
    run.setup()
    try:
        stream = workloads.arrivals(seed)
        size = workloads.QUANTUM

        def quanta(count: int):
            for _ in range(-(-count // size)):
                yield list(islice(stream, size))

        def migrate() -> None:
            if churn:
                run.migrate()

        for quantum in quanta(int(warm_s * workloads.ARRIVALS_PER_STREAM_SECOND)):
            migrate()
            run.feed(quantum)
        seconds = []
        with stage_timers() as reshard_seconds:
            for quantum in quanta(arrivals):
                migrate()
                start = perf_counter()
                run.feed(quantum)
                seconds.append(perf_counter() - start)
        rate = size / fast(seconds)
        print(
            f"# {name}: {len(seconds)} quanta of {size} after {warm_s:g} warm stream-seconds; "
            f"fastest-decile quantum rate {rate:.0f} arrivals/s"
        )
        if churn:
            print_stages(reshard_seconds)
        if stages:
            timed, inside = [], []
            with stage_timers(KERNEL, gated=False) as calls:
                for quantum in quanta(arrivals):
                    migrate()
                    before = {label: len(samples) for label, samples in calls.items()}
                    start = perf_counter()
                    run.feed(quantum)
                    timed.append(perf_counter() - start)
                    inside.append({label: sum(samples[before[label]:]) for label, samples in calls.items()})
            print_shares(timed, inside)
        profiler = cProfile.Profile()
        for quantum in quanta(arrivals):
            profiler.enable()
            migrate()
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
    parser.add_argument(
        "--churn", action="store_true", help="replay the churn schedule; time the reshard stages"
    )
    parser.add_argument(
        "--stages", action="store_true", help="print each kernel method's share of the quanta's wall time"
    )
    args = parser.parse_args(argv)
    if args.churn and workloads.WORKLOADS[args.workload].churn is None:
        parser.error(f"workload {args.workload!r} has no churn schedule")
    profile(args.workload, args.arrivals, args.seed, args.warm_s, args.churn, args.stages)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
