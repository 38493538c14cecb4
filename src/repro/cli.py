"""Command-line interface for the State-Slice reproduction.

Exposes the most common tasks without writing Python:

.. code-block:: bash

    python -m repro compare  --rate 40 --windows uniform --s1 0.1 --ssigma 0.5
    python -m repro figure   17 --panels b e --rates 20 40
    python -m repro figure   11
    python -m repro table    2
    python -m repro optimize --queries 12 --windows small-large
    python -m repro cost     --rho 0.25 --ssigma 0.2 --s1 0.1
    python -m repro runtime  --stats

``compare`` runs every sharing strategy on one configuration; ``figure`` and
``table`` regenerate the paper's figures/tables; ``optimize`` runs the chain
optimizers, prints both chains and prices them under the analytical cost
model; ``cost`` evaluates the analytical two-query cost model; ``runtime``
demos a live session admitting queries mid-stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.cost_model import (
    TwoQuerySettings,
    selection_pullup_cost,
    selection_pushdown_cost,
    state_slice_cost,
    state_slice_savings,
)
from repro.core.cpu_opt import build_cpu_opt_chain
from repro.core.mem_opt import build_mem_opt_chain
from repro.experiments.analytical import figure_11a, figure_11b, figure_11c
from repro.experiments.config import STREAM_RATES, ExperimentConfig
from repro.experiments.figures import FIGURES, run_panel
from repro.experiments.harness import chain_parameters, compare_strategies, make_workload
from repro.experiments.report import format_points, format_table, format_trace
from repro.experiments.traces import table_2_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'State-Slice' (VLDB 2006): run experiments "
        "and inspect the shared-plan optimizers from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="run every sharing strategy on one configuration"
    )
    compare.add_argument("--rate", type=float, default=40.0, help="tuples/s per stream")
    compare.add_argument("--windows", default="uniform", help="window distribution name")
    compare.add_argument("--queries", type=int, default=3, help="number of queries")
    compare.add_argument("--s1", type=float, default=0.1, help="join selectivity S1")
    compare.add_argument("--ssigma", type=float, default=0.5, help="filter selectivity Sσ")
    compare.add_argument("--time-scale", type=float, default=0.1, help="time scaling factor")
    compare.add_argument("--seed", type=int, default=7)

    figure = subparsers.add_parser("figure", help="regenerate a figure (11, 17, 18, 19)")
    figure.add_argument("number", type=int, choices=(11, 17, 18, 19))
    figure.add_argument("--panels", nargs="*", default=None, help="panel letters")
    figure.add_argument("--rates", nargs="*", type=float, default=None)
    figure.add_argument("--time-scale", type=float, default=None)

    table = subparsers.add_parser("table", help="regenerate a table (2)")
    table.add_argument("number", type=int, choices=(2,))

    optimize = subparsers.add_parser(
        "optimize",
        help="run the Mem-Opt and CPU-Opt chain searches and price the "
        "candidates under the analytical cost model",
    )
    optimize.add_argument("--queries", type=int, default=12)
    optimize.add_argument("--windows", default="small-large")
    optimize.add_argument("--rate", type=float, default=40.0)
    optimize.add_argument("--s1", type=float, default=0.025)
    optimize.add_argument("--ssigma", type=float, default=1.0)
    optimize.add_argument("--csys", type=float, default=0.25, help="per-operator overhead")
    optimize.add_argument("--time-scale", type=float, default=1.0)

    cost = subparsers.add_parser("cost", help="evaluate the two-query analytical cost model")
    cost.add_argument("--rate", type=float, default=50.0)
    cost.add_argument("--w2", type=float, default=60.0, help="large window (seconds)")
    cost.add_argument("--rho", type=float, default=0.25, help="window ratio W1/W2")
    cost.add_argument("--ssigma", type=float, default=0.5)
    cost.add_argument("--s1", type=float, default=0.1)

    runtime = subparsers.add_parser(
        "runtime",
        help="demo the StreamEngine: online query admission over a live stream",
    )
    runtime.add_argument("--rate", type=float, default=20.0, help="tuples/s per stream")
    runtime.add_argument("--duration", type=float, default=30.0, help="stream seconds")
    runtime.add_argument("--s1", type=float, default=0.2, help="join selectivity S1")
    runtime.add_argument("--seed", type=int, default=3)
    runtime.add_argument(
        "--windows",
        nargs="*",
        type=float,
        default=[4.0, 2.0, 6.0],
        help="windows of the queries, admitted at evenly spaced points "
        "starting from the first arrival (seconds, or tuple counts with "
        "--window-kind count)",
    )
    runtime.add_argument(
        "--window-kind",
        choices=("time", "count"),
        default="time",
        help="time-based sliding windows (default) or count-based "
        "most-recent-N windows",
    )
    runtime.add_argument(
        "--ssigma",
        type=float,
        default=1.0,
        help="selection selectivity Sσ: every second admitted query carries "
        "a left-stream predicate with this selectivity (1.0 = no selections)",
    )
    runtime.add_argument(
        "--shards",
        type=int,
        default=1,
        help="key-partition the session across N StreamEngine shards "
        "(equi-join time-window workloads; the demo switches to an "
        "equi-join condition approximating --s1)",
    )
    runtime.add_argument(
        "--shard-mode",
        choices=("serial", "process"),
        default="serial",
        help="serial runs the shards in the calling thread (same answers, "
        "no speed-up: see bench/README.md); process starts one worker per "
        "shard fed columnar batch encodings through a shared-memory ring",
    )
    runtime.add_argument(
        "--reshard",
        type=int,
        default=None,
        metavar="N",
        help="reshard the running session once, mid-stream, to exactly N "
        "shards (implies the sharded equi-join session, even with --shards 1)",
    )
    runtime.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="in-core state budget: once the resident estimate exceeds it "
        "the oldest window state moves to an append-only log on disk "
        "(results are unchanged).  Accepts K/M/G suffixes, fractions "
        "included, e.g. 64K, 0.5M or 2M; sharded sessions split the budget "
        "across the live shards",
    )
    runtime.add_argument(
        "--stats",
        action="store_true",
        help="print the session's EngineStats, migration history and "
        "metrics snapshot after the run",
    )
    return parser


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------
def _cmd_compare(args: argparse.Namespace) -> str:
    config = ExperimentConfig(
        rate=args.rate,
        window_distribution=args.windows,
        query_count=args.queries,
        join_selectivity=args.s1,
        filter_selectivity=args.ssigma,
        time_scale=args.time_scale,
        seed=args.seed,
    )
    strategies = (
        "unshared",
        "selection-pullup",
        "selection-pushdown",
        "state-slice",
        "state-slice-cpu-opt",
    )
    results = compare_strategies(config, strategies)
    rows = []
    for name in strategies:
        result = results[name]
        rows.append(
            [
                name,
                f"{result.memory:.1f}",
                f"{result.cpu_cost:.0f}",
                f"{result.service_rate:.5f}",
                result.output_count,
            ]
        )
    header = f"configuration: {config.label()}\n"
    return header + format_table(
        ["strategy", "state (tuples)", "CPU (cmp)", "service rate", "outputs"], rows
    )


def _cmd_figure(args: argparse.Namespace) -> str:
    if args.number == 11:
        sections = []
        surfaces = figure_11a(steps=9)
        rows = [
            [name, f"{max(p.value_pct for p in pts):.1f}"]
            for name, pts in surfaces.items()
        ]
        sections.append("Figure 11(a) peak memory savings (%):\n" + format_table(
            ["surface", "max %"], rows))
        for label, fig in (("11(b) vs pull-up", figure_11b), ("11(c) vs push-down", figure_11c)):
            rows = [
                [f"S1={s1:g}", f"{max(p.value_pct for p in pts):.1f}"]
                for s1, pts in sorted(fig(steps=9).items())
            ]
            sections.append(f"Figure {label} peak CPU savings (%):\n" + format_table(
                ["surface", "max %"], rows))
        return "\n\n".join(sections)

    rates = tuple(args.rates or STREAM_RATES)
    parts = []
    for panel in args.panels or [FIGURES[args.number].default_panel]:
        points = run_panel(args.number, panel, rates, args.time_scale)
        parts.append(f"Figure {args.number}({panel}):\n" + format_points(points, args.number, panel))
    return "\n\n".join(parts)


def _cmd_table(args: argparse.Namespace) -> str:
    return "Table 2 (regenerated trace):\n" + format_trace(table_2_trace())


def _cmd_optimize(args: argparse.Namespace) -> str:
    from repro.core.merge_graph import chain_cpu_cost, chain_memory_cost

    config = ExperimentConfig(
        rate=args.rate,
        window_distribution=args.windows,
        query_count=args.queries,
        join_selectivity=args.s1,
        filter_selectivity=args.ssigma,
        time_scale=args.time_scale,
        system_overhead=args.csys,
    )
    workload = make_workload(config)
    params = chain_parameters(workload, config)
    mem_opt = build_mem_opt_chain(workload)
    cpu_opt = build_cpu_opt_chain(workload, params)
    rows = [
        [
            name,
            str(len(chain)),
            f"{chain_cpu_cost(chain, params):.0f}",
            f"{chain_memory_cost(chain, params):.1f}",
        ]
        for name, chain in (("Mem-Opt", mem_opt), ("CPU-Opt", cpu_opt))
    ]
    return (
        f"workload: {config.label()}\n"
        f"cost model: Csys={args.csys:g}, probe model: nested loops (the paper's model)\n\n"
        + format_table(["chain", "slices", "CPU (cmp/s)", "state (KB)"], rows)
        + f"\n\nMem-Opt chain:\n{mem_opt.describe()}"
        + f"\n\nCPU-Opt chain:\n{cpu_opt.describe()}"
    )


def _cmd_cost(args: argparse.Namespace) -> str:
    settings = TwoQuerySettings(
        arrival_rate=args.rate,
        window_small=args.rho * args.w2,
        window_large=args.w2,
        filter_selectivity=args.ssigma,
        join_selectivity=args.s1,
    )
    estimates = [
        selection_pullup_cost(settings),
        selection_pushdown_cost(settings),
        state_slice_cost(settings),
    ]
    savings = state_slice_savings(settings)
    rows = [
        [e.strategy, f"{e.memory:.0f}", f"{e.cpu:.0f}"] for e in estimates
    ]
    table = format_table(["strategy", "memory (KB)", "CPU (cmp/s)"], rows)
    return (
        table
        + "\n\nstate-slice savings (Equation 4):"
        + f"\n  memory vs pull-up   : {100 * savings.memory_vs_pullup:.1f}%"
        + f"\n  memory vs push-down : {100 * savings.memory_vs_pushdown:.1f}%"
        + f"\n  CPU vs pull-up      : {100 * savings.cpu_vs_pullup:.1f}%"
        + f"\n  CPU vs push-down    : {100 * savings.cpu_vs_pushdown:.1f}%"
    )


def _cmd_runtime(args: argparse.Namespace) -> str:
    from repro.query.predicates import (
        EquiJoinCondition,
        selectivity_filter,
        selectivity_join,
    )
    from repro.runtime import ShardedStreamEngine, StreamEngine
    from repro.runtime.engine import chain_class
    from repro.streams.generators import (
        equi_key_domain,
        equi_value_generator,
        generate_join_workload,
    )

    if args.reshard is not None and args.reshard < 1:
        raise SystemExit("error: --reshard N must be at least 1")
    sharded = args.shards > 1 or args.reshard is not None
    if sharded and args.window_kind == "count":
        raise SystemExit(
            "error: --shards > 1 / --reshard needs time windows (a count "
            "window ranks tuples over the whole stream, not a shard's "
            "subsequence)"
        )
    from repro.engine.spill import parse_memory_budget

    try:
        memory_budget = parse_memory_budget(args.memory_budget)
    except ValueError as exc:
        raise SystemExit(f"error: --memory-budget: {exc}") from None
    value_generator = None
    if sharded:
        # Sharding needs an equi-key; approximate the requested S1 with the
        # key-domain size (uniform keys match with probability 1/domain) and
        # draw the synthetic keys from that same domain.
        domain = equi_key_domain(args.s1)
        condition = EquiJoinCondition("join_key", "join_key", key_domain=domain)
        value_generator = equi_value_generator(domain)
    else:
        condition = selectivity_join(args.s1)
    data = generate_join_workload(
        rate_a=args.rate,
        rate_b=args.rate,
        duration=args.duration,
        seed=args.seed,
        value_generator=value_generator,
    )
    if sharded:
        engine = ShardedStreamEngine(
            condition,
            shards=args.shards,
            shard_mode=args.shard_mode,
            memory_budget_bytes=memory_budget,
        )
    else:
        engine = StreamEngine(
            condition,
            window_kind=args.window_kind,
            memory_budget_bytes=memory_budget,
        )
    unit = chain_class(args.window_kind).window_unit
    tuples = data.tuples
    windows = args.windows or [4.0]
    if args.window_kind == "count":
        windows = [max(1, int(window)) for window in windows]
    step = max(1, len(tuples) // (len(windows) + 1))
    admissions = {index * step: window for index, window in enumerate(windows)}
    shard_note = (
        f", {args.shards} {args.shard_mode} shard(s)" if sharded else ""
    )
    lines = [
        f"StreamEngine demo: {len(tuples)} arrivals, "
        f"{args.window_kind} windows{shard_note}",
        "",
    ]
    reshard_at = len(tuples) // 2 if args.reshard is not None else None
    for index, tup in enumerate(tuples):
        if index in admissions:
            window = admissions[index]
            ordinal = len(engine.queries()) + 1
            name = f"Q{ordinal}"
            # Every second query carries a selection so the demo exercises
            # the shared push-down recomputation (no-op when Sσ = 1).
            left_filter = (
                selectivity_filter(args.ssigma) if ordinal % 2 == 0 else None
            )
            engine.add_query(name, window, left_filter=left_filter)
            tag = "σ " if left_filter is not None else ""
            lines.append(
                f"t={tup.timestamp:7.2f}s  +{name} ({tag}window {window:g}{unit})  "
                f"boundaries={list(engine.boundaries)}"
            )
        if index == reshard_at:
            event = engine.reshard(args.reshard)
            lines.append(
                f"t={tup.timestamp:7.2f}s  {event.describe()} "
                f"(operator request (--reshard))"
            )
        engine.process(tup)
        if index % 32 == 31:  # the caller's quantum is the session's batch
            engine.flush()
    engine.flush()
    lines.append("")
    for query in engine.queries():
        tag = "σ, " if query.has_selection else ""
        lines.append(
            f"{query.name}: {tag}window {query.window:g}{unit}, admitted at arrival "
            f"{query.registered_at}, results {len(engine.results(query.name))}"
        )
    lines.append("")
    lines.append(f"final chain: {engine.describe()}")
    lines.append(
        f"state {engine.state_size()} tuples in {engine.slice_count()} slices; "
        f"migrations: {[event.kind for event in engine.stats.migrations]}"
    )
    if memory_budget is not None:
        spill_snap = engine.merged_snapshot() if sharded else engine.metrics.snapshot()
        lines.append(
            f"spill: budget {memory_budget} B"
            f"{f' ({engine.per_shard_memory_budget} B/shard)' if sharded else ''}, "
            f"{spill_snap.get('observations.spill.segments', 0):g} segments written, "
            f"{spill_snap.get('observations.spill.evictions', 0):g} row evictions, "
            f"{spill_snap.get('observations.spill.cold_reads', 0):g} cold rows read; "
            f"resident {spill_snap.get('memory.resident_bytes', 0):g} B, "
            f"spilled {spill_snap.get('memory.spilled_bytes', 0):g} B"
        )
    if args.stats:
        lines.append("")
        lines.append("engine stats:")
        stats = engine.stats
        lines.append(
            f"  arrivals {stats.arrivals}, batches {stats.batches}, "
            f"results delivered {stats.results_delivered}"
        )
        lines.append("  migration history:")
        for event in stats.migrations:
            lines.append(
                f"    arrival {event.arrival_count:>6}: {event.kind:<9} "
                f"@ {event.boundary:g} -> "
                f"boundaries {[round(b, 6) for b in event.boundaries_after]}"
            )
        if sharded and engine.reshard_events:
            lines.append("  reshard history:")
            for event in engine.reshard_events:
                lines.append(f"    {event.describe()}")
        shard_snaps = engine.shard_snapshots() if sharded else None
        snapshot = (
            engine.merged_snapshot(shard_snaps)
            if sharded
            else engine.metrics.snapshot()
        )
        lines.append(
            "  metrics snapshot (aggregated across shards):"
            if sharded
            else "  metrics snapshot:"
        )
        for key in (
            "comparisons.probe",
            "comparisons.purge",
            "comparisons.select",
            "comparisons.route",
            "comparisons.total",
            "invocations.total",
            "emitted.total",
            "ingested.total",
            "cpu_cost",
            "service_rate",
            "memory.average",
            "memory.max",
            "memory.resident_bytes",
            "memory.spilled_bytes",
            "memory.max_resident_bytes",
        ):
            lines.append(f"    {key:<20} {snapshot.get(key, 0.0):g}")
        if sharded:
            # The per-shard counters restart at every reshard, so the skew
            # shares are only meaningful together with the modulus they were
            # measured under.
            lines.append(
                f"  per-shard arrivals (measured under modulus {engine.shards}, "
                f"since the last reshard): {engine.shard_ingest_totals(shard_snaps)}"
            )
    if sharded:
        engine.close()
    return "\n".join(lines)


_COMMANDS = {
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "table": _cmd_table,
    "optimize": _cmd_optimize,
    "cost": _cmd_cost,
    "runtime": _cmd_runtime,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
