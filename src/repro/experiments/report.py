"""Plain-text rendering of the reproduced figures and tables.

The benchmark harness prints these tables so the regenerated numbers appear
directly in the pytest-benchmark output (and in ``bench_output.txt``),
mirroring the rows/series of the paper's figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.experiments.chain_study import ChainPoint
from repro.experiments.cpu_study import ServiceRatePoint
from repro.experiments.memory_study import MemoryPoint
from repro.experiments.traces import TraceRow

__all__ = [
    "format_table",
    "format_memory_points",
    "format_service_rate_points",
    "format_chain_points",
    "format_trace",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    materialized = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _by_rate(points: Iterable, value_attr: str) -> dict[float, dict[str, float]]:
    series: dict[float, dict[str, float]] = defaultdict(dict)
    for point in points:
        series[point.rate][point.strategy] = getattr(point, value_attr)
    return dict(sorted(series.items()))


def format_memory_points(points: Sequence[MemoryPoint], panel: str) -> str:
    """Figure 17 panel as a text table: rate vs per-strategy tuples in state."""
    selected = [p for p in points if p.panel == panel]
    strategies = sorted({p.strategy for p in selected})
    series = _by_rate(selected, "memory_tuples")
    rows = [
        [f"{rate:g}"] + [f"{series[rate].get(s, float('nan')):.1f}" for s in strategies]
        for rate in series
    ]
    return format_table(["rate (tuples/s)"] + strategies, rows)


def format_service_rate_points(points: Sequence[ServiceRatePoint], panel: str) -> str:
    """Figure 18 panel as a text table: rate vs per-strategy service rate."""
    selected = [p for p in points if p.panel == panel]
    strategies = sorted({p.strategy for p in selected})
    series = _by_rate(selected, "service_rate")
    rows = [
        [f"{rate:g}"] + [f"{series[rate].get(s, float('nan')):.5f}" for s in strategies]
        for rate in series
    ]
    return format_table(["rate (tuples/s)"] + strategies, rows)


def format_chain_points(points: Sequence[ChainPoint], panel: str) -> str:
    """Figure 19 panel as a text table: rate vs Mem-Opt / CPU-Opt service rate."""
    selected = [p for p in points if p.panel == panel]
    strategies = sorted({p.strategy for p in selected})
    series = _by_rate(selected, "service_rate")
    slice_counts = {p.strategy: p.slice_count for p in selected}
    rows = [
        [f"{rate:g}"] + [f"{series[rate].get(s, float('nan')):.5f}" for s in strategies]
        for rate in series
    ]
    table = format_table(["rate (tuples/s)"] + strategies, rows)
    shapes = ", ".join(f"{s}: {slice_counts[s]} slices" for s in strategies)
    return f"{table}\n({shapes})"


def format_trace(rows: Sequence[TraceRow]) -> str:
    """Table 2 as a text table."""
    def fmt(values: tuple[str, ...]) -> str:
        return "[" + ",".join(values) + "]"

    body = [
        [row.time, row.arrival, row.operator, fmt(row.state_j1), fmt(row.queue), fmt(row.state_j2), ",".join(row.output)]
        for row in rows
    ]
    return format_table(
        ["T", "Arr.", "OP", "A::[0,2)", "Queue", "A::[2,4)", "Output"], body
    )
