"""Plain-text rendering of the reproduced figures and tables.

The benchmark harness prints these tables so the regenerated numbers appear
directly in the pytest-benchmark output (and in ``bench_output.txt``),
mirroring the rows/series of the paper's figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.experiments.figures import FIGURES, Point
from repro.experiments.traces import TraceRow

__all__ = [
    "format_table",
    "format_points",
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


def format_points(points: Sequence[Point], figure: int, panel: str) -> str:
    """One panel of Figure 17, 18 or 19 as a text table: rate vs the figure's
    plotted quantity per strategy, and each strategy's chain length where
    the figure compares chains."""
    spec = FIGURES[figure]
    selected = [p for p in points if p.panel == panel]
    strategies = sorted({p.strategy for p in selected})
    series: dict[float, dict[str, float]] = defaultdict(dict)
    for point in selected:
        series[point.rate][point.strategy] = getattr(point, spec.plotted)
    rows = [
        [f"{rate:g}"] + [f"{series[rate].get(s, float('nan')):.{spec.digits}f}" for s in strategies]
        for rate in sorted(series)
    ]
    table = format_table(["rate (tuples/s)"] + strategies, rows)
    if not spec.shows_slices:
        return table
    slices = {p.strategy: p.slices for p in selected}
    return table + "\n(" + ", ".join(f"{s}: {slices[s]} slices" for s in strategies) + ")"


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
