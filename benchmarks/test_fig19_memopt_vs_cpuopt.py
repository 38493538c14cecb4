"""Figure 19 — Mem-Opt chain vs CPU-Opt chain service rate.

One benchmark per panel (a)-(e): 12 queries under uniform / mostly-small /
small-large window distributions, then 24 and 36 queries under small-large.
Join selectivity 0.025, no selections, rates 20-80 tuples/s.

Asserted shape (Section 7.3): for the uniform distribution the CPU-Opt chain
equals the Mem-Opt chain (no merge pays off), for skewed distributions the
CPU-Opt chain merges slices and achieves a higher service rate, and the
advantage grows with the number of queries.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, run_panel
from repro.experiments.report import format_points

RATES = (20, 40, 60, 80)
TIME_SCALE = 0.04
#: Larger query counts use fewer rate points to keep the suite fast.
PANEL_RATES = {"d": (20, 40, 60), "e": (20, 40)}


@pytest.mark.parametrize("panel", sorted(FIGURES[19].panels))
def test_fig19_memopt_vs_cpuopt(panel, benchmark, write_result):
    rates = PANEL_RATES.get(panel, RATES)
    points = benchmark.pedantic(
        run_panel,
        kwargs={"figure": 19, "panel": panel, "rates": rates, "time_scale": TIME_SCALE},
        rounds=1,
        iterations=1,
    )
    windows, query_count = FIGURES[19].panels[panel]
    # The chains the two strategies ran at the top rate.
    slices = {p.strategy: p.slices for p in points if p.rate == rates[-1]}
    shapes = {
        "mem_opt_slices": slices["state-slice-mem-opt"],
        "cpu_opt_slices": slices["state-slice-cpu-opt"],
    }
    header = (
        f"Figure 19({panel}): windows={windows}, queries={query_count}, S1=0.025, "
        f"time_scale={TIME_SCALE}\n"
        f"chain shapes: {shapes}\n"
    )
    write_result(f"fig19{panel}_memopt_vs_cpuopt", header + format_points(points, 19, panel))

    by_key = {(p.strategy, p.rate): p.service_rate for p in points}
    for rate in rates:
        mem_opt = by_key[("state-slice-mem-opt", rate)]
        cpu_opt = by_key[("state-slice-cpu-opt", rate)]
        # The CPU-Opt chain never does worse than the Mem-Opt chain.
        assert cpu_opt >= mem_opt * 0.98
    if windows != "uniform":
        # Skewed windows: slices get merged and the merged chain wins.  (For
        # the uniform distribution the paper reports no merging at its full
        # window scale; at the scaled-down windows used here the optimizer
        # may still merge, so only the ordering is asserted above.)
        assert shapes["cpu_opt_slices"] < shapes["mem_opt_slices"]
        top_rate = rates[-1]
        assert by_key[("state-slice-cpu-opt", top_rate)] > by_key[
            ("state-slice-mem-opt", top_rate)
        ]
