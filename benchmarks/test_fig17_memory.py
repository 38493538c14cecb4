"""Figure 17 — state memory of the sharing strategies vs stream rate.

One benchmark per panel (a)-(f).  Each regenerates the panel's curves
(selection pull-up, state-slice chain, selection push-down over rates
20-80 tuples/s), writes the series to ``benchmarks/results`` and asserts the
paper's claims: the state-slice chain uses the least state memory at every
rate, and memory grows with the input rate.

Windows are scaled down by the configured ``time_scale`` (see
``repro.experiments.config``); rates, selectivities and window ratios match
the paper, so the relative curves are directly comparable to the figure.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, run_panel
from repro.experiments.report import format_points

#: Rates swept per panel.  The paper uses (20, 40, 60, 80); trimming the
#: sweep keeps the full six-panel benchmark suite under a couple of minutes.
RATES = (20, 40, 60, 80)
TIME_SCALE = 0.1


@pytest.mark.parametrize("panel", sorted(FIGURES[17].panels))
def test_fig17_state_memory(panel, benchmark, write_result):
    points = benchmark.pedantic(
        run_panel,
        kwargs={"figure": 17, "panel": panel, "rates": RATES, "time_scale": TIME_SCALE},
        rounds=1,
        iterations=1,
    )
    windows, s1, s_sigma = FIGURES[17].panels[panel]
    header = (
        f"Figure 17({panel}): windows={windows}, S1={s1}, Ssigma={s_sigma}, "
        f"time_scale={TIME_SCALE}\n"
    )
    write_result(f"fig17{panel}_memory", header + format_points(points, 17, panel))

    by_key = {(p.strategy, p.rate): p.memory_tuples for p in points}
    for rate in RATES:
        state_slice = by_key[("state-slice", rate)]
        pullup = by_key[("selection-pullup", rate)]
        pushdown = by_key[("selection-pushdown", rate)]
        # The paper's headline claim: state-slice always needs the least state.
        assert state_slice <= pullup * 1.02
        assert state_slice <= pushdown * 1.02
    # Memory grows with the stream rate for every strategy.
    for strategy in ("state-slice", "selection-pullup", "selection-pushdown"):
        assert by_key[(strategy, RATES[-1])] > by_key[(strategy, RATES[0])]
    # With a selection present the saving is material (paper: 20-30%).
    if s_sigma <= 0.5:
        assert by_key[("state-slice", RATES[-1])] < 0.93 * by_key[
            ("selection-pullup", RATES[-1])
        ]
