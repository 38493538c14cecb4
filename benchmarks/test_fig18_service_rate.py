"""Figure 18 — service rate of the sharing strategies vs stream rate.

One benchmark per panel (a)-(f).  Service rate is output tuples per unit of
simulated CPU cost (comparisons plus per-operator overhead), the
deterministic analogue of the paper's throughput-per-second metric.  The
asserted shape follows the paper: the state-slice chain clearly beats the
selection pull-up everywhere, matches or beats the selection push-down, and
its advantage grows with the stream rate and with the join selectivity.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, run_panel
from repro.experiments.report import format_points

RATES = (20, 40, 60, 80)
TIME_SCALE = 0.1


@pytest.mark.parametrize("panel", sorted(FIGURES[18].panels))
def test_fig18_service_rate(panel, benchmark, write_result):
    points = benchmark.pedantic(
        run_panel,
        kwargs={"figure": 18, "panel": panel, "rates": RATES, "time_scale": TIME_SCALE},
        rounds=1,
        iterations=1,
    )
    windows, s1, s_sigma = FIGURES[18].panels[panel]
    header = (
        f"Figure 18({panel}): windows={windows}, S1={s1}, Ssigma={s_sigma}, "
        f"time_scale={TIME_SCALE}\n"
    )
    write_result(
        f"fig18{panel}_service_rate", header + format_points(points, 18, panel)
    )

    by_key = {(p.strategy, p.rate): p.service_rate for p in points}
    for rate in RATES:
        state_slice = by_key[("state-slice", rate)]
        pullup = by_key[("selection-pullup", rate)]
        pushdown = by_key[("selection-pushdown", rate)]
        # State-slice clearly dominates the naive pull-up sharing.
        assert state_slice > pullup
        # And stays competitive with selection push-down even at the lowest
        # rate, where the paper's own Equation 4 predicts a near-tie (the
        # advantage is proportional to Sσ·S1).
        assert state_slice >= pushdown * 0.85
    # At the highest rate state-slice matches or beats push-down.
    assert by_key[("state-slice", RATES[-1])] >= by_key[
        ("selection-pushdown", RATES[-1])
    ] * 0.97
    # The advantage over push-down grows with the input rate (paper: the
    # routing cost grows quadratically, the extra purging only linearly).
    relative = [
        by_key[("state-slice", rate)] / by_key[("selection-pushdown", rate)]
        for rate in RATES
    ]
    assert relative[-1] >= relative[0] - 1e-9
    # At high join selectivity the improvement is large (paper: up to ~40%).
    if s1 >= 0.4:
        assert by_key[("state-slice", RATES[-1])] > 1.15 * by_key[
            ("selection-pushdown", RATES[-1])
        ]
