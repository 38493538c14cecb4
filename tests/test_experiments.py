"""Tests for the experiment configurations, harness and figure/table modules."""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError
from repro.experiments.analytical import default_grid, figure_11a, figure_11b, figure_11c
from repro.experiments.chain_study import FIGURE_19_PANELS, chain_shapes
from repro.experiments.chain_study import run_panel as run_chain_panel
from repro.experiments.config import (
    FILTER_SELECTIVITIES,
    JOIN_SELECTIVITIES,
    STREAM_RATES,
    ExperimentConfig,
    default_multi_query_config,
    default_three_query_config,
)
from repro.experiments.cpu_study import FIGURE_18_PANELS
from repro.experiments.cpu_study import run_panel as run_cpu_panel
from repro.experiments.harness import (
    STRATEGIES,
    build_plan,
    compare_strategies,
    make_stream_data,
    make_workload,
    run_strategy,
)
from repro.experiments.memory_study import FIGURE_17_PANELS
from repro.experiments.memory_study import run_panel as run_memory_panel
from repro.experiments.report import (
    format_chain_points,
    format_memory_points,
    format_service_rate_points,
    format_table,
    format_trace,
)
from repro.experiments.traces import PAPER_TABLE_2, table_2_full_outputs, table_2_trace

FAST = ExperimentConfig(rate=20, time_scale=0.05, query_count=3, seed=3)


class TestExperimentConfig:
    def test_paper_constants(self):
        assert STREAM_RATES == (20, 40, 60, 80)
        assert FILTER_SELECTIVITIES == (0.2, 0.5, 0.8)
        assert JOIN_SELECTIVITIES == (0.025, 0.1, 0.4)

    def test_windows_are_scaled(self):
        config = default_three_query_config("uniform", time_scale=0.1)
        assert config.windows() == (1.0, 2.0, 3.0)
        assert config.max_window == pytest.approx(3.0)
        assert config.effective_duration() == pytest.approx(12.0)

    def test_explicit_duration_wins(self):
        config = ExperimentConfig(duration=5.0)
        assert config.effective_duration() == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(rate=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(time_scale=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration=-1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration_windows=0.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(query_count=0)

    def test_with_rate_and_label(self):
        config = FAST.with_rate(60)
        assert config.rate == 60
        assert "60" in config.label()

    def test_multi_query_defaults(self):
        config = default_multi_query_config("small-large", query_count=12)
        assert config.query_count == 12
        assert config.filter_selectivity == 1.0


class TestHarness:
    def test_make_workload_shapes(self):
        workload = make_workload(FAST)
        assert len(workload) == 3
        assert not workload[0].has_selection
        assert workload[1].has_selection

    def test_make_stream_data_rate(self):
        data = make_stream_data(FAST)
        assert data.duration == pytest.approx(FAST.effective_duration())
        assert data.count("A") > 0

    def test_build_plan_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            build_plan("bogus", make_workload(FAST), FAST)

    def test_every_registered_strategy_runs(self):
        data = make_stream_data(FAST)
        outputs = {}
        for strategy in STRATEGIES:
            result = run_strategy(strategy, FAST, data=data)
            assert result.report.metrics.total_emitted > 0
            outputs[strategy] = result.report.metrics.total_emitted
        # All strategies answer the same queries over the same data.
        assert len(set(outputs.values())) == 1

    def test_compare_strategies_shares_the_data(self):
        results = compare_strategies(FAST, ("state-slice", "selection-pullup"))
        assert set(results) == {"state-slice", "selection-pullup"}
        assert (
            results["state-slice"].report.metrics.total_emitted
            == results["selection-pullup"].report.metrics.total_emitted
        )

    def test_strategy_result_row(self):
        result = run_strategy("state-slice", FAST)
        row = result.row()
        assert row["strategy"] == "state-slice"
        assert row["rate"] == FAST.rate
        assert row["outputs"] > 0


class TestFigure11:
    def test_grid_axes_are_open_unit_interval(self):
        rho, s_sigma = default_grid(steps=5)
        assert all(0 < v < 1 for v in rho)
        assert len(rho) == len(s_sigma) == 5

    def test_figure_11a_surfaces_are_non_negative(self):
        surfaces = figure_11a(steps=5)
        assert set(surfaces) == {"vs_pullup", "vs_pushdown"}
        for points in surfaces.values():
            assert len(points) == 25
            assert all(point.value_pct >= 0 for point in points)

    def test_figure_11a_peak_memory_saving_near_50_percent(self):
        surfaces = figure_11a(steps=9)
        assert max(p.value_pct for p in surfaces["vs_pullup"]) > 40.0

    def test_figure_11b_and_c_have_three_surfaces(self):
        for figure in (figure_11b, figure_11c):
            surfaces = figure(steps=3)
            assert set(surfaces) == {0.4, 0.1, 0.025}
            for points in surfaces.values():
                assert all(point.value_pct >= 0 for point in points)

    def test_figure_11b_savings_increase_with_join_selectivity(self):
        surfaces = figure_11b(steps=5)
        mean = lambda pts: sum(p.value_pct for p in pts) / len(pts)  # noqa: E731
        assert mean(surfaces[0.4]) > mean(surfaces[0.025])


class TestTable2:
    def test_paper_rows_are_complete(self):
        assert len(PAPER_TABLE_2) == 10
        assert PAPER_TABLE_2[0].arrival == "a1"

    def test_trace_has_ten_steps(self):
        rows = table_2_trace()
        assert len(rows) == 10
        assert [row.time for row in rows] == list(range(1, 11))

    def test_trace_first_three_steps_match_paper_exactly(self):
        rows = table_2_trace()
        for index in range(3):
            assert rows[index].state_j1 == PAPER_TABLE_2[index].state_j1
            assert rows[index].queue == PAPER_TABLE_2[index].queue
            assert rows[index].state_j2 == PAPER_TABLE_2[index].state_j2

    def test_trace_states_partition_the_arrivals(self):
        rows = table_2_trace()
        final = rows[-1]
        # Every a-tuple still alive sits in exactly one place.
        everywhere = final.state_j1 + final.queue + final.state_j2
        assert len(set(everywhere)) == len(everywhere)

    def test_chain_outputs_equal_regular_one_way_join(self):
        assert table_2_full_outputs() == {
            "(a1,b1)",
            "(a2,b1)",
            "(a3,b1)",
            "(a2,b2)",
            "(a3,b2)",
        }


class TestMeasuredFigures:
    """Small-scale sanity runs of the Figure 17/18/19 harnesses."""

    def test_figure_17_panel_shape_and_ranking(self):
        points = run_memory_panel("b", rates=(20, 40), time_scale=0.05)
        assert {p.strategy for p in points} == {
            "selection-pullup",
            "state-slice",
            "selection-pushdown",
        }
        by_strategy = {
            (p.strategy, p.rate): p.memory_tuples for p in points
        }
        for rate in (20, 40):
            assert (
                by_strategy[("state-slice", rate)]
                <= by_strategy[("selection-pullup", rate)] * 1.01
            )
        # Memory grows with the input rate for every strategy.
        assert by_strategy[("state-slice", 40)] > by_strategy[("state-slice", 20)]

    def test_figure_18_panel_state_slice_competitive(self):
        points = run_cpu_panel("f", rates=(40,), time_scale=0.05)
        rates = {p.strategy: p.service_rate for p in points}
        assert rates["state-slice"] > rates["selection-pullup"]
        assert rates["state-slice"] >= rates["selection-pushdown"] * 0.95

    def test_figure_19_panel_cpu_opt_wins_on_skewed_windows(self):
        points = run_chain_panel("c", rates=(40,), time_scale=0.04)
        rates = {p.strategy: p.service_rate for p in points}
        assert rates["state-slice-cpu-opt"] >= rates["state-slice-mem-opt"]
        shapes = chain_shapes("c", rate=40, time_scale=0.04)
        assert shapes["cpu_opt_slices"] < shapes["mem_opt_slices"]

    def test_panel_tables_cover_figures(self):
        assert set(FIGURE_17_PANELS) == set("abcdef")
        assert set(FIGURE_18_PANELS) == set("abcdef")
        assert set(FIGURE_19_PANELS) == set("abcde")


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_figure_formatters_render(self):
        memory_points = run_memory_panel("a", rates=(20,), time_scale=0.05)
        assert "state-slice" in format_memory_points(memory_points, "a")
        cpu_points = run_cpu_panel("a", rates=(20,), time_scale=0.05)
        assert "rate" in format_service_rate_points(cpu_points, "a")
        chain_points = run_chain_panel("a", rates=(20,), time_scale=0.04)
        assert "slices" in format_chain_points(chain_points, "a")

    def test_format_trace(self):
        assert "Queue" in format_trace(table_2_trace())
