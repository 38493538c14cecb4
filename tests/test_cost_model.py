"""Tests for the analytical cost model (Equations 1-4, Figure 11)."""

from __future__ import annotations

import pytest

from repro.core.cost_model import (
    TwoQuerySettings,
    savings_grid,
    selection_pullup_cost,
    selection_pushdown_cost,
    state_slice_cost,
    state_slice_savings,
)
from repro.engine.errors import ConfigurationError


def settings(**overrides) -> TwoQuerySettings:
    base = dict(
        arrival_rate=50.0,
        window_small=60.0,
        window_large=3600.0,
        tuple_size=1.0,
        filter_selectivity=0.01,
        join_selectivity=0.1,
    )
    base.update(overrides)
    return TwoQuerySettings(**base)


class TestSettingsValidation:
    def test_windows_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            settings(window_small=100.0, window_large=50.0)

    def test_rates_and_selectivities_validated(self):
        with pytest.raises(ConfigurationError):
            settings(arrival_rate=0)
        with pytest.raises(ConfigurationError):
            settings(filter_selectivity=0)
        with pytest.raises(ConfigurationError):
            settings(join_selectivity=1.5)
        with pytest.raises(ConfigurationError):
            settings(tuple_size=0)

    def test_window_ratio(self):
        assert settings(window_small=30.0, window_large=60.0).window_ratio == pytest.approx(0.5)


class TestEquationTerms:
    def test_pullup_memory_is_twice_large_window(self):
        s = settings()
        estimate = selection_pullup_cost(s)
        assert estimate.memory == pytest.approx(2 * 50.0 * 3600.0)

    def test_pullup_cpu_terms_match_equation_1(self):
        s = settings(arrival_rate=10, window_small=1, window_large=4, join_selectivity=0.5)
        estimate = selection_pullup_cost(s)
        lam, w2, s1 = 10, 4, 0.5
        assert estimate.cpu_terms == pytest.approx(
            (2 * lam * lam * w2, 2 * lam, 2 * lam * lam * w2 * s1, 2 * lam * lam * w2 * s1)
        )

    def test_pushdown_memory_terms_match_equation_2(self):
        s = settings(arrival_rate=10, window_small=1, window_large=4, filter_selectivity=0.25)
        estimate = selection_pushdown_cost(s)
        lam, w1, w2, ssig = 10, 1, 4, 0.25
        assert estimate.memory_terms == pytest.approx(
            ((2 - ssig) * lam * w1, (1 + ssig) * lam * w2)
        )

    def test_state_slice_memory_terms_match_equation_3(self):
        s = settings(arrival_rate=10, window_small=1, window_large=4, filter_selectivity=0.25)
        estimate = state_slice_cost(s)
        lam, w1, w2, ssig = 10, 1, 4, 0.25
        assert estimate.memory_terms == pytest.approx(
            (2 * lam * w1, (1 + ssig) * lam * (w2 - w1))
        )

    def test_state_slice_memory_with_no_selection_equals_pullup(self):
        s = settings(filter_selectivity=1.0)
        assert state_slice_cost(s).memory == pytest.approx(selection_pullup_cost(s).memory)

    def test_tuple_size_scales_memory_only(self):
        small = selection_pullup_cost(settings(tuple_size=1.0))
        large = selection_pullup_cost(settings(tuple_size=2.0))
        assert large.memory == pytest.approx(2 * small.memory)
        assert large.cpu == pytest.approx(small.cpu)


class TestEquation4Savings:
    def test_closed_forms_match_direct_ratios(self):
        for rho in (0.1, 0.3, 0.7, 0.9):
            for s_sigma in (0.05, 0.4, 0.9):
                for s1 in (0.025, 0.1, 0.4):
                    s = settings(
                        window_small=rho * 100.0,
                        window_large=100.0,
                        filter_selectivity=s_sigma,
                        join_selectivity=s1,
                    )
                    savings = state_slice_savings(s)
                    pullup = selection_pullup_cost(s)
                    pushdown = selection_pushdown_cost(s)
                    sliced = state_slice_cost(s)
                    assert savings.memory_vs_pullup == pytest.approx(
                        (pullup.memory - sliced.memory) / pullup.memory, rel=1e-9
                    )
                    assert savings.memory_vs_pushdown == pytest.approx(
                        (pushdown.memory - sliced.memory) / pushdown.memory, rel=1e-9
                    )

    def test_cpu_savings_closed_forms_track_direct_ratios(self):
        # The paper drops the λ-order terms from the CPU ratios (it notes the
        # effect of λ is small for two queries); the closed forms must agree
        # with the direct ratios to within that approximation.
        s = settings(
            arrival_rate=200.0,
            window_small=30.0,
            window_large=90.0,
            filter_selectivity=0.3,
            join_selectivity=0.1,
        )
        savings = state_slice_savings(s)
        pullup = selection_pullup_cost(s)
        pushdown = selection_pushdown_cost(s)
        sliced = state_slice_cost(s)
        assert savings.cpu_vs_pullup == pytest.approx(
            (pullup.cpu - sliced.cpu) / pullup.cpu, abs=0.02
        )
        assert savings.cpu_vs_pushdown == pytest.approx(
            (pushdown.cpu - sliced.cpu) / pushdown.cpu, abs=0.02
        )

    def test_savings_are_always_non_negative(self):
        for rho in (0.05, 0.25, 0.5, 0.75, 0.95):
            for s_sigma in (0.05, 0.5, 0.95, 1.0):
                for s1 in (0.025, 0.1, 0.4):
                    s = settings(
                        window_small=rho * 100.0,
                        window_large=100.0,
                        filter_selectivity=s_sigma,
                        join_selectivity=s1,
                    )
                    savings = state_slice_savings(s)
                    assert savings.memory_vs_pullup >= -1e-12
                    assert savings.memory_vs_pushdown >= -1e-12
                    assert savings.cpu_vs_pullup >= -1e-12
                    assert savings.cpu_vs_pushdown >= -1e-12

    def test_no_selection_base_case(self):
        """With Sσ = 1 the memory saving vs pull-up vanishes (paper Section 4.3)."""
        s = settings(filter_selectivity=1.0, join_selectivity=0.1)
        savings = state_slice_savings(s)
        assert savings.memory_vs_pullup == pytest.approx(0.0)
        assert savings.cpu_vs_pullup > 0.0

    def test_extreme_settings_reach_the_paper_magnitudes(self):
        """Memory savings approach ~50% and CPU savings approach ~100%."""
        s = settings(window_small=1.0, window_large=1000.0, filter_selectivity=0.01,
                     join_selectivity=0.4)
        savings = state_slice_savings(s)
        assert savings.memory_vs_pullup > 0.45
        assert savings.cpu_vs_pullup > 0.75


class TestFigure11Grids:
    def test_savings_grid_shape_and_keys(self):
        rows = savings_grid((0.25, 0.5), (0.2, 0.8), join_selectivity=0.1)
        assert len(rows) == 4
        for row in rows:
            assert set(row) >= {
                "rho",
                "filter_selectivity",
                "memory_saving_vs_pullup_pct",
                "cpu_saving_vs_pushdown_pct",
            }
            assert row["memory_saving_vs_pullup_pct"] >= 0

    def test_memory_saving_grows_as_rho_and_ssigma_shrink(self):
        rows = savings_grid((0.1, 0.9), (0.1, 0.9))
        by_point = {
            (row["rho"], row["filter_selectivity"]): row["memory_saving_vs_pullup_pct"]
            for row in rows
        }
        assert by_point[(0.1, 0.1)] > by_point[(0.9, 0.9)]

    def test_cpu_saving_vs_pullup_grows_with_join_selectivity(self):
        # With Sσ -> 1 the CPU saving vs pull-up is driven purely by S1.
        high, low = (
            savings_grid((0.5,), (1.0 - 1e-9,), join_selectivity=s1)[0]
            for s1 in (0.4, 0.025)
        )
        assert high["cpu_saving_vs_pullup_pct"] > low["cpu_saving_vs_pullup_pct"]

