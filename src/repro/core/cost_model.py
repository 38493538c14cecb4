"""Analytical cost model (Section 3 and 4.3 of the paper).

For the two-query running example — Q1 = A[W1] ⋈ B[W1] and
Q2 = σ(A[W2]) ⋈ B[W2] with W1 < W2 — the paper derives closed-form state
memory (``Cm``) and CPU (``Cp``) costs of the three sharing strategies:

* Equation 1 — naive sharing with selection pull-up;
* Equation 2 — stream partition with selection push-down;
* Equation 3 — the state-slice chain;
* Equation 4 — the relative savings of state-slicing over the other two,
  which Figure 11 plots over the (ρ = W1/W2, Sσ) plane.

The functions here reproduce those formulas exactly (same term order as the
paper so each component can be inspected), and provide the grids used to
regenerate Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.engine.errors import ConfigurationError

__all__ = [
    "TwoQuerySettings",
    "CostEstimate",
    "selection_pullup_cost",
    "selection_pushdown_cost",
    "state_slice_cost",
    "Savings",
    "state_slice_savings",
    "savings_grid",
]


@dataclass(frozen=True)
class TwoQuerySettings:
    """System settings of Table 1 for the two-query analysis.

    Parameters
    ----------
    arrival_rate:
        λ, tuples per second on each input stream (the paper sets
        λA = λB = λ for the analysis).
    window_small / window_large:
        W1 and W2 in seconds, with 0 < W1 < W2.
    tuple_size:
        Mt, tuple size in KB (only scales the memory figures).
    filter_selectivity:
        Sσ, selectivity of the selection σA of Q2.
    join_selectivity:
        S1, join selectivity (output / Cartesian product).
    """

    arrival_rate: float
    window_small: float
    window_large: float
    tuple_size: float = 1.0
    filter_selectivity: float = 0.5
    join_selectivity: float = 0.1

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 0 < self.window_small < self.window_large:
            raise ConfigurationError(
                "windows must satisfy 0 < window_small < window_large; got "
                f"{self.window_small}, {self.window_large}"
            )
        if self.tuple_size <= 0:
            raise ConfigurationError("tuple_size must be positive")
        if not 0 < self.filter_selectivity <= 1:
            raise ConfigurationError("filter_selectivity must lie in (0, 1]")
        if not 0 < self.join_selectivity <= 1:
            raise ConfigurationError("join_selectivity must lie in (0, 1]")

    @property
    def window_ratio(self) -> float:
        """ρ = W1 / W2 ∈ (0, 1)."""
        return self.window_small / self.window_large


@dataclass(frozen=True)
class CostEstimate:
    """State memory (KB) and CPU (comparisons per second) of one strategy."""

    strategy: str
    memory: float
    cpu: float
    memory_terms: tuple[float, ...] = ()
    cpu_terms: tuple[float, ...] = ()


def selection_pullup_cost(settings: TwoQuerySettings) -> CostEstimate:
    """Equation 1 — naive sharing with selection pull-up (Figure 3).

    One join with the large window W2 feeds a router that dispatches each
    joined result by timestamp and applies Q2's selection above the join.
    """
    lam = settings.arrival_rate
    w2 = settings.window_large
    mt = settings.tuple_size
    s1 = settings.join_selectivity

    memory_terms = (2 * lam * w2 * mt,)
    cpu_terms = (
        2 * lam * lam * w2,        # join probing
        2 * lam,                   # cross-purge
        2 * lam * lam * w2 * s1,   # routing (per joined result)
        2 * lam * lam * w2 * s1,   # selection above the join (per joined result)
    )
    return CostEstimate(
        strategy="selection-pullup",
        memory=sum(memory_terms),
        cpu=sum(cpu_terms),
        memory_terms=memory_terms,
        cpu_terms=cpu_terms,
    )


def selection_pushdown_cost(settings: TwoQuerySettings) -> CostEstimate:
    """Equation 2 — stream partition with selection push-down (Figure 4).

    Stream A is split by Q2's predicate; two joins (windows W1 and W2) run
    on the disjoint partitions; a router plus an order-preserving union
    reassemble the per-query answers.
    """
    lam = settings.arrival_rate
    w1 = settings.window_small
    w2 = settings.window_large
    mt = settings.tuple_size
    s_sigma = settings.filter_selectivity
    s1 = settings.join_selectivity

    memory_terms = (
        (2 - s_sigma) * lam * w1 * mt,   # state of join 1 (A tuples failing σ + B)
        (1 + s_sigma) * lam * w2 * mt,   # state of join 2 (A tuples passing σ + B)
    )
    cpu_terms = (
        lam,                                   # splitting stream A
        2 * (1 - s_sigma) * lam * lam * w1,    # probing in join 1
        2 * s_sigma * lam * lam * w2,          # probing in join 2
        3 * lam,                               # cross-purge
        2 * s_sigma * lam * lam * w2 * s1,     # routing of join-2 results
        2 * lam * lam * w1 * s1,               # union of Q1 results
    )
    return CostEstimate(
        strategy="selection-pushdown",
        memory=sum(memory_terms),
        cpu=sum(cpu_terms),
        memory_terms=memory_terms,
        cpu_terms=cpu_terms,
    )


def state_slice_cost(settings: TwoQuerySettings) -> CostEstimate:
    """Equation 3 — the state-slice chain (Figure 10).

    A chain of two sliced joins [0, W1) and [W1, W2); Q2's selection is
    pushed between the slices (σA) and applied to slice-1 results (σ'A);
    no router is needed because the route is fixed by the plan shape.
    """
    lam = settings.arrival_rate
    w1 = settings.window_small
    w2 = settings.window_large
    mt = settings.tuple_size
    s_sigma = settings.filter_selectivity
    s1 = settings.join_selectivity

    memory_terms = (
        2 * lam * w1 * mt,                       # slice [0, W1): both streams
        (1 + s_sigma) * lam * (w2 - w1) * mt,    # slice [W1, W2): σ(A) + B
    )
    cpu_terms = (
        2 * lam * lam * w1,                      # probing in slice 1
        lam,                                     # filter σA between the slices
        2 * lam * lam * s_sigma * (w2 - w1),     # probing in slice 2
        4 * lam,                                 # cross-purge (two slices)
        2 * lam,                                 # union (punctuation-driven merge)
        2 * lam * lam * s1 * w1,                 # filter σ'A on slice-1 results for Q2
    )
    return CostEstimate(
        strategy="state-slice",
        memory=sum(memory_terms),
        cpu=sum(cpu_terms),
        memory_terms=memory_terms,
        cpu_terms=cpu_terms,
    )


@dataclass(frozen=True)
class Savings:
    """Relative savings of state-slicing (Equation 4)."""

    memory_vs_pullup: float
    memory_vs_pushdown: float
    cpu_vs_pullup: float
    cpu_vs_pushdown: float


def state_slice_savings(settings: TwoQuerySettings) -> Savings:
    """Equation 4 — closed-form savings ratios of state-slicing.

    The paper expresses the savings in terms of ρ = W1/W2, Sσ and S1 (λ is
    omitted because its effect is negligible for two queries); the closed
    forms below are the paper's, and they agree with recomputing the ratios
    from Equations 1-3 directly (a property test checks this).
    """
    rho = settings.window_ratio
    s_sigma = settings.filter_selectivity
    s1 = settings.join_selectivity

    memory_vs_pullup = (1 - rho) * (1 - s_sigma) / 2
    memory_vs_pushdown = rho / (1 + 2 * rho + (1 - rho) * s_sigma)
    cpu_vs_pullup = ((1 - rho) * (1 - s_sigma) + (2 - rho) * s1) / (1 + 2 * s1)
    cpu_vs_pushdown = (s_sigma * s1) / (
        rho * (1 - s_sigma) + s_sigma + s_sigma * s1 + rho * s1
    )
    return Savings(
        memory_vs_pullup=memory_vs_pullup,
        memory_vs_pushdown=memory_vs_pushdown,
        cpu_vs_pullup=cpu_vs_pullup,
        cpu_vs_pushdown=cpu_vs_pushdown,
    )


def _grid_settings(
    rho: float,
    s_sigma: float,
    s1: float,
    arrival_rate: float,
    window_large: float,
) -> TwoQuerySettings:
    return TwoQuerySettings(
        arrival_rate=arrival_rate,
        window_small=rho * window_large,
        window_large=window_large,
        filter_selectivity=s_sigma,
        join_selectivity=s1,
    )


def savings_grid(
    rho_values: Iterable[float],
    s_sigma_values: Iterable[float],
    join_selectivity: float = 0.1,
    arrival_rate: float = 50.0,
    window_large: float = 60.0,
) -> list[dict[str, float]]:
    """Savings at every (ρ, Sσ) grid point — the data behind Figure 11.

    Returns one row per grid point with the four savings ratios expressed in
    percent, matching the figure's axes.
    """
    rows = []
    for rho in rho_values:
        for s_sigma in s_sigma_values:
            settings = _grid_settings(
                rho, s_sigma, join_selectivity, arrival_rate, window_large
            )
            savings = state_slice_savings(settings)
            rows.append(
                {
                    "rho": rho,
                    "filter_selectivity": s_sigma,
                    "join_selectivity": join_selectivity,
                    "memory_saving_vs_pullup_pct": 100 * savings.memory_vs_pullup,
                    "memory_saving_vs_pushdown_pct": 100 * savings.memory_vs_pushdown,
                    "cpu_saving_vs_pullup_pct": 100 * savings.cpu_vs_pullup,
                    "cpu_saving_vs_pushdown_pct": 100 * savings.cpu_vs_pushdown,
                }
            )
    return rows
