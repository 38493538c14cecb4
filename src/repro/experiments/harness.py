"""Experiment harness: run a workload under every sharing strategy.

:func:`run_strategy` executes one (strategy, configuration) pair and returns
the :class:`~repro.engine.metrics.RunReport`; :func:`compare_strategies`
runs several strategies over the *same* generated stream data so the
comparisons of Figures 17-19 are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.baselines.unshared import build_unshared_plan
from repro.core.cpu_opt import build_cpu_opt_chain
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.merge_graph import ChainCostParameters
from repro.core.plan_builder import build_state_slice_plan
from repro.engine.errors import ConfigurationError
from repro.engine.executor import execute_plan
from repro.engine.metrics import RunReport
from repro.engine.plan import QueryPlan
from repro.experiments.config import ExperimentConfig
from repro.operators.sliced_join import SlicedJoinBase
from repro.query.query import QueryWorkload
from repro.query.workload import build_workload
from repro.streams.generators import TwoStreamWorkload, generate_join_workload

__all__ = [
    "STRATEGIES",
    "StrategyResult",
    "chain_parameters",
    "make_workload",
    "make_stream_data",
    "build_plan",
    "run_strategy",
    "compare_strategies",
]


def chain_parameters(
    workload: QueryWorkload, config: ExperimentConfig
) -> ChainCostParameters:
    """The chain cost-model parameters implied by an experiment config.

    Everything is declared by the configuration: configured arrival
    rates and the configured ``Csys``.
    """
    return ChainCostParameters(
        arrival_rate_left=config.rate,
        arrival_rate_right=config.rate,
        system_overhead=config.system_overhead,
    )


def _state_slice_mem_opt(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    chain = build_mem_opt_chain(workload)
    return build_state_slice_plan(
        workload, chain=chain, plan_name="state-slice-mem-opt"
    )


def _state_slice_cpu_opt(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    chain = build_cpu_opt_chain(workload, chain_parameters(workload, config))
    return build_state_slice_plan(
        workload, chain=chain, plan_name="state-slice-cpu-opt"
    )


def _pullup(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_pullup_plan(workload)


def _pushdown(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_pushdown_plan(workload)


def _unshared(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_unshared_plan(workload)


#: Registry of named strategies usable by the harness and benchmarks.
STRATEGIES: dict[str, Callable[[QueryWorkload, ExperimentConfig], QueryPlan]] = {
    "state-slice": _state_slice_mem_opt,
    "state-slice-mem-opt": _state_slice_mem_opt,
    "state-slice-cpu-opt": _state_slice_cpu_opt,
    "selection-pullup": _pullup,
    "selection-pushdown": _pushdown,
    "unshared": _unshared,
}


@dataclass
class StrategyResult:
    """Per-strategy measurements for one experiment configuration."""

    strategy: str
    config: ExperimentConfig
    report: RunReport
    #: Slices of the chain the strategy's plan ran (0 for a plan without one).
    slices: int

    @property
    def memory(self) -> float:
        return self.report.steady_state_memory

    @property
    def cpu_cost(self) -> float:
        return self.report.cpu_cost

    @property
    def service_rate(self) -> float:
        return self.report.service_rate

    @property
    def output_count(self) -> int:
        return self.report.metrics.total_emitted


def make_workload(config: ExperimentConfig) -> QueryWorkload:
    """Build the query workload described by an experiment configuration.

    Matches Section 7.2: the smallest-window query carries no selection, the
    remaining queries carry the σ(A) selection with the configured
    selectivity.  When ``filter_selectivity`` is 1 no query has a selection
    (the Section 7.3 setting).  Window sizes come pre-scaled from the
    configuration (see :mod:`repro.experiments.config`).
    """
    windows = config.windows()
    selectivities = [1.0] + [config.filter_selectivity] * (len(windows) - 1)
    return build_workload(
        windows,
        join_selectivity=config.join_selectivity,
        filter_selectivities=selectivities,
    )


def make_stream_data(config: ExperimentConfig) -> TwoStreamWorkload:
    """Generate the synthetic two-stream input for a configuration."""
    return generate_join_workload(
        rate_a=config.rate,
        rate_b=config.rate,
        duration=config.effective_duration(),
        seed=config.seed,
    )


def build_plan(strategy: str, workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGIES)}"
        )
    return STRATEGIES[strategy](workload, config)


def run_strategy(
    strategy: str,
    config: ExperimentConfig,
    data: TwoStreamWorkload | None = None,
    retain_results: bool = False,
) -> StrategyResult:
    """Run one strategy for one configuration and return its measurements."""
    workload = make_workload(config)
    data = data or make_stream_data(config)
    plan = build_plan(strategy, workload, config)
    report = execute_plan(
        plan,
        data.tuples,
        strategy=strategy,
        system_overhead=config.system_overhead,
        memory_sample_interval=config.memory_sample_interval,
        retain_results=retain_results,
    )
    slices = sum(isinstance(operator, SlicedJoinBase) for operator in plan)
    return StrategyResult(strategy, config, report, slices)


def compare_strategies(
    config: ExperimentConfig,
    strategies: Sequence[str] = ("selection-pullup", "state-slice", "selection-pushdown"),
    retain_results: bool = False,
) -> dict[str, StrategyResult]:
    """Run several strategies over the same generated stream data."""
    data = make_stream_data(config)
    results = {}
    for strategy in strategies:
        results[strategy] = run_strategy(
            strategy, config, data=data, retain_results=retain_results
        )
    return results
