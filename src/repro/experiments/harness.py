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
from repro.operators.sliced_join import resolve_probe
from repro.query.predicates import EquiJoinCondition
from repro.query.query import QueryWorkload
from repro.query.workload import build_workload
from repro.streams.generators import (
    TwoStreamWorkload,
    equi_key_domain,
    equi_value_generator,
    generate_join_workload,
)

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


def _uses_hash(workload: QueryWorkload, config: ExperimentConfig) -> bool:
    return resolve_probe(config.probe, workload.join_condition) == "hash"


def _join_algorithm(workload: QueryWorkload, config: ExperimentConfig) -> str:
    return "hash" if _uses_hash(workload, config) else "nested_loop"


def chain_parameters(
    workload: QueryWorkload, config: ExperimentConfig
) -> ChainCostParameters:
    """The chain cost-model parameters implied by an experiment config.

    Everything is declared by the configuration: configured arrival
    rates, the configured ``Csys``, and a probe term matching how the built
    plans will actually probe (``hash_probe`` whenever the configuration
    resolves to hash probing), so the CPU-Opt search prices the same
    execution the run performs.
    """
    return ChainCostParameters(
        arrival_rate_left=config.rate,
        arrival_rate_right=config.rate,
        system_overhead=config.system_overhead,
        hash_probe=_uses_hash(workload, config),
    )


def _state_slice_mem_opt(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    chain = build_mem_opt_chain(workload)
    return build_state_slice_plan(
        workload, chain=chain, plan_name="state-slice-mem-opt", probe=config.probe
    )


def _state_slice_cpu_opt(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    chain = build_cpu_opt_chain(workload, chain_parameters(workload, config))
    return build_state_slice_plan(
        workload, chain=chain, plan_name="state-slice-cpu-opt", probe=config.probe
    )


def _pullup(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_pullup_plan(workload, algorithm=_join_algorithm(workload, config))


def _pushdown(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_pushdown_plan(workload, algorithm=_join_algorithm(workload, config))


def _unshared(workload: QueryWorkload, config: ExperimentConfig) -> QueryPlan:
    return build_unshared_plan(workload, algorithm=_join_algorithm(workload, config))


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

    def row(self) -> dict[str, float | str]:
        return {
            "strategy": self.strategy,
            "rate": self.config.rate,
            "windows": self.config.window_distribution,
            "queries": self.config.query_count,
            "S1": self.config.join_selectivity,
            "Ssigma": self.config.filter_selectivity,
            "memory_tuples": round(self.memory, 1),
            "cpu_comparisons": round(self.cpu_cost, 1),
            "service_rate": round(self.service_rate, 6),
            "outputs": self.output_count,
        }


def make_workload(config: ExperimentConfig) -> QueryWorkload:
    """Build the query workload described by an experiment configuration.

    Matches Section 7.2: the smallest-window query carries no selection, the
    remaining queries carry the σ(A) selection with the configured
    selectivity.  When ``filter_selectivity`` is 1 no query has a selection
    (the Section 7.3 setting).  Window sizes come pre-scaled from the
    configuration (see :mod:`repro.experiments.config`).

    With ``probe="hash"`` (or ``"auto"``) the join condition is an equi-join
    on the synthetic key — hash probing needs an equi-key — whose domain
    size approximates the requested S1 (uniform keys match with probability
    ``1/domain``).
    """
    windows = config.windows()
    selectivities = [1.0] + [config.filter_selectivity] * (len(windows) - 1)
    join_condition = None
    if config.probe in ("hash", "auto"):
        join_condition = EquiJoinCondition(
            "join_key",
            "join_key",
            key_domain=equi_key_domain(config.join_selectivity),
        )
    return build_workload(
        windows,
        join_selectivity=config.join_selectivity,
        filter_selectivities=selectivities,
        join_condition=join_condition,
    )


def make_stream_data(config: ExperimentConfig) -> TwoStreamWorkload:
    """Generate the synthetic two-stream input for a configuration.

    For hash-probing configurations the synthetic key is drawn from the same
    domain the equi-join condition declares, so the executed join
    selectivity matches the S1 the optimizer prices with.
    """
    value_generator = None
    if config.probe in ("hash", "auto"):
        value_generator = equi_value_generator(
            equi_key_domain(config.join_selectivity)
        )
    return generate_join_workload(
        rate_a=config.rate,
        rate_b=config.rate,
        duration=config.effective_duration(),
        seed=config.seed,
        value_generator=value_generator,
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
    return StrategyResult(strategy=strategy, config=config, report=report)


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
