"""repro — reproduction of "State-Slice: New Paradigm of Multi-query
Optimization of Window-based Stream Queries" (Wang et al., VLDB 2006).

The package is organised in layers:

* :mod:`repro.streams` — tuple model and synthetic stream generators;
* :mod:`repro.engine` — the DSMS micro-kernel (operators, plans, the one
  synchronous executor, cost accounting);
* :mod:`repro.operators` — stream operators, including the sliced window
  joins that are the paper's core construct;
* :mod:`repro.query` — continuous queries, predicates, windows and workload
  generation;
* :mod:`repro.core` — the state-slice sharing paradigm: chain
  specifications, the Mem-Opt and CPU-Opt chain builders, selection
  push-down, online migration and the analytical cost model;
* :mod:`repro.baselines` — the sharing strategies of the literature that
  the paper compares against;
* :mod:`repro.runtime` — the live session layer: a :class:`StreamEngine`
  owns a shared chain and admits/removes queries while the stream runs,
  migrating slice boundaries online (Section 5.3);
* :mod:`repro.experiments` — the harness regenerating every figure and
  table of the paper's evaluation.

Quick start::

    from repro import three_query_workload, build_state_slice_plan, execute_plan
    from repro import generate_join_workload

    queries = three_query_workload("uniform", join_selectivity=0.1,
                                   filter_selectivity=0.5)
    plan = build_state_slice_plan(queries)
    data = generate_join_workload(rate_a=40, rate_b=40, duration=10, seed=7)
    report = execute_plan(plan, data.tuples, strategy="state-slice")
    print(report.summary())
"""

from repro.baselines import build_pullup_plan, build_pushdown_plan, build_unshared_plan
from repro.core import (
    ChainCostParameters,
    ChainSpec,
    SlicedJoinChain,
    SliceSpec,
    TwoQuerySettings,
    build_cpu_opt_chain,
    build_mem_opt_chain,
    build_state_slice_plan,
    selection_pullup_cost,
    selection_pushdown_cost,
    state_slice_cost,
    state_slice_savings,
)
from repro.engine import (
    ImmediateExecutor,
    MetricsCollector,
    QueryPlan,
    RunReport,
    execute_plan,
)
from repro.query import (
    ContinuousQuery,
    QueryWorkload,
    build_workload,
    multi_query_workload,
    selectivity_filter,
    selectivity_join,
    three_query_workload,
)
from repro.runtime import (
    RegisteredQuery,
    ReshardEvent,
    ShardedStreamEngine,
    StreamEngine,
    shard_for_key,
)
from repro.streams import StreamTuple, generate_join_workload, make_tuple

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "build_pullup_plan",
    "build_pushdown_plan",
    "build_unshared_plan",
    "ChainCostParameters",
    "ChainSpec",
    "SliceSpec",
    "SlicedJoinChain",
    "TwoQuerySettings",
    "build_cpu_opt_chain",
    "build_mem_opt_chain",
    "build_state_slice_plan",
    "selection_pullup_cost",
    "selection_pushdown_cost",
    "state_slice_cost",
    "state_slice_savings",
    "ImmediateExecutor",
    "MetricsCollector",
    "QueryPlan",
    "RunReport",
    "execute_plan",
    "ContinuousQuery",
    "QueryWorkload",
    "RegisteredQuery",
    "ReshardEvent",
    "ShardedStreamEngine",
    "StreamEngine",
    "shard_for_key",
    "build_workload",
    "multi_query_workload",
    "three_query_workload",
    "selectivity_filter",
    "selectivity_join",
    "StreamTuple",
    "make_tuple",
    "generate_join_workload",
]
