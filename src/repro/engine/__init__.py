"""DSMS micro-kernel: operators, plans, the executor and cost accounting."""

from repro.engine.errors import (
    ChainError,
    ConfigurationError,
    ExecutionError,
    MigrationError,
    PlanError,
    QueryError,
    ReproError,
)
from repro.engine.executor import ImmediateExecutor, execute_plan
from repro.engine.metrics import CostCategory, MetricsCollector, RunReport, StateMemorySample
from repro.engine.operator import Operator, PassThrough
from repro.engine.plan import Edge, Entry, Output, QueryPlan

__all__ = [
    "ReproError",
    "PlanError",
    "QueryError",
    "ExecutionError",
    "ChainError",
    "MigrationError",
    "ConfigurationError",
    "ImmediateExecutor",
    "execute_plan",
    "CostCategory",
    "MetricsCollector",
    "RunReport",
    "StateMemorySample",
    "Operator",
    "PassThrough",
    "Edge",
    "Entry",
    "Output",
    "QueryPlan",
]
