"""Integration tests: every sharing strategy over the same stream must produce
identical per-query answers, and the resource rankings claimed by the paper
must hold on measured runs."""

from __future__ import annotations

import pytest

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.baselines.unshared import build_unshared_plan
from repro.core.mem_opt import build_mem_opt_chain
from repro.core.plan_builder import build_state_slice_plan
from repro.engine.executor import execute_plan
from repro.operators.join import SlidingWindowJoin
from repro.query.workload import build_workload
from repro.streams.generators import generate_join_workload
from tests.conftest import result_keys


WORKLOAD = build_workload(
    [0.6, 1.2, 2.4], join_selectivity=0.15, filter_selectivities=[1.0, 0.5, 0.5]
)
DATA = generate_join_workload(rate_a=25, rate_b=25, duration=8.0, seed=41)

BUILDERS = {
    "state-slice": lambda: build_state_slice_plan(WORKLOAD),
    "selection-pullup": lambda: build_pullup_plan(WORKLOAD),
    "selection-pushdown": lambda: build_pushdown_plan(WORKLOAD),
    "unshared": lambda: build_unshared_plan(WORKLOAD),
}


@pytest.fixture(scope="module")
def reports():
    return {
        name: execute_plan(builder(), DATA.tuples, strategy=name, system_overhead=0.5)
        for name, builder in BUILDERS.items()
    }


class TestAnswerEquivalence:
    def test_all_strategies_agree_per_query(self, reports):
        expected = result_keys(reports["unshared"].results)
        for name, report in reports.items():
            assert result_keys(report.results) == expected, name

    def test_every_query_produces_results(self, reports):
        counts = reports["state-slice"].output_counts()
        assert all(count > 0 for count in counts.values())

    def test_larger_windows_produce_supersets(self, reports):
        # Q2 and Q3 share the same selection, so the larger window strictly
        # extends the smaller one's answer (Q1 has no selection and is not
        # comparable).
        keys = result_keys(reports["state-slice"].results)
        assert set(keys["Q2"]) <= set(keys["Q3"])


class TestResourceRankings:
    def test_state_slice_has_lowest_state_memory(self, reports):
        state_slice = reports["state-slice"].steady_state_memory
        for name in ("selection-pullup", "selection-pushdown", "unshared"):
            assert state_slice <= reports[name].steady_state_memory * 1.01, name

    def test_state_slice_beats_pullup_on_cpu(self, reports):
        assert reports["state-slice"].cpu_cost < reports["selection-pullup"].cpu_cost

    def test_sharing_beats_unshared_on_memory(self, reports):
        assert reports["state-slice"].steady_state_memory < (
            reports["unshared"].steady_state_memory
        )

    def test_theorem_3_chain_state_equals_single_largest_join(self):
        """Measured Mem-Opt chain state == state of one join with the largest window."""
        chain_plan = build_state_slice_plan(
            build_workload([0.6, 1.2, 2.4], join_selectivity=0.15),
            chain=build_mem_opt_chain(build_workload([0.6, 1.2, 2.4], join_selectivity=0.15)),
        )
        single = SlidingWindowJoin(2.4, 2.4, WORKLOAD.join_condition, name="single")
        chain_report = execute_plan(chain_plan, DATA.tuples)
        for tup in DATA.tuples:
            port = "left" if tup.stream == "A" else "right"
            single.process(tup, port)
        # Compare the final-state occupancy: the chain distributes exactly the
        # same tuples across its slices (no selections in this workload).
        chain_state = sum(
            op.state_size()
            for op in chain_plan.operators.values()
            if hasattr(op, "slice")
        )
        assert chain_state == single.state_size()
        assert chain_report.total_output > 0

    def test_service_rate_positive_for_all(self, reports):
        for name, report in reports.items():
            assert report.service_rate > 0, name
