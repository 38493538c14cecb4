"""Batched execution must be indistinguishable from per-tuple execution.

The batch-aware :class:`~repro.engine.executor.ImmediateExecutor` groups
arrivals and drives operators through ``process_batch``; these tests pin the
core guarantee down: for every plan shape and every batch size the query
outputs (content *and* order), the comparison counters and the invocation
counters are byte-identical to per-tuple execution.
"""

from __future__ import annotations

import pytest

from repro.baselines.pullup import build_pullup_plan
from repro.baselines.pushdown import build_pushdown_plan
from repro.baselines.unshared import build_unshared_plan
from repro.core.cpu_opt import build_cpu_opt_chain
from repro.core.merge_graph import ChainCostParameters
from repro.core.plan_builder import build_state_slice_plan
from repro.engine.executor import ImmediateExecutor, execute_plan
from repro.engine.operator import Operator, PassThrough
from repro.operators.router import Route, Router
from repro.operators.selection import Selection, StreamFilter
from repro.operators.sliced_join import SlicedBinaryJoin
from repro.operators.split import Split
from repro.operators.union import OrderedUnion
from repro.query.predicates import selectivity_filter, selectivity_join
from repro.query.workload import build_workload
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import FEMALE, MALE, Punctuation, RefTuple, make_tuple

BATCH_SIZES = (1, 7, 64)


@pytest.fixture(scope="module")
def stream_data():
    return generate_join_workload(rate_a=40, rate_b=40, duration=8.0, seed=5)


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        [0.5, 1.0, 1.5], join_selectivity=0.1, filter_selectivities=[1.0, 0.5, 0.5]
    )


def result_signature(report):
    return {
        name: [(item.left.seqno, item.right.seqno) for item in items]
        for name, items in report.results.items()
    }


def _cpu_opt_plan(workload):
    params = ChainCostParameters(
        arrival_rate_left=40, arrival_rate_right=40, system_overhead=0.5
    )
    return build_state_slice_plan(
        workload, chain=build_cpu_opt_chain(workload, params), plan_name="cpu-opt"
    )


PLAN_BUILDERS = [
    ("state-slice", build_state_slice_plan),
    ("state-slice-cpu-opt", _cpu_opt_plan),
    ("selection-pullup", build_pullup_plan),
    ("selection-pushdown", build_pushdown_plan),
    ("unshared", build_unshared_plan),
]


class TestBatchedImmediateExecutor:
    @pytest.mark.parametrize(
        "builder", [b for _, b in PLAN_BUILDERS], ids=[n for n, _ in PLAN_BUILDERS]
    )
    def test_outputs_identical_across_batch_sizes(self, builder, workload, stream_data):
        reference = None
        for batch_size in BATCH_SIZES:
            report = execute_plan(
                builder(workload), stream_data.tuples, batch_size=batch_size
            )
            signature = (
                result_signature(report),
                dict(report.metrics.comparisons),
                dict(report.metrics.invocations),
                dict(report.metrics.emitted),
            )
            if reference is None:
                reference = signature
            else:
                assert signature == reference, f"batch_size={batch_size} diverged"

    def test_all_filtered_workload_identical(self, stream_data):
        """Entry selections upstream of the chain head keep arrival order."""
        workload = build_workload(
            [0.5, 1.0, 1.5],
            join_selectivity=0.1,
            filter_selectivities=[0.4, 0.5, 0.6],
        )
        base = execute_plan(build_state_slice_plan(workload), stream_data.tuples)
        for batch_size in (7, 64):
            report = execute_plan(
                build_state_slice_plan(workload),
                stream_data.tuples,
                batch_size=batch_size,
            )
            assert result_signature(report) == result_signature(base)

    def test_batch_boundary_independent(self, workload, stream_data):
        """Results must not depend on where batch boundaries fall."""
        base = execute_plan(build_state_slice_plan(workload), stream_data.tuples)
        for batch_size in (2, 13, 1000):
            report = execute_plan(
                build_state_slice_plan(workload),
                stream_data.tuples,
                batch_size=batch_size,
            )
            assert result_signature(report) == result_signature(base)

    def test_incremental_arrivals_flush_on_finish(self, workload, stream_data):
        """process_arrival + finish with a part-filled batch loses nothing."""
        plan = build_state_slice_plan(workload)
        executor = ImmediateExecutor(plan, batch_size=50)
        for tup in stream_data.tuples:
            executor.process_arrival(tup)
        executor.finish()
        base = execute_plan(build_state_slice_plan(workload), stream_data.tuples)
        assert {
            name: [(i.left.seqno, i.right.seqno) for i in items]
            for name, items in executor.results.items()
        } == result_signature(base)


class TestMemorySamplingStride:
    def test_final_state_always_sampled(self, workload, stream_data):
        """The last sample must reflect the final state even with a stride
        that does not divide the arrival count."""
        count = len(stream_data.tuples)
        stride = 7
        assert count % stride != 0  # the scenario under test
        plan = build_state_slice_plan(workload)
        executor = ImmediateExecutor(plan, memory_sample_interval=stride)
        report = executor.run(stream_data.tuples)
        last = report.metrics.memory_samples[-1]
        assert last.timestamp == pytest.approx(stream_data.tuples[-1].timestamp)
        assert last.tuples_in_state == plan.total_state_size()

    def test_stride_larger_than_run_still_samples_once(self, workload, stream_data):
        plan = build_state_slice_plan(workload)
        report = ImmediateExecutor(plan, memory_sample_interval=10**9).run(
            stream_data.tuples
        )
        assert len(report.metrics.memory_samples) == 1
        assert report.metrics.memory_samples[0].tuples_in_state == (
            plan.total_state_size()
        )

    def test_exact_multiple_not_double_sampled(self, workload, stream_data):
        count = len(stream_data.tuples)
        plan = build_state_slice_plan(workload)
        report = ImmediateExecutor(plan, memory_sample_interval=count).run(
            stream_data.tuples
        )
        assert len(report.metrics.memory_samples) == 1


class TestOperatorBatchContract:
    """process_batch must equal concatenated per-item process for every
    operator, including metric totals."""

    def _compare(self, make_operator, items, port):
        per_item = make_operator()
        batched = make_operator()
        expected = []
        for item in items:
            expected.extend(per_item.process(item, port))
        got = batched.process_batch(list(items), port)
        assert got == expected
        assert dict(batched.metrics.comparisons) == dict(per_item.metrics.comparisons)
        # Names are auto-generated per instance, so compare totals.
        assert (
            batched.metrics.total_invocations == per_item.metrics.total_invocations
        )
        return per_item, batched

    def _mixed_stream_items(self, count=40, seed=2):
        data = generate_join_workload(rate_a=30, rate_b=30, duration=3.0, seed=seed)
        return data.tuples[:count]

    def test_passthrough(self):
        items = self._mixed_stream_items()
        self._compare(PassThrough, items, "in")

    def test_selection(self):
        items = list(self._mixed_stream_items()) + [Punctuation(9.0)]
        predicate = selectivity_filter(0.5)
        self._compare(lambda: Selection(predicate), items, "in")

    def test_stream_filter_charges_males_only(self):
        predicate = selectivity_filter(0.5)
        refs = []
        for tup in self._mixed_stream_items():
            refs.append(RefTuple(tup, MALE))
            refs.append(RefTuple(tup, FEMALE))
        refs.append(Punctuation(9.0))
        self._compare(lambda: StreamFilter(predicate, stream="A"), refs, "in")

    def test_split(self):
        items = list(self._mixed_stream_items()) + [Punctuation(9.0)]
        self._compare(lambda: Split(selectivity_filter(0.3)), items, "in")

    def test_router(self):
        condition = selectivity_join(0.9)
        join = SlicedBinaryJoin(0.0, 2.0, condition)
        joined = []
        for tup in self._mixed_stream_items():
            port = "left" if tup.stream == "A" else "right"
            for out_port, item in join.process(tup, port):
                if out_port == "output":
                    joined.append(item)
        assert joined, "need joined tuples to route"
        routes = [
            Route(port="q1", window=0.5),
            Route(port="q2", window=None, left_filter=selectivity_filter(0.5)),
        ]
        self._compare(lambda: Router(routes), joined + [Punctuation(9.0)], "in")

    def test_ordered_union(self):
        condition = selectivity_join(0.9)
        join = SlicedBinaryJoin(0.0, 2.0, condition)
        items = []
        for tup in self._mixed_stream_items():
            port = "left" if tup.stream == "A" else "right"
            for out_port, item in join.process(tup, port):
                if out_port in ("output", "punct"):
                    items.append(item)
        per_item, batched = self._compare(lambda: OrderedUnion(), items, "in")
        assert per_item.pending() == batched.pending()

    def test_sliced_binary_join_chain_port(self):
        condition = selectivity_join(0.5)
        refs = []
        for tup in self._mixed_stream_items(count=60):
            refs.append(RefTuple(tup, MALE))
            refs.append(RefTuple(tup, FEMALE))
        refs.append(Punctuation(9.0))
        per_item, batched = self._compare(
            lambda: SlicedBinaryJoin(0.0, 0.5, condition, name="slice"), refs, "chain"
        )
        assert per_item.state_size() == batched.state_size()
        assert per_item.state_tuples("A") == batched.state_tuples("A")
        assert per_item.state_tuples("B") == batched.state_tuples("B")

    def test_sliced_binary_join_raw_arrivals(self):
        condition = selectivity_join(0.5)
        items = self._mixed_stream_items(count=60)

        def drive_per_item():
            join = SlicedBinaryJoin(0.0, 0.5, condition, name="slice")
            emissions = []
            for tup in items:
                port = "left" if tup.stream == "A" else "right"
                emissions.extend(join.process(tup, port))
            return join, emissions

        join_a, expected = drive_per_item()
        join_b = SlicedBinaryJoin(0.0, 0.5, condition, name="slice")
        # Interchangeable ports: the whole mixed-stream batch on one port.
        got = join_b.process_batch(list(items), "left")
        assert got == expected
        assert join_a.state_size() == join_b.state_size()
        assert dict(join_a.metrics.comparisons) == dict(join_b.metrics.comparisons)

    def test_default_process_batch_falls_back_to_process(self):
        class Doubler(Operator):
            def process(self, item, port):
                return [("out", item), ("out", item)]

        operator = Doubler()
        assert operator.process_batch([1, 2], "in") == [
            ("out", 1),
            ("out", 1),
            ("out", 2),
            ("out", 2),
        ]


class TestIngestRegion:
    def test_chain_head_is_batchable(self, workload):
        """The sliced chain head declares interchangeable raw ports, so the
        whole state-slice plan escapes the per-item ingest region."""
        executor = ImmediateExecutor(build_state_slice_plan(workload), batch_size=8)
        assert executor._ingest_region == frozenset()

    def test_bag_union_merge_stays_per_item(self, workload):
        """The pushdown baseline merges with a bag union (arrival order
        matters), so its upstream operators stay in the ingest region."""
        executor = ImmediateExecutor(build_pushdown_plan(workload), batch_size=8)
        assert any(name.startswith("union") for name in executor._ingest_region)


def test_make_tuple_batch_edge_cases():
    """Empty and single-item batches behave like the per-item path."""
    predicate = selectivity_filter(0.5)
    selection = Selection(predicate)
    assert selection.process_batch([], "in") == []
    tup = make_tuple("A", 1.0, value=0.9)
    assert selection.process_batch([tup], "in") == selection.process(tup, "in")
