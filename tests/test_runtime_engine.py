"""StreamEngine: online query admission over a live shared chain.

The central property (the migration-equivalence guarantee of Section 5.3):
registering or deregistering a query mid-stream, which splits/merges the
live slice boundaries, must deliver to every query exactly the results a
fresh shared plan over the same stream suffix would deliver — nothing lost,
nothing duplicated — and the delivered output must be independent of where
the caller's quanta cut the stream into batches.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.engine.errors import ExecutionError, QueryError
from repro.query.predicates import ComparisonPredicate, EquiJoinCondition, selectivity_join
from repro.runtime import ShardedStreamEngine, StreamEngine
from repro.runtime.shard_worker import ShardConfig
from repro.streams.generators import generate_join_workload
from repro.streams.tuples import make_tuple

CONDITION = selectivity_join(0.2)


def reference_pairs(tuples, window, later_range=None):
    """Brute-force suffix reference: pairs with |Ta-Tb| < window whose
    *later* tuple arrives inside ``later_range`` (arrival index interval)."""
    indexed = list(enumerate(tuples))
    pairs = set()
    for index_a, a in indexed:
        if a.stream != "A":
            continue
        for index_b, b in indexed:
            if b.stream != "B":
                continue
            if abs(a.timestamp - b.timestamp) >= window:
                continue
            if not CONDITION.matches(a, b):
                continue
            later = max(index_a, index_b)
            if later_range is not None and not (
                later_range[0] <= later < later_range[1]
            ):
                continue
            pairs.add((a.seqno, b.seqno))
    return pairs


def delivered_pairs(results):
    return [(j.left.seqno, j.right.seqno) for j in results]


def feed(engine, index, tup, quantum):
    """Ingest arrival ``index``; every ``quantum``-th one closes a batch."""
    engine.process(tup)
    if (index + 1) % quantum == 0:
        engine.flush()


@pytest.fixture(scope="module")
def stream():
    return generate_join_workload(rate_a=15, rate_b=15, duration=24.0, seed=3).tuples


class TestAdmission:
    def test_first_query_creates_chain(self):
        engine = StreamEngine(CONDITION)
        assert engine.slice_count() == 0
        engine.add_query("Q1", 4.0)
        assert engine.boundaries == (0.0, 4.0)
        assert engine.stats.migrations[-1].kind == "create"

    def test_smaller_window_splits(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.add_query("Q2", 2.0)
        assert engine.boundaries == (0.0, 2.0, 4.0)
        assert engine.stats.migrations[-1].kind == "split"

    def test_larger_window_appends(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.add_query("Q2", 6.0)
        assert engine.boundaries == (0.0, 4.0, 6.0)
        assert engine.stats.migrations[-1].kind == "append"

    def test_duplicate_window_needs_no_migration(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.add_query("Q2", 4.0)
        assert engine.boundaries == (0.0, 4.0)
        assert [event.kind for event in engine.stats.migrations] == ["create"]

    def test_duplicate_name_rejected(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        with pytest.raises(QueryError):
            engine.add_query("Q1", 2.0)

    def test_unknown_query_rejected(self):
        engine = StreamEngine(CONDITION)
        with pytest.raises(QueryError):
            engine.remove_query("missing")
        with pytest.raises(QueryError):
            engine.results("missing")

    def test_remove_interior_boundary_merges(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.add_query("Q2", 2.0)
        engine.remove_query("Q2")
        assert engine.boundaries == (0.0, 4.0)
        assert engine.stats.migrations[-1].kind == "merge"

    def test_remove_largest_drops_tail(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.add_query("Q2", 6.0)
        engine.remove_query("Q2")
        assert engine.boundaries == (0.0, 4.0)
        assert engine.stats.migrations[-1].kind == "drop-tail"

    def test_last_removal_tears_down(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        engine.remove_query("Q1")
        assert engine.slice_count() == 0
        assert engine.boundaries == ()
        assert engine.stats.migrations[-1].kind == "teardown"


class TestMigrationEquivalence:
    """No lost or duplicated join results across split/merge migrations."""

    @pytest.mark.parametrize("quantum", [1, 7, 64])
    def test_split_then_merge_matches_fresh_plan(self, stream, quantum):
        engine = StreamEngine(CONDITION)
        engine.add_query("Qbig", 4.0)
        split_at = len(stream) // 3
        merge_at = 2 * len(stream) // 3
        small = None
        for index, tup in enumerate(stream):
            if index == split_at:
                engine.add_query("Qsmall", 2.0)
            if index == merge_at:
                small = engine.remove_query("Qsmall")
            feed(engine, index, tup, quantum)
        engine.flush()

        # The survivor sees the full-stream reference: the migrations were
        # invisible to it.
        big = delivered_pairs(engine.results("Qbig"))
        assert len(big) == len(set(big)), "duplicated results"
        assert set(big) == reference_pairs(stream, 4.0)

        # The mid-stream query sees exactly what a fresh shared plan over
        # the suffix would produce: every pair whose completing tuple
        # arrived while it was registered (the shared chain already holds
        # the in-window history at admission time).
        small_pairs = delivered_pairs(small)
        assert len(small_pairs) == len(set(small_pairs)), "duplicated results"
        assert set(small_pairs) == reference_pairs(
            stream, 2.0, later_range=(split_at, merge_at)
        )

    @pytest.mark.parametrize("quantum", [1, 7, 64])
    def test_appended_window_fills_from_admission(self, stream, quantum):
        engine = StreamEngine(CONDITION)
        engine.add_query("Qbig", 2.0)
        extend_at = len(stream) // 2
        for index, tup in enumerate(stream):
            if index == extend_at:
                engine.add_query("Qbigger", 4.0)
            feed(engine, index, tup, quantum)
        engine.flush()

        bigger = delivered_pairs(engine.results("Qbigger"))
        assert len(bigger) == len(set(bigger)), "duplicated results"
        got = set(bigger)
        # Upper bound: only genuine window-4 results, completed after
        # admission.
        assert got <= reference_pairs(stream, 4.0, later_range=(extend_at, len(stream)))
        # Lower bound: at least everything a fresh chain started empty at
        # admission would find (pairs where both tuples arrive after it).
        fresh = {
            pair
            for pair in reference_pairs(
                stream, 4.0, later_range=(extend_at, len(stream))
            )
            if all(
                index >= extend_at
                for index, tup in enumerate(stream)
                if tup.seqno in pair
            )
        }
        assert fresh <= got
        # And the retained in-window history makes it strictly better than
        # starting cold: window-2 pairs completed after admission are all
        # present.
        assert reference_pairs(stream, 2.0, later_range=(extend_at, len(stream))) <= got

    def test_output_identical_across_batch_sizes(self, stream):
        signatures = []
        for quantum in (1, 7, 64):
            engine = StreamEngine(CONDITION)
            engine.add_query("Qbig", 4.0)
            removed = {}
            for index, tup in enumerate(stream):
                if index == len(stream) // 4:
                    engine.add_query("Qsmall", 2.0)
                if index == len(stream) // 2:
                    removed["Qsmall"] = engine.remove_query("Qsmall")
                if index == 3 * len(stream) // 4:
                    engine.add_query("Qbigger", 5.0)
                feed(engine, index, tup, quantum)
            engine.flush()
            signatures.append(
                (
                    delivered_pairs(engine.results("Qbig")),
                    delivered_pairs(removed["Qsmall"]),
                    delivered_pairs(engine.results("Qbigger")),
                )
            )
        assert signatures[0] == signatures[1] == signatures[2]

    def test_states_stay_disjoint_across_migrations(self, stream):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 4.0)
        checkpoints = {
            len(stream) // 5: ("add", "Q2", 2.0),
            2 * len(stream) // 5: ("add", "Q3", 3.0),
            3 * len(stream) // 5: ("remove", "Q2", None),
            4 * len(stream) // 5: ("remove", "Q3", None),
        }
        for index, tup in enumerate(stream):
            action = checkpoints.get(index)
            if action is not None:
                kind, name, window = action
                if kind == "add":
                    engine.add_query(name, window)
                else:
                    engine.remove_query(name)
                assert engine.states_are_disjoint()
            engine.process(tup)
        engine.flush()
        assert engine.states_are_disjoint()
        big = delivered_pairs(engine.results("Q1"))
        assert set(big) == reference_pairs(stream, 4.0)
        assert len(big) == len(set(big))


class TestSelections:
    """Per-query selections: shared push-down recomputed on add/remove."""

    def test_pushdown_placement_follows_query_set(self):
        from repro.query.predicates import attribute_gt

        hot = attribute_gt("value", 0.5)
        very_hot = attribute_gt("value", 0.8)
        engine = StreamEngine(CONDITION)
        engine.add_query("Qbig", 4.0, left_filter=hot)
        # One slice, one query: the pushed filter is the query's own.
        (front,) = engine.link_filters()
        assert front[0].describe() == hot.describe()
        assert front[1] is None

        engine.add_query("Qsmall", 2.0, left_filter=very_hot)
        filters = engine.link_filters()
        # Front: disjunction of both queries (window-ascending order);
        # link 2 (start 2.0): only the big query's window reaches it, so
        # its predicate stands alone.
        assert filters[0][0].describe() == (
            f"({very_hot.describe()} OR {hot.describe()})"
        )
        assert filters[1][0].describe() == hot.describe()

        engine.remove_query("Qsmall")
        (front,) = engine.link_filters()
        assert front[0].describe() == hot.describe()

    def test_unfiltered_query_clears_pushed_filters(self):
        from repro.query.predicates import attribute_gt

        engine = StreamEngine(CONDITION)
        engine.add_query("Qhot", 4.0, left_filter=attribute_gt("value", 0.5))
        assert engine.link_filters()[0][0] is not None
        # An unfiltered query with the same window weakens the disjunction
        # to TRUE: the pushed filter must disappear.
        engine.add_query("Qall", 4.0)
        assert engine.link_filters() == [(None, None)]

    def test_selection_results_exact_with_migrations(self, stream):
        from repro.query.predicates import attribute_gt

        hot = attribute_gt("value", 0.6)
        engine = StreamEngine(CONDITION)
        engine.add_query("Qall", 4.0)
        split_at = len(stream) // 3
        removed = None
        for index, tup in enumerate(stream):
            if index == split_at:
                engine.add_query("Qhot", 2.0, left_filter=hot)
            if index == 2 * len(stream) // 3:
                removed = engine.remove_query("Qhot")
            engine.process(tup)
        engine.flush()
        assert set(delivered_pairs(engine.results("Qall"))) == reference_pairs(
            stream, 4.0
        )
        expected = {
            (a, b)
            for (a, b) in reference_pairs(
                stream, 2.0, later_range=(split_at, 2 * len(stream) // 3)
            )
            if hot.matches(next(t for t in stream if t.seqno == a))
        }
        got = delivered_pairs(removed)
        assert len(got) == len(set(got))
        assert set(got) == expected

    def test_seventy_distinct_filters_each_get_a_verdict(self, stream):
        """More distinct filters than a machine word has bits: each query
        delivers the brute-force reference filtered by its own predicate.
        Half are admitted mid-stream, so their verdicts of the rows already
        held are computed at first need."""
        from repro.query.predicates import attribute_gt

        filters = [attribute_gt("value", k / 70) for k in range(70)]
        admit_at = len(stream) // 2
        engine = StreamEngine(CONDITION)
        for index, tup in enumerate(stream):
            for k in range(35) if index == 0 else range(35, 70) if index == admit_at else ():
                engine.add_query(f"Q{k}", 2.0 + k % 3, left_filter=filters[k])
            engine.process(tup)
        engine.flush()
        by_seqno = {tup.seqno: tup for tup in stream}
        references = {}
        for k, hot in enumerate(filters):
            later = None if k < 35 else (admit_at, len(stream))
            key = (2.0 + k % 3, later)
            if key not in references:
                references[key] = reference_pairs(stream, *key)
            expected = {(a, b) for a, b in references[key] if hot.matches(by_seqno[a])}
            got = delivered_pairs(engine.results(f"Q{k}"))
            assert len(got) == len(set(got))
            assert set(got) == expected


def reference_count_pairs(tuples, count, later_range=None):
    """Brute-force count-window reference: an arriving tuple joins the
    ``count`` most recent tuples of the opposite stream; the pair counts
    when the *completing* arrival index falls inside ``later_range``."""
    pairs = set()
    seen = {"A": [], "B": []}
    for index, tup in enumerate(tuples):
        other = "B" if tup.stream == "A" else "A"
        for candidate in seen[other][-count:]:
            left, right = (
                (tup, candidate) if tup.stream == "A" else (candidate, tup)
            )
            if not CONDITION.matches(left, right):
                continue
            if later_range is not None and not (
                later_range[0] <= index < later_range[1]
            ):
                continue
            pairs.add((left.seqno, right.seqno))
        seen[tup.stream].append(tup)
    return pairs


class TestCountSessions:
    """Count-window sessions mirror the time-window admission protocol."""

    def test_admission_inside_slice_splits(self):
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("C1", 8)
        engine.add_query("C2", 3)
        assert engine.boundaries == (0, 3, 8)
        assert engine.stats.migrations[-1].kind == "split"

    def test_larger_count_appends_tail(self):
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("C1", 8)
        engine.add_query("C2", 12)
        assert engine.boundaries == (0, 8, 12)
        assert engine.stats.migrations[-1].kind == "append"

    def test_remove_interior_boundary_merges(self):
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("C1", 8)
        engine.add_query("C2", 3)
        engine.remove_query("C2")
        assert engine.boundaries == (0, 8)
        assert engine.stats.migrations[-1].kind == "merge"

    def test_count_windows_must_be_positive_integers(self):
        engine = StreamEngine(CONDITION, window_kind="count")
        with pytest.raises(QueryError):
            engine.add_query("C1", 2.5)
        with pytest.raises(QueryError):
            engine.add_query("C1", 0)

    @pytest.mark.parametrize("quantum", [1, 7, 64])
    def test_split_then_merge_matches_fresh_plan(self, stream, quantum):
        """Admission inside a slice mid-stream: the small query immediately
        sees the retained rank history; the survivor sees everything."""
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("Cbig", 8)
        split_at = len(stream) // 3
        merge_at = 2 * len(stream) // 3
        small = None
        for index, tup in enumerate(stream):
            if index == split_at:
                engine.add_query("Csmall", 3)
            if index == merge_at:
                small = engine.remove_query("Csmall")
            feed(engine, index, tup, quantum)
        engine.flush()

        big = delivered_pairs(engine.results("Cbig"))
        assert len(big) == len(set(big)), "duplicated results"
        assert set(big) == reference_count_pairs(stream, 8)

        small_pairs = delivered_pairs(small)
        assert len(small_pairs) == len(set(small_pairs)), "duplicated results"
        assert set(small_pairs) == reference_count_pairs(
            stream, 3, later_range=(split_at, merge_at)
        )

    @pytest.mark.parametrize("quantum", [1, 7, 64])
    def test_appended_count_fills_from_admission(self, stream, quantum):
        """Tail append: a larger count window admitted mid-stream fills from
        the evictions of the old tail.  Ranks beyond the old chain end were
        already discarded, so the new query starts from the retained
        count-5 history and converges to the full count-9 answer — exactly
        the results a fresh shared plan over the suffix would produce."""
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("Cbig", 5)
        extend_at = len(stream) // 2
        for index, tup in enumerate(stream):
            if index == extend_at:
                engine.add_query("Cbigger", 9)
            feed(engine, index, tup, quantum)
        engine.flush()

        bigger = delivered_pairs(engine.results("Cbigger"))
        assert len(bigger) == len(set(bigger)), "duplicated results"
        got = set(bigger)
        # Upper bound: only genuine count-9 results completed after admission.
        assert got <= reference_count_pairs(
            stream, 9, later_range=(extend_at, len(stream))
        )
        # Lower bound 1: at least what a fresh chain started empty at
        # admission finds (pairs where both tuples arrive after admission).
        index_of = {tup.seqno: index for index, tup in enumerate(stream)}
        fresh = {
            pair
            for pair in reference_count_pairs(
                stream, 9, later_range=(extend_at, len(stream))
            )
            if all(index_of[seqno] >= extend_at for seqno in pair)
        }
        assert fresh <= got
        # Lower bound 2: the retained in-window history makes it strictly
        # better than starting cold — the count-5 results completed after
        # admission are all present.
        assert reference_count_pairs(
            stream, 5, later_range=(extend_at, len(stream))
        ) <= got

    def test_remove_largest_count_drops_tail(self, stream):
        """Largest-window removal: the tail rank slices are shed and the
        remaining query keeps producing exact results."""
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("Csmall", 4)
        engine.add_query("Cbig", 10)
        half = len(stream) // 2
        for tup in stream[:half]:
            engine.process(tup)
        engine.remove_query("Cbig")
        assert engine.boundaries == (0, 4)
        assert engine.stats.migrations[-1].kind == "drop-tail"
        # The shed tail state is gone: every slice holds at most its capacity.
        assert engine.state_size() <= 2 * 4
        for tup in stream[half:]:
            engine.process(tup)
        engine.flush()
        got = delivered_pairs(engine.results("Csmall"))
        assert len(got) == len(set(got))
        assert set(got) == reference_count_pairs(stream, 4)

    def test_output_identical_across_batch_sizes(self, stream):
        signatures = []
        for quantum in (1, 7, 64):
            engine = StreamEngine(CONDITION, window_kind="count")
            engine.add_query("Cbig", 8)
            removed = {}
            for index, tup in enumerate(stream):
                if index == len(stream) // 4:
                    engine.add_query("Csmall", 3)
                if index == len(stream) // 2:
                    removed["Csmall"] = engine.remove_query("Csmall")
                if index == 3 * len(stream) // 4:
                    engine.add_query("Cbigger", 11)
                feed(engine, index, tup, quantum)
            engine.flush()
            signatures.append(
                (
                    delivered_pairs(engine.results("Cbig")),
                    delivered_pairs(removed["Csmall"]),
                    delivered_pairs(engine.results("Cbigger")),
                )
            )
        assert signatures[0] == signatures[1] == signatures[2]

    def test_states_stay_disjoint_across_migrations(self, stream):
        engine = StreamEngine(CONDITION, window_kind="count")
        engine.add_query("C1", 8)
        checkpoints = {
            len(stream) // 5: ("add", "C2", 3),
            2 * len(stream) // 5: ("add", "C3", 5),
            3 * len(stream) // 5: ("remove", "C2", None),
            4 * len(stream) // 5: ("remove", "C3", None),
        }
        for index, tup in enumerate(stream):
            action = checkpoints.get(index)
            if action is not None:
                kind, name, window = action
                if kind == "add":
                    engine.add_query(name, window)
                else:
                    engine.remove_query(name)
                assert engine.states_are_disjoint()
            engine.process(tup)
        engine.flush()
        assert engine.states_are_disjoint()
        big = delivered_pairs(engine.results("C1"))
        assert set(big) == reference_count_pairs(stream, 8)
        assert len(big) == len(set(big))


class TestEngineAccounting:
    def test_stats_and_metrics(self, stream):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 2.0)
        engine.process_many(stream[:100])
        engine.flush()
        assert engine.stats.arrivals == 100
        assert engine.stats.batches == 1  # the caller's quantum is the batch
        assert engine.metrics.tuples_ingested == 100
        # Memory is sampled per batch into O(1) gauges, not an ever-growing list.
        assert engine.metrics.snapshot()["memory.max"] > 0
        assert engine.metrics.memory_samples == []
        assert engine.state_size() > 0
        assert engine.stats.results_delivered == len(engine.results("Q1"))

    def test_out_of_order_arrival_is_rejected(self):
        """The binary-searched purge cut needs timestamp order; reject loudly."""
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 2.0)
        engine.process(make_tuple("A", 1.0, join_key=1))
        engine.process(make_tuple("B", 1.0, join_key=1))  # equal timestamps stay legal
        with pytest.raises(ExecutionError, match="out-of-order"):
            engine.process(make_tuple("A", 0.5, join_key=1))
        engine.process(make_tuple("A", 1.5, join_key=1))  # the refused tuple left no trace
        engine.flush()
        assert engine.stats.arrivals == 3

    def test_collector_size_is_flat_in_session_length(self):
        """10**4 batches leave the collector as big as 10**2 did."""

        def collector_size(metrics):
            return sum(
                len(value) if isinstance(value, (list, dict)) else 1
                for value in vars(metrics).values()
            )

        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 0.05)
        sizes = {}
        for index in range(10**4):
            engine.process(make_tuple("AB"[index % 2], index * 0.01, join_key=index % 5))
            engine.flush()
            if index + 1 in (10**2, 10**4):
                engine.pop_results("Q1")
                sizes[index + 1] = collector_size(engine.metrics)
        assert engine.stats.batches == 10**4
        assert sizes[10**4] == sizes[10**2]
        assert engine.metrics.snapshot()["memory.max"] > 0

    def test_migration_log_keeps_the_newest_256(self):
        """300 admit/remove cycles (≥ 2 events each) leave a bounded log."""
        engine = StreamEngine(CONDITION)
        engine.add_query("anchor", 4.0)
        for cycle in range(300):
            engine.add_query("guest", 1.0 + (cycle % 2))
            engine.remove_query("guest")
        log = engine.stats.migrations
        assert isinstance(log, list) and len(log) == 256
        assert [event.kind for event in log[-2:]] == ["split", "merge"]
        assert log[-2].boundary == 2.0  # cycle 299 admitted the 2 s window

    def test_pop_results_clears(self, stream):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q1", 2.0)
        engine.process_many(stream[:200])
        first = engine.pop_results("Q1")
        assert first
        assert engine.results("Q1") == []

    def test_workload_snapshot(self):
        engine = StreamEngine(CONDITION)
        engine.add_query("Q2", 4.0)
        engine.add_query("Q1", 2.0)
        workload = engine.workload()
        assert workload.window_sizes() == [2.0, 4.0]
        assert workload.names() == ["Q1", "Q2"]


@pytest.mark.parametrize(
    "make_session",
    [
        pytest.param(StreamEngine, id="engine"),
        pytest.param(partial(StreamEngine, window_kind="count"), id="count-engine"),
        pytest.param(partial(ShardedStreamEngine, shards=1), id="1-shard-serial"),
        pytest.param(partial(ShardedStreamEngine, shards=2), id="2-shards-serial"),
        pytest.param(
            partial(ShardedStreamEngine, shards=1, shard_mode="process"),
            id="1-shard-process",
        ),
    ],
)
def test_a_foreign_stream_is_refused_before_it_is_buffered(make_session):
    """A tuple of neither joined stream is refused at ``process``, in every
    session kind and shard mode, and the arrivals buffered around it are
    joined as if it had never been offered."""
    condition = EquiJoinCondition("k", "k")
    a1, b2, b4 = (make_tuple(stream, t, k=1) for stream, t in (("A", 1), ("B", 2), ("B", 4)))

    def run(offer_foreign):
        session = make_session(condition)
        try:
            session.add_query("Q", 10.0)
            session.process(a1)
            session.process(b2)
            if offer_foreign:
                with pytest.raises(QueryError, match="got a tuple of stream 'C'"):
                    session.process(make_tuple("C", 3, k=1))
            session.process(b4)
            return delivered_pairs(session.results("Q")), session.stats.arrivals
        finally:
            session.close()

    clean = run(offer_foreign=False)
    assert clean == ([(a1.seqno, b2.seqno), (a1.seqno, b4.seqno)], 3)
    assert run(offer_foreign=True) == clean


@pytest.mark.parametrize(
    "make_session",
    [
        pytest.param(StreamEngine, id="engine"),
        pytest.param(partial(StreamEngine, window_kind="count"), id="count-engine"),
        pytest.param(partial(ShardedStreamEngine, shards=1), id="1-shard-serial"),
        pytest.param(partial(ShardedStreamEngine, shards=2), id="2-shards-serial"),
        pytest.param(
            partial(ShardedStreamEngine, shards=1, shard_mode="process"),
            id="1-shard-process",
        ),
        pytest.param(ShardConfig, id="shard-config"),
    ],
)
def test_a_bad_probe_is_refused_at_construction(make_session):
    """A slice has one probe, the nested loop: ``probe=`` is no argument of
    either session or of a shard's config, so any value — the old
    ``"nested_loop"`` / ``"hash"`` / ``"auto"`` included — is a ``TypeError``
    before a shard exists."""
    for probe in ("nested_loop", "hash", "auto"):
        with pytest.raises(TypeError, match="probe"):
            make_session(EquiJoinCondition("k", "k"), probe=probe)


# ---------------------------------------------------------------------------
# The caller's quantum is the batch: where it ends cannot change an answer
# ---------------------------------------------------------------------------
QUANTUM_STREAM = generate_join_workload(rate_a=100, rate_b=100, duration=16.0, seed=11).tuples
QUANTUM_CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=60)
#: Windows of three queries, per window kind: one plain, one with a left and
#: one with a right selection (residual checks and verdict bits in play).
QUANTUM_WINDOWS = {"time": (0.3, 0.8, 1.5), "count": (20, 60, 150)}


def _quantum_session(kind, budget, shards):
    if shards:
        return ShardedStreamEngine(QUANTUM_CONDITION, shards=shards, memory_budget_bytes=budget)
    return StreamEngine(QUANTUM_CONDITION, window_kind=kind, memory_budget_bytes=budget)


def _quantum_run(kind, budget, shards, feed):
    """Per-query output and the counters of one run."""
    session = _quantum_session(kind, budget, shards)
    short, mid, long = QUANTUM_WINDOWS[kind]
    session.add_query("plain", short)
    session.add_query("left", mid, left_filter=ComparisonPredicate("value", ">", 0.4))
    session.add_query("right", long, right_filter=ComparisonPredicate("value", ">", 0.6))
    feed(session)
    outputs = {name: delivered_pairs(session.results(name)) for name in ("plain", "left", "right")}
    snapshot = session.merged_snapshot() if shards else session.metrics.snapshot()
    session.close()
    # Memory gauges and the spill observations follow where the batches end.
    counters = {
        key: value
        for key, value in snapshot.items()
        if not key.startswith(("memory.", "observations."))
    }
    return outputs, counters


def _in_quanta(quantum):
    def feed(session):
        for start in range(0, len(QUANTUM_STREAM), quantum):
            session.process_many(QUANTUM_STREAM[start : start + quantum])

    return feed


def _flush_each(session):
    for tup in QUANTUM_STREAM:
        session.process(tup)
        session.flush()


@pytest.mark.parametrize(
    "kind, shards",
    [("time", 0), ("count", 0), ("time", 2)],
    ids=["time-engine", "count-engine", "time-2-serial-shards"],  # count windows do not shard
)
@pytest.mark.parametrize("budget", [None, 4096], ids=["in-core", "budget"])
def test_quantum_boundaries_cannot_change_an_answer(kind, shards, budget):
    """Quanta of 1, 7, 128 and 3 000 arrivals (the last crosses the 1 024
    block) and a ``flush`` after every arrival: byte-identical per-query
    output, equal ``PROBE`` / ``PURGE`` / ``SELECT`` / invocation counts.
    And a refused tuple in the middle of a ``process_many`` call leaves the
    arrivals before it buffered, delivered by the next barrier."""
    assert len(QUANTUM_STREAM) > 3000
    reference = _quantum_run(kind, budget, shards, _flush_each)
    assert sum(map(len, reference[0].values())) > 0
    for quantum in (1, 7, 128, 3000):
        assert _quantum_run(kind, budget, shards, _in_quanta(quantum)) == reference, quantum

    first, rest = QUANTUM_STREAM[:50], QUANTUM_STREAM[50:]
    for refused, error in (
        (make_tuple("C", first[-1].timestamp, join_key=1, value=0.5), QueryError),
        (make_tuple("A", first[-1].timestamp - 0.5, join_key=1, value=0.5), ExecutionError),
    ):

        def feed(session, refused=refused, error=error):
            with pytest.raises(error):
                session.process_many([*first, refused, *rest[:10]])
            session.flush()
            session.process_many(rest)

        assert _quantum_run(kind, budget, shards, feed) == reference
