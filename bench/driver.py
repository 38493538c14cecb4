"""One benchmark pass over one workload, inside one fresh process.

A pass drives a single session through its public API only::

    setup -> lazy warm-up (memory read) -> closed loop -> open loop
          -> close -> oracle check

with set-up time and the migration probe sampled before, between and after the
two loops.

* **setup** builds the session, admits the initial queries and runs one
  ``flush()`` barrier; it is sampled again on fresh sessions around the loops.
* **warm-up** feeds ``WARMUP_WINDOWS`` max-windows of stream time untimed,
  generating the input lazily quantum by quantum, so the driver holds no tuple
  the engine does not and ``VmHWM - VmRSS(before the first arrival)`` is the
  session's own memory.
* **closed loop**: feed one quantum with ``process_many``, pop every query's
  results, only then feed the next.  The clock runs from the feed to the
  return of the pop; checking the popped results happens off the clock.
* **open loop**: windows of about one second, each its own stretch of
  schedule.  A quantum is due when its last arrival "happens" at the
  workload's fixed rate, is never sent early, and a late send is not
  compensated.  A result's latency runs from the due time of the later of its
  two input tuples to the return of the pop that delivered it; percentiles
  are taken per window.

Timed input is materialised (and frozen out of the cyclic collector's view)
before the first timed quantum.  Every reported timing is the fastest decile
(:func:`fast`) of many short samples of the same steady-state session:
per-quantum service times, per-window latency percentiles, per-cycle
migration pauses, per-session set-up times.  Each sample is first turned from
wall time into reference-host time by the host probe read just before it
(:class:`HostGate`); of a latency, only the part after the send is.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import replace
from itertools import islice

import numpy as np

from bench import workloads
from bench.oracle import MASK64, Arrivals, OracleQuery, expected, pair_digest
from bench.workloads import OPEN_WINDOWS, QUANTUM, Workload

#: Set-up time and the migration probe are sampled in groups of this many, a
#: second or more apart (before the closed loop, before each open-loop window,
#: at the end): a noise burst then spoils one group, not the estimate.
GROUP_SAMPLES = 6
#: Admit-and-remove cycles averaged into one migration-probe sample.
PROBE_CYCLES = 3
#: An open-loop window whose last quantum is sent this late cannot sustain the rate.
UNSUSTAINED_LAG_S = 1.0

clock = time.perf_counter


# -- process memory ---------------------------------------------------------------
def _status_kib(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def _session_pids() -> list[int]:
    return [os.getpid()] + [child.pid for child in multiprocessing.active_children()]


class MemoryProbe:
    """``VmHWM`` at the end minus ``VmRSS`` at the start, summed over the
    driver and the session's worker processes."""

    def __init__(self) -> None:
        self.pids = _session_pids()
        for pid in self.pids:
            # Resets the peak to the current RSS where the kernel allows it;
            # elsewhere a pre-arrival peak above the baseline is counted.
            try:
                with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                    handle.write("5")
            except OSError:
                pass
        self.start_kib = [_status_kib(pid, "VmRSS") for pid in self.pids]

    def growth_mib(self) -> float:
        peaks = [_status_kib(pid, "VmHWM") for pid in self.pids]
        return sum(max(0, peak - start) for peak, start in zip(peaks, self.start_kib)) / 1024.0


# -- result checking --------------------------------------------------------------
class Checker:
    """Per-query count and order-independent digest of the popped results."""

    def __init__(self) -> None:
        self.count: dict[str, int] = {}
        self.digest: dict[str, int] = {}

    def add(self, name: str, results) -> tuple[np.ndarray, np.ndarray] | None:
        size = len(results)
        self.count.setdefault(name, 0)
        self.digest.setdefault(name, 0)
        if not size:
            return None
        left = np.fromiter((joined.left.seqno for joined in results), np.int64, size)
        right = np.fromiter((joined.right.seqno for joined in results), np.int64, size)
        self.count[name] += size
        self.digest[name] = (self.digest[name] + pair_digest(left, right)) & MASK64
        return left, right


# -- one session under load -------------------------------------------------------
class Run:
    """A session, its live queries, and the churn schedule applied to it."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.session = None
        self.live: list[str] = []
        self.oracle_queries: dict[str, OracleQuery] = {}
        self.checker = Checker()
        self.fed = 0  #: Arrivals handed to the session so far.
        self.quantum = 0  #: Quanta handed to the session so far.
        self._churn_ordinal = 0

    def setup(self) -> float:
        """Build the session, admit the initial queries, run one barrier."""
        start = clock()
        self.session = workloads.build_session(self.workload)
        for query in self.workload.queries:
            self._admit(query)
        self.session.flush()
        return clock() - start

    def _admit(self, query: workloads.QuerySpec) -> float:
        start = clock()
        workloads.admit(self.session, query)
        elapsed = clock() - start
        self.live.append(query.name)
        self.oracle_queries[query.name] = OracleQuery(
            query.name,
            query.window,
            query.left_selectivity,
            query.right_selectivity,
            admit=self.fed,
        )
        return elapsed

    def _remove(self, name: str) -> float:
        start = clock()
        leftover = self.session.remove_query(name)
        elapsed = clock() - start
        self.checker.add(name, leftover)
        self.live.remove(name)
        self.oracle_queries[name] = replace(self.oracle_queries[name], remove=self.fed)
        return elapsed

    def migrate(self) -> float:
        """Apply what the churn schedule asks for before the next quantum;
        returns the wall seconds spent inside the session's migration calls."""
        churn = self.workload.churn
        index = self.quantum
        if churn is None or index == 0:
            return 0.0
        paused = 0.0
        if index % churn.query_every == 0:
            # ``live`` is in admission order: the resident queries, then the
            # schedule's own, oldest first.
            admitted = self.live[len(self.workload.queries) :]
            if len(admitted) < churn.max_live:
                paused += self._admit(churn.query(self._churn_ordinal))
                self._churn_ordinal += 1
            else:
                paused += self._remove(admitted[0])
        if index % churn.reshard_every == 0:
            position = (index // churn.reshard_every) % len(churn.shard_cycle)
            start = clock()
            self.session.reshard(churn.shard_cycle[position])
            paused += clock() - start
        return paused

    def feed(self, quantum) -> dict:
        """One delivery quantum: ``process_many`` then pop every live query."""
        session = self.session
        session.process_many(quantum)
        if hasattr(session, "pop_results_all"):
            results = session.pop_results_all()
        else:
            results = {name: session.pop_results(name) for name in self.live}
        self.fed += len(quantum)
        self.quantum += 1
        return results

    def check(self, results: dict) -> list[tuple[np.ndarray, np.ndarray]]:
        pairs = [self.checker.add(name, items) for name, items in results.items()]
        return [pair for pair in pairs if pair is not None]

    def probe_migration(self) -> float:
        """Admit and remove one query that splits the last slice: the price of
        a migration against the steady-state session.  One sample is the mean
        of ``PROBE_CYCLES`` back-to-back cycles, which evens out the worker
        wake-up jitter of a process-mode session (single cycles cluster at
        ~2.2 and ~3.4 ms there)."""
        window = self.workload.max_window * 0.8125
        start = clock()
        for _ in range(PROBE_CYCLES):
            self.session.add_query("probe", window)
            self.session.remove_query("probe")
        return (clock() - start) / PROBE_CYCLES

    def snapshot(self):
        session = self.session
        if hasattr(session, "merged_snapshot"):
            return session.merged_snapshot()
        return session.metrics.snapshot()

    def engine_stats(self) -> tuple[int, int]:
        stats = self.session.stats
        if callable(stats):
            stats = stats()
        return stats.batches, stats.results_delivered


def fast(samples) -> float:
    """The fastest decile: the estimator behind every reported timing.

    Noise on a shared host is one-sided (it only ever slows a sample down) and
    bursty (10 ms to seconds), so means and medians of a 15 s run move by
    10-30 % between runs of the same code; the boundary of the fastest tenth
    of many short samples moves by a few percent.  See bench/README.md,
    "Why the fastest decile".
    """
    return float(np.percentile(np.asarray(samples, dtype=float), 10))


#: Keys of the host probe's numpy half: the size of one slice side's key column.
_PROBE_KEYS = np.arange(8192, dtype=np.float64) % 1000.0


class HostGate:
    """Reads the host's speed next to every timed sample.

    The reference host switches, for seconds to tens of minutes at a time,
    into modes in which the same code runs 1.2-1.8x slower (the service time
    of a quantum keeps a tight distribution but moves from ~14 to ~17, ~20 or
    ~27 ms).  The *probe* is a fixed ~0.6 ms of work of the program's own
    kind, half pure-Python arithmetic and half a modular mask over a
    slice-sized numpy column.  It serves twice:

    * **normalisation** -- every timed sample is multiplied by
      :meth:`scale` of the probe reading taken just before it,
      ``REFERENCE_S / reading``: wall seconds become seconds of a host on
      which the probe reads ``REFERENCE_S`` (the undisturbed reference host),
      so a run that falls wholly into a slow mode reports what a quiet run
      reports (see bench/README.md, "Host-speed normalisation", for how far
      that holds);
    * **gate** -- the probe is sampled next to every warm-up quantum to learn
      the run's undisturbed level; before each closed-loop quantum, open-loop
      window and group of short operations the driver waits while it reads
      more than ``TOLERANCE`` above that level, for at most ``PATIENCE_S``
      per phase and pass, which keeps the corrections small.  The waits are
      in the run record.
    """

    TOLERANCE = 1.12
    PATIENCE_S = 2.0
    #: The probe's undisturbed reading on the reference host.
    REFERENCE_S = 0.00060

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Per phase: seconds waited so far and whether patience ran out.
        self.waits: dict[str, dict] = {}

    def level(self) -> float:
        return float(np.percentile(self.samples, 5))

    def sample(self) -> float:
        start = clock()
        total = 0
        for value in range(6000):
            total += value * value
        for shift in (1.0, 2.0, 3.0):
            ((_PROBE_KEYS + shift) % 1000.0 < 1.0).nonzero()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """One fresh reading, as the factor that turns a wall time measured
        right after it into reference-host time."""
        return self.REFERENCE_S / self.sample()

    def hold(self, phase: str) -> float:
        """Wait until the probe reads quiet or ``phase``'s patience is spent;
        returns the :meth:`scale` of the last reading."""
        entry = self.waits.setdefault(phase, {"waited_s": 0.0, "gave_up": False})
        quiet = self.level() * self.TOLERANCE
        while True:
            elapsed = self.sample()
            if elapsed <= quiet:
                break
            if entry["waited_s"] >= self.PATIENCE_S:
                entry["gave_up"] = True
                break
            entry["waited_s"] += elapsed
        return self.REFERENCE_S / elapsed


def _quanta(arrivals: int, scale: float, groups: int = 1) -> int:
    """``arrivals * scale`` as a whole number of quanta per group (at least one)."""
    return max(1, round(arrivals * scale / (groups * QUANTUM)))


def _columns(tuples) -> tuple[np.ndarray, ...]:
    size = len(tuples)
    return (
        np.fromiter((tup.timestamp for tup in tuples), np.float64, size),
        np.fromiter((tup.values["join_key"] for tup in tuples), np.int64, size),
        np.fromiter((tup.values["value"] for tup in tuples), np.float64, size),
        np.fromiter((tup.seqno for tup in tuples), np.int64, size),
        np.fromiter((tup.stream == "A" for tup in tuples), np.bool_, size),
    )


def _wait_until(due: float) -> None:
    while True:
        remaining = due - clock()
        if remaining <= 0:
            return
        if remaining > 0.0005:
            time.sleep(remaining - 0.0003)


def run_pass(
    workload: Workload,
    seed: int,
    scale: float,
    open_windows: int = OPEN_WINDOWS,
    traced: bool = False,
    trace_path: str | None = None,
    warmup_s: float | None = None,
) -> dict:
    """Run one pass and return its record (see the module docstring)."""
    tracer = None
    if traced:
        from bench import trace  # Imported by the traced pass only.

        tracer = trace.install()
    if warmup_s is None:
        warmup_s = workload.max_window * workloads.WARMUP_WINDOWS
    closed_quanta = _quanta(workload.closed_arrivals, scale)
    window_quanta = _quanta(workload.open_arrivals, scale, OPEN_WINDOWS)
    source = workloads.arrivals(seed)

    # Columns of the lazily generated prefix, for the oracle: allocated and
    # touched now so that filling them is not read as session memory.
    capacity = int(warmup_s * workloads.ARRIVALS_PER_STREAM_SECOND * 1.2) + 64 * QUANTUM
    lazy = np.full((5, capacity), 0.0)

    run = Run(workload)
    gate = HostGate()
    setup_samples = []  #: Reference-host seconds, fresh sessions only (below).
    run.setup()
    probe_samples: list[float] = []

    def sample_short_operations() -> None:
        """One group of set-up times (fresh sessions) and migration probes."""
        gate.hold("short operations")
        for _ in range(GROUP_SAMPLES):
            fresh = Run(workload)
            scale = gate.scale()
            setup_samples.append(fresh.setup() * scale)
            fresh.session.close()
        if workload.churn is None:
            if tracer is not None:
                tracer.enabled = True
            for _ in range(GROUP_SAMPLES):
                scale = gate.scale()
                probe_samples.append(run.probe_migration() * scale)
            if tracer is not None:
                tracer.enabled = False

    record: dict = {
        "workload": workload.name,
        "workload_hash": workload.fingerprint(),
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "knobs": workloads.resolved_knobs(run.session),
        "warmup_stream_s": warmup_s,
    }

    # -- lazy, untimed warm-up; memory is read at its end ---------------------
    memory = MemoryProbe()
    filled = 0
    now = 0.0
    while now < warmup_s:
        run.migrate()
        quantum = list(islice(source, QUANTUM))
        if filled + QUANTUM > capacity:
            raise RuntimeError("warm-up outran its preallocated columns")
        for offset, tup in enumerate(quantum, filled):
            lazy[0, offset] = tup.timestamp
            lazy[1, offset] = tup.values["join_key"]
            lazy[2, offset] = tup.values["value"]
            lazy[3, offset] = tup.seqno
            lazy[4, offset] = tup.stream == "A"
        filled += QUANTUM
        now = quantum[-1].timestamp
        run.check(run.feed(quantum))
        del quantum
        gate.sample()
    record["rss_growth_mb"] = memory.growth_mib()
    record["warmup_arrivals"] = filled

    # -- materialise the timed input ------------------------------------------
    timed = list(islice(source, (closed_quanta + open_windows * window_quanta) * QUANTUM))
    columns = [
        np.concatenate([lazy[index, :filled], column])
        for index, column in enumerate(_columns(timed))
    ]
    arrivals = Arrivals(
        columns[0],
        columns[1].astype(np.int64),
        columns[2],
        columns[3].astype(np.int64),
        columns[4].astype(bool),
    )
    del lazy, columns
    gc.collect()
    gc.freeze()
    cursor = 0

    def next_quantum():
        nonlocal cursor
        quantum = timed[cursor : cursor + QUANTUM]
        cursor += QUANTUM
        return quantum

    if tracer is not None:
        before = run.snapshot()
        stats_before = run.engine_stats()
        reshards_before = len(getattr(run.session, "reshard_events", ()))
    sample_short_operations()
    if tracer is not None:
        tracer.enabled = True

    # -- closed loop ------------------------------------------------------------
    # All three in reference-host seconds (wall seconds x the probe's scale).
    service = []  #: From feed to pop return, per quantum.
    pauses = []  #: Inside migration calls before each quantum.
    wall = 0.0  #: Plain wall seconds of both, for the whole-loop mean.
    for _ in range(closed_quanta):
        scale = gate.hold("closed loop")
        if tracer is not None:
            tracer.quantum = run.quantum
        paused = run.migrate()
        quantum = next_quantum()
        start = clock()
        results = run.feed(quantum)
        elapsed = clock() - start
        service.append(elapsed * scale)
        pauses.append(paused * scale)
        wall += elapsed + paused
        run.check(results)
    if tracer is not None:
        tracer.quantum = -1
        tracer.enabled = False
    record["closed"] = {
        "quanta": closed_quanta,
        "arrivals": closed_quanta * QUANTUM,
        "wall_s": wall,
        "mean_tuples_per_s": closed_quanta * QUANTUM / wall,
        "quantum_s_deciles": [float(q) for q in np.percentile(service, [10, 50, 90])],
        "quantum_s_fast": fast(service),
    }
    record["tuples_per_s"] = QUANTUM / fast(service)

    # -- open loop --------------------------------------------------------------
    if open_windows:
        record.update(
            _open_loop(
                run, gate, arrivals, next_quantum, window_quanta, open_windows,
                between_windows=sample_short_operations,
            )
        )
    sample_short_operations()

    # -- migration price --------------------------------------------------------
    if workload.churn is not None:
        # One sample per schedule cycle of the closed loop (a shorter loop is
        # one partial cycle, scaled up).
        cycle = workload.churn.cycle_quanta
        chunks = np.array_split(np.asarray(pauses), max(1, closed_quanta // cycle))
        probe_samples = [chunk.sum() * cycle / len(chunk) for chunk in chunks]
    record["migration_pause_samples_ms"] = [sample * 1e3 for sample in probe_samples]
    record["migration_pause_ms"] = fast(probe_samples) * 1e3

    if tracer is not None:
        record["counts"] = _counts(run, before, stats_before, reshards_before)
        record["counts"]["driver.quanta"] = closed_quanta
        record["layers"] = _layers(tracer)
        record["unwrapped"] = tracer.unwrapped
        record["spans"] = len(tracer.spans)
        if trace_path:
            tracer.write(trace_path)
    run.session.close()
    record["host_gate"] = {
        "level_s": gate.level(),
        "waits": gate.waits,
    }
    record["setup_samples_s"] = setup_samples
    record["setup_s"] = fast(setup_samples)

    # -- oracle -----------------------------------------------------------------
    threshold = (
        None
        if workload.join == "equi"
        else round(workload.join_selectivity * workloads.KEY_DOMAIN)
    )
    answers = expected(
        arrivals.prefix(run.fed),
        list(run.oracle_queries.values()),
        workloads.KEY_DOMAIN,
        threshold,
    )
    failures = []
    for name, (count, digest) in answers.items():
        got = (run.checker.count.get(name, 0), run.checker.digest.get(name, 0))
        if got != (count, digest):
            failures.append({"query": name, "expected": [count, digest], "got": list(got)})
    record["ops"] = len(answers)
    record["failed_ops"] = len(failures)
    record["failures"] = failures
    record["results_checked"] = sum(run.checker.count.values())
    record["arrivals_fed"] = run.fed
    return record


def _open_loop(
    run, gate, arrivals, next_quantum, window_quanta, windows, between_windows
) -> dict:
    """The open-loop windows; returns the latency part of the record.

    Each window is its own stretch of schedule: it starts when the host gate
    reads quiet, and its origin maps the stream time already fed to "now".
    ``between_windows`` runs before each window (the short-operation samples).
    """
    workload = run.workload
    speed = workload.open_rate / workloads.ARRIVALS_PER_STREAM_SECOND
    # seqno -> stream timestamp, for the due time of a result's later input.
    stamp_of = np.zeros(int(arrivals.seqno.max()) + 1)
    stamp_of[arrivals.seqno] = arrivals.timestamp
    per_window = []
    max_lag = 0.0
    final_lag = 0.0
    for _ in range(windows):
        between_windows()
        gate.hold("open loop")
        base_stamp = arrivals.timestamp[run.fed - 1]
        origin = clock()
        delivered = []
        for _ in range(window_quanta):
            quantum = next_quantum()
            due = origin + (quantum[-1].timestamp - base_stamp) / speed
            # Read in the idle time before the quantum is due; a late driver
            # skips nothing, the reading is part of its lateness.
            scale = gate.scale()
            _wait_until(due)
            sent = clock()
            final_lag = sent - due
            max_lag = max(max_lag, final_lag)
            run.migrate()
            results = run.feed(quantum)
            # The wait for the send is the schedule's, whatever the host does;
            # the time from the send to the pop is the program's, and that
            # part is turned into reference-host time.
            popped = sent + (clock() - sent) * scale
            for left, right in run.check(results):
                delivered.append((popped, left, right))
        latencies = np.concatenate(
            [
                popped
                - (origin + (np.maximum(stamp_of[left], stamp_of[right]) - base_stamp) / speed)
                for popped, left, right in delivered
            ]
        )
        p50, p99 = np.percentile(latencies, [50, 99])
        per_window.append(
            {
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
                "samples": int(latencies.size),
                "final_lag_ms": final_lag * 1e3,
            }
        )
    return {
        "open": {
            "rate": workload.open_rate,
            "window_quanta": window_quanta,
            "windows": per_window,
            "max_lag_ms": max_lag * 1e3,
            "unsustained": any(
                window["final_lag_ms"] > UNSUSTAINED_LAG_S * 1e3 for window in per_window
            ),
        },
        "latency_p50_ms": fast([entry["p50_ms"] for entry in per_window]),
        "latency_p99_ms": fast([entry["p99_ms"] for entry in per_window]),
    }


def _counts(run, before, stats_before, reshards_before) -> dict:
    """The program's own counters over the timed part of a traced pass."""
    session = run.session
    after = run.snapshot()
    delta = after.diff(before)
    batches, delivered = run.engine_stats()
    budget = dict(run.workload.session_args).get("memory_budget_bytes")
    if hasattr(session, "shard_ingest_totals"):
        totals = session.shard_ingest_totals()
        skew = max(totals) / (sum(totals) / len(totals)) if sum(totals) else 0.0
    else:
        skew = 1.0
    events = getattr(session, "reshard_events", [])[reshards_before:]
    return {
        "engine.batches": batches - stats_before[0],
        "engine.results_delivered": delivered - stats_before[1],
        "engine.route_comparisons": delta.get("comparisons.route", 0.0),
        "engine.select_comparisons": delta.get("comparisons.select", 0.0),
        "join.probe_comparisons": delta.get("comparisons.probe", 0.0),
        "join.purge_comparisons": delta.get("comparisons.purge", 0.0),
        "join.results": delta.get("emitted.total", 0.0),
        "state.peak_tuples": after.get("memory.max", 0.0),
        "state.peak_resident_bytes": after.get("memory.max_resident_bytes", 0.0),
        "spill.evictions": delta.get("observations.spill.evictions", 0.0),
        "spill.segments": delta.get("observations.spill.segments", 0.0),
        "spill.cold_reads": delta.get("observations.spill.cold_reads", 0.0),
        "spill.resident_over_budget": (
            after.get("memory.max_resident_bytes", 0.0) / budget if budget else 0.0
        ),
        "spill.spilled_bytes": after.get("memory.spilled_bytes", 0.0),
        "sharding.skew": skew,
        "sharding.reshard_moved_tuples": sum(event.moved_tuples for event in events),
        "chain.slices": session.slice_count(),
    }


def _layers(tracer) -> dict:
    """Seconds per layer from the tracer's tallies (see bench/README.md)."""
    push = tracer.tally("ring.try_push")
    return {
        "sharding.partition_self_s": tracer.self_time("sharding.process_many"),
        "sharding.merge_self_s": tracer.self_time("sharding.pop_results_all"),
        "sharding.worker_wait_s": tracer.total("sharding.worker_wait"),
        "sharding.reshard_pause_s": tracer.total("sharding.reshard"),
        "ring.push_s": push.total,
        "ring.pushes": push.calls - push.false_returns,
        "ring.full_retries": push.false_returns,
        "ring.bytes": tracer.tally("streams.encode_batch").result_bytes,
        "streams.encode_s": tracer.total("streams.encode_batch"),
        "engine.self_s": tracer.self_time(
            "engine.process_many", "engine.process", "engine.flush", "engine.pop_results"
        ),
        # Session-level calls: on a sharded session the per-shard engine calls
        # are nested inside (and a reshard replays admissions of its own).
        "engine.admit_s": tracer.total("sharding.add_query")
        or tracer.total("engine.add_query"),
        "engine.remove_s": tracer.total("sharding.remove_query")
        or tracer.total("engine.remove_query"),
        "metrics.self_s": sum(
            tally.self_time
            for name, tally in tracer.tallies.items()
            if name.startswith("metrics.")
        ),
        "chain.self_s": tracer.self_time("chain.process_batch"),
        "chain.migrate_s": tracer.total(
            "chain.split_slice", "chain.merge_slices", "chain.append_slice", "chain.drop_tail_slice"
        ),
        "join.calls": tracer.calls("join.process_batch"),
        "join.self_s": tracer.self_time("join.process_batch"),
        "join.state_move_s": tracer.self_time(
            "join.extract_state", "join.ingest_state", "join.load_state"
        ),
        "predicates.mask_s": tracer.total("predicates.match_mask"),
        "predicates.mask_calls": tracer.calls("predicates.match_mask"),
        "columns.purge_s": tracer.total("columns.purge_cut", "columns.take"),
        "columns.purge_calls": tracer.calls("columns.purge_cut"),
        "spill.probe_s": tracer.total("spill.probe"),
        "spill.purge_s": tracer.total("spill.purge"),
        "spill.flush_s": tracer.total("spill.flush"),
        "spill.evict_s": tracer.total("spill.evict"),
    }
