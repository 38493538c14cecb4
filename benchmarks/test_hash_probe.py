"""Hash-probe acceptance gate (PR 2, re-pointed in PR 13).

Wall-clock throughput of the sliced-join chain on an equi-join workload:
``probe="nested_loop"`` — one vectorized ``match_mask`` over the slice
state's key column per probe — versus ``probe="hash"`` — one bucket lookup
in the state's per-key index.  Both run the only slice state there is
(:mod:`repro.engine.columns`).  Outputs must be identical pair-for-pair;
the measured trajectory is recorded in ``results/BENCH_hash_probe.json``.

The workload is sized so each side's window state holds a few hundred
tuples: the mask then touches hundreds of keys per arrival while the index
hands out roughly ``state × S1`` candidates.  The margin is what the index
buys over a numpy scan (1.6–1.8× here on 2 cores), not what it bought over
the per-candidate Python scan it was first gated against (5.4×; that path
is deleted), so the gate is 1.25×.

"Per probe" is the gate's schedule: an indexed state always answers a batch
call by call (``replay_sweep``), so the nested-loop reference is timed on
that schedule too (the ``scalar_schedule`` fixture) — gate, workload and
meaning as before PR 15.  That PR's block kernel gives the *scan* a
schedule the index has not got (one 2-D mask per batch): on states this
small the default path now beats the index (hash 0.7–0.9× of it), which the
trajectory records as ``speedup_hash_vs_block_kernel`` and ROADMAP lists as
a follow-up (a block path for indexed states); it is not gated.
"""

from __future__ import annotations

import os
import time

from _bench_util import record_run

from repro.core.chain import SlicedJoinChain
from repro.query.predicates import EquiJoinCondition
from repro.runtime import StreamEngine
from repro.streams.generators import generate_join_workload

RATE = 120
DURATION = 6.0
KEY_DOMAIN = 200
BOUNDARIES = [0.0, 1.0, 3.0]
DATA = generate_join_workload(rate_a=RATE, rate_b=RATE, duration=DURATION, seed=42)
CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)

SPEEDUP_GATE = 1.25


def _run_chain(probe: str) -> tuple[float, list[tuple[int, int, int]]]:
    """Best-of-3 wall-clock seconds plus the tagged output pairs."""
    best = float("inf")
    outputs = None
    for _ in range(3):
        chain = SlicedJoinChain(BOUNDARIES, CONDITION, probe=probe)
        start = time.perf_counter()
        results = chain.process_batch(DATA.tuples)
        best = min(best, time.perf_counter() - start)
        outputs = [(index, j.left.seqno, j.right.seqno) for index, j in results]
    return best, outputs


def test_hash_probe_speedup_gate(results_dir, scalar_schedule):
    with scalar_schedule():
        nested_seconds, nested_out = _run_chain("nested_loop")
    block_seconds, block_out = _run_chain("nested_loop")
    hashed_seconds, hashed_out = _run_chain("hash")
    assert nested_out == block_out == hashed_out, "hash probing changed the join answer"

    speedup = nested_seconds / hashed_seconds
    # Shared CI runners (now also running tier-1 under pytest-xdist) have
    # noisy wall clocks; keep the full gate for local/dedicated runs and
    # direction-check on CI — the trajectory still records the measurement.
    gate = 1.0 if os.environ.get("CI") else SPEEDUP_GATE
    arrivals = len(DATA.tuples)
    payload = {
        "benchmark": "hash_probe_equi_join",
        "arrivals": arrivals,
        "workload": {
            "chain_boundaries": BOUNDARIES,
            "rate_per_stream": RATE,
            "duration_seconds": DURATION,
            "equi_key_domain": KEY_DOMAIN,
        },
        "results": [
            {
                "probe": name,
                "seconds": round(seconds, 6),
                "tuples_per_sec": round(arrivals / seconds, 1),
                "joined_pairs": len(nested_out),
            }
            for name, seconds in (
                ("nested_loop", nested_seconds),
                ("nested_loop (block kernel)", block_seconds),
                ("hash", hashed_seconds),
            )
        ],
        "speedup_hash_vs_nested_loop": round(speedup, 3),
        "speedup_hash_vs_block_kernel": round(block_seconds / hashed_seconds, 3),
        "gate": SPEEDUP_GATE,
    }
    path = record_run(results_dir, "hash_probe", payload)

    assert speedup >= gate, (
        f"hash probing reached only {speedup:.2f}x nested-loop throughput "
        f"(gate {gate}x); see {path}"
    )


def test_hash_probe_engine_outputs_identical():
    """The StreamEngine's probe flag rides the same path: spot-check that a
    live session with admissions mid-stream stays pair-identical."""
    outputs = {}
    for probe in ("nested_loop", "hash"):
        engine = StreamEngine(CONDITION, batch_size=32, probe=probe)
        engine.add_query("Q1", 3.0)
        for index, tup in enumerate(DATA.tuples):
            if index == len(DATA.tuples) // 2:
                engine.add_query("Q2", 1.0)
            engine.process(tup)
        engine.flush()
        outputs[probe] = [
            [(j.left.seqno, j.right.seqno) for j in engine.results(name)]
            for name in ("Q1", "Q2")
        ]
    assert outputs["nested_loop"] == outputs["hash"]
