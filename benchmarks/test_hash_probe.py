"""Hash-probe acceptance gate (PR 2, re-pointed in PR 13, made exact in PR 17).

The sliced-join chain on an equi-join workload: ``probe="nested_loop"`` —
a vectorized ``match_mask`` over the key column — versus ``probe="hash"`` —
two bisects on the probing key's posting list.  Both run the one column per
stream of the cursor chain (:class:`repro.engine.columns.ChainColumn`) and
its block path, so neither needs pinning to the other's schedule any more
(the ``scalar_schedule`` fixture this test used before PR 18).  Outputs must
be identical pair-for-pair, and the gate is what the index guarantees
*exactly*, in the paper's own unit: the scan is charged one probe comparison
per resident tuple inside the window (counted here by a plain sliding
window over the input), the index one per emitted pair — on this workload
a factor of 945, about the 1000 keys the generator draws from.

Wall-clock throughput is recorded in ``results/BENCH_hash_probe.json`` but
not gated: a best-of-3 ratio of 5–20 ms runs stopped two tier-1 runs in
three on a 2-vCPU host.  On the column the index measures 1.15–1.27× the
scan on this gate's few-hundred-row states (it was 0.7–0.9× the block kernel
while an indexed state replayed call by call, PR 15's finding (1)) and 1.1×
on ``equi_shared``'s 8k-row columns (``docs/benchmarks.md``).
"""

from __future__ import annotations

import time
from collections import deque

from _bench_util import record_run

from repro.core.chain import SlicedJoinChain
from repro.query.predicates import EquiJoinCondition
from repro.runtime import StreamEngine
from repro.streams.generators import JOIN_KEY_DOMAIN, generate_join_workload

RATE = 120
DURATION = 6.0
KEY_DOMAIN = 200
BOUNDARIES = [0.0, 1.0, 3.0]
DATA = generate_join_workload(rate_a=RATE, rate_b=RATE, duration=DURATION, seed=42)
CONDITION = EquiJoinCondition("join_key", "join_key", key_domain=KEY_DOMAIN)


def _run_chain(probe: str) -> tuple[float, list[tuple[int, int, int]], float]:
    """Best-of-3 wall-clock seconds, the tagged output pairs, probe comparisons."""
    best = float("inf")
    for _ in range(3):
        chain = SlicedJoinChain(BOUNDARIES, CONDITION, probe=probe)
        start = time.perf_counter()
        results = chain.process_batch(DATA.tuples)
        best = min(best, time.perf_counter() - start)
    outputs = [(index, j.left.seqno, j.right.seqno) for index, j in results]
    return best, outputs, chain.metrics.comparisons["probe"]


def _resident_pairs() -> int:
    """(probing tuple, opposite-stream tuple still inside the chain's window)
    pairs of the input: what a scan of the slice states must examine."""
    window = BOUNDARIES[-1]
    resident = {"A": deque(), "B": deque()}
    pairs = 0
    for tup in DATA.tuples:
        opposite = resident["B" if tup.stream == "A" else "A"]
        while opposite and tup.timestamp - opposite[0] >= window:
            opposite.popleft()
        pairs += len(opposite)
        resident[tup.stream].append(tup.timestamp)
    return pairs


def test_hash_probe_speedup_gate(results_dir):
    nested_seconds, nested_out, nested_probes = _run_chain("nested_loop")
    hashed_seconds, hashed_out, hashed_probes = _run_chain("hash")
    assert nested_out == hashed_out, "hash probing changed the join answer"

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
                "probe_comparisons": probes,
            }
            for name, seconds, probes in (
                ("nested_loop", nested_seconds, nested_probes),
                ("hash", hashed_seconds, hashed_probes),
            )
        ],
        "speedup_hash_vs_nested_loop": round(nested_seconds / hashed_seconds, 3),
    }
    record_run(results_dir, "hash_probe", payload)

    # The scan examines every resident tuple inside the window; the index
    # only the tuples that match — one in ~JOIN_KEY_DOMAIN.
    assert nested_probes == _resident_pairs()
    assert hashed_probes == len(hashed_out)
    assert 0.8 * JOIN_KEY_DOMAIN < nested_probes / hashed_probes < 1.25 * JOIN_KEY_DOMAIN


def test_hash_probe_engine_outputs_identical():
    """The StreamEngine's probe flag rides the same path: spot-check that a
    live session with admissions mid-stream stays pair-identical."""
    outputs = {}
    for probe in ("nested_loop", "hash"):
        engine = StreamEngine(CONDITION, probe=probe)
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
