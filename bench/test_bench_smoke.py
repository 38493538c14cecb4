"""Smoke test of the benchmark itself; asserts nothing about speed.

* every workload runs its untraced and its traced pass at a tiny scale, every
  query's output passes the oracle, and the workload and metric names printed
  are exactly the ones ``BENCHMARK.json`` declares (``sharded_process``, kept
  out of the contract, prints its transport layers besides);
* the oracle agrees with ``repro.baselines.unshared`` on a 2k-arrival prefix.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from bench import oracle, workloads
from repro.baselines.unshared import build_unshared_plan
from repro.engine.executor import execute_plan
from repro.query.predicates import (
    EquiJoinCondition,
    TruePredicate,
    selectivity_filter,
    selectivity_join,
)
from repro.query.query import ContinuousQuery, QueryWorkload

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: What ``bench/run.py`` prints on an off-contract workload beside the contract's metrics.
PROCESS_LAYER = {
    "sharding.worker_wait_s": "s",
    "ring.push_s": "s",
    "ring.pushes": "count",
    "ring.bytes": "bytes",
    "ring.full_retries": "count",
    "streams.encode_s": "s",
}


def test_every_workload_runs_and_prints_the_declared_metrics(tmp_path):
    # One run.py per workload, all at once: nothing here depends on speed.
    running = {
        name: subprocess.Popen(
            [
                sys.executable,
                str(ROOT / "bench" / "run.py"),
                "--workload", name,
                "--scale", "0.02",
                "--warmup-s", "0.5",
                "--out", str(tmp_path / f"{name}.runs.jsonl"),
                "--trace-out", str(tmp_path / "{workload}.spans.jsonl"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in workloads.WORKLOADS
    }
    declared = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    contract = {workload["name"] for workload in CONTRACT["workloads"]}
    assert set(running) == contract | {"sharded_process"}
    for name, process in running.items():
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["correct"] and summary["failed"] == 0, stderr
        assert summary["attempted"] >= 2
        printed = {metric: entry["unit"] for metric, entry in summary["metrics"].items()}
        if name not in contract:
            for metric in PROCESS_LAYER:
                assert printed.pop(metric) == PROCESS_LAYER[metric]
        assert printed == declared, name
        # The record carries its provenance and the knobs the defaults resolved to.
        (record,) = [
            json.loads(line)
            for line in (tmp_path / f"{name}.runs.jsonl").read_text().splitlines()
        ]
        assert {"git_sha", "git_dirty", "python", "numpy", "cores"} <= set(record["provenance"])
        assert set(record["untraced"]["knobs"]) == {"probe", "columnar", "batch_size"}
        assert record["untraced"]["workload_hash"] == workloads.WORKLOADS[name].fingerprint()
        assert not record["traced"]["unwrapped"]
        span = json.loads((tmp_path / f"{name}.spans.jsonl").read_text().splitlines()[0])
        assert set(span) == {"id", "parent", "name", "start", "end", "quantum"}


@pytest.mark.parametrize("name", ["equi_shared", "theta_scan"])
def test_oracle_agrees_with_the_unshared_baseline(name):
    workload = workloads.WORKLOADS[name]
    tuples = list(islice(workloads.arrivals(seed=5), 2000))
    if workload.join == "equi":
        condition = EquiJoinCondition("join_key", "join_key", key_domain=workloads.KEY_DOMAIN)
        threshold = None
    else:
        condition = selectivity_join(workload.join_selectivity, domain=workloads.KEY_DOMAIN)
        threshold = round(workload.join_selectivity * workloads.KEY_DOMAIN)

    def predicate(selectivity):
        return TruePredicate() if selectivity is None else selectivity_filter(selectivity)

    # Windows shrunk 8x so that the 2 stream-seconds of the prefix tell them apart.
    queries = [
        ContinuousQuery(
            query.name,
            query.window / 8,
            condition,
            predicate(query.left_selectivity),
            predicate(query.right_selectivity),
        )
        for query in workload.queries
    ]
    algorithm = "hash" if workload.join == "equi" else "nested_loop"
    report = execute_plan(build_unshared_plan(QueryWorkload(queries), algorithm), tuples)
    arrivals = oracle.Arrivals(
        np.array([tup.timestamp for tup in tuples]),
        np.array([tup.values["join_key"] for tup in tuples], dtype=np.int64),
        np.array([tup.values["value"] for tup in tuples]),
        np.array([tup.seqno for tup in tuples], dtype=np.int64),
        np.array([tup.stream == "A" for tup in tuples]),
    )
    answers = oracle.expected(
        arrivals,
        [
            oracle.OracleQuery(
                query.name, query.window, workload_query.left_selectivity,
                workload_query.right_selectivity,
            )
            for query, workload_query in zip(queries, workload.queries)
        ],
        workloads.KEY_DOMAIN,
        threshold,
    )
    assert sum(count for count, _ in answers.values()) > 0
    for query in queries:
        results = report.results[query.name]
        left = np.array([joined.left.seqno for joined in results], dtype=np.int64)
        right = np.array([joined.right.seqno for joined in results], dtype=np.int64)
        assert answers[query.name] == (len(results), oracle.pair_digest(left, right)), query.name
