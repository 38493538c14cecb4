#!/usr/bin/env python3
"""Benchmark of the State-Slice runtime on default knobs (see bench/README.md).

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S | --scale F]
                         [--trace 0|1] [--out FILE] [--trace-out FILE]
                         [--check-repeat]

Without ``--workload`` the five workloads of ``BENCHMARK.json`` run (the sixth,
``sharded_process``, runs by name only: see bench/README.md); without
``--trace`` each runs both its untraced pass (end-to-end metrics) and its
traced pass (per-layer metrics).  Every metric is printed by name with its unit, every query's output
is checked against ``bench/oracle.py``, and the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Each pass runs in a fresh subprocess (``--child``), so memory and import state
do not leak between passes and only the traced pass imports ``bench/trace.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: the program under test is missing: no {ROOT / 'src' / 'repro'}")
# The script's own directory leaves the path: its trace.py is not the stdlib's.
sys.path = [str(ROOT / "src"), str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != BENCH
]

from bench import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in CONTRACT["per_layer"]}
CONTRACT_WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
#: Transport layers that only a process-mode session enters: printed beside the
#: contract's per-layer metrics on a workload that is not in the contract.
PROCESS_LAYER = {
    "sharding.worker_wait_s": "s",
    "ring.push_s": "s",
    "ring.pushes": "count",
    "ring.bytes": "bytes",
    "ring.full_retries": "count",
    "streams.encode_s": "s",
}
#: ``--seconds`` of this length is scale 1.0.
RUN_SECONDS = CONTRACT["run_seconds"]
#: Counts that must repeat exactly between two runs of one seed.
EXACT_COUNTS = (
    "driver.quanta",
    "sharding.skew",
    "sharding.reshard_moved_tuples",
    "ring.pushes",
    "ring.bytes",
    "engine.batches",
    "engine.results_delivered",
    "engine.route_comparisons",
    "engine.select_comparisons",
    "join.calls",
    "join.probe_comparisons",
    "join.purge_comparisons",
    "join.results",
    "predicates.mask_calls",
    "columns.purge_calls",
    "state.peak_tuples",
    "spill.evictions",
    "spill.segments",
    "spill.cold_reads",
)
CHILD_TIMEOUT_S = 170
#: Closed-loop length of the two passes of ``--trace 1``, relative to ``--scale``.
TRACE_ONLY_SCALE = 0.5


# -- provenance -------------------------------------------------------------------
def _git(*arguments: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "spill_root": spill_root(),
    }


# -- passes -----------------------------------------------------------------------
def spill_root() -> str:
    """Where a pass's temporary files (the spill tier's segments) go.

    The memory file system that already carries the process-mode rings, when
    the host has one: ``equi_spill`` creates and unlinks ~1000 small segment
    files per second, and on the reference host's ext4 (mounted with online
    discard) the kernel time of that drifts by 2x over minutes, which would
    measure the disk instead of the program.  Elsewhere, a directory of the
    benchmark's own.  Each pass gets a fresh subdirectory, removed afterwards.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return str(shm)
    fallback = BENCH / "out" / "tmp"
    fallback.mkdir(parents=True, exist_ok=True)
    return str(fallback)


def run_child(spec: dict) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    scratch = tempfile.mkdtemp(prefix="state-slice-bench-", dir=spill_root())
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=dict(os.environ, TMPDIR=scratch),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"pass exited with {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def child_main(spec: dict) -> None:
    from bench import driver

    try:
        record = driver.run_pass(
            workloads.WORKLOADS[spec["workload"]],
            seed=spec["seed"],
            scale=spec["scale"],
            open_windows=spec["open_windows"],
            traced=spec["traced"],
            trace_path=spec.get("trace_path"),
            warmup_s=spec.get("warmup_s"),
        )
    except Exception:  # The session raised: every operation of the pass failed.
        record = {"error": traceback.format_exc()}
    # numpy scalars (counters, percentiles) become plain numbers.
    print(json.dumps(record, default=lambda scalar: scalar.item()))


def measure(name: str, options, trace: int | None) -> dict:
    """Run the passes ``trace`` asks for on one workload.

    ``trace`` 0: the untraced pass (end-to-end metrics); 1: a short untraced
    pass plus the traced pass (per-layer metrics); None: the full untraced
    pass plus the traced pass (both sets).
    """
    spec = {
        "workload": name,
        "seed": options.seed,
        # With --trace 1 both passes exist for the layer breakdown only and
        # run a shorter closed loop; the untraced one keeps two open windows
        # for the generator lag.
        "scale": options.scale * (TRACE_ONLY_SCALE if trace == 1 else 1.0),
        "warmup_s": options.warmup_s,
        "traced": False,
        "open_windows": 2 if trace == 1 else workloads.OPEN_WINDOWS,
    }
    untraced = run_child(spec)
    result = {"workload": name, "untraced": untraced, "metrics": {}}
    passes = [untraced]
    if "error" not in untraced and trace != 1:
        for metric in END_TO_END:
            result["metrics"][metric] = untraced[metric]
    if trace != 0:
        trace_path = None
        if options.trace_out:
            trace_path = options.trace_out.replace("{workload}", name)
        traced = run_child(
            dict(spec, traced=True, open_windows=0, trace_path=trace_path)
        )
        result["traced"] = traced
        passes.append(traced)
        if "error" not in traced and "error" not in untraced:
            layer = dict(traced["counts"], **traced["layers"])
            layer["driver.max_lag_ms"] = untraced["open"]["max_lag_ms"]
            layer["driver.trace_overhead_ratio"] = (
                traced["closed"]["quantum_s_fast"] / untraced["closed"]["quantum_s_fast"]
            )
            for metric in PER_LAYER:
                result["metrics"][metric] = layer[metric]
            if name not in CONTRACT_WORKLOADS:
                for metric in PROCESS_LAYER:
                    result["metrics"][metric] = layer[metric]
    result["attempted"] = 0
    result["failed"] = 0
    result["errors"] = []
    for record in passes:
        if "error" in record:
            # Nothing was verified: the pass counts as one failed operation.
            result["attempted"] += 1
            result["failed"] += 1
            result["errors"].append(record["error"])
            continue
        unsustained = record.get("open", {}).get("unsustained", False)
        result["attempted"] += record["ops"]
        result["failed"] += record["ops"] if unsustained else record["failed_ops"]
        if unsustained:
            result["errors"].append("open loop unsustained: latency metrics count as failed")
        for failure in record["failures"]:
            result["errors"].append(f"oracle mismatch: {failure}")
    return result


# -- reporting --------------------------------------------------------------------
def unit_of(metric: str) -> str:
    if metric in PROCESS_LAYER:
        return PROCESS_LAYER[metric]
    return (END_TO_END.get(metric) or PER_LAYER[metric])["unit"]


def print_result(result: dict) -> None:
    name = result["workload"]
    untraced = result["untraced"]
    if "error" not in untraced:
        knobs = untraced["knobs"]
        print(
            f"# {name}  hash={untraced['workload_hash']}  seed={untraced['seed']}  "
            f"scale={untraced['scale']:g}  probe={knobs['probe']}  "
            f"columnar={knobs['columnar']}  batch_size={knobs['batch_size']}"
        )
        closed = untraced["closed"]
        deciles = ", ".join(f"{value * 1e3:.2f}" for value in closed["quantum_s_deciles"])
        print(
            f"#   closed loop (untraced): {closed['quanta']} quanta of {workloads.QUANTUM}, "
            f"service p10/p50/p90 {deciles} reference-host ms, "
            f"whole-loop mean {closed['mean_tuples_per_s']:.0f} arrivals per wall second"
        )
        windows = untraced.get("open", {}).get("windows", [])
        if windows:
            print(
                f"#   open loop at {untraced['open']['rate']} arrivals/s, per window: p50 "
                + " ".join(f"{window['p50_ms']:.1f}" for window in windows)
                + " ms; p99 "
                + " ".join(f"{window['p99_ms']:.1f}" for window in windows)
                + f" ms; {min(window['samples'] for window in windows)}+ results each"
            )
    for metric, value in result["metrics"].items():
        print(f"{name:16s} {metric:32s} {value:16.6f} {unit_of(metric)}")
    print(f"{name:16s} {'failed_ops / ops':32s} {result['failed']} / {result['attempted']}")
    for error in result["errors"]:
        print(f"{name}: {error}", file=sys.stderr)


def final_line(results: list[dict], single: bool) -> str:
    metrics = {}
    for result in results:
        prefix = "" if single else result["workload"] + "/"
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    complete = all(
        len(result["metrics"]) > 0 and not result["errors"] for result in results
    )
    return json.dumps(
        {
            "correct": failed == 0 and complete,
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": metrics,
        }
    )


def append_records(path: Path, results: list[dict], options) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    stamp = provenance()
    with open(path, "a", encoding="utf-8") as handle:
        for result in results:
            handle.write(
                json.dumps(dict(result, provenance=stamp, seed=options.seed, scale=options.scale))
                + "\n"
            )


def run_set(names: list[str], options) -> list[dict]:
    results = []
    for name in names:
        result = measure(name, options, options.trace)
        print_result(result)
        results.append(result)
    return results


def check_repeat(names: list[str], options) -> int:
    """Two sets of the same code on the same host must agree."""
    print("## set A")
    first = run_set(names, options)
    print("## set B")
    second = run_set(names, options)
    append_records(options.out, first + second, options)
    worst = 0
    print("## B relative to A")
    for a, b in zip(first, second):
        name = a["workload"]
        if a["failed"] or b["failed"]:
            print(f"{name}: failed operations (A {a['failed']}, B {b['failed']})")
            worst = 1
        for metric in a["metrics"]:
            if metric not in b["metrics"]:
                print(f"{name} {metric}: missing from set B")
                worst = 1
                continue
            before, after = a["metrics"][metric], b["metrics"][metric]
            relative = (after - before) / before if before else float(after != before)
            verdict = ""
            if metric in END_TO_END and abs(relative) > END_TO_END[metric]["bound"]:
                verdict = f"  OUTSIDE bound {END_TO_END[metric]['bound']:.0%}"
                worst = 1
            if metric in EXACT_COUNTS and before != after:
                verdict = "  NOT IDENTICAL"
                worst = 1
            if metric in END_TO_END or metric in EXACT_COUNTS:
                print(f"{name:16s} {metric:32s} {before:16.6f} {after:16.6f} {relative:+8.2%}{verdict}")
    print("check-repeat:", "FAILED" if worst else "ok")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help=f"measured seconds per pass on the reference host; {RUN_SECONDS} is scale 1.0",
    )
    parser.add_argument(
        "--scale", type=float, help="multiply every workload's timed arrivals (overrides --seconds)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only; omitted: both",
    )
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "runs.jsonl")
    parser.add_argument(
        "--trace-out", help="write the traced pass's spans here ({workload} is substituted)"
    )
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument(
        "--warmup-s",
        type=float,
        help="smoke tests only: shorten the untimed warm-up (results are not steady-state)",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.child:
        child_main(json.loads(options.child))
        return 0
    if options.scale is None:
        options.scale = options.seconds / RUN_SECONDS
    if options.scale <= 0:
        parser.error("--scale/--seconds must be positive")
    names = [options.workload] if options.workload else CONTRACT_WORKLOADS
    if options.check_repeat:
        return check_repeat(names, options)
    results = run_set(names, options)
    append_records(options.out, results, options)
    print(final_line(results, single=options.workload is not None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
