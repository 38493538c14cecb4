"""Shared trajectory writer for the ``BENCH_*.json`` artifacts.

Every perf acceptance gate (hash probing, live resharding,
sharded scale-out) records its measurements in a machine-readable JSON file
under ``benchmarks/results/``.  Historically each benchmark hand-rolled its
own ``json.dumps``/``write_text`` and clobbered the previous run; this
module gives them one schema and append-don't-clobber semantics, so the
performance *trajectory* of the repo survives across runs::

    {
      "schema": "bench-trajectory/v1",
      "benchmark": "<name>",
      "runs": [ {<run payload>, "recorded_at": "<utc iso>"}, ... ]
    }

A legacy single-run file (the pre-v1 flat payload) is absorbed as the first
run.  The files are run artifacts: git-ignored (so the tier-1 suite leaves
``git status`` clean) and uploaded by the CI ``bench-smoke`` job.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

SCHEMA = "bench-trajectory/v1"

#: Cap on retained runs per benchmark, newest kept.
MAX_RUNS = 25


def record_run(results_dir: Path, name: str, payload: dict, keep: int = MAX_RUNS) -> Path:
    """Append one run's measurements to ``BENCH_<name>.json``.

    ``payload`` is the benchmark's own dictionary (workload description,
    measured numbers, gates).  Existing runs are preserved — including a
    legacy flat-schema file, which is wrapped as the trajectory's first
    entry — and the history is trimmed to the newest ``keep`` runs.
    Returns the path written.
    """
    path = Path(results_dir) / f"BENCH_{name}.json"
    runs: list[dict] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = None
        if isinstance(existing, dict):
            if isinstance(existing.get("runs"), list):
                runs = [run for run in existing["runs"] if isinstance(run, dict)]
            else:
                runs = [existing]  # legacy single-run payload becomes run 0
    entry = dict(payload)
    entry.setdefault(
        "recorded_at", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    runs.append(entry)
    document = {"schema": SCHEMA, "benchmark": name, "runs": runs[-keep:]}
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
