"""Smoke test of ``scripts/profile_workload.py``; asserts nothing about speed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_workload.py"


def test_profile_workload_prints_a_rate_and_the_hot_rows():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "equi_shared", "--arrivals", "256", "--warm-s", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.strip().splitlines()
    assert header.startswith("# equi_shared: 2 quanta of 128 after 0.5 warm stream-seconds")
    assert "fastest-decile quantum rate" in header
    # The cursor kernel's frames are what the profile is for.
    assert any("chain.py" in row and "_slice_results" in row for row in rows)
    assert any("columns.py" in row and "(probe)" in row for row in rows)
    assert any("Ordered by: internal time" in row for row in rows)


def test_a_budgeted_workload_shows_the_same_kernel_and_the_tiers_read_back():
    """``equi_spill`` runs the cursor chain too; 3 warm stream-seconds put its
    state past the 512 KiB budget, so the log's read-back (``read``, or the
    bulk read of fixed-width records under it, ``_gather``) is among the rows."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "equi_spill", "--arrivals", "256", "--warm-s", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.strip().splitlines()
    assert any("chain.py" in row and "_slice_results" in row for row in rows)
    assert any("spill.py" in row and ("(read)" in row or "(_gather)" in row) for row in rows)
    assert not any("sliced_join.py" in row for row in rows)


def test_stages_prints_each_kernel_methods_share_of_the_quanta():
    """``--stages`` times ``KERNEL``'s methods over a third pass and prints a
    share per method, in that order, before the cProfile rows; a budgeted
    workload past its budget spends some of it reading the log back."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "equi_spill", "--stages", "--arrivals", "512", "--warm-s", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.strip().splitlines()
    stages = [row for row in rows if row.startswith("# stage ")]
    assert [row.split(":")[0] for row in stages] == [
        f"# stage {label}" for label in
        ("sweep", "purge_cut", "probe", "HitBlock.__init__", "RouteTable.route", "_thaw", "SpillLog.read")
    ]
    shares = {row.split(":")[0][8:]: float(row.split(": ")[1].split(" %")[0]) for row in stages}
    assert all(0 <= share <= 100 for share in shares.values())
    assert shares["purge_cut"] <= shares["sweep"] and shares["SpillLog.read"] <= shares["_thaw"]
    assert shares["probe"] > 0 and shares["RouteTable.route"] > 0 and shares["SpillLog.read"] > 0
    assert rows.index(stages[-1]) < min(i for i, row in enumerate(rows) if "Ordered by" in row)


def test_churn_replays_the_schedule_and_times_each_reshard_stage():
    """``--churn`` migrates before every quantum as ``bench/driver.py`` does:
    0.5 warm stream-seconds are 4 quanta, so the timed 32 hold the reshard
    before quantum 32 (2 -> 4 shards) and the profiled 32 the one before 64."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "churn", "--churn", "--arrivals", "4096", "--warm-s", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.strip().splitlines()
    assert header.startswith("# churn: 32 quanta of 128")
    stages = [row for row in rows if row.startswith("# ")]
    assert [row.split(":")[0] for row in stages] == [
        "# reshard", "# repartition", "# ingest_keyed_state", "# admission replay (add_query)"
    ]
    assert stages[0].startswith("# reshard: 1 calls, median ")
    assert stages[2].startswith("# ingest_keyed_state: 4 calls")  # one per new shard
    assert rows.index(stages[-1]) < min(i for i, row in enumerate(rows) if "Ordered by" in row)


def test_churn_needs_a_schedule():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "equi_shared", "--churn"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and "no churn schedule" in done.stderr
