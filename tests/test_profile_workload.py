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
    state past the 512 KiB budget, so the log's read-back is among the rows."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "equi_spill", "--arrivals", "256", "--warm-s", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.strip().splitlines()
    assert any("chain.py" in row and "_slice_results" in row for row in rows)
    assert any("spill.py" in row and "(read)" in row for row in rows)
    assert not any("sliced_join.py" in row for row in rows)

