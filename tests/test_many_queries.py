"""Smoke test of ``scripts/many_queries.py``; asserts nothing about speed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "many_queries.py"


def test_many_queries_prints_one_row_per_query_count():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--queries", "4", "8", "--arrivals", "256", "--warm", "512"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, rule, *rows = done.stdout.strip().splitlines()
    assert header.startswith("| Q (= slices) | set-up | one admit + remove | arrivals/s")
    assert rule.startswith("| --- |")
    assert [row.split("|")[1].strip() for row in rows] == ["4", "8"]
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[1].endswith(" ms") and cells[2].endswith(" ms")
        assert float(cells[4]) > 0  # results per arrival: the queries joined something


def test_many_queries_refuses_a_zero_query_count():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--queries", "0"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and "--queries must be >= 1" in done.stderr
