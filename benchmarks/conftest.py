"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and, besides
the timing collected by pytest-benchmark, writes the regenerated rows/series
to ``benchmarks/results/<name>.txt`` so the reproduction data survives the
run (and can be diffed against EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def write_result(results_dir):
    """Write a named text artifact with the regenerated figure/table."""

    def _write(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _write
