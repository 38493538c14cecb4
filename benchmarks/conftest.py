"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and, besides
the timing collected by pytest-benchmark, writes the regenerated rows/series
to ``benchmarks/results/<name>.txt`` so the reproduction data survives the
run (and can be diffed against EXPERIMENTS.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.engine.columns import ColumnarState, replay_sweep

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


@pytest.fixture
def scalar_schedule(monkeypatch):
    """Context manager: in-core slice states answer ``sweep`` call by call.

    Inside it ``ColumnarState.sweep`` is ``replay_sweep`` — the scalar
    ``append``/``purge``/``probe`` schedule, one vectorized mask per male,
    which is the schedule indexed (``probe="hash"``) and spilled states
    always run.  The hash-probe and spill gates time their *reference* run
    under it: the ratio then compares the index, or the disk tier, with the
    scan at equal schedule, and stays put when the block kernel moves
    (PR 15 made the default path 1.5–2x faster and neither of those).
    """

    @contextmanager
    def _scalar_schedule():
        with monkeypatch.context() as patch:
            patch.setattr(ColumnarState, "sweep", replay_sweep)
            yield

    return _scalar_schedule
