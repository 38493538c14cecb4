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

from repro.core.chain_operators import OperatorJoinChain
from repro.engine.columns import ColumnarState, replay_sweep
from repro.runtime import engine as runtime_engine

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
def operator_chain(monkeypatch):
    """Context manager: time-window sessions build the operator pipeline.

    Inside it the one table a session picks its chain from
    (``repro.runtime.engine.CHAIN_KINDS``) names ``OperatorJoinChain`` — the
    chain a memory-budgeted session runs — instead of the cursor chain, so a
    reference session can be timed on the same per-slice states.
    """

    @contextmanager
    def _operator_chain():
        with monkeypatch.context() as patch:
            patch.setitem(runtime_engine.CHAIN_KINDS, "time", OperatorJoinChain)
            yield

    return _operator_chain


@pytest.fixture
def scalar_schedule(monkeypatch, operator_chain):
    """Context manager: a session's in-core slice states answer call by call.

    Inside it time-window sessions run the operator chain (``operator_chain``)
    and ``ColumnarState.sweep`` is ``replay_sweep`` — the scalar
    ``append``/``purge``/``probe`` schedule, one vectorized mask per male,
    which is the schedule spilled states always run.  The spill gate times
    its *reference* run under it: the ratio then compares the disk tier with
    the scan at equal schedule, and stays put when the in-core kernels move
    (PR 15 made the default path 1.5–2x faster, PR 18's cursor chain 2x
    again, and neither touched a cold slice).
    """

    @contextmanager
    def _scalar_schedule():
        with operator_chain(), monkeypatch.context() as patch:
            patch.setattr(ColumnarState, "sweep", replay_sweep)
            yield

    return _scalar_schedule
