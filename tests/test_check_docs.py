"""Runs ``scripts/check_docs.py``: the repository's docs pass it, and a gate
pointer (``tests/….py::name``) that names nothing in its file is reported
like a broken link."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repository_passes():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "pointer-checked" in done.stdout


def test_a_dead_pointer_is_reported(tmp_path):
    check_docs = load_script()
    doc = tmp_path / "gates.md"
    doc.write_text(
        "**Gate.** `tests/test_check_docs.py::test_a_dead_pointer_is_reported`,\n"
        "`tests/test_runtime_engine.py::TestSelections::test_seventy_distinct_filters_each_get_a_verdict`,\n"
        "`tests/test_check_docs.py::test_that_was_renamed`,\n"
        "`tests/test_runtime_engine.py::TestSelections::load_script`.\n",
        encoding="utf-8",
    )
    assert check_docs.check_pointers([doc]) == [
        f"{doc}: dead pointer -> tests/test_check_docs.py::test_that_was_renamed",
        f"{doc}: dead pointer -> tests/test_runtime_engine.py::TestSelections::load_script",
    ]
