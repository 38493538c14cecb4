"""Runs ``scripts/dead_surface.py``: no public name of ``src/repro/`` is
reached only by its own tests, every ``__all__`` entry resolves, and the
package imports only the standard library, itself and numpy — numpy from
``engine/columns.py`` alone, and ``repro.engine.columns`` from nowhere under
``repro/query/``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dead_surface.py"


def test_no_public_surface_is_reached_only_by_tests():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
