"""Runs ``scripts/dead_surface.py``: every class, function and method of
``src/repro/`` is reached from a root (or is a named test reference), every
``__all__`` entry resolves, and the package imports only the standard
library, itself and numpy — numpy from ``engine/columns.py`` alone, and
``repro.engine.columns`` from nowhere under ``repro/query/`` or
``repro/operators/``.

The planted-tree tests run a copy of the script against a small tree of
their own, one shape of dead surface or one breached layering rule each."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dead_surface.py"

MODULE = '''
def orphan():
    return 1


def parse(text):
    return helper(text)


def helper(text):
    return text.split()


class Engine:
    def run(self):
        return 2

    def debug(self):
        return 3
'''

TEST = '''
from repro.mod import Engine, parse


def test_it():
    assert parse("a b") == ["a", "b"]
    assert Engine().debug() == 3
'''

EXAMPLE = "from repro.mod import Engine\n\nEngine().run()\n"
#: An example that reaches every unit of ``MODULE``.
REACH_ALL = (
    "from repro.mod import Engine, orphan, parse\n\n"
    "Engine().run(), Engine().debug(), orphan(), parse('x')\n"
)


def test_no_public_surface_is_reached_only_by_tests():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


def gate(tmp_path, example=EXAMPLE, references=None, extra=None):
    """Run a copy of the gate over a planted tree: ``src/repro/mod.py``,
    its test, one example, ``references`` as the allow-list and ``extra``
    files (path -> text)."""
    files = {
        "README.md": "",
        "src/repro/__init__.py": "",
        "src/repro/mod.py": MODULE,
        "tests/test_mod.py": TEST,
        "examples/use.py": example,
        **(extra or {}),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    script = re.sub(
        r"REFERENCES = \{.*?\n\}\n",
        lambda _: f"REFERENCES = {references or {}!r}\n",
        SCRIPT.read_text(encoding="utf-8"),
        count=1,
        flags=re.S,
    )
    copy = tmp_path / "scripts" / "dead_surface.py"
    copy.parent.mkdir()
    copy.write_text(script, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(copy)], capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout.splitlines()


def unreached(lines):
    return sorted(
        line.partition("::")[2].split()[0] for line in lines if "reached from no root" in line
    )


def test_the_three_shapes_a_reference_count_missed_fail(tmp_path):
    """Referenced nowhere (``orphan``), reached only from an unreached src
    function (``helper``, behind ``parse``, which only a test calls), and a
    method of a reached class only a test calls (``Engine.debug``)."""
    code, lines = gate(tmp_path)
    assert code == 1
    assert unreached(lines) == ["Engine.debug", "helper", "orphan", "parse"]


def test_a_root_reaches_what_it_calls_and_what_that_calls(tmp_path):
    code, lines = gate(tmp_path, example=REACH_ALL)
    assert (code, lines) == (0, ["dead_surface: every unit is reached from a root"])


def test_a_named_test_reference_is_reached(tmp_path):
    example = "from repro.mod import Engine, orphan\n\nEngine().run(), Engine().debug(), orphan()\n"
    code, lines = gate(tmp_path, example=example, references={"parse": "test_mod: an oracle"})
    assert code == 0, lines


def test_a_reference_its_test_does_not_use_fails(tmp_path):
    example = "from repro.mod import Engine, parse\n\nEngine().run(), Engine().debug(), parse('x')\n"
    code, lines = gate(tmp_path, example=example, references={"orphan": "test_mod: an oracle"})
    assert code == 1
    assert lines == ["REFERENCES['orphan']: tests/test_mod.py does not use it"]


def test_a_reference_that_is_reached_anyway_fails(tmp_path):
    code, lines = gate(tmp_path, example=REACH_ALL, references={"parse": "test_mod: an oracle"})
    assert code == 1
    assert lines == ["REFERENCES['parse'] is reached without it: drop the entry"]


@pytest.mark.parametrize(
    "path, text, problem",
    [
        ("engine/ring.py", "import numpy\n", "imports numpy (only engine/columns.py may)"),
        (
            "query/model.py",
            "from repro.engine.columns import ChainColumn\n",
            "repro.query must not import repro.engine.columns",
        ),
        (
            "operators/join.py",
            "from repro.engine import columns\n",
            "repro.operators must not import repro.engine.columns",
        ),
    ],
    ids=["numpy-outside-columns", "query-imports-columns", "operators-import-columns"],
)
def test_each_layering_rule_fails_when_breached(tmp_path, path, text, problem):
    code, lines = gate(tmp_path, example=REACH_ALL, extra={f"src/repro/{path}": text})
    assert (code, lines) == (1, [f"src/repro/{path}: {problem}"])

