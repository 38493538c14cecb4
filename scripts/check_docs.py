#!/usr/bin/env python3
"""Documentation gate for CI (stdlib only).

Three checks, all required by the docs job in ``.github/workflows/ci.yml``:

1. **Link check** — every relative Markdown link in ``docs/*.md`` and
   ``README.md`` must resolve to an existing file, and a ``#fragment`` on a
   Markdown target must match a heading in that file (GitHub-style slugs).
   External (``http``/``https``/``mailto``) links are not fetched.

2. **Gate pointers** — every ``path.py::name`` (or ``path.py::Class::name``)
   in the same files must name a ``def`` or ``class`` of that file (a gate
   test, or the helper it uses), found with ``ast``.

3. **Module docstrings** — every module under ``src/repro/`` must open with
   a docstring; the docs manual points into the code, so an undocumented
   module is a dead end.

Exit status is non-zero with one line per finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for the hand-written Markdown here
#: (fenced code blocks are stripped first so example links are not checked).
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE = re.compile(r"```.*?```", re.DOTALL)
#: ``tests/test_x.py::name`` / ``tests/test_x.py::Class::name``, repo-relative.
POINTER = re.compile(r"([\w./-]+\.py)((?:::\w+)+)")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def github_slug(heading: str) -> str:
    """Approximate GitHub's heading-to-anchor slug."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)  # inline formatting
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """The anchor slugs a Markdown file exposes."""
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(match.group(1)) for match in HEADING.finditer(text)}


def check_links(files: list[Path]) -> list[str]:
    """Resolve every relative link (and Markdown fragment) in ``files``."""
    problems = []
    for source in files:
        text = FENCE.sub("", source.read_text(encoding="utf-8"))
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (source.parent / path_part).resolve()
            else:
                resolved = source.resolve()  # same-file fragment
            if not resolved.exists():
                problems.append(f"{source}: broken link -> {target}")
                continue
            if fragment and resolved.suffix == ".md":
                if github_slug(fragment) not in anchors_of(resolved):
                    problems.append(
                        f"{source}: missing anchor -> {target} "
                        f"(no heading slugs to '{fragment}' in {resolved.name})"
                    )
    return problems


def resolves(path: Path, names: list[str]) -> bool:
    """Whether ``names`` lead from the module at ``path`` to a def or class,
    each nested in the one before."""
    if not path.is_file():
        return False
    node = ast.parse(path.read_text(encoding="utf-8"))
    for name in names:
        node = next((child for child in node.body if isinstance(child, DEFS) and child.name == name), None)
        if node is None:
            return False
    return True


def check_pointers(files: list[Path]) -> list[str]:
    """Resolve every ``path.py::name`` pointer in ``files``."""
    problems = []
    for source in files:
        for match in POINTER.finditer(source.read_text(encoding="utf-8")):
            if not resolves(ROOT / match.group(1), match.group(2).split("::")[1:]):
                problems.append(f"{source}: dead pointer -> {match.group(0)}")
    return problems


def check_module_docstrings(package_dir: Path) -> list[str]:
    """Every module under ``package_dir`` must open with a docstring."""
    problems = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            problems.append(
                f"{path.relative_to(ROOT)}: missing module docstring"
            )
    return problems


def main() -> int:
    """Run the checks; print findings; return a process exit code."""
    docs = sorted((ROOT / "docs").glob("*.md"))
    if not docs:
        print("docs/: no Markdown files found", file=sys.stderr)
        return 1
    problems = check_links(docs + [ROOT / "README.md"])
    problems += check_pointers(docs + [ROOT / "README.md"])
    problems += check_module_docstrings(ROOT / "src" / "repro")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    checked = len(docs) + 1
    print(f"docs OK: {checked} Markdown files link- and pointer-checked, all modules documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
