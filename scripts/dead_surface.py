#!/usr/bin/env python3
"""Dead-surface gate for CI (stdlib only; static, nothing is imported).

Counts, for every public top-level class/function under ``src/repro/``, the
identifier references outside its own definition (package ``__init__``
re-exports excluded) by area; the README's python blocks count as examples.
Fails on a name only ``tests/`` reference unless ``REFERENCES`` says which test
needs it, and on an unbound ``__all__`` entry.  ``--table`` prints all counts.

Also holds the package's layering: ``src/repro/`` imports only the standard
library, ``repro`` itself and numpy (the one declared dependency); numpy is
imported by ``engine/columns.py`` alone; and nothing under ``repro/query/``
imports ``repro.engine.columns``.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/repro")
AREAS = ("src", "examples", "benchmarks", "bench", "scripts", "tests")
DEFS = (ast.ClassDef, ast.FunctionDef)
LEFTOVERS = (  # tested by test_predicates, test_chain_specs
    "FunctionPredicate attribute_ge attribute_lt attribute_le attribute_eq workload_from_windows"
)
REFERENCES = {  # test-only names that stay, and the test that needs each
    "OneWayWindowJoin": "test_sliced_joins: Theorem 1, a one-way chain == the regular join",
    "brute_force_cpu_opt_chain": "test_chain_specs, test_property_optimizers: Dijkstra == it",
    "enumerate_chains": "test_chain_specs: the space the exhaustive search scans",
    "PassThrough": "test_plan_and_executors, test_engine_primitives: plan wiring, operator base",
    "ThetaJoinCondition": "test_cursor_chain, test_slice_state_protocol: maskless probe",
    "OperatorJoinChain": "test_cursor_chain: the per-item reference",
    **dict.fromkeys(
        LEFTOVERS.split(),
        "not a reference: caller-facing leftover outside the layers PR 17 audited (ROADMAP)",
    ),
}


def mentions(tree, aliases=True):
    """Every identifier a tree mentions: names, attributes, imported names."""
    kinds = (ast.Name, ast.Attribute, ast.alias) if aliases else (ast.Name, ast.Attribute)
    return Counter(
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name.rpartition(".")[2]
        for n in ast.walk(tree)
        if isinstance(n, kinds)
    )


def imported_modules(tree):
    """The dotted name of every absolute import in a tree (``from a.b import
    c`` counts as ``a.b`` and ``a.b.c``: ``c`` may be a module)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def layering_problems(where, tree):
    """Breaches of the import rules in the module docstring by one src module."""
    for module in sorted(set(imported_modules(tree))):
        top = module.partition(".")[0]
        if top == "numpy":
            if where != PACKAGE / "engine" / "columns.py":
                yield f"{where}: imports numpy (only engine/columns.py may)"
        elif top != "repro" and top not in sys.stdlib_module_names:
            yield f"{where}: imports {module!r}, neither stdlib, repro nor numpy"
        elif module == "repro.engine.columns" and PACKAGE / "query" in where.parents:
            yield f"{where}: repro.query must not import repro.engine.columns"


def main(argv):
    modules = {}  # repo-relative path -> (area, tree, identifier counts)
    for area in AREAS:
        for path in sorted((ROOT / area).rglob("*.py")):
            tree, reexports = ast.parse(path.read_text("utf-8")), path.name == "__init__.py"
            modules[path.relative_to(ROOT)] = (area, tree, mentions(tree, not reexports))
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    quickstart = ast.parse("\n".join(blocks))
    modules[Path("README.md")] = ("examples", quickstart, mentions(quickstart))
    problems = []
    for where, (own_area, tree, _) in modules.items():
        if PACKAGE not in where.parents:
            continue
        problems.extend(layering_problems(where, tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in mentions(node):
                bound = {n.name for n in tree.body if isinstance(n, DEFS)}
                bound.update(n.asname or n.name for n in ast.walk(tree) if isinstance(n, ast.alias))
                bound.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
                for name in sorted(set(ast.literal_eval(node.value)) - bound):
                    problems.append(f"{where}: __all__ entry {name!r} is not bound")
            if not isinstance(node, DEFS) or node.name[0] == "_":
                continue
            counts = Counter({own_area: -mentions(node)[node.name]})
            for area, _, found in modules.values():
                counts[area] += found[node.name]
            if "--table" in argv:
                print(where, node.name, *(f"{area}={counts[area]}" for area in AREAS))
            if counts["tests"] == sum(counts.values()) > 0 and node.name not in REFERENCES:
                problems.append(f"{where}::{node.name} is referenced only under tests/")
    print("\n".join(problems) or "dead_surface: every public name is reached or a reference")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
