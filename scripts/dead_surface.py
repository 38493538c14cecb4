#!/usr/bin/env python3
"""Dead-surface gate for CI (stdlib only; static, nothing is imported).

Surface is what a root reaches.  The units are every top-level class and
function under ``src/repro/`` and every method of those classes.  The roots
are the module-level statements of ``src/repro/`` (imports and ``__all__``
bookkeeping excluded: a re-export reaches nothing), every file under
``bench/``, ``benchmarks/`` and ``examples/``, ``scripts/profile_workload.py``,
the README's python blocks and the ``REFERENCES`` allow-list.  A name counts as
mentioned where it appears as a name, an attribute, an imported name or an
identifier string (``getattr(obj, "name")``).  A top-level unit is reached
when a root or a reached unit mentions its name; a method, when its class is
reached and its name is mentioned, or it is a dunder.  Every unit not reached
fails, and so does a ``REFERENCES`` entry that is reached anyway or whose
tests do not mention it.  ``--table`` prints each reached unit with what
reached it.  An unbound ``__all__`` entry fails too.

The walk matches names, not owners: a method of a reached class passes when
any reached code mentions its name, so a method that shares its name with
another class's called method passes however dead it is, and a dunder passes
with its class.  That is how the operators' scalar state protocol outlived
its last caller (``ColumnarState.probe`` passed on ``ChainColumn.probe``'s
name, ``purge`` / ``append`` / ``popleft`` on other classes').  Audit such
names by hand.

Also holds the package's layering: ``src/repro/`` imports only the standard
library, ``repro`` itself and numpy (the one declared dependency); numpy is
imported by ``engine/columns.py`` alone; and nothing under ``repro/query/``
or ``repro/operators/`` imports ``repro.engine.columns`` (the columns are the
cursor chain's; an operator keeps tuples).
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/repro")
ROOTS = ("bench", "benchmarks", "examples", "scripts/profile_workload.py")
#: Subpackages that must not import ``repro.engine.columns``.
COLUMN_FREE = ("query", "operators")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (ast.ClassDef, *FUNCTIONS)
REFERENCES = {  # units only tests reach, and the tests that use each as a reference or oracle
    "OneWayWindowJoin": "test_sliced_joins: Theorem 1, a one-way chain == the regular join",
    "brute_force_cpu_opt_chain": "test_chain_specs, test_property_optimizers: Dijkstra == it",
    "enumerate_chains": "test_chain_specs: the space the exhaustive search scans",
    "PassThrough": "test_plan_and_executors, test_engine_primitives: plan wiring, operator base",
    "ThetaJoinCondition": "test_cursor_chain, test_slice_state_protocol: maskless probe",
    "OperatorJoinChain": "test_cursor_chain: the per-item reference",
    "CountWindowJoin": "test_count_windows, test_columnar_equivalence: the regular count join",
}


def mentions(*nodes):
    """Every identifier the nodes mention: names, attributes, imported names
    and string constants that are identifiers."""
    found = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
            elif isinstance(n, ast.alias):
                found.add(n.name.rpartition(".")[2])
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                found.add(n.value)
    return found


def is_bookkeeping(node):
    """An import, or a statement that builds ``__all__``: it reaches nothing."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or any(
        isinstance(n, ast.Name) and n.id == "__all__" for n in ast.walk(node)
    )


def units_of(where, tree):
    """``{key: (name, owning class key or None, mentions)}`` of one module.
    A class owns the mentions of its decorators, bases and non-method
    statements; each method is a unit of its own."""
    units = {}
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        key = f"{where}::{node.name}"
        own = [node]
        if isinstance(node, ast.ClassDef):
            own = [*node.decorator_list, *node.bases, *node.keywords]
            for member in node.body:
                if isinstance(member, FUNCTIONS):
                    units[f"{key}.{member.name}"] = (member.name, key, mentions(member))
                else:
                    own.append(member)
        units[key] = (node.name, None, mentions(*own))
    return units


def walk(units, mentioned, forced=()):
    """Grow ``mentioned`` (name -> what mentioned it first) to the fixed point
    and return the reached units."""
    reached = set(forced)
    for key in forced:
        for name in units[key][2]:
            mentioned.setdefault(name, key)
    grew = True
    while grew:
        grew = False
        for key, (name, owner, found) in units.items():
            if key in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if (owner is None and name in mentioned) or (
                owner in reached and (dunder or name in mentioned)
            ):
                reached.add(key)
                for other in found:
                    mentioned.setdefault(other, key)
                grew = True
    return reached


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
        elif module == "repro.engine.columns":
            for part in COLUMN_FREE:
                if PACKAGE / part in where.parents:
                    yield f"{where}: repro.{part} must not import repro.engine.columns"


def unbound_exports(where, tree):
    """``__all__`` entries of one src module that the module does not bind."""
    bound = {n.name for n in tree.body if isinstance(n, DEFS)}
    bound.update(n.asname or n.name for n in ast.walk(tree) if isinstance(n, ast.alias))
    bound.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and is_bookkeeping(node):
            for name in sorted(set(ast.literal_eval(node.value)) - bound):
                yield f"{where}: __all__ entry {name!r} is not bound"


def root_trees():
    """``(label, tree)`` of every root outside ``src/``: the files under
    ``ROOTS`` and the README's python blocks."""
    for root in map(ROOT.joinpath, ROOTS):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root] if root.exists() else []:
            yield str(path.relative_to(ROOT)), ast.parse(path.read_text("utf-8"))
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    yield "README.md", ast.parse("\n".join(blocks))


def main(argv):
    problems, units, mentioned = [], {}, {}  # mentioned: name -> what mentioned it first
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        where, tree = path.relative_to(ROOT), ast.parse(path.read_text("utf-8"))
        problems.extend(layering_problems(where, tree))
        problems.extend(unbound_exports(where, tree))
        units.update(units_of(where, tree))
        body = [n for n in tree.body if not isinstance(n, DEFS) and not is_bookkeeping(n)]
        for name in mentions(*body):
            mentioned.setdefault(name, str(where))
    for label, tree in root_trees():
        for name in mentions(tree):
            mentioned.setdefault(name, label)

    qualified = {key.partition("::")[2]: key for key in units}
    for name, why in REFERENCES.items():
        if name not in qualified:
            problems.append(f"REFERENCES[{name!r}] names no unit of src/repro/")
        for test in why.partition(":")[0].split(", "):
            path = ROOT / "tests" / f"{test}.py"
            used = path.exists() and name.rpartition(".")[2] in mentions(ast.parse(path.read_text("utf-8")))
            if not used:
                problems.append(f"REFERENCES[{name!r}]: tests/{test}.py does not use it")
    reached = walk(units, mentioned)
    for name in sorted(REFERENCES.keys() & qualified.keys()):
        if qualified[name] in reached:
            problems.append(f"REFERENCES[{name!r}] is reached without it: drop the entry")
    forced = {qualified[name] for name in REFERENCES.keys() & qualified.keys()}
    reached = walk(units, mentioned, reached | forced)
    for key in units:
        if key not in reached:
            problems.append(f"{key} is reached from no root")
        elif "--table" in argv:
            name, owner, _ = units[key]
            print(key, "<-", mentioned.get(name, owner if owner else "REFERENCES"))
    print("\n".join(problems) or "dead_surface: every unit is reached from a root")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
