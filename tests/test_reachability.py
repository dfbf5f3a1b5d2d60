"""The package holds only code that its commands or its documented API run.

A name-based reachability walk over ``src/lagc`` with ``ast``: it starts
from ``cli.main`` and every name in ``lagc.__all__`` and follows every
name and attribute name that a reached definition mentions, to every
top-level function, class and module-level assignment of that name in
any module.  A top-level definition the walk cannot reach is code that
no command and no API call runs; it belongs in the tests (see
``tests/spec.py``) or nowhere.  A name reaches every definition of that
name, so the walk may keep an unused definition but reports none that
some reached code names.

The frozen reference engine in ``tests/reference_engine.py`` must stay
independent of the code it checks: it imports nothing from the modules
an engine change edits, ``lagc.compose`` and ``lagc.localeval``, and
takes the paper's definitions from ``tests/spec.py``, not from ``lagc``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import lagc

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(lagc.__file__).resolve().parent

def _targets(stmt) -> list:
    """The names a module-level statement defines, if it is a definition."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [node.id for target in stmt.targets for node in ast.walk(target)
                if isinstance(node, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _mentions(tree) -> set:
    """Every name, attribute name and imported name inside ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def unreachable() -> list:
    """The top-level definitions of ``src/lagc`` the walk does not reach, as ``module.name``."""
    definitions = {}  # name -> [(module, statement)]
    roots = set(lagc.__all__) | {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _targets(stmt)
            for name in names:
                definitions.setdefault(name, []).append((path.stem, stmt))
            if not names and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                # module-level code other than a definition runs on import
                roots |= _mentions(stmt)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, stmt in definitions.get(name, ()):
            todo += _mentions(stmt) - seen
    return sorted(
        f"{module}.{name}"
        for name, places in definitions.items()
        if name not in seen and not (name.startswith("__") and name.endswith("__"))
        for module, _ in places
    )


def test_every_definition_is_reachable_from_the_cli_or_the_api():
    missing = unreachable()
    assert not missing, "unreachable definitions:\n  " + "\n  ".join(missing)


def test_the_reference_engine_shares_no_definition_with_the_engine():
    spec = ast.parse((TESTS / "spec.py").read_text(encoding="utf-8"))
    moved = {name for stmt in spec.body for name in _targets(stmt)}
    tree = ast.parse((TESTS / "reference_engine.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = {alias.name for alias in node.names}
            assert not modules & {"lagc.compose", "lagc.localeval"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lagc"):
            names = {alias.name for alias in node.names}
            assert node.module not in ("lagc.compose", "lagc.localeval"), node.module
            assert not names & {"compose", "localeval"}, node.module
            assert not names & moved, (node.module, sorted(names & moved))
