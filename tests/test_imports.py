"""No module of the package imports a name it never uses.

Each import belongs to the innermost function around it, or to the
module.  A function's own imports must be read inside that function (a
nested function counts); the module's imports anywhere in the module.
So a function-local import is not excused by another function reading
the same name.  The check reads each source file with `ast` only, so it
needs no linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "posetcode"
MODULES = sorted(SRC.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(scope: ast.AST) -> dict[str, int]:
    """Each name an import statement of `scope` binds, with its line;
    the imports of nested functions are theirs, not the scope's."""
    out = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
        stack.extend(ast.iter_child_nodes(node))
    return out


def _used(scope: ast.AST) -> set[str]:
    """Every bare name read inside `scope`."""
    return {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}


def _unused(tree: ast.Module) -> list[str]:
    """`name (line n)` for each import its own scope never reads."""
    out = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]:
        used = _used(scope)
        out += [f"{name} (line {line})" for name, line in _imported(scope).items()
                if name not in used]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_check_flags_an_unused_import():
    assert len(MODULES) > 1
    tree = ast.parse("import os\nfrom sys import exit\n\nexit()\n")
    assert _unused(tree) == ["os (line 1)"]


def test_check_flags_an_unused_import_in_one_function():
    tree = ast.parse(
        "def reads():\n    from os import sep\n    return sep\n\n"
        "def ignores():\n    from os import sep\n    return 1\n"
    )
    assert _unused(tree) == ["sep (line 6)"]
