"""No module of the package defines a private helper nobody uses.

A module-level function or class whose name starts with `_` counts as
used when some other top-level statement of any `src/posetcode/*.py`
names it: as a bare name, an attribute or an imported name.  References
inside its own definition, such as recursion, do not count.  Dunder
names such as a module's `__getattr__` are exempt: the interpreter
calls them, not the code.  The check reads each source file with `ast`
only, so it needs no linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "posetcode"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    """Every name a statement reads, including attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private top-level helper no other
    top-level statement of any module names."""
    statements = [
        (module, stmt)
        for module, text in sources.items()
        for stmt in ast.parse(text, filename=module).body
    ]
    out = []
    for module, stmt in statements:
        name = stmt.name if isinstance(stmt, DEFINITIONS) else ""
        dunder = name.startswith("__") and name.endswith("__")
        if name.startswith("_") and not dunder:
            if not any(name in _names(other) for _, other in statements if other is not stmt):
                out.append(f"{module}.{name}")
    return out


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    dead = _unreferenced(sources)
    assert not dead, f"private helpers never referenced: {', '.join(dead)}"


def test_check_flags_a_helper_used_only_by_itself():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b": "from .a import _used\n",
    }
    assert _unreferenced(sources) == ["a._dead"]


def test_check_exempts_module_dunders():
    sources = {"a": "def __getattr__(name):\n    pass\n\ndef _dead():\n    pass\n"}
    assert _unreferenced(sources) == ["a._dead"]
