"""Every top-level import of the package is used or re-exported.

Each module of ``src/qmatball`` is parsed with :mod:`ast`.  A name bound by
an ``import`` statement at module level must be read somewhere in that module
or be listed in its ``__all__``; an import kept for neither is dead code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmatball"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(node) -> list:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Module-level imported names that are neither read nor in __all__."""
    tree = ast.parse(source)
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | _exported(tree)
    return [name for name in imported if name not in kept]


def test_modules_found():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_dead_and_keeps_live_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as _re\n"
        "from math import gcd, lcm\n"
        "from .field import ONE\n"
        "__all__ = ['ONE']\n"
        "def f(x: gcd) -> int:\n"
        "    return _re.sub('a', 'b', x)\n"
    )
    assert unused_imports(source) == ["os", "lcm"]
