"""Every top-level import of the package is used or re-exported, and every
public function is reached.

Each module of ``src/qmatball`` is parsed with :mod:`ast`.  A name bound by
an ``import`` statement at module level must be read somewhere in that module
or be listed in its ``__all__``; an import kept for neither is dead code.  A
public module-level function must be reached from the package's own code or
imported by the package ``__init__``; one that only tests call belongs in a
test-side module, such as ``tests/dense_linalg.py``.
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


# Public functions that no src/ code calls, kept on purpose: the criteria
# certificates (every ``*_ok`` too), which the tests and the benchmark call,
# and the benchmark's independent oracle for the integral.
UNREACHED_ALLOWED = ("projector_pairing_rank", "integral_is_real", "integral_nu_trace")


def _names_read(node) -> set:
    """Every name read under node, as a Name or as an Attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_functions(sources: dict) -> list:
    """Public module-level functions of the modules other than ``__init__``
    that no code of the package reaches, as "module.name".

    The code outside public module-level functions (module statements,
    classes, private functions), the names the package ``__init__``
    imports and the functions kept on purpose (``UNREACHED_ALLOWED`` and
    every ``*_ok``) reach what they name; a reached function reaches what
    its own body names.  Names are matched without their module.
    """
    bodies, reached = {}, set()
    for mod, source in sources.items():
        for node in ast.parse(source).body:
            public = isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            if public and mod != "__init__":
                bodies.setdefault(node.name, []).append((mod, node))
            elif isinstance(node, ast.ImportFrom) and mod == "__init__":
                reached.update(a.name for a in node.names)
            else:
                reached |= _names_read(node)
    reached |= {name for name in bodies if name in UNREACHED_ALLOWED or name.endswith("_ok")}
    todo = list(reached & bodies.keys())
    while todo:
        for _, node in bodies[todo.pop()]:
            new = (_names_read(node) & bodies.keys()) - reached
            reached |= new
            todo.extend(new)
    return sorted(
        f"{mod}.{name}"
        for name, defs in bodies.items()
        if name not in reached
        for mod, _ in defs
    )


def test_every_public_function_is_reached():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreached_functions(sources) == []


def test_reach_checker_follows_calls_and_init_imports():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def dead():\n    return chained()\n"
            "def chained():\n    return dead()\n"
            "def _private():\n    return used_privately\n"
            "def used_privately():\n    pass\n"
            "def fold_ok():\n    return checked()\n"
            "def checked():\n    pass\n"
        ),
        "b": "import a\nx = a.called_by_attribute\n",
        "c": "def called_by_attribute():\n    pass\n",
    }
    assert unreached_functions(sources) == ["a.chained", "a.dead"]
