"""README's python blocks run as written, so its quickstart cannot rot.

A top-level ``print(...)`` whose last line ends in a comment must print
that comment's text.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _commented_prints(block: str) -> list:
    """The comment text of every top-level print call, in order."""
    lines = block.splitlines()
    out = []
    for stmt in ast.parse(block).body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
            if hash_:
                out.append(comment.strip())
    return out


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    printed = buf.getvalue().splitlines()
    expected = _commented_prints(BLOCKS[index])
    if expected:
        assert printed == expected
