"""Unused-import guard for the package and the scripts.

Every name a module imports (``from __future__`` excluded) must be loaded
somewhere in that module as a plain ``Name``; ``mpmath.iv`` loads
``mpmath``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "qsign").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in loaded]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Iterable, Iterator\nx: Iterator\n") == [
        "line 1: os", "line 2: Iterable"]
    assert unused_imports("from __future__ import annotations\nimport mpmath\nmpmath.iv\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
