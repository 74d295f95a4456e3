"""Source hygiene: every module uses each name it imports.

A stdlib-only stand-in for a linter's unused-import rule. ``__init__.py``
is exempt (its imports are the package's re-exports), and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import localfocus

SOURCES = sorted(p for p in Path(localfocus.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nprint(e)\n"
    assert unused_imports(src) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
