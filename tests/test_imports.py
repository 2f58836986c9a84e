"""Every name a module of rmcfence imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rmcfence"


def unused_imports(source):
    """(line, name) of each imported name the module never reads; a
    dotted `import a.b` binds and is used as `a`. `from __future__
    import ...` is a compiler directive, not a name, and is exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from dataclasses import dataclass, field\n"
        "from . import graph\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = graph.DEFAULT\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (3, "field")]
