"""Every name a module of rmcfence imports is used in that module, and
no module imports `dataclasses`, `typing` or `inspect`: they and the
classes built with them cost a third of `import rmcfence.cli` without
bytecode."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rmcfence"
BANNED = ("dataclasses", "typing", "inspect")


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


def banned_imports(source):
    """(line, module) of each import of a `BANNED` module, at module level
    or inside a function."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.split(".")[0] in BANNED]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_banned_imports(path):
    assert banned_imports(path.read_text(encoding="utf-8")) == []


def test_banned_imports_are_found():
    source = (
        "import os, typing\n"
        "from .inspect import x\n"
        "def f(plan):\n"
        "    from dataclasses import replace\n"
        "    import inspect.foo\n"
        "    return replace(plan)\n"
    )
    assert banned_imports(source) == [(1, "typing"), (4, "dataclasses"), (5, "inspect.foo")]


@functools.cache
def loaded_by_cli_import():
    """The modules a fresh `python -S` has loaded after `import rmcfence.cli`."""
    code = "import sys, rmcfence.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_cli_import_loads_no_banned_module():
    loaded = loaded_by_cli_import()
    assert "rmcfence.cli" in loaded
    assert [m for m in BANNED if m in loaded] == []


def test_cli_import_does_not_load_argparse():
    assert "argparse" not in loaded_by_cli_import()


def test_plain_argv_does_not_load_argparse(tmp_path):
    """A plain `compile` and `check` read argv from the option table;
    only help and usage errors build the argparse parser."""
    code = (
        "import sys\n"
        "from rmcfence import cli\n"
        "src, plan = sys.argv[1:]\n"
        "codes = [cli.main(['compile', src, '--arch', 'armv7', '--out', plan]),\n"
        "         cli.main(['check', src, plan, '--arch', 'armv7'])]\n"
        "print('argparse' in sys.modules, codes)\n"
        "try:\n"
        "    cli.main(['compile', '-h'])\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
    )
    src = SRC.parent.parent / "corpus" / "mp.rmcir"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src), str(tmp_path / "p.json")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[:2] == ["OK", "False [0, 0]"]
    assert lines[2].startswith("usage: rmcfence compile [-h]") and lines[-1] == "exit 0"


def test_cli_import_does_not_load_the_checker():
    """Only `check` and `oracle` use `verify`; they import it when run."""
    loaded = loaded_by_cli_import()
    assert "rmcfence.cli" in loaded
    assert "rmcfence.verify" not in loaded
