"""Import checks: no module of the package imports a name it never uses, and a
fresh import loads the whole package without the dataclasses module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import vqite

# The package __init__ imports to re-export, so only the other modules count.
MODULES = sorted(p for p in Path(vqite.__file__).parent.glob("*.py") if p.name != "__init__.py")
SRC = str(Path(vqite.__file__).parent.parent)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no other node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_stale_import():
    source = ("from __future__ import annotations\nimport sys\nimport os.path\n"
              "from os import path, sep as s\ns\nos\n")
    assert unused_imports(source) == ["line 2: sys", "line 4: path"]


@pytest.mark.parametrize("module", ["vqite", "vqite.cli"])
def test_fresh_import_builds_no_dataclass(module):
    # In a fresh interpreter the import loads every module of the package
    # (all but the CLI for `import vqite`) and never the dataclasses module,
    # whose class factory would cost every process its start-up time.
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {module}; print(*sys.modules)"
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True).stdout.split())
    package = {"vqite", *(f"vqite.{p.stem}" for p in MODULES)}
    assert {m for m in loaded if m.startswith("vqite")} == (
        package if module == "vqite.cli" else package - {"vqite.cli"})
    assert "dataclasses" not in loaded
