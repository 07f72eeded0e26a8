"""Static check: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import vqite

# The package __init__ imports to re-export, so only the other modules count.
MODULES = sorted(p for p in Path(vqite.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
