"""Every name a package module, or the suite's reference module, imports is
used in that module.

No linter ships with the test dependencies, so this is the unused-import
check, done with the standard library's ast module.
"""

import ast
from pathlib import Path

import pytest

import spherekink

MODULES = sorted(Path(spherekink.__file__).parent.glob("*.py")) + [
    Path(__file__).with_name("reference.py")]


def unused_imports(source: str) -> list:
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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_sees_plain_from_and_dotted_imports():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
           "x = np.zeros(3) * pi\n")
    assert unused_imports(src) == ["os (line 2)", "tau (line 4)"]
