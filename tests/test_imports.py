"""Every module under src/kfaclab/, tests/ and tools/ reads each name it
imports, but for the names that ALLOWED keeps.

An AST scan, stdlib only: the names an import statement binds against the
names the module's code reads (a dotted import binds its first part).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for folder in ("src/kfaclab", "tests", "tools")
           for path in sorted((ROOT / folder).glob("*.py"))]
# imported for the benchmark alone (README, "Names kept for the benchmark")
ALLOWED = {"src/kfaclab/harness.py": {"sym_eig_min"}}


def unused_imports(source: str) -> list:
    """(line, name) of every name an import in source binds and no code
    reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nimport x.y\nnp.d = c + x.y\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    allowed = ALLOWED.get(path.relative_to(ROOT).as_posix(), set())
    assert [(line, name) for line, name in unused_imports(path.read_text())
            if name not in allowed] == []
