"""Every module of the package and of its tests uses each name it imports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kommute"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    TESTS.glob("test_*.py")
)


def unused_imports(source: str) -> set[str]:
    """
    The names an import in ``source`` binds, at any depth and under
    ``if TYPE_CHECKING:`` too, that no expression reads.  Names read in
    annotations count, written as strings or not.
    """
    tree = ast.parse(source)
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    parsed = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return bound - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == set()


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport os.path as p\nimport sys\nsys.exit()") == {"os", "p"}
    assert unused_imports("from __future__ import annotations\nfrom a import B, C\nx: B") == {"C"}
    assert unused_imports("from t import List, Set\ndef f(x: 'List[int]') -> 'Set': ...") == set()
    source = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import Y\n"
    assert unused_imports(source) == {"Y"}
