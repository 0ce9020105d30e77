"""
Every module of the package and of its tests uses each name it imports, and
something reads each name the package defines.
"""

import ast
import re
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


def unread_private_names(sources: dict[str, str]) -> set[str]:
    """
    The module-level ``_names`` (functions, classes and assigned names) of
    the modules in ``sources``, {module: source}, that no module reads: by
    name in its own module, or as an attribute or an import in any.
    """
    defined, local, anywhere = set(), set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((module, n) for n in names if n[:1] == "_" and n[:2] != "__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                local.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                anywhere.update(a.name for a in node.names)
    return {f"{m}.{n}" for m, n in defined if (m, n) not in local and n not in anywhere}


def test_every_private_name_is_read():
    # a private helper that only the tests read is code nothing needs;
    # oracle._census stays, the scan reference the histogram tests compare with
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == {"oracle._census"}
    toy = {"a": "def _used(): ...\ndef _unused(): _used()\n_K, _L = 1, 2\nx = _K\n",
           "b": "from a import _L\n"}
    assert unread_private_names(toy) == {"a._unused"}


def _reads(node: ast.AST, strings: bool = False) -> set[str]:
    # the names ``node`` reads: loaded names, attributes and imports, and
    # with ``strings`` every string constant too (perfbench's tracer names
    # the functions it wraps in strings)
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.ImportFrom):
            names.update(a.name for a in part.names)
        elif strings and isinstance(part, ast.Constant) and isinstance(part.value, str):
            names.add(part.value)
    return names


def unread_public_names(sources: dict[str, str], readers: list[str], text: str) -> set[str]:
    """
    The top-level public functions and classes of the modules in
    ``sources``, {module: source}, that nothing reads outside their own
    body: no other statement of any of those modules, no source in
    ``readers`` (strings included) and no word of ``text``.
    """
    statements = [(m, node) for m, source in sources.items() for node in ast.parse(source).body]
    outside = set(re.findall(r"\w+", text)).union(
        *(_reads(ast.parse(source), strings=True) for source in readers)
    )
    unread = set()
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name[:1] == "_" or node.name in outside:
            continue
        if not any(node.name in _reads(other) for _, other in statements if other is not node):
            unread.add(f"{module}.{node.name}")
    return unread


def test_every_public_name_is_read():
    # a public function or class that neither the package, the README, the
    # acceptance suite nor the benchmark reads is code nothing needs;
    # blocks.is_block stays, the paper's block predicate that test_blocks tests
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    root = TESTS.parent
    readers = [p.read_text() for p in [TESTS / "test_acceptance.py", *root.glob("perfbench/*.py")]]
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert unread_public_names(sources, readers, readme) == {"blocks.is_block"}
    toy = {"a": "def used(): ...\ndef unread(): unread()\nclass C: ...\ndef _p(): C(used())\n",
           "b": "def wrapped(): ...\ndef told(): ...\n"}
    readers = ["import b\nTRACED = ('wrapped',)\n"]
    assert unread_public_names(toy, readers, "call `told()`") == {"a.unread"}
