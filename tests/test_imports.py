"""Every module-level import in src/adjvar is used (``__init__`` re-exports
its imports, so it is exempt), and so is every module-level private function
and class."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "adjvar").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in loaded]


def test_the_check_sees_an_unused_import():
    source = "from operator import add, mul\nimport struct\n\nprint(mul(2, 3))\n"
    assert unused_imports(source) == ["add", "struct"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(sources: dict) -> list:
    """(module, name) of each top-level ``def`` or ``class`` named ``_x``
    (not a dunder) whose name is loaded, or read as an attribute, nowhere in
    ``sources`` ({module: source}) outside its own definition."""
    loads = []  # (module, top-level statement, names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            loads.append((module, node, names))
    return [
        (module, node.name)
        for module, node, _ in loads
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names for _, other, names in loads if other is not node)
    ]


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _recursive(k):\n"
             "    return _recursive(k - 1) if k else 0\n\n\nclass _Lone:\n    pass\n",
        "b": "from a import _used\n\nprint(_used())\n",
    }
    assert unused_private_definitions(sources) == [("a", "_recursive"), ("a", "_Lone")]


def test_no_unused_private_definition():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unused_private_definitions(sources) == []
