"""Every module-level import in src/adjvar is used (``__init__`` re-exports
its imports, so it is exempt)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "adjvar").glob("*.py")
    if p.name != "__init__.py"
)


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
