"""Every module-level import in src/adjvar is used (``__init__`` re-exports
its imports, so it is exempt), and so is every module-level private function
and class.  Every module-level public function and class is exported by
``__init__``, used in src, or allowed below with its reason.  Only bipoly.py
reads ``.denominator``.  The package's own imports keep the two engines
apart: ``LAYERS`` below."""

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


def unused_definitions(sources: dict, private: bool) -> list:
    """(module, name) of each top-level ``def`` or ``class`` named ``_x``
    (not a dunder) if ``private``, else not named ``_x``, whose name is
    loaded, or read as an attribute, nowhere in ``sources`` ({module: source})
    outside its own definition."""
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
        and node.name.startswith("_") == private and not node.name.startswith("__")
        and not any(node.name in names for _, other, names in loads if other is not node)
    ]


def unexported_unused_public_definitions(sources: dict) -> list:
    """(module, name) of each top-level public ``def`` or ``class`` that is
    used nowhere in ``sources`` and not imported by ``__init__.py``."""
    exported = {
        alias.asname or alias.name
        for node in ast.parse(sources.get("__init__.py", "")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return [
        (module, name)
        for module, name in unused_definitions(sources, private=False)
        if name not in exported
    ]


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _recursive(k):\n"
             "    return _recursive(k - 1) if k else 0\n\n\nclass _Lone:\n    pass\n",
        "b": "from a import _used\n\nprint(_used())\n",
    }
    assert unused_definitions(sources, private=True) == [("a", "_recursive"), ("a", "_Lone")]


def test_no_unused_private_definition():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unused_definitions(sources, private=True) == []


#: public definitions neither exported by __init__ nor used in src, each with
#: the reason it stays (perfbench/spans.py and perfbench/workloads.py reach
#: theirs by attribute, which an AST scan of src cannot see)
PUBLIC_ALLOWED = {
    ("bipoly.py", "poly_gcd"): "two-argument face of poly_gcd_list; "
    "tests/test_gcd.py and a perfbench span",
    ("bipoly.py", "reduce_mod_quadric"): "oracle for the mod-q tests; "
    "a perfbench span",
    ("folforms.py", "tangency_degree"): "public foliation API; a perfbench "
    "workload item, and family_degree's oracle in the tests",
    ("folforms.py", "same_foliation"): "public foliation API; a perfbench "
    "workload item, the demos and tests",
    ("folforms.py", "FolSampler"): "seeded forms for perfbench workloads, "
    "the demos and tests",
    ("parabolic.py", "lift_to_ambient"): "inverse of branch_to_levi, tested "
    "against it; a perfbench span",
    ("repcalc.py", "bundle_rank"): "oracle for Levi ranks in the tests; "
    "a perfbench span",
    ("weylgroup.py", "regular_index_oracle"): "independent check of "
    "dot_classify in the tests and in perfbench's bbw_sweep",
}


def test_the_check_sees_an_unused_public_definition():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a": "class Exported:\n    pass\n\n\ndef used():\n    return 1\n\n\n"
             "def lone():\n    return used()\n\n\ndef _private():\n    pass\n",
    }
    assert unexported_unused_public_definitions(sources) == [("a", "lone")]


def test_no_unexported_unused_public_definition():
    sources = {p.name: p.read_text() for p in PACKAGE}
    # equality, not inclusion: an entry that is used again must leave the list
    assert sorted(unexported_unused_public_definitions(sources)) == sorted(PUBLIC_ALLOWED)


def denominator_reads(sources: dict) -> list:
    """Sorted (module, top-level statement name) of each read of an attribute
    ``.denominator`` in ``sources`` ({module: source}) outside bipoly.py; a
    statement that is not a ``def`` or ``class`` is named ``<module>``."""
    return sorted({
        (module, getattr(node, "name", "<module>"))
        for module, source in sources.items() if module != "bipoly.py"
        for node in ast.parse(source).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "denominator"
    })


def test_the_check_sees_a_denominator_read():
    sources = {
        "bipoly.py": "def _cleared(c):\n    return c.denominator\n",
        "a": "def scale(c):\n    return c.numerator * c.denominator\n\n\n"
             "DEN = (1).denominator\n",
    }
    assert denominator_reads(sources) == [("a", "<module>"), ("a", "scale")]


def test_only_bipoly_clears_denominators():
    # bipoly alone decides what an exact number is and clears denominators
    # (``_is_exact``, ``_cleared``, ``_integer_multiple``)
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert denominator_reads(sources) == []


#: the Lie engine, the foliation engine, and the two modules that may import
#: both; every module of the package is in exactly one of them
LIE = {"rootsystem", "weylgroup", "parabolic", "repcalc", "bbw", "adjoint"}
FOLIATION = {"linalg", "bipoly", "witness", "folforms"}
FRONTS = {"cli", "__init__"}
#: modules that import nothing from the package
LEAVES = {"linalg", "witness"}

LAYERS = {
    "leaf": "imports from the package",
    "lie": "a Lie module imports a foliation module",
    "foliation": "a foliation module imports a Lie module",
    "both": "imports both engines",
}


def package_imports(source: str) -> set:
    """The package modules named by the imports of ``source``, relative or
    through ``adjvar``, at any depth (a function-level import counts)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").partition(".")[0] == "adjvar":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                out.add(module.partition(".")[0])
            else:
                out |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("adjvar.")}
    return out


def layer_violations(sources: dict) -> list:
    """Sorted (module, broken rule) over ``sources`` ({module name: source})."""
    out = []
    for module, source in sources.items():
        names = package_imports(source)
        broken = [
            module in LEAVES and bool(names),
            module in LIE and bool(names & FOLIATION),
            module in FOLIATION and bool(names & LIE),
            module not in FRONTS and bool(names & LIE) and bool(names & FOLIATION),
        ]
        out += [(module, rule) for rule, hit in zip(LAYERS.values(), broken) if hit]
    return sorted(out)


def test_the_check_sees_a_layer_broken():
    sources = {
        "linalg": "from .bipoly import BiPoly\n",
        "rootsystem": "from . import folforms\n",
        "bipoly": "def f():\n    from adjvar.weylgroup import simple_reflection\n",
        "tools": "import adjvar.repcalc\nfrom .folforms import PolyOneForm\n",
        "cli": "from .adjoint import section4_row\nfrom . import folforms as ff\n",
        "folforms": "from math import gcd\nfrom .bipoly import BiPoly\n",
    }
    assert layer_violations(sources) == sorted([
        ("linalg", LAYERS["leaf"]),
        ("rootsystem", LAYERS["lie"]),
        ("bipoly", LAYERS["foliation"]),
        ("tools", LAYERS["both"]),
    ])


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE} == LIE | FOLIATION | FRONTS


def test_the_package_keeps_its_layers():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert layer_violations(sources) == []
