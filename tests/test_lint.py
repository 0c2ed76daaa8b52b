"""Static checks of src/divshap with the standard library's ast: no module
imports a name it never uses, every entry of divshap.__all__ resolves, and
every module-level definition is named somewhere besides its definition.
They guard deletions, which otherwise leave dead imports, stale exports and
orphaned helpers behind without any test failing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import divshap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divshap"
MODULES = sorted(PACKAGE.glob("*.py"))
# where a use of a package name may live
SEARCHED = ("src", "tests", "demos", "benchmark")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import but `from __future__` ones."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: plain names, names inside string annotations,
    and the entries of __all__ (a re-export counts as a use)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for attr in ("annotation", "returns"):
            ann = getattr(node, attr, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_dead_and_live_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .a import B, C, D\n"
        "def f(x: 'C') -> int:\n"
        "    return np.zeros(1)\n"
        "__all__ = ['D']\n"
    )
    assert unused_imports(source) == [("os", 2), ("B", 3)]


def test_every_public_name_resolves():
    missing = [name for name in divshap.__all__ if not hasattr(divshap, name)]
    assert missing == []
    assert len(set(divshap.__all__)) == len(divshap.__all__)


def module_definitions(tree: ast.Module) -> list[str]:
    """Names a module binds at top level with def, class or assignment,
    dunder names (__all__, __version__) aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def dead_definitions(package_sources: dict[str, str], other_sources: list[str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level definition that no text names as a
    whole word besides its own definition: one occurrence in all sources."""
    texts = [*package_sources.values(), *other_sources]
    dead = []
    for module, source in package_sources.items():
        for name in module_definitions(ast.parse(source)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(t)) for t in texts) <= 1:
                dead.append((module, name))
    return dead


def test_every_definition_is_named_elsewhere():
    package = {p.name: p.read_text() for p in MODULES}
    others = [
        p.read_text()
        for d in SEARCHED
        for p in sorted((ROOT / d).rglob("*.py"))
        if p.parent != PACKAGE
    ]
    assert dead_definitions(package, others) == []


def test_dead_definition_check_sees_unnamed_helpers():
    package = {
        "a.py": "LIMIT = 3\n_CACHE: dict = {}\n__all__ = []\ndef used():\n    return LIMIT\nclass Orphan:\n    pass\n",
        "b.py": "def helper():\n    return 1\n",
    }
    dead = dead_definitions(package, ["from a import used\n"])
    assert dead == [("a.py", "_CACHE"), ("a.py", "Orphan"), ("b.py", "helper")]
