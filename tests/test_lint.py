"""Static checks of src/divshap with the standard library's ast: no module
imports a name it never uses, and every entry of divshap.__all__ resolves.
They guard deletions, which otherwise leave dead imports and stale exports
behind without any test failing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import divshap

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "divshap"
MODULES = sorted(PACKAGE.glob("*.py"))


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
