"""Every name a module exports resolves, and every name it imports is
used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import uce_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(uce_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"uce_lab.{name}")
    missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
    assert missing == []


def test_package_all_resolves():
    assert [a for a in uce_lab.__all__ if not hasattr(uce_lab, a)] == []


def _unused_imports(path) -> list:
    """Names a module binds by a module-level import and never reads; a
    name listed in ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_module_level_imports_are_used(name):
    path = Path(uce_lab.__file__).parent / f"{name}.py"
    assert _unused_imports(path) == []
