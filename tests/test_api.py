"""Every name a module exports resolves, every name it imports is used,
and the echelon engine holds no numpy."""

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


def _unreferenced_private_names() -> list:
    """Private module-level functions, classes and constants of the package
    that nothing in it reads outside their own definition."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(Path(uce_lab.__file__).parent.glob("*.py"))}
    readers = {}   # name -> ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            readers.setdefault(name, set()).add(id(node))
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            out += [f"{mod}.{name}" for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and not readers.get(name, set()) - own]
    return out


def test_private_module_level_names_are_used():
    assert _unreferenced_private_names() == []


def test_echelon_holds_no_numpy():
    """Echelon rows are sparse dicts of Python numbers; a numpy reference in
    the class body would be a dense path beside them."""
    tree = ast.parse((Path(uce_lab.__file__).parent / "exactlin.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Echelon")
    used = {n.id for n in ast.walk(cls) if isinstance(n, ast.Name)}
    assert used & {"np", "numpy"} == set()
