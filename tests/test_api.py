"""Every name a module exports resolves, every name it imports is used,
no module imports random, the echelon engine holds no numpy, and vectors
and sparse matrices have one form each."""

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


def _random_imports(path) -> list:
    """Lines that import ``random`` or ``numpy.random``, or read
    ``np.random`` / ``numpy.random``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name in ("random", "numpy.random", "np.random") or name.startswith(
                ("random.", "numpy.random.")) for name in names):
            out.append(node.lineno)
    return out


def test_no_module_imports_random():
    """Every check in the package is exact: no module draws samples."""
    found = {name: _random_imports(Path(uce_lab.__file__).parent / f"{name}.py")
             for name in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def _exactlin_names_used(name) -> set:
    tree = ast.parse((Path(uce_lab.__file__).parent / "exactlin.py").read_text())
    node = next(n for n in tree.body if getattr(n, "name", None) == name)
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_echelon_holds_no_numpy():
    """Echelon rows are sparse dicts of Python numbers; a numpy reference in
    the class body would be a dense path beside them."""
    assert _exactlin_names_used("Echelon") & {"np", "numpy"} == set()


def test_smith_forms_hold_no_numpy():
    """Smith forms run on the same sparse rows of Python ints as Echelon."""
    for name in ("_smith", "snf", "snf_with_transforms"):
        assert _exactlin_names_used(name) & {"np", "numpy"} == set()


# the dense-list helpers that vectors as (index, value) pairs replaced
DENSE_HELPERS = {"bilinear", "_dense_map", "bracket_basis", "from_columns", "column_dense",
                 "_basis_brackets"}


def _dense_ring_vectors(path) -> list:
    """Lines that build a dense ring vector: a list or tuple holding a
    ``....zero`` multiplied by a length."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            out += [node.lineno for side in (node.left, node.right)
                    if isinstance(side, (ast.List, ast.Tuple))
                    and any(isinstance(e, ast.Attribute) and e.attr == "zero" for e in side.elts)]
    return out


@pytest.mark.parametrize("name", MODULES)
def test_no_module_builds_a_dense_ring_vector(name):
    """Every vector is a list of (index, value) pairs.  Dense lists only come
    in (the file format, ``SparseMat.from_dense``, the constructor arguments
    bar_unit, dmat, fmat and ``with_bar_unit(e)``) and go out
    (``dump_dialgebra``), and none of them is built from a ring's zero; no
    module is an exception."""
    path = Path(uce_lab.__file__).parent / f"{name}.py"
    assert _dense_ring_vectors(path) == []
    defined = {n.name for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert defined & DENSE_HELPERS == set()


def test_exactlin_has_one_product():
    """``multiply`` is the one product from structure constants."""
    exactlin = importlib.import_module("uce_lab.exactlin")
    assert not hasattr(exactlin, "bilinear") and "bilinear" not in exactlin.__all__
    assert "multiply" in exactlin.__all__ and "combine" in exactlin.__all__


def test_sparse_matrix_has_one_form():
    """A ``SparseMat`` is its list of columns: it has no ``entries`` slot,
    and no module reads an ``.entries`` attribute, which would be a
    {(row, col): value} dict beside the columns."""
    exactlin = importlib.import_module("uce_lab.exactlin")
    assert "entries" not in exactlin.SparseMat.__slots__
    reads = []
    for name in MODULES:
        path = Path(uce_lab.__file__).parent / f"{name}.py"
        reads += [f"{name}:{n.lineno}" for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Attribute) and n.attr == "entries"]
    assert reads == []
