"""Public-name bookkeeping: every exported name resolves to a real attribute
and has a caller.

Each ``heislab`` module that declares ``__all__`` must define every name it
lists, and every public name the package ``__init__`` imports from one of its
modules must be listed in that module's ``__all__``.  Every name the package
exports is used by one of its modules, a benchmark script or an acceptance
test, and no module imports a name it never uses.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heislab

_MODULES = sorted(m.name for m in pkgutil.iter_modules(heislab.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"heislab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"heislab.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(heislab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        listed = importlib.import_module(f"heislab.{node.module}").__all__
        public = [a.name for a in node.names if not a.name.startswith("_")]
        unlisted = sorted(set(public) - set(listed))
        assert not unlisted, f"heislab imports {unlisted} not in heislab.{node.module}.__all__"
        for alias in node.names:
            assert hasattr(heislab, alias.asname or alias.name)


_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "heislab"
_SRC_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _identifiers(node) -> set[str]:
    """Every name read or bound in ``node``, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _used_in_src() -> set[str]:
    """Identifiers of the package's modules, each top-level definition's own
    name left out of its body."""
    used = set()
    for path in _SRC_MODULES:
        for stmt in ast.parse(path.read_text()).body:
            names = _identifiers(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return used


def _used_in_bench() -> set[str]:
    """Identifiers of the benchmark scripts, plus the attributes ``spans.MEASURED``
    names as strings."""
    used = set()
    for path in (_ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text())
        used |= _identifiers(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MEASURED" for t in stmt.targets
            ):
                used |= {attr for _, attr in ast.literal_eval(stmt.value).values()}
    return used


def test_every_export_has_a_caller():
    tree = ast.parse((_SRC / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    acceptance = _identifiers(ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text()))
    used = _used_in_src() | _used_in_bench() | acceptance
    orphans = sorted(exported - used)
    assert not orphans, f"heislab exports {orphans}, which no module, benchmark or acceptance test uses"


@pytest.mark.parametrize("path", _SRC_MODULES, ids=lambda p: p.name)
def test_modules_import_only_names_they_use(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - read)
    assert not unused, f"{path.name} imports {unused} and never uses them"
