"""Public-name bookkeeping: every exported name resolves to a real attribute.

Each ``heislab`` module that declares ``__all__`` must define every name it
lists, and every public name the package ``__init__`` imports from one of its
modules must be listed in that module's ``__all__``.
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
