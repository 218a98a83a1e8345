"""Every public name the package declares must resolve."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import dyboltz

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyboltz.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"dyboltz.{name}")
    assert [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)] == []


def test_package_imports_are_declared_exports():
    tree = ast.parse(pathlib.Path(dyboltz.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(dyboltz, name), name
        assert name in importlib.import_module(f"dyboltz.{module}").__all__, (module, name)
