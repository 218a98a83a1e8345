"""Every public name the package declares must resolve."""

import ast
import importlib
import inspect
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


# public settable parameters: every parameter but self of each callable a
# module exports in __all__; a new knob has to raise this ceiling on purpose
MAX_PUBLIC_PARAMETERS = 153


def _public_parameters():
    count = 0
    for name in MODULES:
        mod = importlib.import_module(f"dyboltz.{name}")
        for obj in map(mod.__dict__.get, getattr(mod, "__all__", ())):
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # exception classes built on a C type have none
                continue
            count += sum(p != "self" for p in params)
    return count


def test_public_parameter_count_does_not_grow():
    assert _public_parameters() <= MAX_PUBLIC_PARAMETERS
