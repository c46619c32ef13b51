"""Each module's `__all__` lists exactly its public functions and classes,
so a deleted name leaves no stale entry and a new one is not left out."""

import importlib
import inspect
import pkgutil

import pytest

import cosetcode

MODULES = sorted(m.name for m in pkgutil.iter_modules(cosetcode.__path__))


def _own(mod, obj):
    return (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_functions_and_classes(name):
    mod = importlib.import_module("cosetcode." + name)
    if name == "cli":  # the command-line front end is no library API
        assert not hasattr(mod, "__all__")
        return
    listed = set(mod.__all__)
    assert len(listed) == len(mod.__all__), "repeated entries"
    defined = {attr for attr, obj in vars(mod).items() if not attr.startswith("_") and _own(mod, obj)}
    assert {n for n in listed if _own(mod, getattr(mod, n, None))} == defined
    # the other entries are the module's constants: no missing name, no import
    for n in listed - defined:
        obj = getattr(mod, n)
        assert not (inspect.isfunction(obj) or inspect.isclass(obj) or inspect.ismodule(obj)), n


def test_package_all_resolves():
    assert all(hasattr(cosetcode, n) for n in cosetcode.__all__)
