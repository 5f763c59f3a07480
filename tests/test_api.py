"""The public API: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import relaysim

MODULES = ["relaysim"] + [f"relaysim.{m.name}" for m in pkgutil.iter_modules(relaysim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
