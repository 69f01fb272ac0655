"""Every name a module exports through __all__ must exist in it."""

import importlib
import pkgutil

import pytest

import pairemit

MODULES = ["pairemit"] + sorted(f"pairemit.{m.name}"
                                for m in pkgutil.iter_modules(pairemit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
