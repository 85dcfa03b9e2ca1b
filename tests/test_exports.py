"""Every name a module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import d2dpower

MODULES = ["d2dpower"] + [f"d2dpower.{info.name}" for info in
                          pkgutil.iter_modules(d2dpower.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
