"""Every name a module lists in __all__ exists in that module, and something
other than its own tests reads it: the library itself, the demos, the
benchmark (perfbench/) or the acceptance suite."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import d2dpower

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["d2dpower"] + [f"d2dpower.{info.name}" for info in
                          pkgutil.iter_modules(d2dpower.__path__)]
READERS = [*sorted((ROOT / "src" / "d2dpower").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def _read_names(paths):
    """Every name that paths' code reads, as a Name or an Attribute load."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_public_name_is_read_outside_the_unit_tests():
    assert all(path.is_file() for path in READERS) and len(READERS) > 10
    read = _read_names(READERS)
    unread = [f"{name}.{public}" for name in MODULES
              for public in getattr(importlib.import_module(name),
                                    "__all__", ())
              if public not in read]
    assert not unread
