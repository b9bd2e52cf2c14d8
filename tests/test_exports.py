"""Every exported name resolves: the package's imports and each module's
``__all__``, so a deleted definition cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gatemix

MODULES = sorted(m.name for m in pkgutil.iter_modules(gatemix.__path__))


def test_package_names_resolve():
    tree = ast.parse(Path(gatemix.__file__).read_text(encoding="utf-8"))
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [n for n in names if not hasattr(gatemix, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gatemix.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(exported) == len(set(exported))
