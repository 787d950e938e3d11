import ast
import importlib
import pkgutil

import pytest

import gnnbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(gnnbench.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"gnnbench.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_every_package_import_resolves():
    with open(gnnbench.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(f"gnnbench.{module}"), name)
               or not hasattr(gnnbench, name)]
    assert missing == []
