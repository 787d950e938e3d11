import ast
import importlib
import pathlib
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


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = {"bench", "cli", "data", "models"}


def _perfbench_references():
    """``(module, name)`` for every gnnbench name ``perfbench/*.py`` reaches:
    ``from gnnbench import name`` (module None), and ``module.name`` or
    ``self.module.name`` for the modules perfbench imports."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "gnnbench":
                refs.update((None, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name):
                    module = base.id
                elif (isinstance(base, ast.Attribute)
                      and isinstance(base.value, ast.Name)
                      and base.value.id == "self"):
                    module = base.attr
                else:
                    continue
                if module in PERFBENCH_MODULES:
                    refs.add((module, node.attr))
    return refs


def _resolves(module, name):
    if module is not None:
        return hasattr(importlib.import_module(f"gnnbench.{module}"), name)
    if hasattr(gnnbench, name):
        return True
    try:
        importlib.import_module(f"gnnbench.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_reaches_resolves():
    # tier-1 runs perfbench only through its self-test, which never calls
    # e.g. cli.parse_config or models.prepare; a deletion could pass every
    # other test and still break the benchmark run
    refs = _perfbench_references()
    assert {("models", "prepare"), ("cli", "parse_config"),
            ("bench", "Instrumentation"), (None, "CooGraph")} <= refs
    missing = sorted(f"{m or 'gnnbench'}.{name}" for m, name in refs
                     if not _resolves(m, name))
    assert missing == []
