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


SRC = pathlib.Path(gnnbench.__file__).parent


def _private_reaches(path):
    """``module._name`` for every underscore name ``path`` imports from, or
    reads off, another gnnbench module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> gnnbench module it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("gnnbench")):
            module = (node.module or "").removeprefix("gnnbench").lstrip(".")
            for alias in node.names:
                if not module and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_reaches_another_modules_private_names():
    # a private name has one home: the module that defines it
    found = {f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in _private_reaches(path)}
    assert found == set()


def test_package_root_exports_only_what_the_benchmark_imports():
    # the root re-exports nothing the benchmark does not import from it;
    # every other name has one home, gnnbench.<module>
    with open(gnnbench.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    exported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    from_root = {name for module, name in _perfbench_references()
                 if module is None}
    assert exported <= from_root
