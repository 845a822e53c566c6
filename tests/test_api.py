"""The public API: every exported name resolves, and every re-export is exported at home."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import saleval

MODULES = sorted(
    ["saleval"] + [m.name for m in pkgutil.walk_packages(saleval.__path__, "saleval.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if name == "saleval":
        assert exported is None  # the package re-exports; the test below covers it
        return
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what {name} does not define: {missing}"


@pytest.mark.parametrize("package", ["saleval", "saleval.harness"])
def test_every_package_import_is_in_its_defining_modules_all(package):
    init = Path(importlib.import_module(package).__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    checked = 0
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        assert node.level == 1, f"{package} imports from outside the package: {node.module}"
        home = importlib.import_module(f"{package}.{node.module}")
        for alias in node.names:
            assert alias.name in home.__all__, f"{package} imports {alias.name}, not in {home.__name__}.__all__"
            checked += 1
    assert checked > 0
