"""Every name a module exports through ``__all__`` exists, the package exports exactly the
README's library API, no module defines a name twice, and every private top-level name of
the package is used in the package."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hcderiv

MODULES = ["hcderiv"] + [
    f"hcderiv.{info.name}" for info in pkgutil.iter_modules(hcderiv.__path__)
]
ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "hcderiv").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def _readme_api():
    """The README's "Library API" list: each module with the names listed for it."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library API\n")[1]
    items = section.split("\n## ")[0].split("\n- ")[1:]
    return [re.findall(r"`([^`]+)`", item) for item in items]


def test_the_package_exports_exactly_the_library_api_of_the_readme():
    listed = _readme_api()
    names = [name for _, *names in listed for name in names]
    assert len(names) == len(set(names))
    assert set(hcderiv.__all__) - {"__version__"} == set(names)
    for module, *names in listed:
        defined = importlib.import_module(module)
        assert [n for n in names if getattr(defined, n) is not getattr(hcderiv, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_top_level_function_or_class_is_defined_twice(path):
    defined = [
        node.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert sorted({name for name in defined if defined.count(name) > 1}) == []


def test_every_private_top_level_name_is_loaded_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    private, loaded = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert private
    assert [(module, name) for module, name in private if name not in loaded] == []
