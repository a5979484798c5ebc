"""Checks on the package source and its public names, with the standard library only."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ultrapetal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither uses nor exports."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            exported.update(ast.literal_eval(stmt.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as "Dendrogram | None" names types too
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from . import model_f as mf\n"
        "from .umspace import Dendrogram, check_tree\n"
        "from .scales import ZERO\n"
        "def f(x: 'Dendrogram | None'):\n"
        "    return os.path.join('check_tree')\n"
        "__all__ = ['ZERO']\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: mf", "line 5: check_tree"]


def unhashed_eq_classes(source: str) -> list[str]:
    """Classes that define ``__eq__`` without binding ``__hash__``: Python sets it to None."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bound = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                bound.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        if "__eq__" in bound and "__hash__" not in bound:
            missing.append(f"line {node.lineno}: {node.name}")
    return missing


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_eq_classes_bind_hash(path):
    assert unhashed_eq_classes(path.read_text()) == []


def test_hash_check_sees_each_form():
    source = (
        "class A:\n"
        "    def __eq__(self, other): return True\n"
        "class B(int):\n"
        "    __hash__ = int.__hash__\n"
        "    def __eq__(self, other): return True\n"
        "class C:\n"
        "    def __eq__(self, other): return True\n"
        "    def __hash__(self): return 0\n"
        "class D:\n"
        "    def __hash__(self): return 0\n"
    )
    assert unhashed_eq_classes(source) == ["line 1: A"]


def package_imports(source: str) -> list[str]:
    """The package modules a source imports, at any depth, in ``ast.walk`` order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # the package is flat: a relative import names one of its modules
                base = f"ultrapetal.{base}" if base else "ultrapetal"
            names += [f"{base}.{alias.name}" for alias in node.names] if base == "ultrapetal" else [base]
    return [name.split(".")[1] for name in names if name.startswith("ultrapetal.")]


# a model module holds its primitives only: the extension, the finite
# embedding and the registry are built on the models and import them
PRIMITIVES = {"cells", "scales", "umspace"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem.startswith("model_")], ids=lambda p: p.name)
def test_model_modules_import_primitives_only(path):
    assert set(package_imports(path.read_text())) <= PRIMITIVES


def test_package_import_check_sees_each_form():
    source = (
        "import json, ultrapetal\n"
        "from fractions import Fraction\n"
        "from .scales import ZERO\n"
        "from . import cells, extension as ext\n"
        "import ultrapetal.petal\n"
        "from ultrapetal.umspace import FiniteUltraSpace\n"
        "from ultrapetal import model_f\n"
        "def f():\n"
        "    from .petal import F\n"
    )
    assert package_imports(source) == ["scales", "cells", "extension", "petal", "umspace", "model_f", "petal"]


@pytest.mark.parametrize("module", ["ultrapetal"] + [f"ultrapetal.{p.stem}" for p in MODULES if p.stem.startswith("model_")])
def test_public_names_resolve(module):
    # a name dropped from a module but left in its __all__ fails here
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
